//! Order statistics, drift ratios and the output digest.
//!
//! Everything here is a pure function of its arguments, so the metric
//! definitions in the README can be checked by the unit tests below.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of the values an iterator yields.
pub fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<f64>>())
}

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// The tail percentile a sample of size `n` supports: the highest whole
/// percentile, at most 95, that still has at least ten samples beyond it;
/// the median when no percentile above it does.
pub fn tail_percentile(n: usize) -> u32 {
    (51..=95)
        .rev()
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(50)
}

/// The tail of `values`: their [`tail_percentile`], which for a sample too
/// small to have a tail is the median proper (not its nearest-rank form, so
/// that a tail never reads below the median reported beside it).
pub fn tail(values: &[f64]) -> f64 {
    match tail_percentile(values.len()) {
        50 => median(values),
        pct => percentile(values, pct),
    }
}

/// Drift of a sequence of walls of identical work: the median of the last
/// `1/parts` of the samples divided by the median of the first `1/parts`,
/// after `warmup` leading samples are dropped. 1.0 means no drift.
pub fn slope(walls: &[f64], warmup: usize, parts: usize) -> f64 {
    let (first, last) = end_medians(walls, warmup, parts);
    last / first
}

/// `(median of the first 1/parts, median of the last 1/parts)` of `walls`
/// after dropping `warmup` leading samples. The warm-up is only dropped
/// when at least `parts` samples remain after it.
pub fn end_medians(walls: &[f64], warmup: usize, parts: usize) -> (f64, f64) {
    let body = if walls.len() >= warmup + parts {
        &walls[warmup..]
    } else {
        walls
    };
    let k = (body.len() / parts).max(1);
    (median(&body[..k]), median(&body[body.len() - k..]))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a, 64 bit: the `virt_digest` every workload folds its virtual
/// outputs into. Not cryptographic; it only has to make a changed output
/// visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Strings are length-prefixed so adjacent fields cannot run together.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // p95 of 220 samples is rank 209, leaving 11 beyond; of 219, rank
        // 209 too, leaving exactly 10.
        assert_eq!(tail_percentile(220), 95);
        assert_eq!(tail_percentile(200), 95);
        // 199 samples: p95 is rank 190, 9 beyond; p94 is rank 188, 11 beyond.
        assert_eq!(tail_percentile(199), 94);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(30), 66);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(8), 50);
        for n in 21..400 {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_of_a_small_sample_is_its_median() {
        assert_eq!(tail(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(tail(&v), 238.0); // rank ceil(250 * 0.95)
    }

    #[test]
    fn slope_compares_last_and_first_deciles_after_warmup() {
        // 20 warm-up samples of 1000, then 100 samples rising 1..=100.
        let mut walls = vec![1000.0; 20];
        walls.extend((1..=100).map(f64::from));
        let (first, last) = end_medians(&walls, 20, 10);
        assert_eq!(first, 5.5); // median of 1..=10
        assert_eq!(last, 95.5); // median of 91..=100
        assert_eq!(slope(&walls, 20, 10), 95.5 / 5.5);
        // Flat walls do not drift.
        assert_eq!(slope(&[2.0; 50], 20, 10), 1.0);
    }

    #[test]
    fn slope_of_a_short_sequence_uses_single_samples() {
        // Fewer samples than warm-up + parts: nothing is dropped and each
        // end is one sample.
        assert_eq!(end_medians(&[4.0, 5.0, 8.0], 20, 10), (4.0, 8.0));
        // Thirds of six rounds after one warm-up round: [2,3,4,5,6] -> 1 each.
        assert_eq!(
            end_medians(&[9.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1, 3),
            (2.0, 6.0)
        );
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_fields_and_repeats() {
        let mut a = Digest::new();
        a.str("ab");
        a.str("c");
        let mut b = Digest::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.str("ab");
        c.str("c");
        assert_eq!(a.finish(), c.finish());
    }
}
