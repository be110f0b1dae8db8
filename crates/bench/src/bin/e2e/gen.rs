//! Seed → inputs. Every workload's inputs are a pure function of
//! `--seed`; the programs under test only ever see what is generated
//! here, never the seed itself.

/// SplitMix64: small, fast, and good enough to shuffle request mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The three guest images of the churn mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Image {
    /// Renders a page and exits with its checksum.
    Page,
    /// Dies on an uncaught exception.
    Flaky,
    /// Spins until its `cpu_limit` kills it.
    Spin,
}

impl Image {
    pub fn name(self) -> &'static str {
        match self {
            Image::Page => "page",
            Image::Flaky => "flaky",
            Image::Spin => "spin",
        }
    }
}

/// One client request of the churn workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub image: Image,
    /// The guest's `main(int)` argument (ignored by `spin`).
    pub arg: i64,
}

/// Requests per mix block: 16 page (80 %), 3 flaky (15 %), 1 spin (5 %).
const BLOCK: [Image; 20] = {
    let mut b = [Image::Page; 20];
    b[16] = Image::Flaky;
    b[17] = Image::Flaky;
    b[18] = Image::Flaky;
    b[19] = Image::Spin;
    b
};

/// The churn request sequence: every block of 20 holds the mix in exact
/// proportion, so the amount of work does not depend on the seed; the seed
/// decides the order inside each block and every argument.
pub fn churn_mix(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x6368_7572_6e00);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = BLOCK;
        rng.shuffle(&mut block);
        for image in block {
            if out.len() == n {
                break;
            }
            out.push(Request {
                image,
                arg: rng.below(100_000) as i64,
            });
        }
    }
    out
}

/// The order the spec programs of one round run in.
pub fn program_order(seed: u64, programs: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..programs).collect();
    Rng::new(seed ^ 0x7370_6563).shuffle(&mut order);
    order
}

/// Client requests of one servlet round: `base` plus up to 5 % more, in
/// steps of one request per servlet.
pub fn servlet_requests(seed: u64, base: u64, servlets: u64) -> u64 {
    let steps = (base / 20 / servlets).max(1);
    base + servlets * Rng::new(seed ^ 0x7365_7276).below(steps + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_a_pure_function_of_the_seed() {
        assert_eq!(churn_mix(7, 250), churn_mix(7, 250));
        assert_ne!(churn_mix(7, 250), churn_mix(8, 250));
        assert_eq!(program_order(3, 4), program_order(3, 4));
        assert_eq!(servlet_requests(5, 2000, 20), servlet_requests(5, 2000, 20));
    }

    #[test]
    fn mix_proportions_do_not_depend_on_the_seed() {
        for seed in 0..20 {
            let mix = churn_mix(seed, 240);
            let count = |img| mix.iter().filter(|r| r.image == img).count();
            assert_eq!(count(Image::Page), 192);
            assert_eq!(count(Image::Flaky), 36);
            assert_eq!(count(Image::Spin), 12);
            // A prefix is the same sequence, cut short.
            assert_eq!(churn_mix(seed, 50), mix[..50]);
        }
    }

    #[test]
    fn program_order_is_a_permutation() {
        for seed in 0..20 {
            let mut order = program_order(seed, 4);
            order.sort_unstable();
            assert_eq!(order, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn servlet_requests_split_evenly_and_stay_near_base() {
        for seed in 0..50 {
            let r = servlet_requests(seed, 2000, 20);
            assert!((2000..=2100).contains(&r), "{r}");
            assert_eq!(r % 20, 0);
        }
    }
}
