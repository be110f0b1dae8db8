//! The host's pace: how fast this machine is *right now*.
//!
//! The benchmark's host is a small shared VM whose speed changes under it.
//! Measured while this benchmark was written (README, "Noise"): identical
//! work runs 25–35 % slower for stretches of 2–15 s, the quiet level itself
//! moves by another 20 % over minutes, and at times everything runs at half
//! speed for longer than a whole run. Process CPU time moves with wall
//! time, so it is the execution speed that changes, not the scheduling of
//! this process. No statistic of raw walls repeats between runs under that.
//!
//! So every time this benchmark reports — end-to-end walls and the spans
//! behind the per-layer metrics alike — is divided by the host's slowdown
//! over the stretch of the run it was measured in: a fixed, serially
//! dependent integer loop is timed between the stretches, and its time
//! relative to what the reference host needs is the factor. The loop is
//! part of the benchmark, never touches the product, and compiles to the
//! same code on every commit, so a change to the product moves the times
//! and not the yardstick. Raw times stay in the result file and the spans.

use std::time::Instant;

/// Steps of the reference loop.
const STEPS: u64 = 4_000_000;

/// The reference host, by definition: one step of the loop takes it 1.8 ns.
/// Reported times are host time *at that pace*. As with the reference
/// machine of a SPEC ratio the choice is free — both sides of every
/// comparison are divided by it — and 1.8 ns is what the build host of this
/// repository does when quiet, so reported seconds read close to the raw
/// ones recorded beside them.
const REFERENCE_NS_PER_STEP: f64 = 1.8;

/// What the reference loop takes on the reference host.
const REFERENCE_S: f64 = STEPS as f64 * REFERENCE_NS_PER_STEP / 1e9;

/// Times the reference loop once: xorshift steps, each needing the one
/// before it, so the time follows the core's speed and nothing else.
fn reference_s() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// The host's slowdown at the two ends of one stretch of a run: 1.0 at the
/// reference pace, 1.3 when everything takes 30 % longer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    pub start: f64,
    pub end: f64,
}

impl Lap {
    /// The slowdown the stretch's times are divided by.
    pub fn slowdown(self) -> f64 {
        (self.start + self.end) / 2.0
    }
}

/// Times the reference loop between the stretches of a run.
pub struct Pacer {
    last_s: f64,
}

impl Pacer {
    pub fn start() -> Self {
        Pacer {
            last_s: reference_s(),
        }
    }

    /// Ends the stretch that began at the previous timing: the reference
    /// timings at its two ends, each over the reference host's.
    pub fn lap(&mut self) -> Lap {
        let now_s = reference_s();
        let lap = Lap {
            start: self.last_s / REFERENCE_S,
            end: now_s / REFERENCE_S,
        };
        self.last_s = now_s;
        lap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lap_spans_two_timings_and_its_slowdown_is_their_mean() {
        let mut pacer = Pacer {
            last_s: REFERENCE_S * 2.0,
        };
        let lap = pacer.lap();
        assert_eq!(lap.start, 2.0);
        assert_eq!(lap.end, pacer.last_s / REFERENCE_S);
        assert_eq!(lap.slowdown(), (2.0 + lap.end) / 2.0);
        // The next stretch begins where this one ended.
        assert_eq!(pacer.lap().start, lap.end);
    }
}
