//! `spawn-churn`: process-per-request on one long-lived kernel.
//!
//! Four closed-loop clients share one `KaffeOs`. Each sends its next
//! request — a fresh process from the seeded mix of `guests/` — as soon as
//! its previous one has exited. Guest execution is ~100 µs per request, so
//! what a request costs is what the host pays to create and reap a
//! process; and because the kernel's tables only grow, that cost depends on
//! how many processes the kernel has already seen. The same driver, with
//! another configuration, is the kernel probe of `slo-scenarios`.

use std::time::Instant;

use kaffeos::{ExitStatus, KaffeOs, KaffeOsConfig, Pid, SpawnOpts};

use crate::gen::{self, Image, Request};
use crate::harness::{Counters, Part, Plan, Round, Workload};
use crate::pace::Pacer;
use crate::spans::{Tracer, NONE};
use crate::stats::{self, Digest};

pub const PAGE: &str = include_str!("guests/page.cup");
pub const FLAKY: &str = include_str!("guests/flaky.cup");
pub const SPIN: &str = include_str!("guests/spin.cup");

/// The guest images, in registration order.
pub const GUESTS: [(&str, &str); 3] = [("page", PAGE), ("flaky", FLAKY), ("spin", SPIN)];

/// Requests of one full-size round. The seed kernel serves 250 in ~2.7 s
/// (400 take 6 s, 120 take 0.8 s: the cost is superlinear), and 250 is
/// enough for a true 95th percentile inside every round.
const REQUESTS: u64 = 250;
/// Concurrent closed-loop clients.
const CLIENTS: usize = 4;
/// Requests at the head of a round left out of `churn_slope`.
const WARMUP: usize = 20;
/// Memory limit of a request process.
const MEM_LIMIT: u64 = 2 << 20;
/// CPU budget of `spin`, in virtual cycles: four scheduler quanta.
const SPIN_CPU_LIMIT: u64 = 200_000;

/// What `guests/page.cup` returns for request `i`, computed independently.
pub fn page_checksum(i: i64) -> i64 {
    let mut rows: Vec<i64> = (0..64).map(|j| (i * 37 + j * 101) % 997).collect();
    rows.sort_unstable();
    let mut page = format!("<html><body><h1>page {i}</h1>");
    for row in &rows[..16] {
        page.push_str(&format!("<p>row {row}</p>"));
    }
    page.push_str("</body></html>");
    page.len() as i64 * 1000 + rows[7]
}

/// True if `status` is how `request` must end.
fn ended_as_dictated(request: Request, status: &ExitStatus) -> bool {
    match request.image {
        Image::Page => *status == ExitStatus::Exited(page_checksum(request.arg)),
        Image::Flaky => matches!(status, ExitStatus::UncaughtException { .. }) && !status.is_oom(),
        Image::Spin => *status == ExitStatus::CpuLimitExceeded,
    }
}

fn spawn(os: &mut KaffeOs, request: Request) -> Pid {
    let opts = SpawnOpts {
        mem_limit: Some(MEM_LIMIT),
        cpu_limit: (request.image == Image::Spin).then_some(SPIN_CPU_LIMIT),
        ..SpawnOpts::default()
    };
    os.spawn_with(request.image.name(), &request.arg.to_string(), opts)
        .expect("a registered image spawns within the user budget")
}

/// Serves `mix` on a fresh kernel configured as `config`.
pub fn serve(mix: &[Request], config: KaffeOsConfig, tr: &mut Tracer, keep: bool) -> Round {
    let started = Instant::now();
    let mut os = tr.span("core.new", NONE, || KaffeOs::new(config));
    for (image, source) in GUESTS {
        tr.span("core.register_image", NONE, || {
            os.register_image(image, source)
        })
        .expect("guest images compile");
    }

    let mut walls_us = vec![0.0; mix.len()];
    let mut digest = Digest::new();
    let mut in_flight: Vec<(Pid, usize, Instant)> = Vec::with_capacity(CLIENTS);
    let mut next = 0;
    let mut failed = 0;
    let mut last_report = None;
    while next < mix.len() || !in_flight.is_empty() {
        while in_flight.len() < CLIENTS && next < mix.len() {
            let sent = Instant::now();
            let pid = tr.span("core.spawn", next as u32, || spawn(&mut os, mix[next]));
            in_flight.push((pid, next, sent));
            next += 1;
        }
        last_report = Some(tr.span("core.run", NONE, || os.run_until_exit(None)));
        let seen = Instant::now();
        in_flight.retain(|&(pid, index, sent)| {
            let Some(status) = os.status(pid) else {
                return true;
            };
            walls_us[index] = (seen - sent).as_secs_f64() * 1e6;
            if !ended_as_dictated(mix[index], &status) {
                failed += 1;
            }
            digest.u64(index as u64);
            digest.i64(status.wait_code());
            false
        });
    }
    let report = last_report.expect("a round serves at least one request");
    digest.u64(report.clock);
    let counters = Counters::harvest(&os, &report);
    digest.u64(counters.ops);
    let kernel = if keep {
        Some(os)
    } else {
        tr.span("core.drop", NONE, || drop(os));
        None
    };
    let wall_s = started.elapsed().as_secs_f64();

    let mut round = Round {
        wall_s,
        requests: mix.len() as u64 - failed,
        attempted: mix.len() as u64,
        failed,
        parts: vec![Part {
            label: "all",
            work_m: counters.ops as f64 / 1e6,
            wall_s,
        }],
        slope: Some(stats::slope(&walls_us, WARMUP, 10)),
        req_walls_us: walls_us,
        digest: digest.finish(),
        kernel,
        ..Round::default()
    };
    round.set_counters(counters);
    round
}

/// Median paced `core.spawn` span of the rounds `tr` recorded, in µs.
fn spawn_p50_us(tr: &Tracer) -> f64 {
    stats::median(&tr.durations_ns("core.spawn", |s| s.round != NONE)) / 1e3
}

pub struct Churn {
    mix: Vec<Request>,
}

impl Churn {
    pub fn new(plan: &Plan) -> Self {
        Churn {
            mix: gen::churn_mix(plan.seed, plan.scale(REQUESTS) as usize),
        }
    }
}

impl Workload for Churn {
    fn sources(&self) -> Vec<(&'static str, &'static str)> {
        GUESTS.to_vec()
    }

    fn config(&self) -> KaffeOsConfig {
        KaffeOsConfig::default()
    }

    fn round(&mut self, _slot: u32, tr: &mut Tracer, keep: bool) -> Round {
        serve(&self.mix, KaffeOsConfig::default(), tr, keep)
    }

    fn extras(&mut self, run: &Tracer, pacer: &mut Pacer) -> Vec<(String, f64)> {
        // What the per-spawn re-analysis costs: the spawns of the traced
        // rounds against the same mix served with `elide` off (on a private
        // tracer, so those spans stay out of the run's own).
        let with = spawn_p50_us(run);
        let mut tr = Tracer::new();
        tr.set_on(true);
        tr.set_round(0);
        let config = KaffeOsConfig {
            elide: false,
            ..KaffeOsConfig::default()
        };
        serve(&self.mix, config, &mut tr, false);
        tr.pace(pacer.lap().slowdown());
        let without = spawn_p50_us(&tr);

        // What the three observability planes cost when switched on.
        let head = &self.mix[..self.mix.len().min(200)];
        let mut off = Tracer::new();
        let planes_off =
            serve(head, KaffeOsConfig::default(), &mut off, false).wall_s / pacer.lap().slowdown();
        let config = KaffeOsConfig {
            trace: true,
            profile: true,
            heapprof: true,
            ..KaffeOsConfig::default()
        };
        let planes_on = serve(head, config, &mut off, false).wall_s / pacer.lap().slowdown();
        vec![
            ("analyze.spawn_share".to_string(), 1.0 - without / with),
            ("trace.planes_on_ratio".to_string(), planes_on / planes_off),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_checksum_matches_a_hand_computed_page() {
        // i = 0: row j is (j * 101) % 997, which is j % 10 * 101 + j / 10 * 13
        // for j < 64; the 16 smallest, written out by hand:
        let page = "<html><body><h1>page 0</h1><p>row 0</p><p>row 13</p><p>row 26</p>\
                    <p>row 39</p><p>row 52</p><p>row 65</p><p>row 78</p><p>row 101</p>\
                    <p>row 114</p><p>row 127</p><p>row 140</p><p>row 153</p><p>row 166</p>\
                    <p>row 179</p><p>row 202</p><p>row 215</p></body></html>";
        assert_eq!(page_checksum(0), page.len() as i64 * 1000 + 101);
    }

    /// The digest is a function of the inputs alone: two kernels fed the
    /// same mix agree, with or without spans, and a guest that ends any
    /// other way than its image dictates would be counted as failed.
    #[test]
    fn a_tiny_round_repeats_its_digest_and_fails_nothing() {
        let mix = gen::churn_mix(1, 20);
        let mut off = Tracer::new();
        let a = serve(&mix, KaffeOsConfig::default(), &mut off, false);
        let mut on = Tracer::new();
        on.set_on(true);
        let b = serve(&mix, KaffeOsConfig::default(), &mut on, true);
        assert_eq!((a.failed, b.failed), (0, 0));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts["core.procs_total"], 20);
        assert!(a.kernel.is_none() && b.kernel.is_some());
        assert_eq!(
            on.spans().iter().filter(|s| s.name == "core.spawn").count(),
            20
        );
        // Another seed is another mix and another digest.
        let c = serve(
            &gen::churn_mix(2, 20),
            KaffeOsConfig::default(),
            &mut off,
            false,
        );
        assert_eq!(c.failed, 0);
        assert_ne!(a.digest, c.digest);
    }
}
