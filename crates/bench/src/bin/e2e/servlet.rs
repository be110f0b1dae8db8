//! `servlet-dos`: the Figure 4 headline point — 20 servlets, one KaffeOS
//! process each, answering a fixed client load while a MemHog is killed by
//! its memlimit and restarted over and over.
//!
//! An untraced round is one call of the shipped
//! `run_servlet_experiment`. The shipped driver owns its kernel, so a traced
//! round runs [`replica`] instead: the same loop over the public kernel
//! API, with a span around every call. The two must produce the same
//! `ServletOutcome`; the harness compares their digests every run.
//!
//! Individual client requests are served inside guest loops and cannot be
//! timed from outside, so the request wall of this workload is amortised:
//! one sample per round, round wall ÷ requests served.

use std::time::Instant;

use kaffeos::{CauseCounts, ExitCause, KaffeOs, KaffeOsConfig, Pid};
use kaffeos_workloads::servlet::{MEMHOG_SOURCE, SERVLET_SOURCE};
use kaffeos_workloads::{run_servlet_experiment, Deployment, ServletOutcome, ServletParams};

use crate::gen;
use crate::harness::{Counters, Part, Plan, Round, Workload};
use crate::pace::Pacer;
use crate::spans::{Tracer, NONE};
use crate::stats::Digest;

const SERVLETS: usize = 20;
/// Client requests of one full-size round before the seed's jitter:
/// ~0.45 s and ~15 hog restarts on the seed host.
const REQUESTS: u64 = 2000;
/// Modelled clock of the paper's testbed: virtual cycles per virtual second.
const CYCLES_PER_SECOND: f64 = 500e6;

// The shipped driver's private constants (crates/workloads/src/servlet.rs).
const CHUNK_CYCLES: u64 = 20_000_000;
const SERVLET_HEAP: u64 = 8 << 20;

pub struct Servlet {
    params: ServletParams,
}

impl Servlet {
    pub fn new(plan: &Plan) -> Self {
        let mut params = ServletParams::figure4(Deployment::KaffeOsProcs, SERVLETS, true);
        params.total_requests =
            gen::servlet_requests(plan.seed, plan.scale(REQUESTS), SERVLETS as u64);
        Servlet { params }
    }
}

fn kernel_config(params: &ServletParams) -> KaffeOsConfig {
    KaffeOsConfig {
        default_process_limit: SERVLET_HEAP,
        user_budget: params.machine.ram_bytes,
        ..KaffeOsConfig::default()
    }
}

/// `run_kaffeos` of the shipped driver, call for call, with spans. Returns
/// the kernel and its counters beside the outcome.
fn replica(params: &ServletParams, tr: &mut Tracer) -> (ServletOutcome, Counters, KaffeOs) {
    let config = kernel_config(params);
    let mut os = tr.span("core.new", NONE, || KaffeOs::new(config));
    for (image, source) in [("servlet", SERVLET_SOURCE), ("memhog", MEMHOG_SOURCE)] {
        tr.span("core.register_image", NONE, || {
            os.register_image(image, source)
        })
        .expect("the shipped servlet images compile");
    }
    let n = params.servlets as u64;
    let servlets: Vec<Pid> = (0..n)
        .map(|i| {
            let share = params.total_requests / n + u64::from(i < params.total_requests % n);
            tr.span("core.spawn", i as u32, || {
                os.spawn("servlet", &share.to_string(), Some(SERVLET_HEAP))
            })
            .expect("servlet spawns")
        })
        .collect();
    let spawn_hog = |os: &mut KaffeOs, tr: &mut Tracer| {
        tr.span("core.spawn", NONE, || {
            os.spawn("memhog", "", Some(SERVLET_HEAP))
        })
        .expect("memhog spawns")
    };
    let mut memhog = params.with_memhog.then(|| spawn_hog(&mut os, tr));
    let mut memhog_restarts = 0;
    let mut restart_causes = CauseCounts::default();
    let report = loop {
        let deadline = os.clock() + CHUNK_CYCLES;
        let report = tr.span("core.run", NONE, || os.run(Some(deadline)));
        if let Some(hog) = memhog {
            if !os.is_alive(hog) {
                restart_causes.note(os.status(hog).map_or(ExitCause::Killed, |s| s.cause()));
                memhog = Some(spawn_hog(&mut os, tr));
                memhog_restarts += 1;
            }
        }
        if servlets.iter().all(|&pid| !os.is_alive(pid)) {
            break report;
        }
    };
    if let Some(hog) = memhog {
        let _ = tr.span("core.kill", NONE, || os.kill(hog));
    }
    let requests_served = servlets
        .iter()
        .map(|&pid| os.stdout(pid).iter().filter(|l| l.as_str() == "r").count() as u64)
        .sum();
    let cycles = os.clock() + params.machine.vm_startup_cycles;
    let outcome = ServletOutcome {
        virtual_seconds: kaffeos_heap::costs::cycles_to_seconds(cycles),
        vm_restarts: 0,
        memhog_restarts,
        requests_served,
        restart_causes,
    };
    // The counters come from the last scheduler report; the final kill only
    // marks the hog as dying.
    let counters = Counters::harvest(&os, &report);
    (outcome, counters, os)
}

/// One round on either driver, judged the same way.
fn round_of(params: &ServletParams, tr: &mut Tracer, keep: bool) -> Round {
    let started = Instant::now();
    let (outcome, counters, kernel) = if tr.is_on() {
        let (outcome, counters, os) = replica(params, tr);
        let kernel = if keep {
            Some(os)
        } else {
            tr.span("core.drop", NONE, || drop(os));
            None
        };
        (outcome, Some(counters), kernel)
    } else {
        (run_servlet_experiment(*params), None, None)
    };
    let wall_s = started.elapsed().as_secs_f64();

    let mut digest = Digest::new();
    digest.u64(outcome.virtual_seconds.to_bits());
    digest.u64(u64::from(outcome.vm_restarts));
    digest.u64(u64::from(outcome.memhog_restarts));
    digest.u64(outcome.requests_served);
    digest.str(&outcome.restart_causes.render());

    // Every request must be answered, and when a hog runs it must have been
    // killed at least once — by its own memlimit, which the kernel reports
    // as an out-of-memory exit — and nobody else with it.
    let hog_contained = !params.with_memhog
        || (outcome.memhog_restarts > 0
            && outcome.restart_causes.get(ExitCause::Oom) == u64::from(outcome.memhog_restarts));
    let served = outcome.requests_served.min(params.total_requests);
    let failed = if hog_contained {
        params.total_requests - served
    } else {
        params.total_requests
    };
    let mut round = Round {
        wall_s,
        requests: params.total_requests - failed,
        attempted: params.total_requests,
        failed,
        parts: vec![Part {
            label: "all",
            work_m: outcome.virtual_seconds * CYCLES_PER_SECOND / 1e6,
            wall_s,
        }],
        req_walls_us: vec![wall_s * 1e6 / params.total_requests as f64],
        digest: digest.finish(),
        kernel,
        ..Round::default()
    };
    if let Some(c) = counters {
        round.set_counters(c);
    }
    let restarts = u64::from(outcome.memhog_restarts);
    round
        .counts
        .insert("workloads.memhog_restarts".into(), restarts);
    round
        .notes
        .push(("workloads.memhog_restarts".into(), restarts as f64));
    round
}

impl Workload for Servlet {
    fn sources(&self) -> Vec<(&'static str, &'static str)> {
        vec![("servlet", SERVLET_SOURCE), ("memhog", MEMHOG_SOURCE)]
    }

    fn config(&self) -> KaffeOsConfig {
        kernel_config(&self.params)
    }

    fn round(&mut self, _slot: u32, tr: &mut Tracer, keep: bool) -> Round {
        round_of(&self.params, tr, keep)
    }

    /// What the attack costs the well-behaved servlets: the same load with
    /// and without the MemHog, three rounds each, on the shipped driver.
    fn extras(&mut self, _run: &Tracer, pacer: &mut Pacer) -> Vec<(String, f64)> {
        let mut off = Tracer::new();
        let mut alone = self.params;
        alone.with_memhog = false;
        let mut rate = |params: &ServletParams| {
            let mut rates: Vec<f64> = (0..3)
                .map(|_| {
                    let round = round_of(params, &mut off, false);
                    round.requests as f64 / (round.wall_s / pacer.lap().slowdown())
                })
                .collect();
            rates.sort_by(f64::total_cmp);
            rates[1]
        };
        let with_hog = rate(&self.params);
        let without_hog = rate(&alone);
        vec![
            ("workloads.servlet_nohog_req_per_s".to_string(), without_hog),
            (
                "workloads.hog_tax".to_string(),
                1.0 - with_hog / without_hog,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replica exists only to carry spans; it must be the shipped
    /// driver in every observable respect.
    #[test]
    fn replica_matches_the_shipped_driver() {
        let mut params = ServletParams::figure4(Deployment::KaffeOsProcs, 4, true);
        params.total_requests = 80;
        let mut off = Tracer::new();
        let shipped = round_of(&params, &mut off, false);
        let mut on = Tracer::new();
        on.set_on(true);
        let replayed = round_of(&params, &mut on, false);
        assert_eq!(shipped.digest, replayed.digest);
        assert_eq!((shipped.failed, replayed.failed), (0, 0));
        assert_eq!(shipped.requests, 80);
        assert_eq!(
            shipped.counts["workloads.memhog_restarts"],
            replayed.counts["workloads.memhog_restarts"]
        );
        assert!(on.spans().iter().any(|s| s.name == "core.kill"));
    }
}
