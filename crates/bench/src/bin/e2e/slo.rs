//! `slo-scenarios`: the six shipped multi-tenant scenarios.
//!
//! One round is the six scenarios run once each through the shipped
//! `run_scenario`, every one on a kernel of its own (booted inside the
//! call, `elide: false` as shipped). The rounds cycle through
//! [`SEEDS`] consecutive scenario seeds starting at `--seed`; a scenario
//! report is a pure function of (scenario, seed), so every repeat of an
//! input set must reproduce its first report byte for byte.
//!
//! The load is open loop in *virtual* time; the host sees one call per
//! scenario. Its request wall is therefore amortised — call wall ÷ requests
//! completed, one sample per call — and guest work is counted in virtual
//! cycles (the report's `clock=`), not ops. The kernel-call split of a
//! process-per-request load comes from [`Workload::probe`]: the
//! `spawn-churn` driver on the scenarios' configuration.

use std::time::Instant;

use kaffeos::KaffeOsConfig;
use kaffeos_workloads::{run_scenario, SCENARIOS};

use crate::churn;
use crate::gen;
use crate::harness::{Part, Plan, Round, Workload};
use crate::spans::Tracer;
use crate::stats::Digest;

/// Consecutive scenario seeds the rounds cycle through.
const SEEDS: u32 = 4;
/// Requests of the kernel probe.
const PROBE_REQUESTS: u64 = 250;

/// The configuration `scenario.rs` boots its kernels with.
fn scenario_config() -> KaffeOsConfig {
    KaffeOsConfig {
        elide: false,
        ..KaffeOsConfig::default()
    }
}

pub struct Slo {
    plan: Plan,
}

impl Slo {
    pub fn new(plan: &Plan) -> Self {
        Slo { plan: *plan }
    }
}

/// The virtual clock a scenario report ends at (`end=… clock=…`).
fn final_clock(report_text: &str) -> Option<u64> {
    report_text
        .lines()
        .find_map(|l| l.split_once(" clock="))
        .and_then(|(_, clock)| clock.trim().parse().ok())
}

impl Workload for Slo {
    /// The scenarios' own images are private to `scenario.rs`; the set-up
    /// kernel registers the benchmark's guests, which are the same three
    /// programs (page, uncaught exception, spin).
    fn sources(&self) -> Vec<(&'static str, &'static str)> {
        churn::GUESTS.to_vec()
    }

    fn config(&self) -> KaffeOsConfig {
        scenario_config()
    }

    fn slots(&self) -> u32 {
        if self.plan.quick {
            1
        } else {
            SEEDS
        }
    }

    fn round(&mut self, slot: u32, tr: &mut Tracer, _keep: bool) -> Round {
        let seed = self.plan.seed.wrapping_add(u64::from(slot));
        let mut round = Round {
            attempted: SCENARIOS.len() as u64,
            ..Round::default()
        };
        let mut digest = Digest::new();
        let (mut procs, mut rejected, mut restarts) = (0, 0, 0);
        let mut virtual_cycles = 0;
        let started = Instant::now();
        for (i, name) in SCENARIOS.iter().enumerate() {
            let t = Instant::now();
            let report = tr
                .span("workloads.run_scenario", i as u32, || {
                    run_scenario(name, seed)
                })
                .expect("a shipped scenario name");
            let wall_s = t.elapsed().as_secs_f64();
            digest.str(&report.text);
            let completed: u64 = report.tenants.iter().map(|t| t.completed).sum();
            for t in &report.tenants {
                procs += t.stats.admitted + t.stats.restarts;
                rejected += t.stats.rejected_cap + t.stats.rejected_breaker + t.stats.rejected_shed;
                restarts += t.stats.restarts;
            }
            match final_clock(&report.text) {
                // A scenario that completes nothing has lost its load.
                Some(clock) if completed > 0 => {
                    round.requests += completed;
                    round.req_walls_us.push(wall_s * 1e6 / completed as f64);
                    virtual_cycles += clock;
                }
                _ => round.failed += 1,
            }
            round
                .notes
                .push((format!("workloads.scenario_ms.{name}"), wall_s * 1e3));
            round.notes.push((
                format!("workloads.scenario_requests.{name}"),
                completed as f64,
            ));
        }
        round.wall_s = started.elapsed().as_secs_f64();
        round.parts.push(Part {
            label: "all",
            work_m: virtual_cycles as f64 / 1e6,
            wall_s: round.wall_s,
        });
        round.digest = digest.finish();
        round.counts.insert("core.procs_total".into(), procs);
        round
            .notes
            .push(("core.tenant_rejected".into(), rejected as f64));
        round
            .notes
            .push(("core.tenant_restarts".into(), restarts as f64));
        round
    }

    fn probe(&mut self, tr: &mut Tracer) -> Option<Round> {
        let mix = gen::churn_mix(self.plan.seed, self.plan.scale(PROBE_REQUESTS) as usize);
        Some(churn::serve(&mix, scenario_config(), tr, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_clock_reads_the_report_header() {
        let text = "scenario=memhog seed=3\nend=250000000 clock=300123456\ntenant=hog\n";
        assert_eq!(final_clock(text), Some(300_123_456));
        assert_eq!(final_clock("scenario=x seed=1\n"), None);
    }
}
