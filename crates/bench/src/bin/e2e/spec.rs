//! `spec-compute` and `spec-alloc`: the SPEC JVM98 analogues of Figure 3,
//! split by what bounds them.
//!
//! One round runs every program of the workload once, each on a fresh
//! kernel with the "KaffeOS, No Heap Pointer" platform of `fig3` — the
//! same steps as `kaffeos_workloads::run_spec`, written out here so that
//! each call into the kernel gets its span. A program run is the
//! workload's *request*; its wall is spawn + run, as `run_spec` times it.
//! JIT compilation happens inside that wall: users pay it on every run.

use std::time::Instant;

use kaffeos::{BarrierKind, ExitStatus, KaffeOs, KaffeOsConfig};
use kaffeos_workloads::{all_benchmarks, platforms, PlatformKind, SpecBenchmark};

use crate::gen;
use crate::harness::{Counters, Part, Plan, Round, Workload};
use crate::spans::{Tracer, NONE};
use crate::stats::Digest;

/// Iterations per program, sized so each takes ~0.33 s on the seed host
/// and a round about a second (wall is linear in `n`).
const COMPUTE: [(&str, u64); 3] = [("compress", 300), ("mpegaudio", 15), ("mtrt", 90)];
const ALLOC: [(&str, u64); 4] = [("jess", 300), ("db", 300), ("javac", 220), ("jack", 800)];

pub struct Spec {
    /// `(program, iterations)`, in the paper's order.
    programs: Vec<(SpecBenchmark, i64)>,
    /// The order a round runs them in, drawn from the seed.
    order: Vec<usize>,
}

impl Spec {
    pub fn compute(plan: &Plan) -> Self {
        Self::new(plan, &COMPUTE)
    }

    pub fn alloc(plan: &Plan) -> Self {
        Self::new(plan, &ALLOC)
    }

    fn new(plan: &Plan, sizes: &[(&str, u64)]) -> Self {
        let programs: Vec<(SpecBenchmark, i64)> = sizes
            .iter()
            .map(|&(name, n)| {
                let bench = all_benchmarks()
                    .into_iter()
                    .find(|b| b.name == name)
                    .expect("a shipped spec program");
                (bench, plan.scale(n) as i64)
            })
            .collect();
        Spec {
            order: gen::program_order(plan.seed, programs.len()),
            programs,
        }
    }
}

/// The default KaffeOS column of Figure 3.
fn platform_config() -> KaffeOsConfig {
    platforms()
        .into_iter()
        .find(|p| p.kind == PlatformKind::KaffeOs(BarrierKind::NoHeapPointer))
        .expect("fig3 has a No Heap Pointer platform")
        .config()
}

/// What one program run left behind.
struct ProgramRun {
    wall_s: f64,
    checksum: Option<i64>,
    clock: u64,
    counters: Counters,
}

/// Runs `bench` for `n` iterations on a fresh kernel and hands that kernel
/// back with the results.
fn run_program(
    bench: &SpecBenchmark,
    n: i64,
    request: u32,
    tr: &mut Tracer,
) -> (ProgramRun, KaffeOs) {
    let mut os = tr.span("core.new", request, || KaffeOs::new(platform_config()));
    tr.span("core.register_image", request, || {
        os.register_image(bench.name, bench.source)
    })
    .unwrap_or_else(|e| panic!("{} does not compile: {e}", bench.name));
    let started = Instant::now();
    let pid = tr
        .span("core.spawn", request, || {
            os.spawn(bench.name, &n.to_string(), None)
        })
        .expect("a registered image spawns");
    let report = tr.span("core.run", request, || os.run(None));
    let wall_s = started.elapsed().as_secs_f64();
    let checksum = match os.status(pid) {
        // A negative checksum is the program's own error signal.
        Some(ExitStatus::Exited(v)) if v >= 0 => Some(v),
        _ => None,
    };
    let run = ProgramRun {
        wall_s,
        checksum,
        clock: report.clock,
        counters: Counters::harvest(&os, &report),
    };
    (run, os)
}

impl Workload for Spec {
    fn sources(&self) -> Vec<(&'static str, &'static str)> {
        self.programs
            .iter()
            .map(|(b, _)| (b.name, b.source))
            .collect()
    }

    fn config(&self) -> KaffeOsConfig {
        platform_config()
    }

    /// One default-`n` run of every program, together on the set-up kernel.
    fn warm_up(&self, os: &mut KaffeOs, tr: &mut Tracer) {
        let pids: Vec<_> = self
            .programs
            .iter()
            .map(|(b, _)| {
                tr.span("core.spawn", NONE, || {
                    os.spawn(b.name, &b.default_n.to_string(), None)
                })
                .expect("a registered image spawns")
            })
            .collect();
        tr.span("core.run", NONE, || os.run(None));
        for (pid, (b, _)) in pids.iter().zip(&self.programs) {
            assert!(
                matches!(os.status(*pid), Some(ExitStatus::Exited(v)) if v >= 0),
                "warm-up of {} ended with {:?}",
                b.name,
                os.status(*pid)
            );
        }
    }

    fn seed_free_outputs(&self) -> bool {
        // The seed only decides the order; the digest is folded in the
        // paper's order.
        true
    }

    fn round(&mut self, _slot: u32, tr: &mut Tracer, keep: bool) -> Round {
        let started = Instant::now();
        let mut runs: Vec<Option<ProgramRun>> = self.programs.iter().map(|_| None).collect();
        let mut req_walls_us = Vec::new();
        let mut kept = None;
        for (position, &index) in self.order.iter().enumerate() {
            let (bench, n) = &self.programs[index];
            let (run, os) = run_program(bench, *n, index as u32, tr);
            req_walls_us.push(run.wall_s * 1e6);
            runs[index] = Some(run);
            if keep && position + 1 == self.order.len() {
                kept = Some(os);
            } else {
                tr.span("core.drop", index as u32, || drop(os));
            }
        }
        let wall_s = started.elapsed().as_secs_f64();

        let mut round = Round {
            wall_s,
            attempted: self.programs.len() as u64,
            req_walls_us,
            kernel: kept,
            ..Round::default()
        };
        let mut digest = Digest::new();
        let mut total = Counters::default();
        for ((bench, n), run) in self.programs.iter().zip(runs) {
            let run = run.expect("the order is a permutation of the programs");
            digest.str(bench.name);
            digest.i64(*n);
            digest.i64(run.checksum.unwrap_or(-1));
            digest.u64(run.clock);
            digest.u64(run.counters.ops);
            digest.u64(run.counters.barriers);
            digest.u64(run.counters.gc_cycles);
            match run.checksum {
                Some(v) => {
                    round.requests += 1;
                    round
                        .counts
                        .insert(format!("checksum.{}", bench.name), v as u64);
                }
                None => round.failed += 1,
            }
            round.parts.push(Part {
                label: bench.name,
                work_m: run.counters.ops as f64 / 1e6,
                wall_s: run.wall_s,
            });
            total.add(run.counters);
        }
        round.digest = digest.finish();
        round.set_counters(total);
        round
    }
}
