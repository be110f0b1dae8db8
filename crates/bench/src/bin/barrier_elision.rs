//! Barrier-elision benchmark: what does the static heap-flow analyzer buy?
//!
//! Runs the seven SPEC-analogue benchmarks on the default KaffeOS platform
//! (heap-pointer barrier) twice — with analyzer-driven barrier elision on
//! and off — and reports the elided-site fraction plus the host wall-clock
//! delta. Same protocol as `interp_throughput`: each configuration runs
//! `reps` times, wall time takes the **minimum** (host noise is strictly
//! additive), and every virtual number (op count, virtual seconds,
//! checksum) is asserted identical across reps *and across the two
//! configurations* — elision is host-only by contract, so a single moved
//! virtual number is a bug, and this bench doubles as the check.
//!
//! ```text
//! cargo run --release -p kaffeos-bench --bin barrier_elision
//!     [--quick]        # smoke iteration counts
//!     [--reps <k>]     # wall-clock reps per configuration (default 3)
//!     [--out <path>]   # default: BENCH_barrier.json
//! ```
//!
//! Writes a machine-readable `BENCH_barrier.json` at the repo root (see
//! EXPERIMENTS.md for the format).

use std::fmt::Write as _;
use std::time::Instant;

use kaffeos_bench::{cell, json_f, quick_mode, rule};
use kaffeos_workloads::runner::{platforms, Platform, PlatformKind};
use kaffeos_workloads::spec;

struct BenchRow {
    name: &'static str,
    n: i64,
    ops: u64,
    wall_elide: f64,
    wall_noelide: f64,
    virtual_seconds: f64,
    checksum: i64,
    elided_sites: usize,
    total_sites: usize,
}

impl BenchRow {
    fn delta_pct(&self) -> f64 {
        (self.wall_noelide - self.wall_elide) / self.wall_noelide.max(1e-9) * 100.0
    }
    fn fraction(&self) -> f64 {
        self.elided_sites as f64 / (self.total_sites as f64).max(1.0)
    }
}

fn kaffeos_platform() -> Platform {
    platforms()
        .into_iter()
        .find(|p| matches!(p.kind, PlatformKind::KaffeOs(kaffeos::BarrierKind::HeapPointer)))
        .expect("heap-pointer platform exists")
}

fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// One full run of `bench` with elision on or off; returns the virtual
/// triple and the wall time.
fn run_once(
    platform: &Platform,
    bench: &spec::SpecBenchmark,
    n: i64,
    elide: bool,
) -> (u64, f64, i64, f64) {
    let mut os = kaffeos::KaffeOs::new(kaffeos::KaffeOsConfig {
        elide,
        ..platform.config()
    });
    os.register_image(bench.name, bench.source)
        .unwrap_or_else(|e| panic!("{} does not compile: {e}", bench.name));
    // Spawn outside the timed region: spawn loads the benchmark's classes,
    // and in elide mode that triggers the whole-program analysis — a
    // one-off load-time cost that would otherwise drown the per-store
    // saving on short runs. The timer covers execution only.
    let pid = os
        .spawn(bench.name, &n.to_string(), None)
        .expect("benchmark spawns");
    let started = Instant::now();
    let report = os.run(None);
    let wall = started.elapsed().as_secs_f64();
    let checksum = match os.status(pid) {
        Some(kaffeos::ExitStatus::Exited(v)) => v,
        other => panic!("{} ended with {other:?}", bench.name),
    };
    (os.ops_executed(), report.virtual_seconds, checksum, wall)
}

fn main() {
    let quick = quick_mode();
    let reps: u32 = arg_after("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_barrier.json".to_string());

    let platform = kaffeos_platform();
    println!(
        "barrier_elision on {:?} ({}, best of {reps} per config)",
        platform.name,
        if quick { "quick" } else { "full" }
    );
    rule(86);
    println!(
        "{:<12} {:>4} {:>12} {:>11} {:>10} {:>10} {:>8} {:>10}",
        "benchmark", "n", "ops", "sites", "elide s", "barrier s", "delta%", "virt s"
    );
    rule(86);

    let mut rows = Vec::new();
    for bench in spec::all_benchmarks() {
        let n = if quick { bench.test_n } else { bench.default_n };

        // The static half: spawn once (spawning is what loads the guest
        // classes into the table) and count the elidable reference-store
        // sites the analyzer found. Includes the kernel base classes, so
        // the interesting signal is the variation across benchmarks.
        let (elided_sites, total_sites) = {
            let mut os = kaffeos::KaffeOs::new(platform.config());
            os.register_image(bench.name, bench.source)
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", bench.name));
            os.spawn(bench.name, &n.to_string(), None)
                .expect("benchmark spawns");
            os.analysis().elision_counts()
        };

        let mut row: Option<BenchRow> = None;
        for rep in 0..reps * 2 {
            let elide = rep % 2 == 0;
            let (ops, virt, checksum, wall) = run_once(&platform, &bench, n, elide);
            match &mut row {
                None => {
                    row = Some(BenchRow {
                        name: bench.name,
                        n,
                        ops,
                        wall_elide: if elide { wall } else { f64::INFINITY },
                        wall_noelide: if elide { f64::INFINITY } else { wall },
                        virtual_seconds: virt,
                        checksum,
                        elided_sites,
                        total_sites,
                    });
                }
                Some(r) => {
                    // The contract this bench exists to check: virtual
                    // numbers are identical across reps and configurations.
                    assert_eq!(r.ops, ops, "{}: ops moved (elide={elide})", bench.name);
                    assert_eq!(
                        r.virtual_seconds, virt,
                        "{}: virtual time moved (elide={elide})",
                        bench.name
                    );
                    assert_eq!(
                        r.checksum, checksum,
                        "{}: checksum moved (elide={elide})",
                        bench.name
                    );
                    if elide {
                        r.wall_elide = r.wall_elide.min(wall);
                    } else {
                        r.wall_noelide = r.wall_noelide.min(wall);
                    }
                }
            }
        }
        let row = row.expect("reps >= 1");
        println!(
            "{:<12} {:>4} {:>12} {:>5}/{:<5} {} {} {} {}",
            row.name,
            row.n,
            row.ops,
            row.elided_sites,
            row.total_sites,
            cell(row.wall_elide, 10, 3),
            cell(row.wall_noelide, 10, 3),
            cell(row.delta_pct(), 8, 1),
            cell(row.virtual_seconds, 10, 3),
        );
        rows.push(row);
    }
    rule(86);

    let total_elide: f64 = rows.iter().map(|r| r.wall_elide).sum();
    let total_noelide: f64 = rows.iter().map(|r| r.wall_noelide).sum();
    let total_elided: usize = rows.iter().map(|r| r.elided_sites).sum();
    let total_sites: usize = rows.iter().map(|r| r.total_sites).sum();
    let total_delta = (total_noelide - total_elide) / total_noelide.max(1e-9) * 100.0;
    println!(
        "{:<12} {:>4} {:>12} {:>5}/{:<5} {} {} {}",
        "TOTAL",
        "",
        rows.iter().map(|r| r.ops).sum::<u64>(),
        total_elided,
        total_sites,
        cell(total_elide, 10, 3),
        cell(total_noelide, 10, 3),
        cell(total_delta, 8, 1),
    );
    println!(
        "elided {total_elided}/{total_sites} reference-store sites; virtual numbers identical \
         across all {} runs",
        rows.len() as u32 * reps * 2
    );

    // --- machine-readable report -----------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"barrier_elision\",");
    let _ = writeln!(json, "  \"platform\": \"{}\",", platform.name);
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"n\": {}, \"ops\": {}, \"elided_sites\": {}, \
             \"total_sites\": {}, \"elided_fraction\": {}, \"wall_elide_seconds\": {}, \
             \"wall_barrier_seconds\": {}, \"wall_delta_pct\": {}, \
             \"virtual_seconds\": {:.6}, \"checksum\": {}}}{}",
            r.name,
            r.n,
            r.ops,
            r.elided_sites,
            r.total_sites,
            json_f(r.fraction()),
            json_f(r.wall_elide),
            json_f(r.wall_noelide),
            json_f(r.delta_pct()),
            r.virtual_seconds,
            r.checksum,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"total\": {{\"elided_sites\": {}, \"total_sites\": {}, \
         \"wall_elide_seconds\": {}, \"wall_barrier_seconds\": {}, \"wall_delta_pct\": {}}},",
        total_elided,
        total_sites,
        json_f(total_elide),
        json_f(total_noelide),
        json_f(total_delta)
    );
    json.push_str("  \"virtual_numbers_identical\": true\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("report -> {out_path}");
}
