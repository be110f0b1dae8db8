//! Host interpreter throughput on the standard workload mix.
//!
//! Runs the seven SPEC-analogue benchmarks on the default KaffeOS platform
//! (heap-pointer barrier) and reports **host** ops/sec and ns/op — the one
//! set of numbers in this repo that is allowed to change between commits.
//! Every *virtual* number printed alongside (virtual seconds, checksums)
//! must stay bit-identical; the golden-trace suite enforces that.
//!
//! ```text
//! cargo run --release -p kaffeos-bench --bin interp_throughput
//!     [--quick]            # smoke iteration counts
//!     [--reps <k>]         # wall-clock reps per benchmark (default 3)
//!     [--out <path>]       # default: BENCH_interp.json
//!     [--baseline <path>]  # embed a prior run's totals for the speedup
//! ```
//!
//! Each benchmark runs `reps` times and reports the **minimum** wall time:
//! on a shared host the minimum is the best estimate of the binary's true
//! cost (noise from other tenants only ever adds time). The virtual
//! numbers are asserted identical across reps — determinism checked for
//! free on every bench run.
//!
//! Writes a machine-readable `BENCH_interp.json` at the repo root so later
//! PRs have a perf trajectory to beat (see EXPERIMENTS.md for the format).

use std::fmt::Write as _;
use std::time::Instant;

use kaffeos_bench::{cell, json_f, quick_mode, rule};
use kaffeos_workloads::runner::{platforms, Platform, PlatformKind};
use kaffeos_workloads::spec;

struct BenchRow {
    name: &'static str,
    n: i64,
    ops: u64,
    wall_seconds: f64,
    virtual_seconds: f64,
    checksum: i64,
}

impl BenchRow {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_seconds.max(1e-9)
    }
    fn ns_per_op(&self) -> f64 {
        self.wall_seconds * 1e9 / (self.ops as f64).max(1.0)
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

/// Pulls `"ops_per_sec": <number>` out of the `"total"` object of a prior
/// report. Hand-rolled on purpose: no JSON dependency in this workspace.
fn baseline_ops_per_sec(body: &str) -> Option<f64> {
    let total = body.find("\"total\"")?;
    let tail = &body[total..];
    let key = tail.find("\"ops_per_sec\":")?;
    let num = tail[key + "\"ops_per_sec\":".len()..].trim_start();
    let end = num
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(num.len());
    num[..end].parse().ok()
}

fn main() {
    let quick = quick_mode();
    let reps: u32 = arg_after("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_interp.json".to_string());
    let baseline = arg_after("--baseline")
        .and_then(|p| std::fs::read_to_string(&p).ok())
        .and_then(|body| baseline_ops_per_sec(&body));

    let platform = kaffeos_platform();
    println!(
        "interp_throughput on {:?} ({}, best of {reps})",
        platform.name,
        if quick { "quick" } else { "full" }
    );
    rule(78);
    println!(
        "{:<12} {:>4} {:>12} {:>9} {:>12} {:>10} {:>10}",
        "benchmark", "n", "ops", "wall s", "Mops/s", "ns/op", "virt s"
    );
    rule(78);

    let mut rows = Vec::new();
    for bench in spec::all_benchmarks() {
        let n = if quick { bench.test_n } else { bench.default_n };
        // Best-of-reps: virtual results must be identical every time (the
        // simulator is deterministic); wall time takes the minimum, since
        // host noise is strictly additive.
        let mut row: Option<BenchRow> = None;
        for _ in 0..reps {
            let mut os = kaffeos::KaffeOs::new(platform.config());
            os.register_image(bench.name, bench.source)
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", bench.name));
            let started = Instant::now();
            let pid = os
                .spawn(bench.name, &n.to_string(), None)
                .expect("benchmark spawns");
            let report = os.run(None);
            let wall = started.elapsed().as_secs_f64();
            let checksum = match os.status(pid) {
                Some(kaffeos::ExitStatus::Exited(v)) => v,
                other => panic!("{} ended with {other:?}", bench.name),
            };
            match &mut row {
                None => {
                    row = Some(BenchRow {
                        name: bench.name,
                        n,
                        ops: os.ops_executed(),
                        wall_seconds: wall,
                        virtual_seconds: report.virtual_seconds,
                        checksum,
                    });
                }
                Some(r) => {
                    assert_eq!(r.ops, os.ops_executed(), "{}: ops drifted", bench.name);
                    assert_eq!(
                        r.virtual_seconds, report.virtual_seconds,
                        "{}: virtual time drifted",
                        bench.name
                    );
                    assert_eq!(r.checksum, checksum, "{}: checksum drifted", bench.name);
                    r.wall_seconds = r.wall_seconds.min(wall);
                }
            }
        }
        let row = row.expect("reps >= 1");
        println!(
            "{:<12} {:>4} {:>12} {} {} {} {}",
            row.name,
            row.n,
            row.ops,
            cell(row.wall_seconds, 9, 3),
            cell(row.ops_per_sec() / 1e6, 12, 2),
            cell(row.ns_per_op(), 10, 1),
            cell(row.virtual_seconds, 10, 3),
        );
        rows.push(row);
    }
    rule(78);

    let total_ops: u64 = rows.iter().map(|r| r.ops).sum();
    let total_wall: f64 = rows.iter().map(|r| r.wall_seconds).sum();
    let total_ops_per_sec = total_ops as f64 / total_wall.max(1e-9);
    let total_ns_per_op = total_wall * 1e9 / (total_ops as f64).max(1.0);
    println!(
        "{:<12} {:>4} {:>12} {} {} {}",
        "TOTAL",
        "",
        total_ops,
        cell(total_wall, 9, 3),
        cell(total_ops_per_sec / 1e6, 12, 2),
        cell(total_ns_per_op, 10, 1),
    );
    if let Some(base) = baseline {
        println!(
            "baseline: {} Mops/s -> speedup {}x",
            cell(base / 1e6, 0, 2),
            cell(total_ops_per_sec / base.max(1e-9), 0, 2)
        );
    }

    // --- machine-readable report -----------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"interp_throughput\",");
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
            "    {{\"name\": \"{}\", \"n\": {}, \"ops\": {}, \"wall_seconds\": {}, \
             \"ops_per_sec\": {}, \"ns_per_op\": {}, \"virtual_seconds\": {:.6}, \
             \"checksum\": {}}}{}",
            r.name,
            r.n,
            r.ops,
            json_f(r.wall_seconds),
            json_f(r.ops_per_sec()),
            json_f(r.ns_per_op()),
            r.virtual_seconds,
            r.checksum,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"total\": {{\"ops\": {}, \"wall_seconds\": {}, \"ops_per_sec\": {}, \
         \"ns_per_op\": {}}},",
        total_ops,
        json_f(total_wall),
        json_f(total_ops_per_sec),
        json_f(total_ns_per_op)
    );
    match baseline {
        Some(base) => {
            let _ = writeln!(
                json,
                "  \"baseline\": {{\"ops_per_sec\": {}}},",
                json_f(base)
            );
            let _ = writeln!(
                json,
                "  \"speedup_vs_baseline\": {}",
                json_f(total_ops_per_sec / base.max(1e-9))
            );
        }
        None => {
            json.push_str("  \"baseline\": null,\n");
            json.push_str("  \"speedup_vs_baseline\": null\n");
        }
    }
    json.push_str("}\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("report -> {out_path}");
}
