//! JIT-tier throughput and the ShareJIT shared-cache ablation.
//!
//! Part one runs the seven SPEC-analogue benchmarks twice per rep —
//! template tier enabled and disabled — on the default KaffeOS platform
//! (heap-pointer barrier) and reports **host** ops/sec for both tiers plus
//! the speedup over the recorded PR 4 interpreter baseline
//! (`BENCH_interp.json`). The on/off runs are interleaved so host noise
//! hits both tiers alike. Every *virtual* number (ops, virtual seconds,
//! checksums) is asserted identical across reps **and** across the two
//! tiers: the tier must be invisible to the cycle model.
//!
//! Part two is the shared-cache ablation the ShareJIT argument rests on:
//! one process cold vs. warm (compile-time amortization), then N processes
//! of the same image in one kernel, machine-checking that every hot method
//! is compiled **exactly once** and the other N−1 processes reuse the
//! shared body.
//!
//! ```text
//! cargo run --release -p kaffeos-bench --bin jit_throughput
//!     [--quick]            # smoke iteration counts
//!     [--reps <k>]         # wall-clock reps per benchmark (default 3)
//!     [--out <path>]       # default: BENCH_jit.json
//!     [--baseline <path>]  # default: BENCH_interp.json
//! ```
//!
//! Writes a machine-readable `BENCH_jit.json` at the repo root (see
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
    wall_on: f64,
    wall_off: f64,
    virtual_seconds: f64,
    checksum: i64,
    compiles: u64,
    reuse: u64,
}

impl BenchRow {
    fn ops_per_sec_on(&self) -> f64 {
        self.ops as f64 / self.wall_on.max(1e-9)
    }
    fn ops_per_sec_off(&self) -> f64 {
        self.ops as f64 / self.wall_off.max(1e-9)
    }
}

/// One deterministic run of `bench` with the tier switched by `jit`.
/// Returns (wall, ops, virtual_seconds, checksum, compiles, reuse).
fn run_once(
    platform: &Platform,
    bench: &spec::SpecBenchmark,
    n: i64,
    jit: bool,
) -> (f64, u64, f64, i64, u64, u64) {
    let mut config = platform.config();
    config.jit.enabled = jit;
    let mut os = kaffeos::KaffeOs::new(config);
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
    let stats = os.jit_stats(pid).unwrap_or_default();
    (
        wall,
        os.ops_executed(),
        report.virtual_seconds,
        checksum,
        stats.compiled,
        stats.reuse,
    )
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

/// The shared-cache ablation on one benchmark: cold compile, warm repeat,
/// then `n_procs` processes sharing one cache.
struct Ablation {
    bench: &'static str,
    n_procs: usize,
    hot_methods: u64,
    cold_wall: f64,
    cold_compile_nanos: u64,
    warm_wall: f64,
    warm_added_compiles: u64,
    shared_wall: f64,
    shared_compiles: u64,
    reuse_total: u64,
    expected_reuse: u64,
    per_process: Vec<(u64, u64)>,
    exactly_once: bool,
}

fn ablation(platform: &Platform, quick: bool) -> Ablation {
    let bench = spec::all_benchmarks()
        .into_iter()
        .find(|b| b.name == "jess")
        .expect("jess exists");
    let n = if quick { bench.test_n } else { bench.default_n };
    let n_procs = 8usize;

    // Cold: one process, empty cache — pays every compilation.
    let mut os = kaffeos::KaffeOs::new(platform.config());
    os.register_image(bench.name, bench.source).unwrap();
    let started = Instant::now();
    os.spawn(bench.name, &n.to_string(), None).unwrap();
    os.run(None);
    let cold_wall = started.elapsed().as_secs_f64();
    let cold = os.jit_cache_stats();
    let hot_methods = cold.compiles;

    // Warm: same kernel, same image again — the cache already holds every
    // body (entries are kept at refcount zero), so zero new compiles.
    let started = Instant::now();
    os.spawn(bench.name, &n.to_string(), None).unwrap();
    os.run(None);
    let warm_wall = started.elapsed().as_secs_f64();
    let warm_added_compiles = os.jit_cache_stats().compiles - hot_methods;

    // Shared: N processes of the same image in one fresh kernel. The
    // ShareJIT claim: every hot method is compiled exactly once, by
    // whichever process got there first; the rest attach the shared body.
    let mut os = kaffeos::KaffeOs::new(platform.config());
    os.register_image(bench.name, bench.source).unwrap();
    let started = Instant::now();
    let pids: Vec<_> = (0..n_procs)
        .map(|_| os.spawn(bench.name, &n.to_string(), None).unwrap())
        .collect();
    os.run(None);
    let shared_wall = started.elapsed().as_secs_f64();
    let shared = os.jit_cache_stats();
    let per_process: Vec<(u64, u64)> = pids
        .iter()
        .map(|&pid| {
            let s = os.jit_stats(pid).unwrap_or_default();
            (s.compiled, s.reuse)
        })
        .collect();
    let compiled_sum: u64 = per_process.iter().map(|p| p.0).sum();
    let reuse_total: u64 = per_process.iter().map(|p| p.1).sum();
    let expected_reuse = (n_procs as u64 - 1) * hot_methods;
    let exactly_once = shared.compiles == hot_methods
        && compiled_sum == hot_methods
        && reuse_total == expected_reuse;

    Ablation {
        bench: bench.name,
        n_procs,
        hot_methods,
        cold_wall,
        cold_compile_nanos: cold.compile_nanos,
        warm_wall,
        warm_added_compiles,
        shared_wall,
        shared_compiles: shared.compiles,
        reuse_total,
        expected_reuse,
        per_process,
        exactly_once,
    }
}

fn main() {
    let quick = quick_mode();
    let reps: u32 = arg_after("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_jit.json".to_string());
    let baseline_path = arg_after("--baseline").unwrap_or_else(|| "BENCH_interp.json".to_string());
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|body| baseline_ops_per_sec(&body));

    let platform = kaffeos_platform();
    let threshold = kaffeos_vm::JitConfig::default().threshold;
    println!(
        "jit_throughput on {:?} ({}, best of {reps}, threshold {threshold})",
        platform.name,
        if quick { "quick" } else { "full" }
    );
    rule(78);
    println!(
        "{:<12} {:>4} {:>12} {:>10} {:>10} {:>9} {:>8} {:>7}",
        "benchmark", "n", "ops", "jit Mops", "int Mops", "speedup", "compile", "virt s"
    );
    rule(78);

    let mut rows = Vec::new();
    for bench in spec::all_benchmarks() {
        let n = if quick { bench.test_n } else { bench.default_n };
        // Interleave on/off reps and keep the minimum wall of each: host
        // noise is strictly additive and hits both tiers alike this way.
        // Virtual results must match across every run, on or off.
        let mut row: Option<BenchRow> = None;
        for _ in 0..reps {
            let (w_on, ops, virt, sum, compiles, reuse) = run_once(&platform, &bench, n, true);
            let (w_off, ops2, virt2, sum2, _, _) = run_once(&platform, &bench, n, false);
            assert_eq!(ops, ops2, "{}: ops differ across tiers", bench.name);
            assert_eq!(virt, virt2, "{}: virtual time differs across tiers", bench.name);
            assert_eq!(sum, sum2, "{}: checksum differs across tiers", bench.name);
            match &mut row {
                None => {
                    row = Some(BenchRow {
                        name: bench.name,
                        n,
                        ops,
                        wall_on: w_on,
                        wall_off: w_off,
                        virtual_seconds: virt,
                        checksum: sum,
                        compiles,
                        reuse,
                    });
                }
                Some(r) => {
                    assert_eq!(r.ops, ops, "{}: ops drifted", bench.name);
                    assert_eq!(r.virtual_seconds, virt, "{}: virtual time drifted", bench.name);
                    assert_eq!(r.checksum, sum, "{}: checksum drifted", bench.name);
                    r.wall_on = r.wall_on.min(w_on);
                    r.wall_off = r.wall_off.min(w_off);
                }
            }
        }
        let row = row.expect("reps >= 1");
        println!(
            "{:<12} {:>4} {:>12} {} {} {} {:>8} {}",
            row.name,
            row.n,
            row.ops,
            cell(row.ops_per_sec_on() / 1e6, 10, 2),
            cell(row.ops_per_sec_off() / 1e6, 10, 2),
            cell(row.ops_per_sec_on() / row.ops_per_sec_off().max(1e-9), 9, 2),
            row.compiles,
            cell(row.virtual_seconds, 7, 3),
        );
        rows.push(row);
    }
    rule(78);

    let total_ops: u64 = rows.iter().map(|r| r.ops).sum();
    let total_on: f64 = rows.iter().map(|r| r.wall_on).sum();
    let total_off: f64 = rows.iter().map(|r| r.wall_off).sum();
    let on_ops_per_sec = total_ops as f64 / total_on.max(1e-9);
    let off_ops_per_sec = total_ops as f64 / total_off.max(1e-9);
    println!(
        "{:<12} {:>4} {:>12} {} {} {}",
        "TOTAL",
        "",
        total_ops,
        cell(on_ops_per_sec / 1e6, 10, 2),
        cell(off_ops_per_sec / 1e6, 10, 2),
        cell(on_ops_per_sec / off_ops_per_sec.max(1e-9), 9, 2),
    );
    if let Some(base) = baseline {
        println!(
            "recorded interpreter baseline: {} Mops/s -> speedup {}x",
            cell(base / 1e6, 0, 2),
            cell(on_ops_per_sec / base.max(1e-9), 0, 2)
        );
    }

    let ab = ablation(&platform, quick);
    println!(
        "ablation [{}]: {} hot methods; cold {}s, warm {}s (+{} compiles), \
         {} procs shared {}s: {} compiles, reuse {}/{} -> exactly_once={}",
        ab.bench,
        ab.hot_methods,
        cell(ab.cold_wall, 0, 3),
        cell(ab.warm_wall, 0, 3),
        ab.warm_added_compiles,
        ab.n_procs,
        cell(ab.shared_wall, 0, 3),
        ab.shared_compiles,
        ab.reuse_total,
        ab.expected_reuse,
        ab.exactly_once,
    );
    assert!(
        ab.exactly_once,
        "shared-cache ablation: expected every hot method compiled exactly once \
         ({} compiles for {} methods, reuse {}/{})",
        ab.shared_compiles, ab.hot_methods, ab.reuse_total, ab.expected_reuse
    );

    // --- machine-readable report -----------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"jit_throughput\",");
    let _ = writeln!(json, "  \"platform\": \"{}\",", platform.name);
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"jit_threshold\": {threshold},");
    // Asserted above: ops, virtual seconds and checksums matched across
    // every rep and across the on/off tiers, or we would have panicked.
    let _ = writeln!(json, "  \"virtual_identical\": true,");
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"n\": {}, \"ops\": {}, \"wall_seconds\": {}, \
             \"ops_per_sec\": {}, \"interp_wall_seconds\": {}, \"interp_ops_per_sec\": {}, \
             \"compiles\": {}, \"reuse\": {}, \"virtual_seconds\": {:.6}, \"checksum\": {}}}{}",
            r.name,
            r.n,
            r.ops,
            json_f(r.wall_on),
            json_f(r.ops_per_sec_on()),
            json_f(r.wall_off),
            json_f(r.ops_per_sec_off()),
            r.compiles,
            r.reuse,
            r.virtual_seconds,
            r.checksum,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"total\": {{\"ops\": {}, \"wall_seconds\": {}, \"ops_per_sec\": {}, \
         \"interp_wall_seconds\": {}, \"interp_ops_per_sec\": {}, \"speedup_vs_interp\": {}}},",
        total_ops,
        json_f(total_on),
        json_f(on_ops_per_sec),
        json_f(total_off),
        json_f(off_ops_per_sec),
        json_f(on_ops_per_sec / off_ops_per_sec.max(1e-9)),
    );
    let _ = writeln!(
        json,
        "  \"ablation\": {{\"bench\": \"{}\", \"n_processes\": {}, \"hot_methods\": {}, \
         \"cold\": {{\"wall_seconds\": {}, \"compiles\": {}, \"compile_nanos\": {}}}, \
         \"warm_repeat\": {{\"wall_seconds\": {}, \"added_compiles\": {}}}, \
         \"shared\": {{\"wall_seconds\": {}, \"compiles\": {}, \"reuse_total\": {}, \
         \"expected_reuse\": {}, \"per_process\": [{}], \"exactly_once\": {}}}}},",
        ab.bench,
        ab.n_procs,
        ab.hot_methods,
        json_f(ab.cold_wall),
        ab.hot_methods,
        ab.cold_compile_nanos,
        json_f(ab.warm_wall),
        ab.warm_added_compiles,
        json_f(ab.shared_wall),
        ab.shared_compiles,
        ab.reuse_total,
        ab.expected_reuse,
        ab.per_process
            .iter()
            .map(|(c, u)| format!("{{\"compiled\": {c}, \"reuse\": {u}}}"))
            .collect::<Vec<_>>()
            .join(", "),
        ab.exactly_once,
    );
    match baseline {
        Some(base) => {
            let _ = writeln!(
                json,
                "  \"baseline\": {{\"path\": \"{baseline_path}\", \"ops_per_sec\": {}}},",
                json_f(base)
            );
            let _ = writeln!(
                json,
                "  \"speedup_vs_baseline\": {}",
                json_f(on_ops_per_sec / base.max(1e-9))
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
