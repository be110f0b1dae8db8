//! Heap-observability overhead: the allocation-site profiler, survival
//! tracker and GC/page timeline cost wall-clock time, but must not move a
//! single *virtual* number — same clock, same checksum, bit-identical
//! virtual seconds. This harness measures the wall-time price, asserts the
//! virtual contract, and writes a machine-readable `BENCH_heapprof.json`.
//!
//! Usage: `cargo run --release -p kaffeos-bench --bin heapprof_overhead \
//!         [--quick] [--out <path>]`

use std::fmt::Write as _;
use std::time::Instant;

use kaffeos::{ExitStatus, KaffeOs, KaffeOsConfig};
use kaffeos_bench::{json_f, quick_mode, rule};
use kaffeos_workloads::{platforms, spec};

struct RunOut {
    wall_ms: f64,
    virtual_bits: u64,
    clock: u64,
    checksum: i64,
    folded_lines: usize,
    timeline_events: usize,
}

fn run(bench: &spec::SpecBenchmark, n: i64, heapprof: bool) -> RunOut {
    let reference = platforms()[5]; // KaffeOS, No Heap Pointer
    let mut os = KaffeOs::new(KaffeOsConfig {
        heapprof,
        ..reference.config()
    });
    os.register_image(bench.name, bench.source).unwrap();
    let pid = os.spawn(bench.name, &n.to_string(), None).unwrap();
    let start = Instant::now();
    let report = os.run(None);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let checksum = match os.status(pid) {
        Some(ExitStatus::Exited(v)) => v,
        other => panic!("{} ended with {other:?}", bench.name),
    };
    RunOut {
        wall_ms,
        virtual_bits: report.virtual_seconds.to_bits(),
        clock: os.clock(),
        checksum,
        folded_lines: os.heapprof_folded_bytes().lines().count(),
        timeline_events: os.space().heapprof().timeline_len(),
    }
}

fn main() {
    let quick = quick_mode();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_heapprof.json".to_string());

    println!("Heap observability overhead: wall-clock cost of the heapprof plane");
    println!(
        "{:<12}{:>12}{:>12}{:>10}{:>9}{:>10}   (virtual numbers asserted identical)",
        "benchmark", "off ms", "on ms", "overhead", "sites", "events"
    );
    rule(72);

    let mut rows = Vec::new();
    for name in ["compress", "db"] {
        let bench = spec::by_name(name).expect("known benchmark");
        let n = if quick { bench.test_n } else { bench.default_n };
        let off = run(&bench, n, false);
        let on = run(&bench, n, true);
        // The observability contract: the plane is host-plane only. Every
        // virtual quantity must be bit-identical with it on and off.
        assert_eq!(off.virtual_bits, on.virtual_bits, "{name}: virtual seconds moved");
        assert_eq!(off.clock, on.clock, "{name}: virtual clock moved");
        assert_eq!(off.checksum, on.checksum, "{name}: checksum moved");
        assert_eq!(off.folded_lines, 0, "{name}: disabled plane recorded sites");
        assert_eq!(off.timeline_events, 0, "{name}: disabled plane recorded events");
        assert!(on.folded_lines > 0, "{name}: enabled plane recorded nothing");
        assert!(on.timeline_events > 0, "{name}: enabled plane has no timeline");
        let overhead = 100.0 * (on.wall_ms - off.wall_ms) / off.wall_ms;
        println!(
            "{:<12}{:>11.1} {:>11.1} {:>8.1}%{:>9}{:>10}",
            name, off.wall_ms, on.wall_ms, overhead, on.folded_lines, on.timeline_events
        );
        rows.push((name, n, off, on, overhead));
    }
    rule(72);
    println!(
        "the virtual clock, checksums and Figure 3 seconds are identical with \
         the heap observability plane on and off; only wall-clock time is spent."
    );

    // --- machine-readable report -----------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"heapprof_overhead\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    json.push_str("  \"benchmarks\": [\n");
    for (i, (name, n, off, on, overhead)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"n\": {}, \"off_wall_ms\": {}, \"on_wall_ms\": {}, \
             \"overhead_pct\": {}, \"sites\": {}, \"timeline_events\": {}, \
             \"virtual_identical\": true, \"checksum\": {}}}{}",
            name,
            n,
            json_f(off.wall_ms),
            json_f(on.wall_ms),
            json_f(*overhead),
            on.folded_lines,
            on.timeline_events,
            on.checksum,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let mean = rows.iter().map(|r| r.4).sum::<f64>() / rows.len().max(1) as f64;
    let _ = writeln!(
        json,
        "  \"overhead\": {{\"mean_pct\": {}, \"virtual_identical\": true}}",
        json_f(mean)
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("report -> {out_path}");
}
