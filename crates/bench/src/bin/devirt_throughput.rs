//! Devirtualization/lock-elision benchmark: what do the whole-program
//! hierarchy and escape passes buy?
//!
//! Runs a call- and monitor-dense guest on the default KaffeOS platform
//! twice — with the static analysis on and off — and reports the
//! monomorphic-site fraction, the dynamic devirtualized-call and
//! elided-monitor counters, and host wall-clock throughput for both
//! configurations. Same protocol as `barrier_elision`: each configuration
//! runs `reps` times interleaved, wall time takes the **minimum** (host
//! noise is strictly additive), and every virtual number (op count,
//! virtual seconds, checksum) is asserted identical across reps *and
//! across the two configurations* — devirtualization and monitor elision
//! are host-only by contract, so a single moved virtual number is a bug,
//! and this bench doubles as the check.
//!
//! ```text
//! cargo run --release -p kaffeos-bench --bin devirt_throughput
//!     [--quick]        # smoke iteration counts
//!     [--reps <k>]     # wall-clock reps per configuration (default 3)
//!     [--out <path>]   # default: BENCH_devirt.json
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use kaffeos_bench::{cell, json_f, quick_mode, rule};
use kaffeos_workloads::runner::{platforms, Platform, PlatformKind};

/// A hot loop over a monomorphic virtual call and a frame-local sync
/// block: exactly the two shapes the hierarchy and escape passes sharpen.
/// `Shape.area` is the only override of its vslot, so every `sh.area()`
/// devirtualizes; `lock` never leaves the frame, so both monitor ops
/// elide.
const DEVIRT_SOURCE: &str = r#"
    class Shape {
        int s;
        int area() { return this.s * this.s; }
    }
    class Main {
        static int main(int n) {
            int acc = 0;
            int i = 0;
            while (i < n) {
                Shape sh = new Shape();
                sh.s = i % 97;
                acc = acc + sh.area();
                Object lock = new Object();
                sync (lock) { acc = acc + i; }
                i = i + 1;
            }
            return acc % 1000000007;
        }
    }
"#;

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

/// One full run with the analysis on or off; returns the virtual triple,
/// the wall time, and the dynamic `(devirt_calls, monitors_elided)`
/// counters the kernel drained for the process.
fn run_once(platform: &Platform, n: i64, analysis_on: bool) -> (u64, f64, i64, f64, (u64, u64)) {
    let mut os = kaffeos::KaffeOs::new(kaffeos::KaffeOsConfig {
        elide: analysis_on,
        ..platform.config()
    });
    os.register_image("devirt", DEVIRT_SOURCE)
        .unwrap_or_else(|e| panic!("devirt guest does not compile: {e}"));
    // Spawn outside the timed region: spawning loads the guest classes,
    // which triggers the whole-program analysis in the on-configuration —
    // a one-off load-time cost. The timer covers execution only.
    let pid = os.spawn("devirt", &n.to_string(), None).expect("guest spawns");
    let started = Instant::now();
    let report = os.run(None);
    let wall = started.elapsed().as_secs_f64();
    let checksum = match os.status(pid) {
        Some(kaffeos::ExitStatus::Exited(v)) => v,
        other => panic!("devirt guest ended with {other:?}"),
    };
    let counters = os.analysis_counters(pid).expect("pid is known");
    (os.ops_executed(), report.virtual_seconds, checksum, wall, counters)
}

fn main() {
    let quick = quick_mode();
    let reps: u32 = arg_after("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_devirt.json".to_string());
    let n: i64 = if quick { 20_000 } else { 200_000 };

    let platform = kaffeos_platform();
    println!(
        "devirt_throughput on {:?} ({}, best of {reps} per config, n={n})",
        platform.name,
        if quick { "quick" } else { "full" }
    );

    // The static half: spawn once (spawning loads the guest classes into
    // the table) and read the analyzer's call-site and monitor verdicts.
    // Counts cover the whole table — kernel base classes included — so the
    // monomorphic ratio is the real whole-program number, not a toy one.
    let (mono_sites, poly_sites, mon_elidable, mon_total) = {
        let mut os = kaffeos::KaffeOs::new(platform.config());
        os.register_image("devirt", DEVIRT_SOURCE)
            .unwrap_or_else(|e| panic!("devirt guest does not compile: {e}"));
        os.spawn("devirt", &n.to_string(), None).expect("guest spawns");
        let analysis = os.analysis();
        let (mono, poly) = analysis.devirt_counts();
        let (me, mt) = analysis.monitor_counts();
        println!("{}", analysis.verdict_summary());
        (mono, poly, me, mt)
    };
    let virtual_sites = mono_sites + poly_sites;
    assert!(mono_sites > 0, "no monomorphic virtual sites found");
    assert!(mon_elidable > 0, "no elidable monitor ops found");

    rule(74);
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "config", "ops", "wall s", "Mops/s", "devirt", "elided", "virt s"
    );
    rule(74);

    let mut base: Option<(u64, f64, i64)> = None;
    let mut wall_on = f64::INFINITY;
    let mut wall_off = f64::INFINITY;
    let mut dyn_counters = (0u64, 0u64);
    for rep in 0..reps * 2 {
        let analysis_on = rep % 2 == 0;
        let (ops, virt, checksum, wall, counters) = run_once(&platform, n, analysis_on);
        match &mut base {
            None => base = Some((ops, virt, checksum)),
            Some((b_ops, b_virt, b_sum)) => {
                // The contract this bench exists to check: virtual numbers
                // are identical across reps and configurations.
                assert_eq!(*b_ops, ops, "ops moved (analysis={analysis_on})");
                assert_eq!(*b_virt, virt, "virtual time moved (analysis={analysis_on})");
                assert_eq!(*b_sum, checksum, "checksum moved (analysis={analysis_on})");
            }
        }
        if analysis_on {
            wall_on = wall_on.min(wall);
            assert!(counters.0 > 0, "analysis on but no devirtualized calls");
            assert!(counters.1 > 0, "analysis on but no monitors elided");
            dyn_counters = counters;
        } else {
            wall_off = wall_off.min(wall);
            assert_eq!(counters, (0, 0), "analysis off but counters moved");
        }
    }
    let (ops, virt, checksum) = base.expect("reps >= 1");
    let mops_on = ops as f64 / wall_on.max(1e-9) / 1e6;
    let mops_off = ops as f64 / wall_off.max(1e-9) / 1e6;
    for (label, wall, mops, counters) in [
        ("on", wall_on, mops_on, dyn_counters),
        ("off", wall_off, mops_off, (0, 0)),
    ] {
        println!(
            "{:<10} {:>12} {} {} {:>9} {:>9} {}",
            label,
            ops,
            cell(wall, 10, 3),
            cell(mops, 10, 2),
            counters.0,
            counters.1,
            cell(virt, 8, 3),
        );
    }
    rule(74);
    let ratio = mono_sites as f64 / (virtual_sites as f64).max(1.0);
    println!(
        "{mono_sites}/{virtual_sites} virtual sites monomorphic ({:.0}%); \
         {mon_elidable}/{mon_total} monitor ops elidable; {} devirtualized calls and \
         {} elided monitor ops at runtime; virtual numbers identical across all {} runs",
        ratio * 100.0,
        dyn_counters.0,
        dyn_counters.1,
        reps * 2
    );

    // --- machine-readable report -----------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"devirt_throughput\",");
    let _ = writeln!(json, "  \"platform\": \"{}\",", platform.name);
    let _ = writeln!(json, "  \"mode\": \"{}\",", if quick { "quick" } else { "full" });
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(
        json,
        "  \"benchmarks\": [{{\"name\": \"devirt\", \"n\": {n}, \"ops\": {ops}, \
         \"virtual_seconds\": {virt:.6}, \"checksum\": {checksum}}}],"
    );
    let _ = writeln!(
        json,
        "  \"total\": {{\"virtual_sites\": {virtual_sites}, \
         \"monomorphic_sites\": {mono_sites}, \"monomorphic_ratio\": {}, \
         \"monitor_ops\": {mon_total}, \"monitor_ops_elidable\": {mon_elidable}, \
         \"devirt_calls\": {}, \"monitors_elided\": {}, \
         \"wall_on_seconds\": {}, \"wall_off_seconds\": {}, \
         \"mops_analysis_on\": {}, \"mops_analysis_off\": {}}},",
        json_f(ratio),
        dyn_counters.0,
        dyn_counters.1,
        json_f(wall_on),
        json_f(wall_off),
        json_f(mops_on),
        json_f(mops_off),
    );
    json.push_str("  \"virtual_identical\": true\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("report -> {out_path}");
}
