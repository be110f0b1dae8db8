//! Differential tier oracle: the template JIT must be invisible in every
//! virtual number.
//!
//! Runs every SPEC-analogue benchmark and all six tenant scenarios twice —
//! interpreter-only and JIT-enabled — and compares the virtual outputs
//! byte-for-byte: modelled seconds, barrier and GC cycle counts, checksums
//! (the Figure 3/4 inputs), the scenarios' golden report text (latency
//! histograms included), and the trace/profile planes.
//!
//! `run_spec`/`run_scenario` build their kernels from the `KAFFEOS_JIT`
//! environment toggle, which is process-global — so the whole oracle is
//! ONE test function, and the only one in this binary, to keep the toggle
//! free of races. The per-guest comparison (trace/profile planes, stdout,
//! exit status, clock) pins the tier through explicit configs instead and
//! does not depend on the environment.

use kaffeos::trace::{ProfileStore, TraceBuffer};
use kaffeos::{KaffeOs, KaffeOsConfig};
use kaffeos_vm::JitConfig;
use kaffeos_workloads::runner::{platforms, run_spec, Platform, PlatformKind};
use kaffeos_workloads::scenario::{run_scenario, SCENARIOS};
use kaffeos_workloads::spec::all_benchmarks;

fn kaffeos_platform() -> Platform {
    platforms()
        .into_iter()
        .find(|p| matches!(p.kind, PlatformKind::KaffeOs(kaffeos::BarrierKind::HeapPointer)))
        .expect("heap-pointer platform exists")
}

/// Points at the first diverging line so a mismatch is debuggable without
/// dumping two full reports.
fn assert_same_text(off: &str, on: &str, label: &str) {
    if off == on {
        return;
    }
    for (i, (a, b)) in off.lines().zip(on.lines()).enumerate() {
        assert_eq!(a, b, "{label}: first divergence at line {}", i + 1);
    }
    panic!(
        "{label}: line counts differ ({} interpreter vs {} jit)",
        off.lines().count(),
        on.lines().count()
    );
}

/// Virtual fingerprint of one spec run; everything here must be identical
/// across tiers.
fn spec_fingerprints() -> Vec<(String, f64, u64, u64, u64, i64)> {
    let platform = kaffeos_platform();
    all_benchmarks()
        .into_iter()
        .map(|bench| {
            let r = run_spec(&bench, &platform, bench.test_n);
            (
                bench.name.to_string(),
                r.virtual_seconds,
                r.barriers_executed,
                r.barrier_cycles,
                r.gc_cycles,
                r.checksum,
            )
        })
        .collect()
}

fn scenario_texts(seed: u64) -> Vec<(&'static str, String)> {
    SCENARIOS
        .iter()
        .map(|&name| {
            let report = run_scenario(name, seed).expect("known scenario");
            (report.name, report.text)
        })
        .collect()
}

/// A loop past the tier threshold whose body is nothing but inlined ops.
const CHURN: &str = r#"
    class Main {
        static int work(int i) { return i * 3 + 1; }
        static int main(int n) {
            int acc = 0;
            for (int i = 0; i < 30000; i = i + 1) { acc = acc + work(i); }
            int[] a = new int[64 + n];
            for (int i = 0; i < a.len(); i = i + 1) { a[i] = acc + i; }
            Sys.gc();
            return acc + a[63];
        }
    }
"#;

/// Every runtime op's fault path, raised and caught inside a loop that has
/// long since tiered up (200 iterations against a threshold of 64), plus a
/// monitor two threads fight over: the holder yields inside its critical
/// section and again after it, so on every iteration the other thread's
/// `MonitorEnter` blocks and must rewind its pc to retry. The non-atomic
/// `sum` update only adds up under exclusion.
const FAULTS: &str = r#"
    class Animal { int legs() { return 4; } }
    class Dog extends Animal { }
    class Cat extends Animal { }
    class Work {
        static Object lock;
        static int sum;
        static int done;
        static void run(int base) {
            for (int i = 0; i < 200; i = i + 1) {
                sync (Work.lock) {
                    int seen = Work.sum;
                    Sys.yield();
                    Work.sum = seen + base;
                }
                Sys.yield();
            }
            sync (Work.lock) { Work.done = Work.done + 1; }
        }
    }
    class Main {
        static int faults(int n) {
            int caught = 0;
            for (int i = 0; i < n; i = i + 1) {
                bool show = i == n - 1;
                try {
                    Animal a = null;
                    caught = caught + a.legs();
                } catch (NullPointerException e) {
                    caught = caught + 1;
                    if (show) { Sys.print(e.msg); }
                }
                try {
                    int[] xs = new int[i % 3 - 3];
                    caught = caught + xs.len();
                } catch (IndexOutOfBoundsException e) {
                    caught = caught + 2;
                    if (show) { Sys.print(e.msg); }
                }
                try {
                    Animal a = new Dog();
                    Cat c = a as Cat;
                    caught = caught + c.legs();
                } catch (ClassCastException e) {
                    caught = caught + 3;
                    if (show) { Sys.print(e.msg); }
                }
                try {
                    caught = caught + "abc".charAt(3 + i % 2);
                } catch (IndexOutOfBoundsException e) {
                    caught = caught + 4;
                    if (show) { Sys.print(e.msg); }
                }
                try {
                    caught = caught + "abc".substr(2, 4 + i % 2).len();
                } catch (IndexOutOfBoundsException e) {
                    caught = caught + 5;
                    if (show) { Sys.print(e.msg); }
                }
                try {
                    caught = caught + "12x".toInt();
                } catch (ArithmeticException e) {
                    caught = caught + 6;
                    if (show) { Sys.print(e.msg); }
                }
                try {
                    Exception none = null;
                    throw none;
                } catch (NullPointerException e) {
                    caught = caught + 7;
                    if (show) { Sys.print(e.msg); }
                }
            }
            return caught;
        }
        static int main(int n) {
            Work.lock = new Object();
            Proc.thread("Work", "run", 1);
            Proc.thread("Work", "run", 2);
            int caught = Main.faults(n);
            while (Work.done < 2) { Sys.yield(); }
            Sys.print("caught " + caught + " sum " + Work.sum);
            return caught + Work.sum;
        }
    }
"#;

/// Everything virtual one guest leaves behind under an explicitly pinned
/// tier (no env): trace and profile planes, stdout, exit status, and the
/// final clock. `compiled` is host-side and only says the tier was used.
struct GuestRun {
    trace: String,
    profile: String,
    stdout: Vec<String>,
    status: Option<kaffeos::ExitStatus>,
    clock: u64,
    compiled: u64,
}

fn run_guest(jit: bool, src: &str, args: &str) -> GuestRun {
    let mut os = KaffeOs::new(KaffeOsConfig {
        trace: true,
        profile: true,
        jit: JitConfig {
            enabled: jit,
            ..JitConfig::default()
        },
        ..KaffeOsConfig::default()
    });
    os.register_image("guest", src).unwrap();
    let pid = os.spawn("guest", args, Some(1 << 20)).unwrap();
    os.run(Some(60_000_000));
    os.kernel_gc();
    GuestRun {
        trace: os.obs().trace.read(TraceBuffer::jsonl),
        profile: os.obs().profile.read(ProfileStore::folded),
        stdout: os.stdout(pid).to_vec(),
        status: os.status(pid),
        clock: os.clock(),
        compiled: os.jit_stats(pid).map(|s| s.compiled).unwrap_or(0),
    }
}

/// The one oracle: interpreter-only vs JIT-enabled, everything virtual
/// byte-compared.
#[test]
fn jit_tier_is_virtually_invisible() {
    let saved = std::env::var("KAFFEOS_JIT").ok();

    std::env::set_var("KAFFEOS_JIT", "off");
    let spec_off = spec_fingerprints();
    let scen_off = scenario_texts(1);

    std::env::set_var("KAFFEOS_JIT", "on");
    let spec_on = spec_fingerprints();
    let scen_on = scenario_texts(1);

    match saved {
        Some(v) => std::env::set_var("KAFFEOS_JIT", v),
        None => std::env::remove_var("KAFFEOS_JIT"),
    }

    for (off, on) in spec_off.iter().zip(spec_on.iter()) {
        assert_eq!(off, on, "spec benchmark {} diverged across tiers", off.0);
    }
    for ((name, off), (_, on)) in scen_off.iter().zip(scen_on.iter()) {
        assert_same_text(off, on, &format!("scenario {name}"));
    }

    for (label, src, args, exit) in [
        ("churn", CHURN, "2", None),
        // 200 × (1+…+7) caught, 200 × (1+2) summed under the monitor.
        ("faults", FAULTS, "200", Some(200 * 28 + 200 * 3)),
    ] {
        let off = run_guest(false, src, args);
        let on = run_guest(true, src, args);
        assert!(
            off.trace.contains("\n"),
            "{label}: trace plane must have produced events"
        );
        assert_eq!(off.compiled, 0, "{label}: reference run must not tier");
        assert!(on.compiled >= 2, "{label}: hot loops must have tiered up");
        if let Some(code) = exit {
            assert_eq!(off.status, Some(kaffeos::ExitStatus::Exited(code)), "{label}");
        }
        assert_same_text(&off.trace, &on.trace, &format!("{label}: trace plane"));
        assert_same_text(&off.profile, &on.profile, &format!("{label}: profile plane"));
        assert_eq!(off.stdout, on.stdout, "{label}: stdout diverged across tiers");
        assert_eq!(off.status, on.status, "{label}: exit status diverged across tiers");
        assert_eq!(off.clock, on.clock, "{label}: final clock diverged across tiers");
    }
}
