//! The chaos-kernel acceptance suite: seeded fault injection driven through
//! the full kernel, with the invariant auditor run after every experiment.
//!
//! Covers the four injection mechanisms of [`kaffeos::FaultPlan`] —
//! allocation failures at every index (one-shot and persistent), the
//! termination sweep, forced GC at every safepoint, and illegal cross-heap
//! writes — plus replay determinism: the same seed must produce a
//! byte-identical audit report.

use kaffeos::trace::TraceBuffer;
use kaffeos::{AllocFault, ExitStatus, FaultPlan, KaffeOs, KaffeOsConfig, Pid, SpawnOpts};

/// A small, allocation-dense 3-process workload whose total allocation
/// count stays low enough to sweep an injected OOM across *every* index.
const SMALL_IMAGES: &[(&str, &str)] = &[
    (
        "alloc",
        r#"
        class Main {
            static int main(int n) {
                int acc = 0;
                for (int i = 0; i < 40; i = i + 1) {
                    int[] j = new int[8 + n];
                    acc = acc + j[0] + i;
                }
                return acc;
            }
        }
        "#,
    ),
    (
        "shmer",
        r#"
        class Main {
            static int main(int n) {
                try {
                    if (Shm.lookup("box") < 0) {
                        Shm.create("box", "Cell", 16);
                    }
                    Cell c = Shm.get("box", n % 16) as Cell;
                    c.value = n;
                    return c.value;
                } catch (Exception e) {
                    return -5;
                }
            }
        }
        "#,
    ),
    ("brief", "class Main { static int main() { return 1; } }"),
];

fn build_os() -> KaffeOs {
    let mut os = KaffeOs::new(KaffeOsConfig::default());
    os.load_shared_source("class Cell { int value; }").unwrap();
    for (name, src) in SMALL_IMAGES {
        os.register_image(name, src).unwrap();
    }
    os
}

fn build_os_traced() -> KaffeOs {
    let mut os = KaffeOs::new(KaffeOsConfig {
        trace: true,
        ..KaffeOsConfig::default()
    });
    os.load_shared_source("class Cell { int value; }").unwrap();
    for (name, src) in SMALL_IMAGES {
        os.register_image(name, src).unwrap();
    }
    os
}

fn spawn_workload(os: &mut KaffeOs) -> Vec<Pid> {
    [("alloc", "2"), ("shmer", "1"), ("brief", "0")]
        .iter()
        .map(|(image, arg)| {
            os.spawn_with(
                image,
                arg,
                SpawnOpts {
                    mem_limit: Some(1 << 20),
                    ..SpawnOpts::default()
                },
            )
            .unwrap()
        })
        .collect()
}

/// Drains the run, collects twice, and asserts the audit plus full
/// reclamation of the machine budget.
fn finish_and_audit(os: &mut KaffeOs, label: &str) {
    let pids: Vec<Pid> = (1..=3).map(Pid).collect();
    for &pid in &pids {
        let _ = os.kill(pid);
    }
    os.run(Some(os.clock() + 100_000_000));
    os.kernel_gc();
    os.kernel_gc();
    if let Err(v) = os.audit() {
        panic!("{label}: audit failed: {v}");
    }
    let root = os.space().root_memlimit();
    assert_eq!(
        os.space().limits().current(root),
        0,
        "{label}: machine budget must drain to zero"
    );
}

/// Injected OOM at *every* allocation index of the workload: whatever the
/// index hits — guest allocation, argument string, shared-heap population,
/// entry/exit item — only the offending process may suffer, never the
/// kernel, and every invariant must survive.
#[test]
fn oom_at_every_allocation_index_is_contained() {
    // Measure the clean run's allocation-attempt span first.
    let (baseline, total) = {
        let mut os = build_os();
        let baseline = os.space().alloc_count();
        spawn_workload(&mut os);
        os.run(Some(os.clock() + 100_000_000));
        (baseline, os.space().alloc_count())
    };
    assert!(
        total >= baseline + 20,
        "workload too small to sweep (baseline {baseline}, total {total})"
    );

    for at in baseline..total {
        let mut os = build_os();
        let mut plan = FaultPlan::quiet(at);
        plan.alloc_fault = Some(AllocFault {
            at,
            persistent: false,
        });
        os.install_faults(plan);
        spawn_workload(&mut os);
        os.run(Some(os.clock() + 100_000_000));
        if let Err(v) = os.audit() {
            panic!("one-shot OOM at allocation {at}: audit failed: {v}");
        }
        finish_and_audit(&mut os, &format!("one-shot OOM at allocation {at}"));
    }

    // Persistent variant: from some index on, *every* allocation fails.
    // Much harsher — processes die of OOM — but the invariants must hold.
    for at in (baseline..total).step_by(7) {
        let mut os = build_os();
        let mut plan = FaultPlan::quiet(at);
        plan.alloc_fault = Some(AllocFault {
            at,
            persistent: true,
        });
        os.install_faults(plan);
        spawn_workload(&mut os);
        os.run(Some(os.clock() + 100_000_000));
        if let Err(v) = os.audit() {
            panic!("persistent OOM from allocation {at}: audit failed: {v}");
        }
        // Reclamation must work even while allocation keeps failing.
        os.clear_faults();
        finish_and_audit(&mut os, &format!("persistent OOM from allocation {at}"));
    }
}

/// Replaying the same fault seed must produce a byte-identical audit
/// report — the harness' determinism contract.
#[test]
fn same_seed_replays_to_identical_audit_reports() {
    let run = |seed: u64| {
        let mut os = build_os();
        os.install_faults(FaultPlan::from_seed(seed));
        spawn_workload(&mut os);
        os.run(Some(20_000_000));
        os.kernel_gc();
        let audit = format!("{:?}", os.audit());
        let plan = format!("{:?}", os.faults());
        (os.clock(), audit, plan)
    };
    for seed in [1u64, 7, 42, 0xDEAD, 0xFEED_5EED, 0x0123_4567_89AB_CDEF] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "seed {seed:#x} did not replay identically");
    }
}

/// The golden-trace contract: the same workload and fault seed must produce
/// **byte-identical** traces across two fresh kernel instances — both the
/// JSON-lines golden format and the Chrome `trace_event` export. Any hidden
/// nondeterminism (hash-map iteration, unsorted GC roots, unordered wakes)
/// shows up here as the first diverging line.
#[test]
fn same_seed_replays_to_byte_identical_traces() {
    let run = |seed: u64| {
        let mut os = build_os_traced();
        os.install_faults(FaultPlan::from_seed(seed));
        spawn_workload(&mut os);
        os.run(Some(20_000_000));
        os.kernel_gc();
        let trace = &os.obs().trace;
        (
            trace.read(TraceBuffer::jsonl),
            trace.read(TraceBuffer::chrome),
        )
    };
    for seed in [1u64, 7, 42, 0xDEAD, 0xFEED_5EED] {
        let (jsonl_a, chrome_a) = run(seed);
        let (jsonl_b, chrome_b) = run(seed);
        assert!(
            jsonl_a.lines().count() > 10,
            "seed {seed:#x}: traced run recorded almost nothing"
        );
        assert_eq!(
            jsonl_a, jsonl_b,
            "seed {seed:#x}: JSON-lines traces diverged"
        );
        assert_eq!(chrome_a, chrome_b, "seed {seed:#x}: Chrome traces diverged");
    }
}

/// A kill delivered while a thread sits inside the kernel (`kernel_depth >
/// 0`, here parked in `proc.wait`) is deferred, and a one-shot allocation
/// fault landing in the middle of shared-heap creation leaves the registry
/// consistent: the heap either exists fully frozen or not at all.
#[test]
fn oneshot_alloc_fault_in_kernel_mode_defers_kill() {
    let mut os = build_os();
    os.register_image(
        "sleeper",
        "class Spin { static int main() { while (true) { } return 0; } }",
    )
    .unwrap();
    os.register_image(
        "waiter",
        "class Main { static int main(int t) { return Proc.wait(t); } }",
    )
    .unwrap();
    let sleeper = os.spawn("sleeper", "", None).unwrap();
    let waiter = os.spawn("waiter", &sleeper.0.to_string(), None).unwrap();
    os.run(Some(os.clock() + 2_000_000));

    // The waiter is parked inside the kernel; a kill must be deferred.
    os.kill(waiter).unwrap();
    assert!(os.is_alive(waiter), "kill must defer while inside the kernel");

    // Arm a one-shot fault a few allocations ahead, then create a shared
    // heap: the fault lands inside the kernel's population loop (or the
    // guest's own allocations around it) and must be contained either way.
    let mut plan = FaultPlan::quiet(0xD3F3);
    plan.alloc_fault = Some(AllocFault {
        at: os.space().alloc_count() + 10,
        persistent: false,
    });
    os.install_faults(plan);
    let shmer = os.spawn("shmer", "2", None).unwrap();
    os.run(Some(os.clock() + 50_000_000));
    assert!(!os.is_alive(shmer), "shmer runs to completion");

    // Freeze-state consistency: whatever the fault interrupted, a
    // registered shared heap is fully frozen and its sharers are live.
    for (name, shm) in os.shm_registry().iter() {
        let snap = os.space().snapshot(shm.heap).unwrap();
        assert!(snap.frozen, "shared heap {name} registered but not frozen");
    }
    if let Err(v) = os.audit() {
        panic!("audit with deferred kill pending: {v}");
    }
    assert!(os.is_alive(waiter), "deferred kill must still be pending");

    // Release the waiter: the sleeper dies, the wait returns, and the
    // deferred kill fires at the next safe point.
    os.kill(sleeper).unwrap();
    os.run(Some(os.clock() + 50_000_000));
    assert!(!os.is_alive(waiter), "deferred kill fires after the wait");
    assert_eq!(os.status(waiter), Some(ExitStatus::Killed));
    finish_and_audit(&mut os, "deferred-kill experiment");
}

/// Every injected illegal cross-heap write must be rejected by the write
/// barrier, and the probe's garbage must be fully reclaimed afterwards.
#[test]
fn barrier_rejects_every_injected_illegal_write() {
    let mut os = build_os();
    os.register_image(
        "spin",
        "class Spin { static int main() { while (true) { } return 0; } }",
    )
    .unwrap();
    for _ in 0..3 {
        os.spawn("spin", "", Some(1 << 20)).unwrap();
    }
    let mut plan = FaultPlan::quiet(0x0BAD_C0DE);
    plan.illegal_writes = true;
    os.install_faults(plan);
    os.run(Some(os.clock() + 20_000_000));

    let plan = os.faults().unwrap();
    assert!(
        plan.illegal_writes_attempted > 0,
        "the probe must have fired"
    );
    assert_eq!(
        plan.illegal_writes_accepted, 0,
        "the barrier accepted an illegal write"
    );
    if let Err(v) = os.audit() {
        panic!("audit under illegal-write probing: {v}");
    }
    finish_and_audit(&mut os, "illegal-write experiment");
}

/// A forced collection at every safepoint is semantically transparent: the
/// workload's exit statuses match an unfaulted run, and the audit is clean.
#[test]
fn gc_at_every_safepoint_is_transparent() {
    let statuses = |gc_storm: bool| {
        let mut os = build_os();
        if gc_storm {
            let mut plan = FaultPlan::quiet(0x6C);
            plan.gc_every_safepoint = true;
            os.install_faults(plan);
        }
        let pids = spawn_workload(&mut os);
        os.run(Some(os.clock() + 500_000_000));
        if let Err(v) = os.audit() {
            panic!("gc_storm={gc_storm}: audit failed: {v}");
        }
        pids.iter().map(|&p| os.status(p)).collect::<Vec<_>>()
    };
    let clean = statuses(false);
    let stormy = statuses(true);
    assert!(
        clean.iter().all(|s| s.is_some()),
        "workload must finish: {clean:?}"
    );
    assert_eq!(clean, stormy, "forced GC at safepoints changed results");
}

// ---------------------------------------------------------------------------
// Pre-optimisation golden fixtures (host fast-path regression gate)
// ---------------------------------------------------------------------------

/// Seeds pinned into `tests/fixtures/trace_seed<N>.jsonl`.
const TRACE_FIXTURE_SEEDS: [u64; 3] = [1, 2, 3];

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// One standard workload run through the interpreter/GC fast paths under a
/// fault seed, returning the JSON-lines event stream.
fn golden_trace(seed: u64) -> String {
    let mut os = build_os_traced();
    os.install_faults(FaultPlan::from_seed(seed));
    spawn_workload(&mut os);
    os.run(Some(20_000_000));
    os.kernel_gc();
    os.obs().trace.read(TraceBuffer::jsonl)
}

/// Points at the first diverging line so a broken run is debuggable without
/// dumping two full traces.
fn assert_same_text(got: &str, want: &str, label: &str) {
    if got == want {
        return;
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{label}: first divergence at line {}", i + 1);
    }
    panic!(
        "{label}: line counts diverged (got {}, want {})",
        got.lines().count(),
        want.lines().count()
    );
}

/// The traces produced by the optimised fast paths (flat value stacks,
/// allocation-free GC marking, FxHash tables) must be byte-identical to the
/// fixtures captured **before** those optimisations landed: virtual time is
/// a pure function of (program, seed), and host-side speed must never leak
/// into it. Regeneration is deliberate only (see `regenerate_trace_fixtures`).
#[test]
fn traces_match_pre_optimisation_fixtures() {
    for seed in TRACE_FIXTURE_SEEDS {
        let path = fixture_path(&format!("trace_seed{seed}.jsonl"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let got = golden_trace(seed);
        assert_same_text(&got, &want, &format!("seed {seed} trace"));
    }
}

/// Writes the golden trace fixtures. Run only when virtual behaviour is
/// *meant* to change (a new opcode cost, a scheduler change), never for a
/// host-side optimisation:
/// `cargo test -p kaffeos --test fault_injection -- --ignored regenerate`
#[test]
#[ignore = "writes golden fixtures; run only on a deliberate virtual-behaviour change"]
fn regenerate_trace_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    for seed in TRACE_FIXTURE_SEEDS {
        let path = fixture_path(&format!("trace_seed{seed}.jsonl"));
        std::fs::write(&path, golden_trace(seed)).unwrap();
        println!("wrote {}", path.display());
    }
}

/// `PutStatic` pops its value before the class's statics object exists;
/// the statics object's first allocation must keep that value a root, or a
/// collection on its retry frees the new `Box` and the store writes a
/// stale reference. A one-shot OOM at every allocation index of the run
/// (the statics object's included) must leave the guest's answer intact.
#[test]
fn put_static_keeps_its_popped_reference_across_a_collection() {
    const SRC: &str = "class Box { int v; } class Holder { static Box b; } \
        class Main { static int main() { Holder.b = new Box(); Holder.b.v = 7; return Holder.b.v; } }";
    let boot = || {
        let mut os = KaffeOs::new(KaffeOsConfig::default());
        os.register_image("statics", SRC).unwrap();
        os
    };
    let (baseline, total) = {
        let mut os = boot();
        let baseline = os.space().alloc_count();
        let pid = os.spawn("statics", "", None).unwrap();
        os.run_until_exit(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(7)));
        (baseline, os.space().alloc_count())
    };
    assert!(total > baseline + 1, "the guest must allocate its statics");
    for at in baseline..total {
        let mut os = boot();
        let mut plan = FaultPlan::quiet(at);
        plan.alloc_fault = Some(AllocFault {
            at,
            persistent: false,
        });
        os.install_faults(plan);
        let pid = os.spawn("statics", "", None).unwrap();
        os.run_until_exit(None);
        assert_eq!(
            os.status(pid),
            Some(ExitStatus::Exited(7)),
            "one-shot OOM at allocation {at}"
        );
        if let Err(v) = os.audit() {
            panic!("one-shot OOM at allocation {at}: audit failed: {v}");
        }
    }
}
