//! Cross-validation of the static heap-flow analyzer against the dynamic
//! write barrier — the machine-checked soundness argument for the lint.
//!
//! The claim: a store site the analyzer marks `Elide` (proven
//! `Local → Local`) can never raise a segmentation violation. Every guest
//! store takes the checked barrier, so the barrier itself is the oracle:
//! drive the CI fault sweep (all eight seeds) plus a purpose-built
//! frozen-heap writer through the full kernel, record every *dynamic*
//! violation's `(method, pc)`, and assert the static verdict at each one
//! is a non-`Elide` classification (`FrozenWrite` or `Unknown`, with the
//! receiver in `SharedFrozen`/`MayCross`/`Top`).

use kaffeos::analyze::{Region, Verdict};
use kaffeos::{ExitStatus, FaultPlan, KaffeOs, KaffeOsConfig, Pid, SegViolationKind, SpawnOpts};

/// The CI fault-sweep seeds (`ci.yml`'s fault-sweep job).
const SWEEP_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 42];

/// Stores a reference into a frozen shared object: the one segmentation
/// violation guest bytecode can reach on its own (cross-heap references
/// are unobtainable while the barrier enforces, but a frozen `Node`'s ref
/// field is right there to write to).
const FROZEN_WRITER: &str = r#"
    class Main {
        static int main(int n) {
            int caught = 0;
            try {
                if (Shm.lookup("ring") < 0) {
                    Shm.create("ring", "Node", 4);
                }
                Node a = Shm.get("ring", 0) as Node;
                a.next = a;
                caught = 2;
            } catch (Exception e) {
                caught = 1;
            }
            return caught;
        }
    }
"#;

const ALLOC: &str = r#"
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
"#;

const SHMER: &str = r#"
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
"#;

/// Monitor- and virtual-call-dense guest: a fresh frame-local lock synced
/// every iteration and a monomorphic `bump` call, run here under fault
/// injection beside the barrier-heavy guests.
const SYNCER: &str = r#"
    class Worker {
        int v;
        int bump(int d) { return this.v + d; }
    }
    class Main {
        static int main(int n) {
            int acc = 0;
            int i = 0;
            while (i < 200) {
                Worker w = new Worker();
                w.v = i;
                acc = acc + w.bump(n);
                Object lock = new Object();
                sync (lock) { acc = acc + i; }
                i = i + 1;
            }
            return acc;
        }
    }
"#;

fn build_os(config: KaffeOsConfig) -> KaffeOs {
    let mut os = KaffeOs::new(config);
    os.load_shared_source("class Cell { int value; }").unwrap();
    os.load_shared_source("class Node { int v; Node next; }")
        .unwrap();
    os.register_image("alloc", ALLOC).unwrap();
    os.register_image("shmer", SHMER).unwrap();
    os.register_image("frozen", FROZEN_WRITER).unwrap();
    os.register_image("syncer", SYNCER).unwrap();
    os
}

fn spawn_workload(os: &mut KaffeOs) -> Vec<Pid> {
    [("alloc", "2"), ("shmer", "1"), ("frozen", "0"), ("syncer", "3")]
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

/// The frozen writer's violation fires, is survivable, and is exactly the
/// site the analyzer condemned: dynamic `FrozenSharedField` at a static
/// `FrozenWrite` verdict, with a `write-after-freeze` lint on the same pc.
#[test]
fn frozen_writer_is_caught_dynamically_and_statically()
{
    let mut os = build_os(KaffeOsConfig::default());
    let pid = os.spawn("frozen", "0", None).unwrap();
    os.run(Some(os.clock() + 500_000_000));
    assert_eq!(
        os.status(pid),
        Some(ExitStatus::Exited(1)),
        "the guest must catch the SegmentationViolation"
    );

    let sites = os.seg_violation_sites();
    assert!(!sites.is_empty(), "the frozen write must be recorded");
    let analysis = os.analysis();
    for site in sites {
        assert_eq!(site.kind, SegViolationKind::FrozenSharedField);
        let s = analysis
            .site(site.method, site.pc)
            .expect("violating site must be analyzed");
        assert_eq!(s.verdict, Verdict::FrozenWrite);
        assert_eq!(s.recv, Region::SharedFrozen);
        assert!(
            analysis.lints.iter().any(|l| {
                l.kind == kaffeos::analyze::LintKind::WriteAfterFreeze && l.pc == site.pc
            }),
            "the write-after-freeze lint must point at pc {}",
            site.pc
        );
    }
}

/// The acceptance criterion: under the full 8-seed CI fault sweep, every
/// runtime barrier violation occurs at a site the analyzer classified as
/// possibly-crossing — never at one it proved `Local → Local`.
#[test]
fn every_dynamic_violation_is_statically_non_elidable() {
    let mut total_violations = 0usize;
    for seed in SWEEP_SEEDS {
        let mut os = build_os(KaffeOsConfig::default());
        os.install_faults(FaultPlan::from_seed(seed));
        spawn_workload(&mut os);
        os.run(Some(os.clock() + 500_000_000));

        let analysis = os.analysis();
        for site in os.seg_violation_sites() {
            total_violations += 1;
            match analysis.site(site.method, site.pc) {
                None => assert!(
                    analysis.is_bailed(site.method),
                    "seed {seed}: unanalyzed violating site {site:?} in a non-bailed method"
                ),
                Some(s) => {
                    assert!(
                        matches!(s.verdict, Verdict::FrozenWrite | Verdict::Unknown),
                        "seed {seed}: dynamic violation at statically-safe site {site:?} ({:?})",
                        s.verdict
                    );
                    assert!(
                        matches!(
                            s.recv,
                            Region::SharedFrozen | Region::MayCross | Region::Top
                        ),
                        "seed {seed}: violating receiver classified {:?}",
                        s.recv
                    );
                }
            }
        }
    }
    assert!(
        total_violations > 0,
        "the sweep must provoke at least one guest violation"
    );
}

/// Catches a frozen write `n` times at one store site.
const FROZEN_LOOP: &str = r#"
    class Main {
        static int main(int n) {
            Shm.create("loop", "Node", 1);
            Node a = Shm.get("loop", 0) as Node;
            int caught = 0;
            for (int i = 0; i < n; i = i + 1) {
                try {
                    a.next = a;
                } catch (Exception e) {
                    caught = caught + 1;
                }
            }
            return caught;
        }
    }
"#;

/// Guest code cannot grow the kernel's violation record: a guest that
/// catches 100 000 frozen writes at one store site leaves one entry, not
/// one per write. The record keeps each distinct `(method, pc, kind)`.
#[test]
fn repeated_violations_at_one_site_are_recorded_once() {
    let mut os = build_os(KaffeOsConfig::default());
    os.register_image("frozen-loop", FROZEN_LOOP).unwrap();
    let pid = os.spawn("frozen-loop", "100000", None).unwrap();
    os.run(None);
    assert_eq!(os.status(pid), Some(ExitStatus::Exited(100_000)));
    let sites = os.seg_violation_sites();
    assert_eq!(sites.len(), 1, "first sites: {:?}", &sites[..sites.len().min(3)]);
    assert_eq!(sites[0].kind, SegViolationKind::FrozenSharedField);
}
