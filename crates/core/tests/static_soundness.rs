//! Cross-validation of the static heap-flow analyzer against the dynamic
//! write barrier — the machine-checked soundness argument for barrier
//! elision.
//!
//! The claim: a store site the analyzer marks `Elide` can never raise a
//! segmentation violation, because elision means the barrier's legality
//! checks are skipped there. The check: drive the CI fault sweep (all
//! eight seeds) plus a purpose-built frozen-heap writer through the full
//! kernel, record every *dynamic* violation's `(method, pc)`, and assert
//! the static verdict at each one is a non-elidable classification
//! (`FrozenWrite` or `Unknown`, with the receiver in
//! `SharedFrozen`/`MayCross`/`Top`) — and that the *published* bitmap the
//! interpreter consults has the bit clear.
//!
//! A second contract rides along: elision is host-wall-clock only. The
//! same seeded workload with `elide` on and off must produce
//! byte-identical traces, clocks, and barrier counters.

use kaffeos::analyze::{Region, Verdict};
use kaffeos::trace::TraceBuffer;
use kaffeos::{
    ExitStatus, FaultPlan, KaffeOs, KaffeOsConfig, Pid, SegViolationKind, SpawnOpts,
};

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
/// possibly-crossing — never at an elided one. Checked against both the
/// analysis verdicts and the live bitmaps the interpreter consults.
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
            // The interpreter-consulted bitmap must have the bit clear —
            // an elided store never runs the checks that record sites, so
            // a hit here would mean the barrier fired where we removed it.
            assert!(
                !os.class_table().method(site.method).elide_at(site.pc),
                "seed {seed}: violation at an elided site {site:?}"
            );
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

/// Elision must be invisible in virtual time: the same seeded workload
/// with `elide` on and off produces byte-identical traces, clocks, and
/// Table-1 barrier counters.
#[test]
fn elision_does_not_move_virtual_time() {
    let run = |elide: bool, seed: u64| {
        let mut os = build_os(KaffeOsConfig {
            trace: true,
            elide,
            ..KaffeOsConfig::default()
        });
        os.install_faults(FaultPlan::from_seed(seed));
        spawn_workload(&mut os);
        let report = os.run(Some(20_000_000));
        os.kernel_gc();
        (
            os.obs().trace.read(TraceBuffer::jsonl),
            os.clock(),
            format!("{:?}", report.barrier),
        )
    };
    for seed in [1u64, 8, 42] {
        let (trace_on, clock_on, barrier_on) = run(true, seed);
        let (trace_off, clock_off, barrier_off) = run(false, seed);
        assert_eq!(clock_on, clock_off, "seed {seed}: clock moved");
        assert_eq!(
            barrier_on, barrier_off,
            "seed {seed}: barrier counters moved"
        );
        assert_eq!(trace_on, trace_off, "seed {seed}: traces diverged");
    }
}

/// The `spawn-churn` guests of the e2e benchmark (`guests/*.cup`).
const PAGE: &str = r#"
    class Main {
        static int main(int i) {
            int[] rows = new int[64];
            for (int j = 0; j < rows.len(); j = j + 1) {
                rows[j] = (i * 37 + j * 101) % 997;
            }
            for (int a = 1; a < rows.len(); a = a + 1) {
                int key = rows[a];
                int b = a - 1;
                while (b >= 0 && rows[b] > key) {
                    rows[b + 1] = rows[b];
                    b = b - 1;
                }
                rows[b + 1] = key;
            }
            StringBuilder b = new StringBuilder();
            b.add("<html><body><h1>page ");
            b.add("" + i);
            b.add("</h1>");
            for (int j = 0; j < 16; j = j + 1) {
                b.add("<p>row " + rows[j] + "</p>");
            }
            b.add("</body></html>");
            String page = b.build();
            return page.len() * 1000 + rows[7];
        }
    }
"#;

const FLAKY: &str = r#"
    class Main {
        static int main(int i) {
            int acc = 0;
            for (int j = 0; j < 400; j = j + 1) {
                acc = acc + (i + j) * 7 % 31;
            }
            int[] a = new int[1];
            return a[1 + acc % 5];
        }
    }
"#;

const SPIN: &str = r#"
    class Spin {
        static int main() {
            while (true) { }
            return 0;
        }
    }
"#;

/// A shared class with a reference field, and a store whose barrier is
/// elidable only while that field's summary stays `Local`.
const HOLDER: &str = r#"
    class Holder {
        Object ref;
        static void copy() {
            Holder a = new Holder();
            Holder b = new Holder();
            b.ref = a.ref;
        }
    }
"#;

/// Stores its parameter into the shared field: the first spawn raises the
/// summary of an old class's field, so the analysis must re-run in full.
const STORER: &str = r#"
    class Main {
        static int main(String s) {
            Holder h = new Holder();
            h.ref = s;
            return 0;
        }
    }
"#;

/// A shared class whose `use` calls `get` with one CHA target until `Box2`
/// loads.
const BOX: &str =
    "class Box { int v; int get() { return this.v; } static int use(Box b) { return b.get(); } }";

/// Overrides `Box.get`: a new CHA target for an old site.
const BOX2: &str = "class Box2 extends Box { int get() { return this.v + 1; } }";

/// The incremental analysis the kernel keeps across loads publishes, for
/// every method after every load, exactly the barrier-elision bitmap a
/// from-scratch `analyze()` of the same table derives — over seeded
/// interleavings of guest spawns, a shared class with a reference field,
/// an image storing a parameter into it (fallback on a raised old
/// summary) and an override of a monomorphic shared method (fallback on a
/// new CHA target).
#[test]
fn incremental_analysis_matches_from_scratch() {
    for seed in 1..=6u64 {
        let mut os = KaffeOs::new(KaffeOsConfig::default());
        for (image, source) in [("page", PAGE), ("flaky", FLAKY), ("spin", SPIN)] {
            os.register_image(image, source).unwrap();
        }
        let (mut holder, mut boxed, mut box2) = (false, false, false);
        let mut rng = seed;
        for step in 0..14 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let what = match (rng >> 33) % 8 {
                0 | 1 => "page",
                2 => "flaky",
                3 => "spin",
                4 if !holder => "holder",
                4 => "storer",
                5 if !boxed => "box",
                5 if !box2 => "box2",
                _ => "page",
            };
            match what {
                "holder" => {
                    os.load_shared_source(HOLDER).unwrap();
                    os.register_image("storer", STORER).unwrap();
                    holder = true;
                }
                "box" => {
                    os.load_shared_source(BOX).unwrap();
                    boxed = true;
                }
                "box2" => {
                    os.load_shared_source(BOX2).unwrap();
                    box2 = true;
                }
                image => {
                    os.spawn(image, "3", Some(1 << 20)).unwrap();
                }
            }
            let table = os.class_table();
            let fresh = kaffeos::analyze::analyze(table);
            for (i, m) in table.methods.iter().enumerate() {
                let midx = kaffeos_vm::MethodIdx(i as u32);
                let at = format!("seed {seed} step {step} ({what}): {}", m.qname);
                assert_eq!(m.elide, fresh.elision_bitmap(table, midx), "elide, {at}");
            }
        }
    }
}
