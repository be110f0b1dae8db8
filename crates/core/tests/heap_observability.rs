//! Acceptance suite for the heap-observability plane: allocation-site
//! profiling, deterministic heap dumps, and the GC/page timeline.
//!
//! Four contracts, each machine-checked here:
//!
//! 1. **Determinism** — every export (folded stacks, survival table, SVG,
//!    timeline, histograms) and the whole-space dump is a pure function of
//!    `(program, seed)`: two fresh kernels replay byte-identically.
//! 2. **Reconciliation** — a dump's walked `recount` lines agree exactly
//!    with each heap's accounted `bytes_used`/`objects`, and the space
//!    audit (which itself reconciles the memlimit tree) stays clean.
//! 3. **Cross-validation** — every runtime cross-heap edge the census
//!    attributes to guest bytecode lands on a store site the static
//!    analyzer did not prove `Local → Local`: observability agrees with
//!    the lint's soundness argument, from the opposite direction.
//! 4. **Invisibility** — the plane is host-plane only. With it enabled,
//!    traces still byte-match the pre-optimisation golden fixtures (the
//!    disabled half is `trace_events.rs`'s `disabled_planes_record_nothing`).

use kaffeos::analyze::Verdict;
use kaffeos::trace::{HeapProfStore, TraceBuffer};
use kaffeos::{FaultPlan, KaffeOs, KaffeOsConfig, Pid, SpawnOpts};
use kaffeos_vm::MethodIdx;

/// The standard 3-process chaos workload — byte-for-byte the images behind
/// the `trace_seed<N>.jsonl` golden fixtures (`fault_injection.rs`), so the
/// fixture-invariance test below replays the exact recorded program.
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

/// Stores references to frozen shared objects into a local holder: the
/// legal way guest bytecode mints `shared_frozen` cross-heap edges, so the
/// census has guest-attributed rows to cross-validate.
const XHOLDER: &str = r#"
    class Holder { Cell c; }
    class Main {
        static int main(int n) {
            int acc = 0;
            try {
                if (Shm.lookup("hoard") < 0) {
                    Shm.create("hoard", "Cell", 16);
                }
                Holder h = new Holder();
                for (int i = 0; i < 8; i = i + 1) {
                    h.c = Shm.get("hoard", i) as Cell;
                    acc = acc + h.c.value;
                }
            } catch (Exception e) {
                acc = -1;
            }
            return acc;
        }
    }
"#;

fn build_os(heapprof: bool, trace: bool) -> KaffeOs {
    let mut os = KaffeOs::new(KaffeOsConfig {
        heapprof,
        trace,
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

/// Extracts the integer following `"key":` in a hand-rolled JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let digits: String = line[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Extracts the integer following `key:\t` in procfs-style text.
fn procfs_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("{key}:\t");
    text.lines()
        .find_map(|l| l.strip_prefix(&pat))
        .and_then(|v| v.trim().parse().ok())
}

// ---------------------------------------------------------------------------
// 1. Determinism
// ---------------------------------------------------------------------------

/// Every observability artifact — both folded profiles, the survival
/// table, the flamegraph SVG, the timeline, the pause histograms, and the
/// whole-space dump — must replay byte-identically across two fresh
/// kernels running the same seeded workload.
#[test]
fn exports_and_dump_are_byte_identical_across_runs() {
    let run = |seed: u64| {
        let mut os = build_os(true, false);
        os.register_image("xholder", XHOLDER).unwrap();
        os.install_faults(FaultPlan::from_seed(seed));
        spawn_workload(&mut os);
        os.spawn("xholder", "0", Some(1 << 20)).unwrap();
        os.run(Some(20_000_000));
        os.kernel_gc();
        let (heap, class) = (&os.obs().heap, |tag| os.class_tag_name(tag));
        [
            heap.read(|h| h.folded_bytes(&class)),
            heap.read(|h| h.folded_objects(&class)),
            heap.read(|h| h.flamegraph_svg(&class)),
            heap.read(|h| h.survival_text(&class)),
            heap.read(HeapProfStore::timeline_jsonl),
            heap.read(HeapProfStore::heap_hists_text),
            os.heap_dump(),
        ]
    };
    for seed in [1u64, 8] {
        let a = run(seed);
        let b = run(seed);
        let labels = [
            "folded bytes", "folded objects", "svg", "survival", "timeline",
            "histograms", "dump",
        ];
        for ((got, want), label) in a.iter().zip(&b).zip(labels) {
            assert_eq!(got, want, "seed {seed}: {label} diverged across runs");
        }
        // And each artifact is non-trivial: the plane actually recorded.
        // (Seed-dependent fault schedules may starve parts of the workload,
        // so richness is asserted on the tame seed only; byte-identity
        // holds for all.)
        if seed == 1 {
            assert!(a[0].lines().count() > 3, "almost no sites:\n{}", a[0]);
            assert!(a[3].contains("allocs"), "empty survival table");
            assert!(a[4].contains("\"type\":\"gc\""), "no GC timeline records");
            assert!(a[4].contains("\"type\":\"occupancy\""), "no occupancy samples");
        }
        assert!(a[6].contains("\"type\":\"recount\""), "seed {seed}: dump lacks recounts");
    }
}

// ---------------------------------------------------------------------------
// 2. Reconciliation
// ---------------------------------------------------------------------------

/// A dump is self-reconciling: for every live heap, the walked `recount`
/// line (slot-table ground truth) must equal the `heap` line's accounted
/// `bytes_used`/`objects` — and the space audit, which additionally
/// reconciles the memlimit tree against those same counters, stays clean.
#[test]
fn dump_recounts_reconcile_with_accounting_and_audit() {
    for seed in [1u64, 42] {
        let mut os = build_os(true, false);
        os.install_faults(FaultPlan::from_seed(seed));
        spawn_workload(&mut os);
        os.run(Some(20_000_000));
        os.audit().unwrap_or_else(|v| panic!("seed {seed}: audit failed: {v}"));

        let dump = os.heap_dump();
        let mut accounted: Vec<(u64, u64, u64)> = Vec::new(); // (heap, bytes, objects)
        let mut recounted: Vec<(u64, u64, u64)> = Vec::new();
        for line in dump.lines() {
            if line.starts_with("{\"type\":\"heap\"") {
                accounted.push((
                    json_u64(line, "heap").unwrap(),
                    json_u64(line, "bytes_used").unwrap(),
                    json_u64(line, "objects").unwrap(),
                ));
            } else if line.starts_with("{\"type\":\"recount\"") {
                recounted.push((
                    json_u64(line, "heap").unwrap(),
                    json_u64(line, "live_bytes").unwrap(),
                    json_u64(line, "live_objects").unwrap(),
                ));
            }
        }
        assert!(!accounted.is_empty(), "seed {seed}: dump walked no heaps");
        assert_eq!(
            accounted, recounted,
            "seed {seed}: accounted heap totals diverge from the walked recount"
        );
        // The kernel-side recount API carries the same ground truth.
        let api: Vec<(u64, u64, u64)> = os
            .space()
            .recount_heaps()
            .iter()
            .map(|r| (r.heap as u64, r.live_bytes, r.live_objects))
            .collect();
        assert_eq!(api, recounted, "seed {seed}: heap_recounts() disagrees with the dump");
    }
}

// ---------------------------------------------------------------------------
// 3. Cross-validation against the static analyzer
// ---------------------------------------------------------------------------

/// Every cross-heap edge the runtime census attributes to guest bytecode
/// must land on a store site the analyzer classified as possibly-crossing:
/// never an `Elide` verdict. (The `u32::MAX` sentinel groups
/// kernel/trusted stores, which never run the guest barrier.)
#[test]
fn census_rows_land_on_non_elided_sites() {
    let mut os = build_os(true, false);
    os.register_image("xholder", XHOLDER).unwrap();
    spawn_workload(&mut os);
    os.spawn("xholder", "0", Some(1 << 20)).unwrap();
    os.run(Some(20_000_000));

    let census = os.obs().heap.read(HeapProfStore::census);
    let analysis = os.analysis();
    let mut guest_rows = 0usize;
    let mut frozen_edges = 0u64;
    for site in &census {
        assert!(
            site.counts.may_cross + site.counts.shared_frozen > 0,
            "census row with zero edges: {site:?}"
        );
        if site.method == u32::MAX {
            continue;
        }
        guest_rows += 1;
        frozen_edges += site.counts.shared_frozen;
        let method = MethodIdx(site.method);
        match analysis.site(method, site.pc) {
            None => assert!(
                analysis.is_bailed(method),
                "unanalyzed crossing site in a non-bailed method: {site:?}"
            ),
            Some(s) => assert_ne!(
                s.verdict,
                Verdict::Elide,
                "the analyzer elided a store that made a cross-heap edge: {site:?}"
            ),
        }
    }
    assert!(
        guest_rows > 0,
        "the workload must mint guest-attributed cross-heap edges: {census:?}"
    );
    assert!(
        frozen_edges > 0,
        "the holder's stores into the frozen shared heap must be counted"
    );
}

// ---------------------------------------------------------------------------
// 4. procfs round-trip
// ---------------------------------------------------------------------------

/// The heap procfs plane round-trips through guest code: a Cup program
/// reads its own `proc.heapinfo` / `proc.heapstats` and prints them. The
/// kernel-side text for the still-live process then reconciles exactly
/// with the walked recount for its heap, and the audit stays clean.
#[test]
fn heap_procfs_syscalls_round_trip_from_guest() {
    let mut os = build_os(true, false);
    os.register_image(
        "inspector",
        r#"
        class Main {
            static int main(int n) {
                int acc = 0;
                int[] keep = new int[64];
                for (int i = 0; i < 30; i = i + 1) {
                    int[] j = new int[16];
                    acc = acc + j[0] + keep[0] + i;
                }
                Sys.print(Proc.heapinfo(Proc.self_pid()));
                Sys.print(Proc.heapstats(Proc.self_pid()));
                while (true) { }
                return acc;
            }
        }
        "#,
    )
    .unwrap();
    let pid = os.spawn("inspector", "0", Some(1 << 20)).unwrap();
    os.run(Some(20_000_000));
    assert!(os.is_alive(pid), "the inspector spins after printing");

    // Guest-visible text: layout plus per-site statistics.
    let stdout = os.stdout(pid).join("\n");
    assert!(stdout.contains("pid:\t1"), "heapinfo pid line missing:\n{stdout}");
    assert!(stdout.contains("bytes_used:\t"), "heapinfo accounting missing:\n{stdout}");
    // The first print is `proc.heapinfo`: pin its exact line list.
    let heapinfo_keys: Vec<&str> = os.stdout(pid)[0]
        .lines()
        .map(|l| l.split('\t').next().unwrap_or(l))
        .collect();
    assert_eq!(
        heapinfo_keys,
        [
            "pid:",
            "heap:",
            "label:",
            "bytes_used:",
            "objects:",
            "pages:",
            "entry_items:",
            "exit_items:",
            "gc_count:",
            "frozen:",
        ],
        "heapinfo layout changed:\n{stdout}"
    );
    assert!(stdout.contains("sites:"), "heapstats site table missing:\n{stdout}");
    assert!(stdout.contains("Main.main@b"), "heapstats lacks the allocating site:\n{stdout}");
    assert!(stdout.contains("allocs="), "heapstats lacks site counters:\n{stdout}");
    assert!(stdout.contains("int[]"), "heapstats lacks the array class:\n{stdout}");

    // Kernel-side text for the live process reconciles with the walked
    // recount: accounting and slot-table ground truth agree to the byte.
    os.audit().expect("inspector run audits clean");
    let info = os.proc_heapinfo_text(pid);
    let heap = procfs_u64(&info, "heap").expect("heap index line");
    let bytes = procfs_u64(&info, "bytes_used").expect("bytes_used line");
    let objects = procfs_u64(&info, "objects").expect("objects line");
    let pages = procfs_u64(&info, "pages").expect("pages line");
    let rc = os
        .space()
            .recount_heaps()
        .into_iter()
        .find(|r| r.heap as u64 == heap)
        .expect("recount for the inspector heap");
    assert_eq!(rc.live_bytes, bytes, "accounted bytes diverge from the walk");
    assert_eq!(rc.live_objects, objects, "accounted objects diverge from the walk");
    let dump_pages = os
        .heap_dump()
        .lines()
        .filter(|l| {
            l.starts_with("{\"type\":\"page\"") && json_u64(l, "heap") == Some(heap)
        })
        .count() as u64;
    assert_eq!(dump_pages, pages, "page count diverges from the dump walk");

    // Unknown pids read as missing procfs files, not errors.
    assert_eq!(os.proc_heapinfo_text(Pid(99)), "");
    assert_eq!(os.proc_heapstats_text(Pid(99)), "");
}

// ---------------------------------------------------------------------------
// 5. Invisibility (fixtures unperturbed)
// ---------------------------------------------------------------------------

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The strongest free-when-off *and* free-when-on statement available: the
/// golden traces were recorded before the observability plane existed, and
/// a kernel running with the plane **enabled** must still reproduce them
/// byte for byte — recording allocation sites, survival, and the timeline
/// moves no virtual number at all.
#[test]
fn golden_trace_fixtures_hold_with_the_plane_enabled() {
    for seed in [1u64, 2, 3] {
        let mut os = build_os(true, true);
        os.install_faults(FaultPlan::from_seed(seed));
        spawn_workload(&mut os);
        os.run(Some(20_000_000));
        os.kernel_gc();
        let got = os.obs().trace.read(TraceBuffer::jsonl);
        let path = fixture_path(&format!("trace_seed{seed}.jsonl"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        assert_eq!(
            got, want,
            "seed {seed}: the enabled plane perturbed the golden trace"
        );
        // The run really was observed while matching the fixture.
        assert!(os.obs().heap.read(HeapProfStore::timeline_len) > 0);
    }
}
