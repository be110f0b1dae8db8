//! Acceptance suite for the virtual-time profiler and the procfs-style
//! introspection plane.
//!
//! The profiler samples at virtual-time edges only (quantum boundaries,
//! syscall dispatch, explicit collections), so a profile is a pure function
//! of (program, fault seed): two fresh kernels running the same workload
//! must produce **byte-identical** folded stacks, flamegraph SVGs and
//! latency histograms. And because every sample is taken exactly where the
//! kernel charges a CPU account, the profiler's per-pid totals must
//! reconcile with [`KaffeOs::cpu`] to the cycle.

use kaffeos::trace::ProfileStore;
use kaffeos::{FaultPlan, KaffeOs, KaffeOsConfig, Pid, SpawnOpts};

const IMAGES: &[(&str, &str)] = &[
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
                Sys.gc();
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

fn build_os(profile: bool, trace: bool) -> KaffeOs {
    let mut os = KaffeOs::new(KaffeOsConfig {
        profile,
        trace,
        ..KaffeOsConfig::default()
    });
    os.load_shared_source("class Cell { int value; }").unwrap();
    for (name, src) in IMAGES {
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

/// The golden-profile contract: same workload + same fault seed ⇒
/// byte-identical folded stacks, histograms, and SVG across two fresh
/// kernel instances. Any hidden nondeterminism (hash-map iteration in a
/// render path, unstable stack attribution) shows up as the first
/// diverging byte.
#[test]
fn same_seed_replays_to_byte_identical_profiles() {
    let run = |seed: u64| {
        let mut os = build_os(true, false);
        os.install_faults(FaultPlan::from_seed(seed));
        spawn_workload(&mut os);
        os.run(Some(20_000_000));
        os.kernel_gc();
        let profile = &os.obs().profile;
        (
            profile.read(ProfileStore::folded),
            profile.read(ProfileStore::histograms_text),
            profile.read(ProfileStore::flamegraph_svg),
        )
    };
    for seed in [1u64, 2, 3] {
        let (folded_a, hist_a, svg_a) = run(seed);
        let (folded_b, hist_b, svg_b) = run(seed);
        assert!(
            folded_a.lines().count() > 3,
            "seed {seed:#x}: profiled run sampled almost nothing:\n{folded_a}"
        );
        assert_eq!(folded_a, folded_b, "seed {seed:#x}: folded stacks diverged");
        assert_eq!(hist_a, hist_b, "seed {seed:#x}: histograms diverged");
        assert_eq!(svg_a, svg_b, "seed {seed:#x}: flamegraph SVGs diverged");
    }
}

/// The reconciliation contract: the profiler takes a sample at exactly the
/// points where the kernel charges a process CPU account, so for every pid
/// the sampled exec/GC/kernel totals equal [`KaffeOs::cpu`] to the cycle —
/// no cycles invented, none lost. The workload exercises all three pools:
/// mutator loops, an explicit `Sys.gc()` plus allocation-triggered
/// collections, and syscall crossings.
#[test]
fn profiler_totals_reconcile_with_kernel_cpu_accounts() {
    for seed in [1u64, 7, 42] {
        let mut os = build_os(true, true);
        os.install_faults(FaultPlan::from_seed(seed));
        let pids = spawn_workload(&mut os);
        os.run(Some(20_000_000));
        let totals = os.obs().profile.read(|p| p.totals().clone());
        for &pid in &pids {
            let cpu = os.cpu(pid);
            let t = totals.get(&pid.0).copied().unwrap_or_default();
            assert_eq!(
                t.exec, cpu.exec,
                "seed {seed:#x} {pid:?}: sampled exec cycles drifted from the account"
            );
            assert_eq!(
                t.gc, cpu.gc,
                "seed {seed:#x} {pid:?}: sampled GC cycles drifted from the account"
            );
            assert_eq!(
                t.kernel, cpu.kernel,
                "seed {seed:#x} {pid:?}: sampled kernel cycles drifted from the account"
            );
        }
        // Cross-check against the metrics plane: GC cycles attributed at
        // quantum boundaries can never exceed the account (explicit
        // collections are charged outside quanta).
        let metrics = os.obs().trace.read(|t| t.metrics().clone());
        for &pid in &pids {
            if let Some(pm) = metrics.per_process.get(&pid.0) {
                assert!(
                    pm.quantum_gc_cycles <= os.cpu(pid).gc,
                    "seed {seed:#x} {pid:?}: quantum GC exceeds the GC account"
                );
            }
        }
    }
}

/// The procfs plane round-trips through guest code: a Cup program reads its
/// own status, the machine memlimit tree, and its own profile through the
/// `proc.*` syscalls and prints them — no privileged channel involved.
#[test]
fn procfs_syscalls_round_trip_from_guest() {
    let mut os = build_os(true, false);
    os.register_image(
        "inspector",
        r#"
        class Main {
            static int main() {
                int acc = 0;
                for (int i = 0; i < 200; i = i + 1) { acc = acc + i * i; }
                Sys.print(Proc.status(Proc.self_pid()));
                Sys.print(Proc.meminfo());
                Sys.print(Proc.profile(Proc.self_pid()));
                return acc;
            }
        }
        "#,
    )
    .unwrap();
    let pid = os
        .spawn_with(
            "inspector",
            "",
            SpawnOpts {
                mem_limit: Some(1 << 20),
                ..SpawnOpts::default()
            },
        )
        .unwrap();
    os.run(Some(20_000_000));
    assert!(!os.is_alive(pid), "inspector must run to completion");

    let stdout = os.stdout(pid).join("\n");
    // proc.status: identity and accounting lines for the caller itself.
    assert!(stdout.contains("pid:\t1"), "status pid line missing:\n{stdout}");
    assert!(
        stdout.contains("image:\tinspector"),
        "status image line missing:\n{stdout}"
    );
    assert!(
        stdout.contains("cpu_exec:\t"),
        "status cpu split missing:\n{stdout}"
    );
    // proc.meminfo: the memlimit tree with the machine root and this
    // process' own reservation.
    assert!(
        stdout.contains("inspector#1"),
        "meminfo lacks the process node:\n{stdout}"
    );
    // proc.profile: a live summary with at least one ranked leaf frame.
    assert!(
        stdout.contains("samples="),
        "profile summary missing:\n{stdout}"
    );
    assert!(
        stdout.contains("Main.main"),
        "profile summary lacks the hot method:\n{stdout}"
    );

    // An unknown pid reads as empty text, not an error.
    assert_eq!(os.proc_status_text(Pid(99)), "");
}

/// The procfs text is served even with the profiler off — only the
/// `proc.profile` body is empty then, mirroring a missing procfs file.
#[test]
fn procfs_status_works_without_the_profiler() {
    let mut os = build_os(false, false);
    os.register_image(
        "plain",
        r#"
        class Main {
            static int main() {
                Sys.print(Proc.status(Proc.self_pid()));
                Sys.print(Proc.profile(Proc.self_pid()));
                return 0;
            }
        }
        "#,
    )
    .unwrap();
    let pid = os.spawn("plain", "", Some(1 << 20)).unwrap();
    os.run(Some(20_000_000));
    let stdout = os.stdout(pid).join("\n");
    assert!(stdout.contains("state:\t"), "status must render:\n{stdout}");
    assert!(
        !stdout.contains("samples="),
        "profile summary must be empty when profiling is off:\n{stdout}"
    );
}

/// `top_text` renders one deterministic row per process with the CPU split
/// and, under profiling, the hottest leaf frame.
#[test]
fn top_table_renders_a_row_per_process() {
    let mut os = build_os(true, false);
    let pids = spawn_workload(&mut os);
    os.run(Some(20_000_000));
    let top = os.top_text();
    let lines: Vec<&str> = top.lines().collect();
    assert_eq!(lines.len(), 1 + pids.len(), "header plus one row per pid");
    assert!(lines[0].contains("TOP-METHOD"));
    assert!(top.contains("alloc#1"), "row for alloc missing:\n{top}");
    assert!(
        top.contains("Main.main"),
        "hot method column empty under profiling:\n{top}"
    );
    assert_eq!(top, os.top_text(), "snapshot must be stable");
}

// ---------------------------------------------------------------------------
// Pre-optimisation golden fixtures (host fast-path regression gate)
// ---------------------------------------------------------------------------

/// Seeds pinned into `tests/fixtures/profile_seed<N>.folded` / `.hist`.
const PROFILE_FIXTURE_SEEDS: [u64; 3] = [1, 2, 3];

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// One profiled standard-workload run under a fault seed: folded stacks
/// plus latency histograms.
fn golden_profile(seed: u64) -> (String, String) {
    let mut os = build_os(true, false);
    os.install_faults(FaultPlan::from_seed(seed));
    spawn_workload(&mut os);
    os.run(Some(20_000_000));
    os.kernel_gc();
    let profile = &os.obs().profile;
    (
        profile.read(ProfileStore::folded),
        profile.read(ProfileStore::histograms_text),
    )
}

/// The folded stacks and histograms produced by the optimised fast paths
/// must be byte-identical to fixtures captured **before** the flat value
/// stacks, allocation-free GC marking, and FxHash tables landed — the
/// profiler samples at virtual-time edges only, so host-side speed must be
/// invisible to it.
#[test]
fn profiles_match_pre_optimisation_fixtures() {
    for seed in PROFILE_FIXTURE_SEEDS {
        let (folded, hist) = golden_profile(seed);
        for (suffix, got) in [("folded", &folded), ("hist", &hist)] {
            let path = fixture_path(&format!("profile_seed{seed}.{suffix}"));
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
            assert_eq!(
                got, &want,
                "seed {seed}: {suffix} diverged from the pre-optimisation fixture"
            );
        }
    }
}

/// Writes the golden profile fixtures. Run only when virtual behaviour is
/// *meant* to change, never for a host-side optimisation:
/// `cargo test -p kaffeos --test profile_introspection -- --ignored regenerate`
#[test]
#[ignore = "writes golden fixtures; run only on a deliberate virtual-behaviour change"]
fn regenerate_profile_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    for seed in PROFILE_FIXTURE_SEEDS {
        let (folded, hist) = golden_profile(seed);
        for (suffix, body) in [("folded", folded), ("hist", hist)] {
            let path = fixture_path(&format!("profile_seed{seed}.{suffix}"));
            std::fs::write(&path, body).unwrap();
            println!("wrote {}", path.display());
        }
    }
}
