//! Acceptance suite for the template-JIT tier and the process-shared code
//! cache: the procfs/top observability surface, cache lifecycle
//! (deterministic eviction, invalidation on class reload), and registry
//! conservation under the seeded kill-storm fault sweep.
//!
//! Everything here is host observability layered over a virtual machine
//! whose *virtual* behaviour the tier must not perturb; the differential
//! oracle in `kaffeos-workloads` checks that side. These tests check the
//! tier's own bookkeeping: counters that reach procfs, refcounts in the
//! shared registry, and the auditor's cache-conservation pass.

use kaffeos::{FaultPlan, KaffeOs, KaffeOsConfig, Pid};
use kaffeos_vm::JitConfig;

/// A kernel with the tier pinned on (threshold 64) regardless of the
/// `KAFFEOS_JIT` environment, so the suite is hermetic.
fn build_os(cache_bytes: u64) -> KaffeOs {
    KaffeOs::new(KaffeOsConfig {
        jit: JitConfig {
            enabled: true,
            threshold: 64,
            cache_bytes,
        },
        ..KaffeOsConfig::default()
    })
}

/// A program whose helper goes hot (20 000 invocations ≫ threshold) and
/// then reads its own procfs status from guest code.
const INSPECTOR: &str = r#"
    class Main {
        static int work(int i) { return i * 3 + 1; }
        static int main() {
            int acc = 0;
            for (int i = 0; i < 20000; i = i + 1) { acc = acc + work(i); }
            Sys.print(Proc.status(Proc.self_pid()));
            return acc;
        }
    }
"#;

/// A hot image parameterised by `k` so each variant has distinct class
/// bytes — and therefore a distinct set of shared-cache keys.
fn hot_image(k: u64) -> String {
    format!(
        "class Main {{
            static int work(int i) {{ return i * {} + {k}; }}
            static int main() {{
                int acc = 0;
                for (int i = 0; i < 20000; i = i + 1) {{ acc = acc + work(i); }}
                return acc;
            }}
        }}",
        k + 2
    )
}

fn parse_status_counter(stdout: &str, key: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("status lacks {key} line:\n{stdout}"));
    line[key.len()..].trim().parse().unwrap_or_else(|e| {
        panic!("status {key} value does not parse ({e}):\n{stdout}")
    })
}

/// Satellite: the per-process JIT counters round-trip through the guest's
/// own `proc.status` read — no privileged channel involved.
#[test]
fn jit_procfs_round_trips_from_guest() {
    let mut os = build_os(1 << 20);
    os.register_image("inspector", INSPECTOR).unwrap();
    let pid = os.spawn("inspector", "", Some(1 << 20)).unwrap();
    os.run(None);
    assert!(!os.is_alive(pid), "inspector must run to completion");

    let stdout = os.stdout(pid).join("\n");
    let compiled = parse_status_counter(&stdout, "jit_compiled:");
    let bytes = parse_status_counter(&stdout, "jit_bytes:");
    assert!(compiled >= 1, "hot loop must have tiered up:\n{stdout}");
    assert!(bytes > 0, "attached bodies must account bytes:\n{stdout}");
    // Present even when zero: a procfs file is a stable surface.
    parse_status_counter(&stdout, "jit_cache_hits:");
    parse_status_counter(&stdout, "jit_shared_reuse:");

    // The kernel-side view agrees with what the guest printed (counters
    // are monotone and the process did not tier further after printing).
    let stats = os.jit_stats(pid).expect("stats for a known pid");
    assert_eq!(stats.compiled, compiled);
    assert_eq!(stats.bytes, bytes);
}

/// Satellite: `kaffeos-top` carries a JIT column (`compiled+reuse`), and
/// the ShareJIT claim holds: N processes of one image compile each hot
/// method exactly once between them, the other N−1 reuse every body, and a
/// warm repeat on the same kernel compiles nothing.
#[test]
fn top_column_shows_compiles_and_shared_reuse() {
    // Cold: one process alone pays every compilation; warm: a re-spawn of
    // the same image attaches the cached bodies instead.
    let mut cold = build_os(1 << 20);
    cold.register_image("hot", &hot_image(1)).unwrap();
    cold.spawn("hot", "", Some(1 << 20)).unwrap();
    cold.run(None);
    let hot = cold.jit_cache_stats().compiles;
    assert!(hot >= 1, "the hot loop must tier up");
    cold.spawn("hot", "", Some(1 << 20)).unwrap();
    cold.run(None);
    assert_eq!(cold.jit_cache_stats().compiles, hot, "warm repeat compiled");

    let mut os = build_os(1 << 20);
    os.register_image("hot", &hot_image(1)).unwrap();
    let pids: Vec<Pid> = (0..4)
        .map(|_| os.spawn("hot", "", Some(1 << 20)).unwrap())
        .collect();
    os.run(None);
    let stats: Vec<_> = pids.iter().map(|&p| os.jit_stats(p).unwrap()).collect();
    let compiled: u64 = stats.iter().map(|s| s.compiled).sum();
    assert_eq!(os.jit_cache_stats().compiles, hot, "{stats:?}");
    assert_eq!(compiled, hot, "{stats:?}");
    assert_eq!(
        stats.iter().map(|s| s.reuse).sum::<u64>(),
        (pids.len() as u64 - 1) * hot,
        "every other process must reuse every shared body: {stats:?}"
    );

    let top = os.top_text();
    let header = top.lines().next().unwrap_or("");
    assert!(header.contains("JIT"), "top header lacks JIT column:\n{top}");
    for (&pid, s) in pids.iter().zip(&stats) {
        let row = top
            .lines()
            .find(|l| l.trim_start().starts_with(&pid.0.to_string()))
            .unwrap_or_else(|| panic!("no top row for {pid:?}:\n{top}"));
        assert!(
            row.contains(&format!("{}+{}", s.compiled, s.reuse)),
            "top row lacks the compiled+reuse cell for {pid:?}:\n{top}"
        );
    }
}

/// Runs the six distinct hot images sequentially on one kernel and returns
/// `(final snapshot debug, evictions, bytes, capacity)`.
fn eviction_run(cache_bytes: u64) -> (String, u64, u64, u64) {
    let mut os = build_os(cache_bytes);
    for k in 0..6u64 {
        let name = format!("hot{k}");
        os.register_image(&name, &hot_image(k)).unwrap();
        os.spawn(&name, "", Some(1 << 20)).unwrap();
        os.run(None);
    }
    let (_, bytes, capacity) = os.jit_cache_usage();
    (
        format!("{:?}", os.jit_cache_snapshot()),
        os.jit_cache_stats().evictions,
        bytes,
        capacity,
    )
}

/// Satellite: eviction under byte pressure is LRU in key order, never
/// touches referenced bodies, and replays identically.
#[test]
fn eviction_is_deterministic_and_lru() {
    // Calibrate: measure the uncontended footprint of the six images, then
    // rerun with room for roughly two and a half of them.
    let (_, evictions, all_bytes, _) = eviction_run(u64::MAX);
    assert_eq!(evictions, 0, "uncontended run must not evict");
    assert!(all_bytes > 0);
    let capacity = all_bytes * 5 / 12;

    let (snap_a, evictions, bytes, cap) = eviction_run(capacity);
    assert!(evictions >= 1, "constrained run must evict");
    assert!(
        bytes <= cap,
        "cache must end within capacity: {bytes} > {cap}"
    );
    // LRU: the oldest images' bodies (creators 1..=3, long unreferenced)
    // are the victims; the most recent images survive.
    let mut os = build_os(capacity);
    for k in 0..6u64 {
        let name = format!("hot{k}");
        os.register_image(&name, &hot_image(k)).unwrap();
        os.spawn(&name, "", Some(1 << 20)).unwrap();
        os.run(None);
    }
    let snapshot = os.jit_cache_snapshot();
    assert!(
        snapshot.iter().all(|(_, _, _, creator)| *creator > 3),
        "LRU must evict the oldest processes' bodies first: {snapshot:?}"
    );
    assert!(
        snapshot.iter().any(|(_, _, _, creator)| *creator == 6),
        "the newest image's bodies must survive: {snapshot:?}"
    );
    // All processes are dead, so every surviving entry is unreferenced
    // (warm cache) — that is what makes it evictable next time.
    assert!(snapshot.iter().all(|(_, refs, _, _)| *refs == 0));

    // Byte-identical replay: eviction order is a pure function of the
    // program sequence.
    let (snap_b, _, _, _) = eviction_run(capacity);
    assert_eq!(snap_a, snap_b, "eviction order must replay identically");
}

/// Loading an override for a hot virtual call's only target leaves the
/// attached body in place: compiled bodies hold no call target — the
/// shared runtime-op code dispatches through the vtable on every call — so
/// the answer and registry audit stay clean.
#[test]
fn override_load_keeps_attached_bodies_and_the_answer() {
    let mut os = build_os(1 << 20);
    os.load_shared_source("class Box { int v; int get() { return this.v; } }")
        .unwrap();
    os.register_image(
        "caller",
        r#"
        class Main {
            static int main() {
                Box b = new Box();
                b.v = 1;
                int acc = 0;
                for (int i = 0; i < 2000000; i = i + 1) { acc = acc + b.get(); }
                int acc2 = 0;
                for (int i = 0; i < 5000; i = i + 1) { acc2 = acc2 + b.get(); }
                return acc + acc2;
            }
        }
        "#,
    )
    .unwrap();
    let pid = os.spawn("caller", "", Some(1 << 20)).unwrap();

    // Run until tier-up has fired but the program is still mid-loop.
    os.run(Some(5_000_000));
    assert!(os.is_alive(pid), "caller must still be running");
    let mid = os.jit_stats(pid).unwrap();
    assert!(mid.compiled >= 1, "caller must have tiered up: {mid:?}");

    // Load an override: `Box.get` is no longer the only reachable target.
    os.load_shared_source("class Box2 extends Box { int get() { return this.v + 1; } }")
        .unwrap();

    // The receiver is still a `Box`, so the answer is unchanged — the same
    // body keeps running and the site dispatches through the vtable.
    os.run(None);
    assert_eq!(
        os.status(pid),
        Some(kaffeos::ExitStatus::Exited(2_005_000)),
        "caller must finish with the loop total"
    );
    let end = os.jit_stats(pid).unwrap();
    assert_eq!(
        end.compiled, mid.compiled,
        "the attached bodies must survive the override load: {mid:?} -> {end:?}"
    );
    os.audit().expect("audit after override load");
}

/// Satellite: the 8-seed kill-storm sweep. Processes holding shared bodies
/// are killed at seeded quantum boundaries; afterwards the audit's
/// cache-registry conservation pass must hold, every surviving entry must
/// be unreferenced, and identical seeds must replay to identical
/// registries.
#[test]
fn kill_storm_conserves_the_cache_registry() {
    let mut total_kills = 0;
    for seed in 0..8u64 {
        let run = |seed: u64| {
            let mut os = build_os(1 << 20);
            os.register_image("hot", &hot_image(7)).unwrap();
            for _ in 0..3 {
                os.spawn("hot", "", Some(1 << 20)).unwrap();
            }
            os.install_faults(FaultPlan::from_seed(seed));
            os.run(None);
            for pid in [Pid(1), Pid(2), Pid(3)] {
                let _ = os.kill(pid);
            }
            os.run(None);
            let report = match os.audit() {
                Ok(r) => r,
                Err(v) => panic!("seed {seed:#x}: audit failed: {v}"),
            };
            let snapshot = os.jit_cache_snapshot();
            assert!(
                snapshot.iter().all(|(_, refs, _, _)| *refs == 0),
                "seed {seed:#x}: dead processes left references: {snapshot:?}"
            );
            (format!("{snapshot:?}"), report.kills_injected)
        };
        let (snap_a, kills) = run(seed);
        let (snap_b, kills_b) = run(seed);
        assert_eq!(snap_a, snap_b, "seed {seed:#x}: registry must replay");
        assert_eq!(kills, kills_b, "seed {seed:#x}: kill count must replay");
        total_kills += kills;
    }
    assert!(
        total_kills > 0,
        "the sweep must actually kill someone across 8 seeds"
    );
}
