//! Acceptance suite for template bodies and the class table's link memo:
//! the procfs/top observability surface, cross-process reuse, bodies
//! surviving a later class load, and the memo under the seeded kill-storm
//! fault sweep.
//!
//! Everything here is host observability over a virtual machine whose
//! virtual numbers the lowering must not perturb; the fuel-split oracles
//! in `kaffeos-vm` check that side. These tests check the memo's own
//! bookkeeping: counters that reach procfs, and the memo's size.

use kaffeos::{FaultPlan, KaffeOs, KaffeOsConfig, Pid};

/// A program that reads its own procfs status from guest code.
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

/// A hot image parameterised by `k`, so each variant compiles to a class
/// definition of its own.
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

/// The per-process lowering counters round-trip through the guest's own
/// `proc.status` read — no privileged channel involved.
#[test]
fn jit_procfs_round_trips_from_guest() {
    let mut os = KaffeOs::new(KaffeOsConfig::default());
    os.register_image("inspector", INSPECTOR).unwrap();
    let pid = os.spawn("inspector", "", Some(1 << 20)).unwrap();
    os.run(None);
    assert!(!os.is_alive(pid), "inspector must run to completion");

    let stdout = os.stdout(pid).join("\n");
    let compiled = parse_status_counter(&stdout, "jit_compiled:");
    let bytes = parse_status_counter(&stdout, "jit_bytes:");
    assert!(compiled >= 2, "the spawn must lower the image's methods:\n{stdout}");
    assert!(bytes > 0, "linked bodies must account bytes:\n{stdout}");
    // The reloaded library was lowered at boot, in another namespace.
    let hits = parse_status_counter(&stdout, "jit_cache_hits:");
    let reuse = parse_status_counter(&stdout, "jit_shared_reuse:");
    assert!(reuse >= 1 && reuse <= hits, "hits {hits}, reuse {reuse}:\n{stdout}");

    // The kernel-side view agrees with what the guest printed.
    let stats = os.jit_stats(pid).expect("stats for a known pid");
    assert_eq!(
        (stats.compiled, stats.hits, stats.reuse, stats.bytes),
        (compiled, hits, reuse, bytes)
    );
}

/// `kaffeos-top` carries a JIT column (`compiled+reuse`), and the ShareJIT
/// claim holds: N processes of one image lower each of its methods exactly
/// once between them, the other N−1 reuse every body the first lowered,
/// and a repeat spawn on the same kernel lowers nothing.
#[test]
fn top_column_shows_compiles_and_shared_reuse() {
    let mut os = KaffeOs::new(KaffeOsConfig::default());
    let boot = os.jit_cache_usage().0 as u64;
    os.register_image("hot", &hot_image(1)).unwrap();
    let pids: Vec<Pid> = (0..4)
        .map(|_| os.spawn("hot", "", Some(1 << 20)).unwrap())
        .collect();
    os.run(None);
    let stats: Vec<_> = pids.iter().map(|&p| os.jit_stats(p).unwrap()).collect();
    let image = os.jit_cache_usage().0 as u64 - boot;
    assert!(image >= 2, "the image's methods must be lowered once: {stats:?}");
    assert_eq!(stats[0].compiled, image, "{stats:?}");
    for s in &stats[1..] {
        assert_eq!(s.compiled, 0, "a repeat spawn lowered: {stats:?}");
        assert_eq!(
            s.reuse,
            stats[0].reuse + image,
            "every other process must reuse every body the first lowered: {stats:?}"
        );
    }

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

/// Loading an override for a running virtual call's only target leaves
/// the linked bodies in place: bodies hold no call target — the shared
/// runtime-op code dispatches through the vtable on every call — so the
/// answer and the audit stay clean, and the new class lowers only its own
/// method.
#[test]
fn override_load_keeps_linked_bodies_and_the_answer() {
    let mut os = KaffeOs::new(KaffeOsConfig::default());
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

    // Run until the program is mid-loop.
    os.run(Some(5_000_000));
    assert!(os.is_alive(pid), "caller must still be running");
    let mid = os.jit_stats(pid).unwrap();
    let bodies = os.jit_cache_usage().0;

    // Load an override: `Box.get` is no longer the only reachable target.
    os.load_shared_source("class Box2 extends Box { int get() { return this.v + 1; } }")
        .unwrap();
    assert_eq!(os.jit_cache_usage().0, bodies + 1, "Box2 lowers its one method");

    // The receiver is still a `Box`, so the answer is unchanged — the same
    // body keeps running and the site dispatches through the vtable.
    os.run(None);
    assert_eq!(
        os.status(pid),
        Some(kaffeos::ExitStatus::Exited(2_005_000)),
        "caller must finish with the loop total"
    );
    assert_eq!(os.jit_stats(pid).unwrap(), mid, "a running process lowers nothing");
    os.audit().expect("audit after override load");
}

/// The 8-seed kill-storm sweep. Processes running shared bodies are
/// killed at seeded quantum boundaries; afterwards the audit must be
/// clean, the processes' lowerings must add up to the memo's growth since
/// boot, and identical seeds must replay to an identical memo and
/// identical per-process counters.
#[test]
fn kill_storm_conserves_the_cache_registry() {
    let mut total_kills = 0;
    for seed in 0..8u64 {
        let run = |seed: u64| {
            let mut os = KaffeOs::new(KaffeOsConfig::default());
            let boot = os.jit_cache_usage().0 as u64;
            os.register_image("hot", &hot_image(7)).unwrap();
            let pids: Vec<Pid> = (0..3)
                .map(|_| os.spawn("hot", "", Some(1 << 20)).unwrap())
                .collect();
            os.install_faults(FaultPlan::from_seed(seed));
            os.run(None);
            for &pid in &pids {
                let _ = os.kill(pid);
            }
            os.run(None);
            let report = match os.audit() {
                Ok(r) => r,
                Err(v) => panic!("seed {seed:#x}: audit failed: {v}"),
            };
            assert!(
                pids.iter().all(|&p| !os.is_alive(p)),
                "seed {seed:#x}: every process must be dead"
            );
            let (bodies, bytes) = os.jit_cache_usage();
            let stats: Vec<_> = pids.iter().map(|&p| os.jit_stats(p)).collect();
            let compiled: u64 = stats.iter().flatten().map(|s| s.compiled).sum();
            assert_eq!(
                compiled,
                bodies as u64 - boot,
                "seed {seed:#x}: every body past boot was lowered by exactly one process"
            );
            (format!("{bodies} {bytes} {stats:?}"), report.kills_injected)
        };
        let (memo_a, kills) = run(seed);
        let (memo_b, kills_b) = run(seed);
        assert_eq!(memo_a, memo_b, "seed {seed:#x}: memo must replay");
        assert_eq!(kills, kills_b, "seed {seed:#x}: kill count must replay");
        total_kills += kills;
    }
    assert!(
        total_kills > 0,
        "the sweep must actually kill someone across 8 seeds"
    );
}
