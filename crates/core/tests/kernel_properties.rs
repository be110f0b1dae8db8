//! Property tests for the kernel: arbitrary interleavings of spawns, kills,
//! scheduling, shared-heap traffic and kernel GC must never panic, must keep
//! every audited invariant, and tearing everything down must reclaim every
//! byte — the paper's "full reclamation of memory" as a whole-kernel
//! invariant.
//!
//! Op sequences come from a seeded SplitMix64 generator so every case
//! replays exactly; a failing case names its case number.

use kaffeos::{FaultPlan, KaffeOs, KaffeOsConfig, Pid, SpawnOpts};

/// Deterministic SplitMix64 sequence generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

const IMAGES: &[(&str, &str)] = &[
    ("brief", "class Main { static int main() { return 1; } }"),
    (
        "churn",
        r#"
        class Main {
            static int main() {
                int acc = 0;
                for (int i = 0; i < 3000; i = i + 1) {
                    int[] junk = new int[200];
                    junk[0] = i;
                    acc = acc + junk[0] % 7;
                }
                return acc;
            }
        }
        "#,
    ),
    (
        "hog",
        r#"
        class Chain { int[] data; Chain next; }
        class Hog {
            static int main() {
                Chain head = null;
                while (true) {
                    Chain c = new Chain();
                    c.data = new int[512];
                    c.next = head;
                    head = c;
                }
                return 0;
            }
        }
        "#,
    ),
    (
        "spin",
        "class Spin { static int main() { while (true) { } return 0; } }",
    ),
    (
        "shmer",
        r#"
        class Main {
            static int main(int n) {
                try {
                    if (Shm.lookup("box") < 0) {
                        Shm.create("box", "Cell", 4);
                    }
                    Cell c = Shm.get("box", n % 4) as Cell;
                    c.value = n;
                    return c.value;
                } catch (Exception e) {
                    return -5;
                }
            }
        }
        "#,
    ),
    (
        "thrower",
        r#"
        class Main {
            static int main(int n) {
                if (n % 2 == 0) { return 1 / 0; }
                int[] a = new int[2];
                return a[5];
            }
        }
        "#,
    ),
];

#[derive(Debug, Clone)]
enum Op {
    Spawn { image: usize, limit_kb: u64, arg: i64 },
    Kill { which: usize },
    Run { cycles: u64 },
    KernelGc,
}

fn gen_ops(rng: &mut Rng, max: u64) -> Vec<Op> {
    let n = rng.range(1, max);
    (0..n)
        .map(|_| match rng.below(8) {
            0..=2 => Op::Spawn {
                image: rng.below(IMAGES.len() as u64) as usize,
                limit_kb: rng.range(64, 4096),
                arg: rng.below(100) as i64,
            },
            3 => Op::Kill {
                which: rng.next() as usize,
            },
            4..=6 => Op::Run {
                cycles: rng.range(100_000, 5_000_000),
            },
            _ => Op::KernelGc,
        })
        .collect()
}

fn build_os() -> KaffeOs {
    let mut os = KaffeOs::new(KaffeOsConfig::default());
    os.load_shared_source("class Cell { int value; }").unwrap();
    for (name, src) in IMAGES {
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
    for (name, src) in IMAGES {
        os.register_image(name, src).unwrap();
    }
    os
}

fn apply(os: &mut KaffeOs, pids: &mut Vec<Pid>, op: &Op) {
    match *op {
        Op::Spawn {
            image,
            limit_kb,
            arg,
        } => {
            let (name, _) = IMAGES[image];
            if let Ok(pid) = os.spawn_with(
                name,
                &arg.to_string(),
                SpawnOpts {
                    mem_limit: Some(limit_kb << 10),
                    ..SpawnOpts::default()
                },
            ) {
                pids.push(pid);
            }
        }
        Op::Kill { which } => {
            if !pids.is_empty() {
                let pid = pids[which % pids.len()];
                os.kill(pid).unwrap();
            }
        }
        Op::Run { cycles } => {
            let deadline = os.clock() + cycles;
            os.run(Some(deadline));
        }
        Op::KernelGc => {
            os.kernel_gc();
        }
    }
}

/// Kills everything, drains the scheduler, and runs two kernel GC cycles
/// (orphan merge, then the exposed garbage); asserts full reclamation.
fn teardown_and_check(os: &mut KaffeOs, pids: &[Pid], case: u64) {
    for &pid in pids {
        os.kill(pid).unwrap();
    }
    os.run(Some(os.clock() + 50_000_000));
    for &pid in pids {
        assert!(!os.is_alive(pid), "case {case}: {pid:?} survived teardown");
    }
    os.kernel_gc(); // merges orphaned shared heaps
    os.kernel_gc(); // reclaims what the merge exposed

    // Invariant 1: every audited invariant holds after full teardown.
    let report = os.audit().unwrap_or_else(|v| {
        panic!("case {case}: audit after teardown: {v}");
    });
    assert_eq!(report.live, 0, "case {case}: no process may survive");
    // Invariant 2: every byte charged against the machine budget is
    // returned once no process exists.
    let root = os.space().root_memlimit();
    assert_eq!(
        os.space().limits().current(root),
        0,
        "case {case}: machine budget must drain to zero"
    );
    // Invariant 3: no shared heap outlives its sharers.
    assert_eq!(
        os.shm_registry().len(),
        0,
        "case {case}: orphans must be merged"
    );
    // Invariant 4: the kernel heap holds no leaked survivors.
    let kernel_bytes = os.space().heap_bytes(os.space().kernel_heap()).unwrap();
    assert!(
        kernel_bytes < 4096,
        "case {case}: kernel heap retains {kernel_bytes} bytes after full teardown"
    );
}

#[test]
fn kernel_survives_arbitrary_op_sequences() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0xC0DE_0001 ^ case.wrapping_mul(0x9E37));
        let ops = gen_ops(&mut rng, 40);
        let mut os = build_os();
        let mut pids: Vec<Pid> = Vec::new();
        for op in &ops {
            apply(&mut os, &mut pids, op);
            // The audited invariants must hold at every quantum boundary,
            // not just at the end.
            if let Err(v) = os.audit() {
                panic!("case {case}: audit after {op:?}: {v}");
            }
        }
        teardown_and_check(&mut os, &pids, case);
    }
}

#[test]
fn identical_op_sequences_replay_identically() {
    for case in 0..12u64 {
        let mut rng = Rng::new(0xC0DE_0002 ^ case.wrapping_mul(0x9E37));
        let ops = gen_ops(&mut rng, 20);
        let run = |ops: &[Op]| {
            let mut os = build_os();
            let mut pids: Vec<Pid> = Vec::new();
            for op in ops {
                apply(&mut os, &mut pids, op);
            }
            let statuses: Vec<_> = pids.iter().map(|&p| os.status(p)).collect();
            let audit = format!("{:?}", os.audit());
            (os.clock(), os.space().barrier_stats().executed, statuses, audit)
        };
        assert_eq!(
            run(&ops),
            run(&ops),
            "case {case}: virtual execution must be deterministic"
        );
    }
}

/// Cross-checks the trace-derived accounting against the kernel's own
/// state: every live process' memlimit debit must equal the net of the
/// charge/credit events the trace recorded at its node. Metrics counters
/// are maintained incrementally in the trace plane, so this holds even if
/// the event ring has dropped old events.
fn reconcile_metrics(os: &KaffeOs, pids: &[Pid], case: u64, step: usize) {
    let (metrics, retained) = os
        .obs()
        .trace
        .read(|t| (t.metrics().clone(), t.events().count()));
    assert_eq!(
        metrics.kernel_faults, 0,
        "case {case} step {step}: the trace recorded a kernel fault"
    );
    assert_eq!(
        retained as u64,
        metrics
            .events_recorded
            .saturating_sub(metrics.events_dropped),
        "case {case} step {step}: ring length disagrees with the counters"
    );
    for &pid in pids {
        if !os.is_alive(pid) {
            continue;
        }
        let ml = os
            .proc_memlimit(pid)
            .expect("live process has a memlimit node");
        let key = (ml.index() as u32, ml.generation());
        let net = metrics.net_bytes_by_node.get(&key).copied().unwrap_or(0);
        let current = os.space().limits().current(ml) as i64;
        assert_eq!(
            net, current,
            "case {case} step {step}: {pid:?} trace net {net} bytes \
             but the memlimit tree records {current}"
        );
    }
}

/// The same fuzz sequences as `kernel_survives_arbitrary_op_sequences`,
/// but with tracing on and the trace-vs-tree reconciliation run after
/// every op. After full teardown every node's net must have returned to
/// zero and every traced process must carry its exit event.
#[test]
fn traced_fuzz_reconciles_metrics_with_the_memlimit_tree() {
    for case in 0..12u64 {
        let mut rng = Rng::new(0xC0DE_0003 ^ case.wrapping_mul(0x9E37));
        let ops = gen_ops(&mut rng, 30);
        let mut os = build_os_traced();
        let mut pids: Vec<Pid> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut os, &mut pids, op);
            if let Err(v) = os.audit() {
                panic!("case {case}: audit after {op:?}: {v}");
            }
            reconcile_metrics(&os, &pids, case, step);
        }
        teardown_and_check(&mut os, &pids, case);
        let metrics = os.obs().trace.read(|t| t.metrics().clone());
        assert!(
            metrics.net_bytes_by_node.is_empty(),
            "case {case}: nodes still carry traced bytes after teardown: {:?}",
            metrics.net_bytes_by_node
        );
        for &pid in &pids {
            let pm = metrics
                .per_process
                .get(&pid.0)
                .unwrap_or_else(|| panic!("case {case}: {pid:?} never traced"));
            assert!(pm.exited, "case {case}: {pid:?} has no exit event");
        }
    }
}

/// The termination sweep: with a kill injected at every quantum boundary of
/// a multi-process run, the audit stays clean throughout, every dead heap
/// is fully reclaimed, and the machine budget drains to zero.
#[test]
fn kill_at_every_quantum_boundary_reclaims_fully() {
    for case in 0..8u64 {
        let mut os = build_os();
        let mut pids: Vec<Pid> = Vec::new();
        for (image, arg) in [("churn", "0"), ("hog", "0"), ("shmer", "3")] {
            pids.push(
                os.spawn_with(
                    image,
                    arg,
                    SpawnOpts {
                        mem_limit: Some(1 << 20),
                        ..SpawnOpts::default()
                    },
                )
                .unwrap(),
            );
        }
        let mut plan = FaultPlan::quiet(0x0051_1EEF ^ case);
        plan.kill_sweep = true;
        os.install_faults(plan);

        // One victim dies per quantum: three processes cannot outlive a
        // handful of quanta. The run must end with everything dead and
        // every invariant intact.
        os.run(Some(os.clock() + 200_000_000));
        for &pid in &pids {
            assert!(
                !os.is_alive(pid),
                "case {case}: {pid:?} survived the termination sweep"
            );
        }
        if let Err(v) = os.audit() {
            panic!("case {case}: audit after sweep: {v}");
        }
        let killed = os.faults().unwrap().kills_injected;
        assert!(killed >= 1, "case {case}: sweep never fired");
        teardown_and_check(&mut os, &pids, case);
    }
}
