//! Host allocation-path throughput on an alloc-heavy workload mix.
//!
//! Drives the heap layer directly (no interpreter) with deterministic
//! jess/javac-style allocation profiles — many short-lived small objects,
//! tree-shaped churn with arrays and strings, a tenured graph with young
//! churn on top, and a multi-heap merge storm — and reports **host**
//! allocations/sec. Like `interp_throughput`, the wall numbers are the only
//! ones allowed to change between commits: every phase ends with a full
//! collection and folds its live state (bytes, object count, every live
//! field value) into a checksum that must match rep-for-rep, and — when a
//! `--baseline` report is given — byte-for-byte against the prior
//! implementation's checksums, proving the allocator rework moved no
//! virtually observable number.
//!
//! ```text
//! cargo run --release -p kaffeos-bench --bin alloc_throughput
//!     [--quick]            # smoke iteration counts
//!     [--reps <k>]         # wall-clock reps per phase (default 3)
//!     [--out <path>]       # default: BENCH_alloc.json
//!     [--baseline <path>]  # embed a prior run's totals for the speedup
//! ```
//!
//! Writes a machine-readable `BENCH_alloc.json` (see EXPERIMENTS.md).

use std::fmt::Write as _;
use std::time::Instant;

use kaffeos_bench::{cell, json_f, quick_mode, rule};
use kaffeos_heap::{
    BarrierKind, ClassId, HeapId, HeapSpace, ObjRef, SpaceConfig, ProcTag, Value,
};
use kaffeos_memlimit::Kind;

const CLS_FACT: ClassId = ClassId(101);
const CLS_NODE: ClassId = ClassId(102);
const CLS_ARR: ClassId = ClassId(103);
const CLS_STR: ClassId = ClassId(104);

/// Deterministic SplitMix64 generator (same recurrence as the fuzz suites).
struct Rng(u64);

impl Rng {
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
}

/// FNV-1a fold used for the end-of-phase live-state checksum.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn fold(&mut self, v: u64) {
        let mut x = self.0 ^ v;
        x = x.wrapping_mul(0x100000001b3);
        self.0 = x;
    }
}

struct Phase {
    name: &'static str,
    ops: u64,
    wall_seconds: f64,
    checksum: u64,
    bytes_final: u64,
    objects_final: u64,
}

impl Phase {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_seconds.max(1e-9)
    }
    fn ns_per_op(&self) -> f64 {
        self.wall_seconds * 1e9 / (self.ops as f64).max(1.0)
    }
}

struct Harness {
    space: HeapSpace,
    heap: HeapId,
    /// Rolling window of live roots the phase keeps reachable.
    window: Vec<ObjRef>,
    ops: u64,
}

impl Harness {
    fn new() -> Self {
        let mut space = HeapSpace::new(SpaceConfig {
            barrier: BarrierKind::NoHeapPointer,
            user_budget: 256 * 1024 * 1024,
        });
        let root = space.root_memlimit();
        let ml = space
            .limits_mut()
            .create_child(root, Kind::Soft, 128 * 1024 * 1024, "bench-proc")
            .expect("bench memlimit");
        let heap = space.create_user_heap(ProcTag(1), ml, "bench");
        Harness {
            space,
            heap,
            window: Vec::new(),
            ops: 0,
        }
    }

    /// Periodic collection inside a phase. The post-nursery implementation
    /// runs a **minor** collection here (nursery pages + remembered set
    /// only); every phase still finishes with a full `gc()`, so the
    /// end-of-phase live state is identical either way (minor+major marks
    /// exactly what a single major marks — test-enforced).
    fn collect(&mut self) {
        let roots = self.window.clone();
        self.space
            .gc_minor(self.heap, &roots)
            .expect("minor collection");
    }

    fn full_gc(&mut self) {
        let roots = self.window.clone();
        self.space.gc(self.heap, &roots).expect("full collection");
    }

    /// Folds the final live state: heap counters plus every reachable value
    /// in window order. Implementation-independent: depends only on what is
    /// live and what it contains.
    fn checksum(&mut self) -> u64 {
        self.full_gc();
        let mut h = Fnv::new();
        h.fold(self.space.heap_bytes(self.heap).expect("live heap"));
        let snap = self.space.snapshot(self.heap).expect("snapshot");
        h.fold(snap.objects);
        h.fold(snap.entry_items as u64);
        h.fold(snap.exit_items as u64);
        for &r in &self.window {
            let n = self.space.slot_count(r).expect("live root");
            h.fold(self.space.class_of(r).expect("live root").0 as u64);
            for i in 0..n {
                match self.space.load(r, i).expect("live slot") {
                    Value::Null => h.fold(1),
                    Value::Int(v) => h.fold(2 ^ (v as u64).rotate_left(8)),
                    Value::Float(v) => h.fold(3 ^ v.to_bits()),
                    Value::Ref(r2) => {
                        // Fold the target's class, not its slot index: slot
                        // numbering is the allocator's business, the object
                        // graph is not.
                        h.fold(4 ^ (self.space.class_of(r2).expect("live ref").0 as u64) << 3)
                    }
                }
            }
        }
        h.0
    }
}

/// jess-style: a storm of small fact objects, ~87% dying before the next
/// collection; survivors are pinned through a working-memory array whose
/// slots are overwritten as new facts displace old ones, so the live set
/// stays bounded at the array's size. Collection every `gc_every` allocs.
fn phase_jess_facts(n: u64, gc_every: u64) -> (Harness, u64) {
    let mut h = Harness::new();
    let mut rng = Rng(0xFAC7);
    let wm_len = 65536usize;
    let wm = h
        .space
        .alloc_array(h.heap, CLS_ARR, 4, wm_len, Value::Null)
        .expect("working-memory array");
    h.window.push(wm);
    // Resident fact base: the long-lived working memory a rule engine keeps
    // between activations. A full collection re-marks and re-sweeps all of
    // it on every cycle; a minor collection never touches it once tenured.
    for i in 0..wm_len {
        let obj = h
            .space
            .alloc_fields(h.heap, CLS_FACT, 4)
            .expect("base fact alloc");
        h.ops += 1;
        h.space
            .store_prim(obj, 0, Value::Int(i as i64))
            .expect("base fact init");
        h.ops += 1;
        h.space
            .store_ref(wm, i, Value::Ref(obj), false)
            .expect("base fact store");
        h.ops += 1;
    }
    // Two collections so the fact base ages past the promotion threshold.
    h.collect();
    h.collect();
    for i in 0..n {
        let obj = h
            .space
            .alloc_fields(h.heap, CLS_FACT, 4)
            .expect("fact alloc");
        h.ops += 1;
        for f in 0..3 {
            h.space
                .store_prim(obj, f, Value::Int((i as i64) * 7 + f as i64))
                .expect("fact init");
            h.ops += 1;
        }
        // 1-in-8 facts displace a working-memory slot (the rest die young).
        if rng.below(8) == 0 {
            let at = (rng.below(wm_len as u64)) as usize;
            h.space
                .store_ref(wm, at, Value::Ref(obj), false)
                .expect("fact retained");
            h.ops += 1;
        }
        if i > 0 && i % gc_every == 0 {
            h.collect();
        }
    }
    let ops = h.ops;
    (h, ops)
}

/// javac-style: tree-shaped AST churn with node objects, int arrays and
/// interned-ish strings; whole trees die when evicted from the window.
fn phase_javac_trees(n: u64, gc_every: u64) -> (Harness, u64) {
    let mut h = Harness::new();
    let mut rng = Rng(0x1ACAC);
    let window_cap = 256usize;
    // Resident symbol table: classes/members loaded for the compilation
    // stay live for the whole run, like javac's symbol environment.
    let sym_len = 32768usize;
    let symtab = h
        .space
        .alloc_array(h.heap, CLS_ARR, 4, sym_len, Value::Null)
        .expect("symbol table");
    h.window.push(symtab);
    for i in 0..sym_len {
        let sym = h
            .space
            .alloc_fields(h.heap, CLS_NODE, 2)
            .expect("symbol alloc");
        h.ops += 1;
        h.space
            .store_prim(sym, 0, Value::Int(i as i64))
            .expect("symbol init");
        h.ops += 1;
        h.space
            .store_ref(symtab, i, Value::Ref(sym), false)
            .expect("symbol store");
        h.ops += 1;
    }
    h.collect();
    h.collect();
    for i in 0..n {
        let node = h
            .space
            .alloc_fields(h.heap, CLS_NODE, 8)
            .expect("node alloc");
        h.ops += 1;
        // Two children, stored through the barrier.
        for c in 0..2 {
            let kid = h
                .space
                .alloc_fields(h.heap, CLS_NODE, 2)
                .expect("kid alloc");
            h.ops += 1;
            h.space
                .store_ref(node, c, Value::Ref(kid), false)
                .expect("kid link");
            h.ops += 1;
        }
        match rng.below(10) {
            0..=2 => {
                let arr = h
                    .space
                    .alloc_array(h.heap, CLS_ARR, 4, 16, Value::Int(0))
                    .expect("arr alloc");
                h.ops += 1;
                h.space
                    .store_ref(node, 2, Value::Ref(arr), false)
                    .expect("arr link");
                h.ops += 1;
            }
            3 => {
                let s = h
                    .space
                    .alloc_str(h.heap, CLS_STR, "ident_42")
                    .expect("str alloc");
                h.ops += 1;
                h.space
                    .store_ref(node, 3, Value::Ref(s), false)
                    .expect("str link");
                h.ops += 1;
            }
            _ => {}
        }
        // 1-in-32 trees get attached to the symbol table (an old->young
        // store: remembered-set traffic, and the displaced entry becomes
        // mature garbage for the next full collection).
        if rng.below(32) == 0 {
            let at = (rng.below(sym_len as u64)) as usize;
            h.space
                .store_ref(symtab, at, Value::Ref(node), false)
                .expect("symtab store");
            h.ops += 1;
        }
        if h.window.len() < window_cap {
            h.window.push(node);
        } else {
            // window[0] anchors the symbol table; evict only transient
            // slots.
            let at = 1 + (rng.below((window_cap - 1) as u64)) as usize;
            h.window[at] = node;
        }
        if i > 0 && i % gc_every == 0 {
            h.collect();
        }
    }
    let ops = h.ops;
    (h, ops)
}

/// Tenured graph + young churn: a long-lived object graph is built first
/// (it tenures), then a storm of immediately-dead young objects runs on
/// top, with occasional old->young stores (remembered-set traffic).
fn phase_survivors(n: u64, gc_every: u64) -> (Harness, u64) {
    let mut h = Harness::new();
    let mut rng = Rng(0x5EED);
    let old_count = 32768usize;
    for i in 0..old_count {
        let obj = h
            .space
            .alloc_fields(h.heap, CLS_NODE, 4)
            .expect("old alloc");
        h.ops += 1;
        if i > 0 {
            let prev = h.window[i - 1];
            h.space
                .store_ref(obj, 0, Value::Ref(prev), false)
                .expect("old chain");
            h.ops += 1;
        }
        h.window.push(obj);
    }
    // Let the old graph age past the promotion threshold before the churn
    // starts.
    h.collect();
    h.collect();
    for i in 0..n {
        let young = h
            .space
            .alloc_fields(h.heap, CLS_FACT, 2)
            .expect("young alloc");
        h.ops += 1;
        h.space
            .store_prim(young, 0, Value::Int(i as i64))
            .expect("young init");
        h.ops += 1;
        // 1-in-64: an old object points at a young one (old->young edge).
        if rng.below(64) == 0 {
            let at = (rng.below(old_count as u64)) as usize;
            h.space
                .store_ref(h.window[at], 1, Value::Ref(young), false)
                .expect("old->young store");
            h.ops += 1;
        }
        if i > 0 && i % gc_every == 0 {
            h.collect();
        }
    }
    let ops = h.ops;
    (h, ops)
}

/// Merge storm: short-lived process heaps are populated and merged into the
/// kernel heap (page retag path), with kernel collections between rounds.
fn phase_merge_storm(rounds: u64, per_round: u64) -> (Harness, u64) {
    let mut h = Harness::new();
    for round in 0..rounds {
        let root = h.space.root_memlimit();
        let ml = h
            .space
            .limits_mut()
            .create_child(root, Kind::Soft, 64 * 1024 * 1024, "merge-proc")
            .expect("merge memlimit");
        let heap = h
            .space
            .create_user_heap(ProcTag(100 + round as u32), ml, "merge");
        let mut prev: Option<ObjRef> = None;
        for _ in 0..per_round {
            let obj = h
                .space
                .alloc_fields(heap, CLS_NODE, 3)
                .expect("merge alloc");
            h.ops += 1;
            if let Some(p) = prev {
                h.space
                    .store_ref(obj, 0, Value::Ref(p), false)
                    .expect("merge chain");
                h.ops += 1;
            }
            prev = Some(obj);
        }
        h.space.merge_into_kernel(heap).expect("merge");
        h.space
            .limits_mut()
            .drain_and_remove(ml)
            .expect("merge limit teardown");
        if round % 4 == 3 {
            let kernel = h.space.kernel_heap();
            h.space.gc(kernel, &[]).expect("kernel gc");
        }
    }
    let kernel = h.space.kernel_heap();
    h.space.gc(kernel, &[]).expect("kernel gc");
    let ops = h.ops;
    (h, ops)
}

fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Pulls `"ops_per_sec": <number>` out of the `"total"` object and the
/// per-phase checksums out of a prior report. Hand-rolled on purpose: no
/// JSON dependency in this workspace.
fn baseline_total(body: &str) -> Option<f64> {
    let total = body.find("\"total\"")?;
    let tail = &body[total..];
    let key = tail.find("\"ops_per_sec\":")?;
    let num = tail[key + "\"ops_per_sec\":".len()..].trim_start();
    let end = num
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(num.len());
    num[..end].parse().ok()
}

fn baseline_checksum(body: &str, phase: &str) -> Option<u64> {
    let at = body.find(&format!("\"name\": \"{phase}\""))?;
    let tail = &body[at..];
    let key = tail.find("\"checksum\": ")?;
    let num = tail[key + "\"checksum\": ".len()..].trim_start();
    let end = num
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(num.len());
    num[..end].parse().ok()
}

fn main() {
    let quick = quick_mode();
    let reps: u32 = arg_after("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_alloc.json".to_string());
    let baseline_body = arg_after("--baseline").and_then(|p| std::fs::read_to_string(&p).ok());
    let baseline = baseline_body.as_deref().and_then(baseline_total);

    let scale: u64 = if quick { 16 } else { 1 };
    println!(
        "alloc_throughput ({}, best of {reps})",
        if quick { "quick" } else { "full" }
    );
    rule(78);
    println!(
        "{:<14} {:>12} {:>9} {:>12} {:>10} {:>20}",
        "phase", "ops", "wall s", "Mops/s", "ns/op", "checksum"
    );
    rule(78);

    type PhaseFn = fn(u64) -> (Harness, u64);
    let run_jess: PhaseFn = |s| phase_jess_facts(1_600_000 / s, 32_768);
    let run_javac: PhaseFn = |s| phase_javac_trees(400_000 / s, 16_384);
    let run_surv: PhaseFn = |s| phase_survivors(1_200_000 / s, 16_384);
    let run_merge: PhaseFn = |s| phase_merge_storm(64 / s.min(8), 8_192);
    let phases: [(&'static str, PhaseFn); 4] = [
        ("jess_facts", run_jess),
        ("javac_trees", run_javac),
        ("survivors", run_surv),
        ("merge_storm", run_merge),
    ];

    let mut rows: Vec<Phase> = Vec::new();
    for (name, run) in phases {
        let mut row: Option<Phase> = None;
        for _ in 0..reps {
            let started = Instant::now();
            let (mut h, ops) = run(scale);
            let wall = started.elapsed().as_secs_f64();
            // The checksum pass runs a final full collection outside the
            // timed region: the phases time the allocation path, not the
            // verification walk.
            let checksum = h.checksum();
            let bytes_final = h.space.heap_bytes(h.heap).unwrap_or_else(|_| {
                h.space
                    .heap_bytes(h.space.kernel_heap())
                    .expect("kernel heap alive")
            });
            let objects_final = h
                .space
                .snapshot(h.heap)
                .or_else(|_| h.space.snapshot(h.space.kernel_heap()))
                .expect("snapshot")
                .objects;
            match &mut row {
                None => {
                    row = Some(Phase {
                        name,
                        ops,
                        wall_seconds: wall,
                        checksum,
                        bytes_final,
                        objects_final,
                    });
                }
                Some(r) => {
                    assert_eq!(r.ops, ops, "{name}: op count drifted across reps");
                    assert_eq!(r.checksum, checksum, "{name}: live state drifted across reps");
                    r.wall_seconds = r.wall_seconds.min(wall);
                }
            }
        }
        let row = row.expect("reps >= 1");
        if let Some(body) = baseline_body.as_deref() {
            if let Some(base_sum) = baseline_checksum(body, name) {
                assert_eq!(
                    row.checksum, base_sum,
                    "{name}: live state diverged from the baseline implementation"
                );
            }
        }
        println!(
            "{:<14} {:>12} {} {} {} {:>20x}",
            row.name,
            row.ops,
            cell(row.wall_seconds, 9, 3),
            cell(row.ops_per_sec() / 1e6, 12, 2),
            cell(row.ns_per_op(), 10, 1),
            row.checksum,
        );
        rows.push(row);
    }
    rule(78);

    let total_ops: u64 = rows.iter().map(|r| r.ops).sum();
    let total_wall: f64 = rows.iter().map(|r| r.wall_seconds).sum();
    let total_ops_per_sec = total_ops as f64 / total_wall.max(1e-9);
    let total_ns_per_op = total_wall * 1e9 / (total_ops as f64).max(1.0);
    println!(
        "{:<14} {:>12} {} {} {}",
        "TOTAL",
        total_ops,
        cell(total_wall, 9, 3),
        cell(total_ops_per_sec / 1e6, 12, 2),
        cell(total_ns_per_op, 10, 1),
    );
    if let Some(base) = baseline {
        println!(
            "baseline: {} Mops/s -> speedup {}x",
            cell(base / 1e6, 0, 2),
            cell(total_ops_per_sec / base.max(1e-9), 0, 2)
        );
    }

    // --- machine-readable report -----------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"alloc_throughput\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"phases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ops\": {}, \"wall_seconds\": {}, \
             \"ops_per_sec\": {}, \"ns_per_op\": {}, \"checksum\": {}, \
             \"bytes_final\": {}, \"objects_final\": {}}}{}",
            r.name,
            r.ops,
            json_f(r.wall_seconds),
            json_f(r.ops_per_sec()),
            json_f(r.ns_per_op()),
            r.checksum,
            r.bytes_final,
            r.objects_final,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"total\": {{\"ops\": {}, \"wall_seconds\": {}, \"ops_per_sec\": {}, \
         \"ns_per_op\": {}}},",
        total_ops,
        json_f(total_wall),
        json_f(total_ops_per_sec),
        json_f(total_ns_per_op)
    );
    match baseline {
        Some(base) => {
            let _ = writeln!(json, "  \"baseline\": {{\"ops_per_sec\": {}}},", json_f(base));
            let _ = writeln!(
                json,
                "  \"speedup_vs_baseline\": {}",
                json_f(total_ops_per_sec / base.max(1e-9))
            );
        }
        None => {
            json.push_str("  \"baseline\": null,\n");
            json.push_str("  \"speedup_vs_baseline\": null\n");
        }
    }
    json.push_str("}\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("report -> {out_path}");
}
