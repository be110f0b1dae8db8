//! Differential heap oracle: the paged bump allocator and per-heap
//! mark-and-sweep collector versus a naive flat-map reference model.
//!
//! A seeded op-fuzzer drives the real [`HeapSpace`] and a deliberately
//! simple reference model through the same operation sequence — allocation
//! of instances, strings and zero-filled `int[]`/`float[]` arrays (with
//! armed fault injection), reference/primitive stores across the
//! Figure-2 legality matrix, full collections, page release, and
//! merge-into-kernel. The model knows nothing about pages, bump pointers or
//! free lists: it is a flat map of live objects plus naive entry/exit
//! arithmetic and a mirrored memlimit. Any behavioural difference the paged
//! allocator introduces — a slot recycled too early, a failed allocation
//! mutating state, an entry item leaking across a merge, a still-zero
//! array answering a load or store unlike a written one — shows up as a
//! divergence.
//!
//! Asserted per operation: identical error values (compared structurally
//! via `Debug`, including `LimitExceeded` payloads), identical loads of the
//! stored slot before and after each primitive store, and a clean space
//! audit after every collection, page release and merge. Asserted at each
//! case's end, after full collections of every live heap: identical live
//! sets (every model object resolves, field by field), `bytes_used`, object
//! counts, entry/exit item counts, memlimit balances, fault-fire counts,
//! and a clean space audit. Each test also asserts that every op arm of the
//! fuzzer fired at least once across its seeds, so renumbering the op table
//! cannot silently drop an operation.
//!
//! Seeds replay exactly; a failure prints its seed. `DIFFERENTIAL_SEEDS`
//! overrides the seed count (CI smoke uses 4; the default exceeds the
//! eight-seed floor and always includes the armed-fault seeds).

use std::collections::HashMap;

use kaffeos_heap::{
    AllocFault, BarrierKind, ClassId, HeapError, HeapId, HeapSpace, ObjData, ObjRef, ProcTag,
    SegViolationKind, SpaceConfig, Value,
};
use kaffeos_memlimit::{Kind, LimitExceeded, MemLimitId};

const CLS: ClassId = ClassId(7);
const NPROCS: usize = 3;
/// Small enough that genuine memlimit OOM fires alongside injected faults.
const USER_LIMIT: u64 = 24 * 1024;
const HEADER: u64 = 8; // SizeModel::for_barrier(NoHeapPointer): no heap word
const FIELD: u64 = 8;
const ITEM: u64 = 16; // entry and exit items both

fn seed_count() -> u64 {
    std::env::var("DIFFERENTIAL_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// Deterministic SplitMix64 sequence generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ----- reference model ------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum MVal {
    Null,
    Int(i64),
    /// A float by its bits, so `-0.0` and `+0.0` differ.
    Float(u64),
    Ref(ObjRef),
}

impl MVal {
    fn of(v: Value) -> MVal {
        match v {
            Value::Null => MVal::Null,
            Value::Int(i) => MVal::Int(i),
            Value::Float(f) => MVal::Float(f.to_bits()),
            Value::Ref(r) => MVal::Ref(r),
        }
    }

    /// True for a zero of the array kind `float` picks (`+0.0` only).
    fn is_zero_of(&self, float: bool) -> bool {
        matches!((float, self), (false, MVal::Int(0)) | (true, MVal::Float(0)))
    }
}

#[derive(Debug, Clone)]
enum MPayload {
    Fields(Vec<MVal>),
    /// A zero-filled `int[]` or `float[]`. `written` is set by the first
    /// store that is not a zero of its kind: from then on the real array
    /// must hold an element buffer, and before it must not.
    Prims {
        float: bool,
        values: Vec<MVal>,
        written: bool,
    },
    Str,
}

#[derive(Debug, Clone)]
struct MObj {
    /// Model heap index: `0..NPROCS` users, `NPROCS` is the kernel.
    heap: usize,
    payload: MPayload,
    bytes: u64,
}

#[derive(Debug, Default)]
struct MHeap {
    alive: bool,
    bytes: u64,
    objects: u64,
    /// Exit items: target -> accounted.
    exits: HashMap<ObjRef, bool>,
    /// Entry items: target -> (refs, accounted). The real table keys by
    /// slot index, but at any instant a slot has one live generation and
    /// entry items always reference live objects, so keying by `ObjRef` is
    /// equivalent.
    entries: HashMap<ObjRef, (u64, bool)>,
    /// Mirrored hard memlimit: (current, limit). `None` for the kernel.
    ml: Option<(u64, u64)>,
}

/// The flat reference model. No pages, no generations, no free lists: just
/// objects, naive entry/exit arithmetic, and memlimit mirroring.
struct Model {
    heaps: Vec<MHeap>,
    objects: HashMap<ObjRef, MObj>,
    attempts: u64,
    fault: Option<AllocFault>,
    faults_fired: u64,
}

impl Model {
    fn new() -> Self {
        let mut heaps: Vec<MHeap> = (0..=NPROCS).map(|_| MHeap::default()).collect();
        for h in heaps.iter_mut().take(NPROCS) {
            h.alive = true;
            h.ml = Some((0, USER_LIMIT));
        }
        heaps[NPROCS].alive = true; // kernel; ml stays None
        Model {
            heaps,
            objects: HashMap::new(),
            attempts: 0,
            fault: None,
            faults_fired: 0,
        }
    }

    /// Mirrors `HeapSpace::admit` and `place`: fault check, then memlimit
    /// debit, then — infallibly — the object materialises. Returns the
    /// exact error the real space must produce.
    fn alloc(
        &mut self,
        h: usize,
        bytes: u64,
        ml_id: Option<MemLimitId>,
        root_ml: MemLimitId,
    ) -> Result<(), HeapError> {
        let attempt = self.attempts;
        self.attempts += 1;
        if let Some(fault) = self.fault {
            let fire = if fault.persistent {
                attempt >= fault.at
            } else {
                attempt == fault.at
            };
            if fire {
                if !fault.persistent {
                    self.fault = None;
                }
                self.faults_fired += 1;
                return Err(HeapError::OutOfMemory(LimitExceeded {
                    node: ml_id.unwrap_or(root_ml),
                    requested: bytes,
                    available: 0,
                }));
            }
        }
        if let Some((current, limit)) = self.heaps[h].ml {
            let available = limit.saturating_sub(current);
            if bytes > available {
                return Err(HeapError::OutOfMemory(LimitExceeded {
                    node: ml_id.expect("user heap has a memlimit"),
                    requested: bytes,
                    available,
                }));
            }
            self.heaps[h].ml = Some((current + bytes, limit));
        }
        self.heaps[h].bytes += bytes;
        self.heaps[h].objects += 1;
        Ok(())
    }

    /// Mirrors `ensure_cross_edge` for a `src -> target` edge (`target`
    /// lives on model heap `dst`). `account` is false for GC-materialised
    /// items. Returns Err for an accounted debit failure on either side —
    /// an entry-item failure rolls back the exit item, exactly like the
    /// real space.
    fn cross_edge(
        &mut self,
        src: usize,
        dst: usize,
        target: ObjRef,
        account: bool,
        src_ml: Option<MemLimitId>,
        dst_ml: Option<MemLimitId>,
    ) -> Result<(), HeapError> {
        if self.heaps[src].exits.contains_key(&target) {
            return Ok(());
        }
        let exit_accounted = account && self.heaps[src].ml.is_some();
        if exit_accounted {
            let (current, limit) = self.heaps[src].ml.expect("checked");
            let available = limit.saturating_sub(current);
            if ITEM > available {
                return Err(HeapError::OutOfMemory(LimitExceeded {
                    node: src_ml.expect("accounted source has a memlimit"),
                    requested: ITEM,
                    available,
                }));
            }
            self.heaps[src].ml = Some((current + ITEM, limit));
        }
        self.heaps[src].exits.insert(target, exit_accounted);
        if let Some(entry) = self.heaps[dst].entries.get_mut(&target) {
            entry.0 += 1;
            return Ok(());
        }
        let entry_accounted = account && self.heaps[dst].ml.is_some();
        if entry_accounted {
            let (current, limit) = self.heaps[dst].ml.expect("checked");
            let available = limit.saturating_sub(current);
            if ITEM > available {
                // Roll back the exit item.
                self.heaps[src].exits.remove(&target);
                if exit_accounted {
                    let (c, l) = self.heaps[src].ml.expect("checked");
                    self.heaps[src].ml = Some((c - ITEM, l));
                }
                return Err(HeapError::OutOfMemory(LimitExceeded {
                    node: dst_ml.expect("accounted destination has a memlimit"),
                    requested: ITEM,
                    available,
                }));
            }
            self.heaps[dst].ml = Some((current + ITEM, limit));
        }
        self.heaps[dst].entries.insert(target, (1, entry_accounted));
        Ok(())
    }

    /// Marked set of a full collection of model heap `h`: BFS from the
    /// given roots plus entry items with live refs, following same-heap
    /// edges only. Returns the marked refs and the exit targets reached.
    fn mark(&self, h: usize, roots: &[ObjRef]) -> (Vec<ObjRef>, Vec<ObjRef>) {
        let mut marked: HashMap<ObjRef, ()> = HashMap::new();
        let mut exit_marked: Vec<ObjRef> = Vec::new();
        let mut stack: Vec<ObjRef> = Vec::new();
        for &root in roots {
            let obj = &self.objects[&root];
            if obj.heap == h && marked.insert(root, ()).is_none() {
                stack.push(root);
            }
        }
        for (&target, &(refs, _)) in &self.heaps[h].entries {
            if refs == 0 {
                continue;
            }
            assert!(
                self.objects.contains_key(&target),
                "model: entry item for dead object"
            );
            if marked.insert(target, ()).is_none() {
                stack.push(target);
            }
        }
        while let Some(at) = stack.pop() {
            let MPayload::Fields(fields) = &self.objects[&at].payload else {
                continue;
            };
            for val in fields {
                let MVal::Ref(target) = *val else { continue };
                if self.objects[&target].heap == h {
                    if marked.insert(target, ()).is_none() {
                        stack.push(target);
                    }
                } else {
                    exit_marked.push(target);
                }
            }
        }
        (marked.into_keys().collect(), exit_marked)
    }

    /// Mirrors a full collection of model heap `h`.
    fn full_gc(&mut self, h: usize, roots: &[ObjRef]) {
        let (marked, exit_marked) = self.mark(h, roots);
        let marked: HashMap<ObjRef, ()> = marked.into_iter().map(|r| (r, ())).collect();
        // Sweep objects.
        let dead: Vec<ObjRef> = self
            .objects
            .iter()
            .filter(|(r, o)| o.heap == h && !marked.contains_key(r))
            .map(|(&r, _)| r)
            .collect();
        for r in dead {
            let obj = self.objects.remove(&r).expect("just listed");
            self.heaps[h].bytes -= obj.bytes;
            self.heaps[h].objects -= 1;
            if let Some((current, limit)) = self.heaps[h].ml {
                self.heaps[h].ml = Some((current - obj.bytes, limit));
            }
        }
        // Sweep exit items whose edge no longer leaves a live object.
        let exit_marked: HashMap<ObjRef, ()> = exit_marked.into_iter().map(|r| (r, ())).collect();
        let dead_exits: Vec<ObjRef> = self.heaps[h]
            .exits
            .keys()
            .filter(|t| !exit_marked.contains_key(t))
            .copied()
            .collect();
        for target in dead_exits {
            self.drop_exit(h, target);
        }
    }

    /// Mirrors `drop_exit_item`: remove the exit, then update the entry in
    /// the heap the target currently lives on.
    fn drop_exit(&mut self, h: usize, target: ObjRef) {
        let accounted = self.heaps[h].exits.remove(&target).expect("absent exit");
        if accounted {
            if let Some((current, limit)) = self.heaps[h].ml {
                self.heaps[h].ml = Some((current - ITEM, limit));
            }
        }
        let Some(obj) = self.objects.get(&target) else {
            return;
        };
        let th = obj.heap;
        self.decrement_entry(th, target);
    }

    /// Mirrors `decrement_entry` against an explicit entry table (`merge`
    /// names the dying heap's table directly, like the real code).
    fn decrement_entry(&mut self, th: usize, target: ObjRef) {
        let Some(entry) = self.heaps[th].entries.get_mut(&target) else {
            return;
        };
        entry.0 = entry.0.saturating_sub(1);
        if entry.0 == 0 {
            let (_, entry_accounted) = self.heaps[th].entries.remove(&target).expect("just seen");
            if entry_accounted {
                if let Some((current, limit)) = self.heaps[th].ml {
                    self.heaps[th].ml = Some((current - ITEM, limit));
                }
            }
        }
    }

    /// Mirrors `merge_into_kernel` for the op universe of this fuzzer
    /// (user heaps whose only cross edges go to/from the kernel).
    fn merge(&mut self, h: usize) -> (u64, u64) {
        let bytes_moved = self.heaps[h].bytes;
        let objects_moved = self.heaps[h].objects;
        // Step 1: credit everything the heap still holds.
        if let Some((current, limit)) = self.heaps[h].ml {
            self.heaps[h].ml = Some((current - bytes_moved, limit));
        }
        // Step 2: objects move to the kernel.
        for obj in self.objects.values_mut() {
            if obj.heap == h {
                obj.heap = NPROCS;
            }
        }
        self.heaps[NPROCS].bytes += bytes_moved;
        self.heaps[NPROCS].objects += objects_moved;
        self.heaps[h].bytes = 0;
        self.heaps[h].objects = 0;
        // Step 3: the heap's exit items die; remote entries are updated.
        let exits: Vec<ObjRef> = self.heaps[h].exits.keys().copied().collect();
        for target in exits {
            self.drop_exit(h, target);
        }
        // Step 4: kernel exit items into the merged heap collapse. Targets
        // were retagged in step 2, so identify them via the heap's own
        // entry table (every entry of a user heap is a kernel edge here) —
        // and decrement in that table explicitly, like the real code.
        let kernel_exits: Vec<ObjRef> = self.heaps[NPROCS]
            .exits
            .keys()
            .filter(|t| self.heaps[h].entries.contains_key(t))
            .copied()
            .collect();
        for target in kernel_exits {
            let accounted = self.heaps[NPROCS]
                .exits
                .remove(&target)
                .expect("just listed");
            assert!(!accounted, "model: kernel exits are never accounted");
            self.decrement_entry(h, target);
        }
        // Step 5: no entry of the merged heap can still hold refs here
        // (only the kernel points into user heaps, and step 4 collapsed
        // those), but mirror the accounted credit for robustness.
        let leftover: Vec<(u64, bool)> = self.heaps[h].entries.drain().map(|(_, e)| e).collect();
        for (refs, accounted) in leftover {
            assert_eq!(refs, 0, "model: leftover entry with live refs");
            if accounted {
                if let Some((current, limit)) = self.heaps[h].ml {
                    self.heaps[h].ml = Some((current - ITEM, limit));
                }
            }
        }
        self.heaps[h].alive = false;
        (bytes_moved, objects_moved)
    }
}

// ----- fixture --------------------------------------------------------------

struct Fixture {
    space: HeapSpace,
    model: Model,
    /// Real heap ids: `0..NPROCS` users, `[NPROCS]` the kernel.
    heaps: Vec<HeapId>,
    limits: Vec<MemLimitId>,
    root_ml: MemLimitId,
    /// Simulated stack roots per heap (kernel included, index NPROCS).
    roots: Vec<Vec<ObjRef>>,
}

fn fixture() -> Fixture {
    let mut space = HeapSpace::new(SpaceConfig {
        barrier: BarrierKind::NoHeapPointer,
        user_budget: 64 * 1024 * 1024,
    });
    let root_ml = space.root_memlimit();
    let mut heaps = Vec::new();
    let mut limits = Vec::new();
    for p in 0..NPROCS {
        let ml = space
            .limits_mut()
            .create_child(root_ml, Kind::Hard, USER_LIMIT, format!("p{p}"))
            .expect("child memlimit");
        heaps.push(space.create_user_heap(ProcTag(p as u32 + 1), ml, format!("h{p}")));
        limits.push(ml);
    }
    heaps.push(space.kernel_heap());
    Fixture {
        space,
        model: Model::new(),
        heaps,
        limits,
        root_ml,
        roots: vec![Vec::new(); NPROCS + 1],
    }
}

impl Fixture {
    fn ml_id(&self, h: usize) -> Option<MemLimitId> {
        (h < NPROCS && self.model.heaps[h].alive).then(|| self.limits[h])
    }

    /// Compares two results structurally (errors carry `LimitExceeded`
    /// payloads and heap/obj ids; `Debug` covers all of it).
    fn assert_same_err<T, U>(seed: u64, op: &str, real: &Result<T, HeapError>, model: &Result<U, HeapError>) {
        let real_err = real.as_ref().err().map(|e| format!("{e:?}"));
        let model_err = model.as_ref().err().map(|e| format!("{e:?}"));
        assert_eq!(real_err, model_err, "seed {seed:#x}: {op} diverged");
    }

    fn assert_object_matches(&self, seed: u64, r: ObjRef) {
        let model_obj = &self.model.objects[&r];
        let real = self
            .space
            .get(r)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: model-live {r:?} unreadable: {e:?}"));
        let fields = match &model_obj.payload {
            MPayload::Str => return,
            MPayload::Fields(fields) => fields,
            MPayload::Prims {
                values, written, ..
            } => {
                let bufferless = matches!(real.data, ObjData::Zeros { .. });
                assert_eq!(
                    bufferless, !written,
                    "seed {seed:#x}: {r:?} buffer state {:?}",
                    real.data
                );
                values
            }
        };
        let n = self.space.slot_count(r).expect("live object");
        assert_eq!(n, fields.len(), "seed {seed:#x}: {r:?} arity");
        for (i, mv) in fields.iter().enumerate() {
            let rv = MVal::of(self.space.load(r, i).expect("in-bounds load"));
            assert_eq!(&rv, mv, "seed {seed:#x}: {r:?}[{i}]");
        }
    }

    /// Loads slot `index` of `src` from both sides (in bounds or not).
    fn assert_same_load(&self, seed: u64, src: ObjRef, index: usize) {
        let real = self.space.load(src, index).map(MVal::of);
        let model = match &self.model.objects[&src].payload {
            MPayload::Str => Err(HeapError::KindMismatch(src)),
            MPayload::Fields(values) | MPayload::Prims { values, .. } => {
                values.get(index).cloned().ok_or(HeapError::IndexOutOfBounds {
                    obj: src,
                    index,
                    len: values.len(),
                })
            }
        };
        assert_eq!(real, model, "seed {seed:#x}: load {src:?}[{index}]");
    }

    fn audit_clean(&self, seed: u64) {
        if let Err(v) = self.space.audit() {
            panic!("seed {seed:#x}: space audit violation: {v}");
        }
    }

    /// End-of-case synchronisation: full collections everywhere (twice, so
    /// entry-item cascades settle), then exact equality on everything the
    /// model tracks.
    fn sync_and_compare(&mut self, seed: u64) {
        for _round in 0..2 {
            for h in 0..=NPROCS {
                if !self.model.heaps[h].alive {
                    continue;
                }
                let roots = self.roots[h].clone();
                self.space.gc(self.heaps[h], &roots).expect("sync gc");
                self.model.full_gc(h, &roots);
            }
        }
        for h in 0..=NPROCS {
            if !self.model.heaps[h].alive {
                continue;
            }
            let snap = self.space.snapshot(self.heaps[h]).expect("live heap");
            let mh = &self.model.heaps[h];
            assert_eq!(snap.objects, mh.objects, "seed {seed:#x}: heap {h} objects");
            assert_eq!(snap.bytes_used, mh.bytes, "seed {seed:#x}: heap {h} bytes");
            assert_eq!(
                snap.entry_items,
                mh.entries.len(),
                "seed {seed:#x}: heap {h} entry items"
            );
            assert_eq!(
                snap.exit_items,
                mh.exits.len(),
                "seed {seed:#x}: heap {h} exit items"
            );
            if let Some((current, _)) = mh.ml {
                assert_eq!(
                    self.space.limits().current(self.limits[h]),
                    current,
                    "seed {seed:#x}: heap {h} memlimit balance"
                );
            }
        }
        let refs: Vec<ObjRef> = self.model.objects.keys().copied().collect();
        for r in refs {
            self.assert_object_matches(seed, r);
        }
        assert_eq!(
            self.space.alloc_faults_fired(),
            self.model.faults_fired,
            "seed {seed:#x}: fault-fire count"
        );
        self.audit_clean(seed);
    }
}

// ----- the fuzzer -----------------------------------------------------------

/// The fuzzer's op arms, in op-table order; `run_case` counts how often
/// each one really ran (an arm that `continue`s on a dead heap or an empty
/// root set does not count).
const ARMS: [&str; 9] = [
    "alloc",
    "store_ref",
    "store_null",
    "store_prim",
    "drop_root",
    "full_gc",
    "release_pages",
    "arm_fault",
    "merge",
];

/// What one case did: per-arm hit counts (indexed like [`ARMS`]) and the
/// injected allocation faults that fired.
#[derive(Default)]
struct CaseStats {
    hits: [u64; ARMS.len()],
    faults_fired: u64,
}

impl CaseStats {
    fn add(&mut self, other: &CaseStats) {
        for (a, b) in self.hits.iter_mut().zip(other.hits) {
            *a += b;
        }
        self.faults_fired += other.faults_fired;
    }

    /// Asserts every arm fired, except those named in `unreachable`.
    fn assert_arms_fired(&self, unreachable: &[&str]) {
        for (name, &hits) in ARMS.iter().zip(&self.hits) {
            if !unreachable.contains(name) {
                assert!(hits > 0, "op arm `{name}` never fired across the seeds");
            }
        }
    }
}

fn run_case(seed: u64, arm_faults: bool) -> CaseStats {
    let mut rng = Rng(seed);
    let mut f = fixture();
    let mut stats = CaseStats::default();
    let nops = 800 + rng.below(800);
    for _ in 0..nops {
        match rng.below(19) {
            // Allocation (fields, occasionally a string), any heap.
            0..=6 => {
                let h = rng.below(NPROCS + 1);
                if !f.model.heaps[h].alive {
                    continue;
                }
                let heap = f.heaps[h];
                let ml_id = f.ml_id(h);
                stats.hits[0] += 1;
                let shape = rng.below(10);
                if shape == 1 {
                    let float = rng.below(2) == 0;
                    let (elem_bytes, zero) = if float {
                        (8, Value::Float(0.0))
                    } else {
                        (4, Value::Int(0))
                    };
                    let len = rng.below(6);
                    let bytes = HEADER + 4 + elem_bytes as u64 * len as u64;
                    let before = f.space.snapshot(heap).expect("live heap");
                    let real = f.space.alloc_array(heap, CLS, elem_bytes, len, zero);
                    let model = f.model.alloc(h, bytes, ml_id, f.root_ml);
                    Fixture::assert_same_err(seed, "alloc_array", &real, &model);
                    if let Ok(obj) = real {
                        f.model.objects.insert(
                            obj,
                            MObj {
                                heap: h,
                                payload: MPayload::Prims {
                                    float,
                                    values: vec![MVal::of(zero); len],
                                    written: false,
                                },
                                bytes,
                            },
                        );
                        f.roots[h].push(obj);
                    } else {
                        let after = f.space.snapshot(heap).expect("live heap");
                        assert_eq!(after, before, "seed {seed:#x}: failed alloc mutated state");
                    }
                } else if shape == 0 {
                    let bytes = HEADER + 4 + 2 * 3; // "abc"
                    let real = f.space.alloc_str(heap, CLS, "abc");
                    let model = f.model.alloc(h, bytes, ml_id, f.root_ml);
                    Fixture::assert_same_err(seed, "alloc_str", &real, &model);
                    if let Ok(obj) = real {
                        f.model.objects.insert(
                            obj,
                            MObj {
                                heap: h,
                                payload: MPayload::Str,
                                bytes,
                            },
                        );
                        f.roots[h].push(obj);
                    }
                } else {
                    let nfields = rng.below(5);
                    let bytes = HEADER + FIELD * nfields as u64;
                    let before = f.space.snapshot(heap).expect("live heap");
                    let real = f.space.alloc_fields(heap, CLS, nfields);
                    let model = f.model.alloc(h, bytes, ml_id, f.root_ml);
                    Fixture::assert_same_err(seed, "alloc_fields", &real, &model);
                    if let Ok(obj) = real {
                        f.model.objects.insert(
                            obj,
                            MObj {
                                heap: h,
                                payload: MPayload::Fields(vec![MVal::Null; nfields]),
                                bytes,
                            },
                        );
                        f.roots[h].push(obj);
                    } else {
                        // Injected or genuine OOM must be a perfect no-op:
                        // slot acquisition is infallible, so every failure
                        // precedes any state change.
                        let after = f.space.snapshot(heap).expect("live heap");
                        assert_eq!(after, before, "seed {seed:#x}: failed alloc mutated state");
                    }
                }
            }
            // Reference store: same-heap, cross-heap (legal and illegal),
            // sometimes deliberately out of bounds or into a string.
            7..=12 => {
                let sh = rng.below(NPROCS + 1);
                let dh = rng.below(NPROCS + 1);
                if f.roots[sh].is_empty() || f.roots[dh].is_empty() {
                    continue;
                }
                let src = f.roots[sh][rng.below(f.roots[sh].len())];
                let dst = f.roots[dh][rng.below(f.roots[dh].len())];
                let index = rng.below(6); // may be out of bounds on purpose
                let trusted = sh == NPROCS;
                stats.hits[1] += 1;
                let real = f.space.store_ref(src, index, Value::Ref(dst), trusted);
                let model = f.model_store_ref(sh, dh, src, dst, index, trusted);
                Fixture::assert_same_err(seed, "store_ref", &real, &model);
            }
            // Null store (barrier runs, no cross edge).
            13 => {
                let sh = rng.below(NPROCS + 1);
                if f.roots[sh].is_empty() {
                    continue;
                }
                let src = f.roots[sh][rng.below(f.roots[sh].len())];
                let index = rng.below(6);
                stats.hits[2] += 1;
                let real = f.space.store_ref(src, index, Value::Null, false);
                let model = f.model_store_null(src, index);
                Fixture::assert_same_err(seed, "store_null", &real, &model);
            }
            // Primitive store.
            14 => {
                let sh = rng.below(NPROCS + 1);
                if f.roots[sh].is_empty() {
                    continue;
                }
                let src = f.roots[sh][rng.below(f.roots[sh].len())];
                let index = rng.below(6);
                let bits = rng.next();
                // Either kind, zeros (both signs) included, so still-zero
                // arrays see zero, non-zero and wrong-kind stores.
                let v = match rng.below(6) {
                    0 | 1 => Value::Int(bits as i64),
                    2 => Value::Int(0),
                    3 => Value::Float(f64::from_bits(bits)),
                    4 => Value::Float(0.0),
                    _ => Value::Float(-0.0),
                };
                stats.hits[3] += 1;
                f.assert_same_load(seed, src, index);
                let real = f.space.store_prim(src, index, v);
                let model = f.model_store_prim(src, index, MVal::of(v));
                Fixture::assert_same_err(seed, "store_prim", &real, &model);
                f.assert_same_load(seed, src, index);
            }
            // Drop a root.
            15 => {
                let h = rng.below(NPROCS + 1);
                if !f.roots[h].is_empty() {
                    let i = rng.below(f.roots[h].len());
                    f.roots[h].swap_remove(i);
                    stats.hits[4] += 1;
                }
            }
            // Full collection, mirrored in the model.
            16 => {
                let h = rng.below(NPROCS + 1);
                if !f.model.heaps[h].alive {
                    continue;
                }
                stats.hits[5] += 1;
                let roots = f.roots[h].clone();
                f.space
                    .gc(f.heaps[h], &roots)
                    .expect("full collection of a live heap");
                f.model.full_gc(h, &roots);
                f.audit_clean(seed);
            }
            // Page release: pure host-plane, invisible to the model.
            17 => {
                let h = rng.below(NPROCS + 1);
                if !f.model.heaps[h].alive {
                    continue;
                }
                stats.hits[6] += 1;
                f.space
                    .release_empty_pages(f.heaps[h])
                    .expect("release on a live heap");
                f.audit_clean(seed);
            }
            // Fault arming / merge.
            _ => {
                if arm_faults && rng.below(2) == 0 {
                    let fault = AllocFault {
                        at: f.model.attempts + rng.below(24) as u64,
                        persistent: rng.below(8) == 0,
                    };
                    f.space.set_alloc_fault(fault);
                    f.model.fault = Some(fault);
                    stats.hits[7] += 1;
                } else if rng.below(4) == 0 {
                    let h = rng.below(NPROCS);
                    if !f.model.heaps[h].alive {
                        continue;
                    }
                    stats.hits[8] += 1;
                    let report = f
                        .space
                        .merge_into_kernel(f.heaps[h])
                        .expect("merge of a live heap");
                    let (bytes_moved, objects_moved) = f.model.merge(h);
                    assert_eq!(report.bytes_moved, bytes_moved, "seed {seed:#x}: merge bytes");
                    assert_eq!(
                        report.objects_moved, objects_moved,
                        "seed {seed:#x}: merge objects"
                    );
                    assert_eq!(
                        f.space.limits().current(f.limits[h]),
                        0,
                        "seed {seed:#x}: merged heap's memlimit must drain"
                    );
                    f.space.limits_mut().remove(f.limits[h]).expect("drained");
                    f.model.heaps[h].ml = None;
                    f.roots[h].clear();
                    f.audit_clean(seed);
                }
            }
        }
    }
    // Disarm any persistent fault so the sync collections cannot trip over
    // materialisation-free paths (GC never allocates, but keep it tidy for
    // the final fault-count comparison).
    f.space.clear_alloc_fault();
    f.model.fault = None;
    f.sync_and_compare(seed);
    stats.faults_fired = f.model.faults_fired;
    stats
}

impl Fixture {
    /// Mirrors `store_ref` with a `Ref` value: frozen check (not modelled —
    /// no shared heaps here), legality matrix, cross-edge creation, *then*
    /// payload-kind and bounds checks — the real barrier runs before the
    /// bounds check, and the model must reproduce that ordering.
    fn model_store_ref(
        &mut self,
        sh: usize,
        dh: usize,
        src: ObjRef,
        dst: ObjRef,
        index: usize,
        trusted: bool,
    ) -> Result<(), HeapError> {
        if sh != dh {
            let legal = match (sh == NPROCS, dh == NPROCS) {
                (false, true) => Ok(()),  // user -> kernel
                (true, false) => {
                    if trusted {
                        Ok(())
                    } else {
                        Err(SegViolationKind::UntrustedKernelWrite)
                    }
                }
                (false, false) => Err(SegViolationKind::UserToUser),
                (true, true) => unreachable!("same heap"),
            };
            if let Err(kind) = legal {
                return Err(HeapError::SegViolation(kind));
            }
            let src_ml = self.ml_id(sh);
            let dst_ml = self.ml_id(dh);
            self.model.cross_edge(sh, dh, dst, true, src_ml, dst_ml)?;
        }
        let obj = self.model.objects.get_mut(&src).expect("rooted object");
        let MPayload::Fields(fields) = &mut obj.payload else {
            return Err(HeapError::KindMismatch(src));
        };
        let len = fields.len();
        let slot = fields
            .get_mut(index)
            .ok_or(HeapError::IndexOutOfBounds { obj: src, index, len })?;
        *slot = MVal::Ref(dst);
        Ok(())
    }

    fn model_store_null(&mut self, src: ObjRef, index: usize) -> Result<(), HeapError> {
        let obj = self.model.objects.get_mut(&src).expect("rooted object");
        let MPayload::Fields(fields) = &mut obj.payload else {
            return Err(HeapError::KindMismatch(src));
        };
        let len = fields.len();
        let slot = fields
            .get_mut(index)
            .ok_or(HeapError::IndexOutOfBounds { obj: src, index, len })?;
        *slot = MVal::Null;
        Ok(())
    }

    /// Mirrors `store_prim`: a string is a kind mismatch, then bounds, then
    /// (for a primitive array) the value's kind.
    fn model_store_prim(&mut self, src: ObjRef, index: usize, v: MVal) -> Result<(), HeapError> {
        let obj = self.model.objects.get_mut(&src).expect("rooted object");
        let (values, prims) = match &mut obj.payload {
            MPayload::Str => return Err(HeapError::KindMismatch(src)),
            MPayload::Fields(values) => (values, None),
            MPayload::Prims {
                float,
                values,
                written,
            } => (values, Some((*float, written))),
        };
        let len = values.len();
        if index >= len {
            return Err(HeapError::IndexOutOfBounds { obj: src, index, len });
        }
        if let Some((float, written)) = prims {
            if !matches!((float, &v), (false, MVal::Int(_)) | (true, MVal::Float(_))) {
                return Err(HeapError::KindMismatch(src));
            }
            *written |= !v.is_zero_of(float);
        }
        values[index] = v;
        Ok(())
    }
}

#[test]
fn differential_oracle_clean_seeds() {
    let mut total = CaseStats::default();
    for case in 0..seed_count() {
        total.add(&run_case(0xD1FF_0000 ^ case, false));
    }
    total.assert_arms_fired(&["arm_fault"]);
}

#[test]
fn differential_oracle_fault_seeds() {
    let mut total = CaseStats::default();
    for case in 0..seed_count() {
        total.add(&run_case(0xFA17_0000 ^ case, true));
    }
    total.assert_arms_fired(&[]);
    assert!(
        total.faults_fired > 0,
        "fault seeds never fired an injected allocation fault"
    );
}
