use std::collections::BTreeMap;

use kaffeos_memlimit::{MemLimitId, MemLimitTree};

use crate::barrier::{check_edge, BarrierKind, BarrierStats, SegViolationKind};
use crate::error::HeapError;
use crate::heap::{EntryItem, ExitItem, HeapCore, HeapKind, HeapSnapshot};
use crate::layout::SizeModel;
use crate::object::{ObjData, Object};
use crate::refs::{ClassId, HeapId, ObjRef, ProcTag};
use crate::value::Value;

/// Object slots per page. The *No Heap Pointer* barrier recovers an
/// object's heap by indexing the page table with `slot >> PAGE_SHIFT`,
/// mirroring the paper's page-based heap lookup.
pub(crate) const PAGE_SHIFT: u32 = 8;
pub(crate) const PAGE_SLOTS: u32 = 1 << PAGE_SHIFT;

#[derive(Debug, Default)]
pub(crate) struct Slot {
    pub generation: u32,
    pub obj: Option<Object>,
}

/// Per-page bookkeeping in the space-wide page table.
///
/// Ownership transitions are explicit and audited: a page is **unowned**
/// (`owner == None`) only while it sits in the space's free-page pool; it
/// is owned by exactly one heap otherwise. Pages change owner in exactly
/// three places — fresh/pooled page claim in `open_page`, wholesale retag
/// to the kernel in `merge_into_kernel`, and explicit release via
/// [`HeapSpace::release_empty_pages`] — and the audit's page-ownership
/// recount checks both directions (owned pages are listed by their owner
/// exactly once, unowned pages by nobody and pooled exactly once).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageMeta {
    /// Owning heap, or `None` for a page in the free-page pool.
    pub owner: Option<HeapId>,
    /// Occupied slots on this page. Maintained at allocation and sweep so
    /// collectors and `freeze_shared` can skip wholly-empty pages on the
    /// host while charging the unchanged per-slot cycle model arithmetically.
    pub live: u32,
}

/// Size-class free lists for the boxed payload buffers of instances and
/// reference arrays (the MallocKit/ExVM shape, host-only). Sweeping such an
/// object returns its `Box<[Value]>` to the exact-length class; the next
/// allocation of that shape pops the buffer and refills it instead of going
/// to the host allocator. Unboxed `int[]`/`float[]` buffers are not pooled:
/// a zero-filled one starts with no buffer at all ([`ObjData::Zeros`]), and
/// a written one's buffer goes back to the allocator. Purely a host
/// optimisation: accounted bytes are computed before the payload is built,
/// and are identical either way.
#[derive(Debug, Default)]
pub(crate) struct PayloadPool {
    /// `classes[len]` holds recycled buffers of exactly `len` slots.
    classes: Vec<Vec<Box<[Value]>>>,
    /// Bytes currently parked in the pool (host bound, not accounted bytes).
    held: usize,
}

/// Payload lengths above this are never pooled (rare, large, not worth it).
const POOL_MAX_LEN: usize = 256;
/// Host bytes the pool may park before it starts dropping buffers.
const POOL_BUDGET: usize = 32 << 20;

impl PayloadPool {
    /// Pops a recycled buffer of exactly `len` slots filled with `fill`, or
    /// allocates a fresh one.
    fn take(&mut self, len: usize, fill: Value) -> Box<[Value]> {
        if let Some(buf) = self.classes.get_mut(len).and_then(|c| c.pop()) {
            self.held -= len * core::mem::size_of::<Value>();
            let mut buf = buf;
            buf.fill(fill);
            return buf;
        }
        vec![fill; len].into_boxed_slice()
    }

    /// Pops a recycled buffer of exactly `init.len()` slots and copies
    /// `init` into it, or allocates a fresh copy of `init`.
    fn take_copy(&mut self, init: &[Value]) -> Box<[Value]> {
        if let Some(mut buf) = self.classes.get_mut(init.len()).and_then(|c| c.pop()) {
            self.held -= core::mem::size_of_val(init);
            buf.copy_from_slice(init);
            return buf;
        }
        Box::from(init)
    }

    /// Parks a dead object's buffer for reuse, unless over budget.
    fn put(&mut self, buf: Box<[Value]>) {
        let len = buf.len();
        let bytes = len * core::mem::size_of::<Value>();
        if len == 0 || len > POOL_MAX_LEN || self.held + bytes > POOL_BUDGET {
            return;
        }
        if self.classes.len() <= len {
            self.classes.resize_with(len + 1, Vec::new);
        }
        self.held += bytes;
        self.classes[len].push(buf);
    }

    /// Recycles the payload of a swept object.
    pub(crate) fn recycle(&mut self, data: ObjData) {
        match data {
            ObjData::Fields(f) | ObjData::Refs { values: f, .. } => self.put(f),
            ObjData::Ints { .. }
            | ObjData::Floats { .. }
            | ObjData::Zeros { .. }
            | ObjData::Str { .. } => {}
        }
    }

    /// Buffers of exactly `len` slots parked in the pool.
    #[cfg(test)]
    pub(crate) fn parked(&self, len: usize) -> usize {
        self.classes.get(len).map_or(0, Vec::len)
    }
}

/// Configuration for a [`HeapSpace`].
#[derive(Debug, Clone, Copy)]
pub struct SpaceConfig {
    /// Write-barrier implementation (§4.1). Selects both the enforcement
    /// path and the byte/cycle cost model.
    pub barrier: BarrierKind,
    /// Root memlimit for user processes, in bytes. The kernel heap itself is
    /// not memlimit-governed: kernel allocations are charged to "the system
    /// as a whole" unless the kernel debits a process explicitly.
    pub user_budget: u64,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            barrier: BarrierKind::NoHeapPointer,
            user_budget: 256 * 1024 * 1024, // the paper machine's 256 MB
        }
    }
}

/// The single address space holding every heap (Figure 2).
///
/// All object slots live in one global table, handed out to heaps in pages.
/// Reference stores go through [`HeapSpace::store_ref`], which runs the
/// write barrier: it enforces the cross-heap legality matrix and maintains
/// entry/exit items for legal cross-heap references.
#[derive(Debug)]
pub struct HeapSpace {
    pub(crate) slots: Vec<Slot>,
    /// Page index → ownership and occupancy. A page's owner is `None`
    /// while it sits in `free_pages`, where [`HeapSpace::release_empty_pages`]
    /// puts it until `open_page` hands it to another heap (see [`PageMeta`]
    /// for the audited transition set).
    pub(crate) page_table: Vec<PageMeta>,
    /// Unowned pages available for reuse by any heap (LIFO).
    pub(crate) free_pages: Vec<u32>,
    /// Size-class free lists recycling dead objects' payload buffers.
    pub(crate) payload_pool: PayloadPool,
    pub(crate) heaps: Vec<HeapCore>,
    kernel: HeapId,
    barrier: BarrierKind,
    size_model: SizeModel,
    pub(crate) limits: MemLimitTree,
    root_limit: MemLimitId,
    pub(crate) stats: BarrierStats,
    /// Allocation attempts seen so far (successful or not); the index space
    /// the fault injector addresses.
    alloc_counter: u64,
    /// Armed allocation fault, if any.
    alloc_fault: Option<AllocFault>,
    /// Injected allocation failures fired so far.
    alloc_faults_fired: u64,
    /// Observability planes, all off by default: trace events (barrier,
    /// entry/exit, fault, GC), GC pause histograms (profile), and the heap
    /// plane's allocation sites, survival, timeline and edge census. Held
    /// by value so each recording point's off check is one field test.
    pub(crate) obs: kaffeos_trace::Obs,
    /// Persistent GC working buffers, reused across collections so a
    /// steady-state `gc()` allocates nothing on the host.
    pub(crate) gc_scratch: crate::gc::GcScratch,
}

/// An armed allocation fault: fail the allocation whose zero-based attempt
/// index reaches `at` — once, or persistently for every attempt from `at`
/// onward. Deterministic: driven purely by the attempt counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocFault {
    /// Zero-based allocation-attempt index at which to fail.
    pub at: u64,
    /// Keep failing every allocation from `at` onward instead of one-shot.
    pub persistent: bool,
}

impl HeapSpace {
    /// Creates a space with a kernel heap and a user-budget memlimit root.
    pub fn new(config: SpaceConfig) -> Self {
        let mut limits = MemLimitTree::new();
        let root_limit = limits.create_root(config.user_budget, "machine");
        let kernel_core = HeapCore {
            generation: 0,
            alive: true,
            kind: HeapKind::Kernel,
            owner: ProcTag::KERNEL,
            label: "kernel".to_string(),
            memlimit: None,
            pages: Vec::new(),
            retired_pages: 0,
            free_slots: Vec::new(),
            bump: 0,
            bump_end: 0,
            bytes_used: 0,
            objects: 0,
            entries: BTreeMap::new(),
            exits: BTreeMap::new(),
            frozen: false,
            gc_count: 0,
        };
        HeapSpace {
            slots: Vec::new(),
            page_table: Vec::new(),
            free_pages: Vec::new(),
            payload_pool: PayloadPool::default(),
            heaps: vec![kernel_core],
            kernel: HeapId {
                index: 0,
                generation: 0,
            },
            barrier: config.barrier,
            size_model: SizeModel::for_barrier(config.barrier),
            limits,
            root_limit,
            stats: BarrierStats::default(),
            alloc_counter: 0,
            alloc_fault: None,
            alloc_faults_fired: 0,
            obs: kaffeos_trace::Obs::default(),
            gc_scratch: crate::gc::GcScratch::default(),
        }
    }

    /// Installs the observability handle used by the space, and its trace
    /// plane in the memlimit tree. The default handle has every plane off.
    pub fn set_obs(&mut self, obs: kaffeos_trace::Obs) {
        self.limits.set_trace(obs.trace.clone());
        self.obs = obs;
    }

    /// The space's observability handle (every plane off unless installed).
    #[inline]
    pub fn obs(&self) -> &kaffeos_trace::Obs {
        &self.obs
    }

    // ----- fault injection --------------------------------------------------

    /// Arms an allocation fault (see [`AllocFault`]). Replaces any armed
    /// fault; the attempt counter is not reset.
    pub fn set_alloc_fault(&mut self, fault: AllocFault) {
        self.alloc_fault = Some(fault);
    }

    /// Disarms any armed allocation fault.
    pub fn clear_alloc_fault(&mut self) {
        self.alloc_fault = None;
    }

    /// Allocation attempts seen so far (the fault index space).
    pub fn alloc_count(&self) -> u64 {
        self.alloc_counter
    }

    /// Injected allocation failures that have fired.
    pub fn alloc_faults_fired(&self) -> u64 {
        self.alloc_faults_fired
    }

    /// The kernel heap.
    pub fn kernel_heap(&self) -> HeapId {
        self.kernel
    }

    /// The active barrier implementation.
    pub fn barrier_kind(&self) -> BarrierKind {
        self.barrier
    }

    /// The byte-size model in force (depends on the barrier variant).
    pub fn size_model(&self) -> SizeModel {
        self.size_model
    }

    /// Root memlimit under which process limits are created.
    pub fn root_memlimit(&self) -> MemLimitId {
        self.root_limit
    }

    /// The memlimit hierarchy (the kernel creates/removes process nodes).
    pub fn limits(&self) -> &MemLimitTree {
        &self.limits
    }

    /// Mutable access to the memlimit hierarchy.
    pub fn limits_mut(&mut self) -> &mut MemLimitTree {
        &mut self.limits
    }

    /// Write-barrier counters (Table 1).
    pub fn barrier_stats(&self) -> BarrierStats {
        self.stats
    }

    /// Resets barrier counters between benchmark runs.
    pub fn reset_barrier_stats(&mut self) {
        self.stats.reset();
    }

    // ----- heap lifecycle -------------------------------------------------

    /// Creates a user (process) heap charged against `memlimit`.
    pub fn create_user_heap(
        &mut self,
        owner: ProcTag,
        memlimit: MemLimitId,
        label: impl Into<String>,
    ) -> HeapId {
        self.create_heap(HeapKind::User, owner, Some(memlimit), label.into())
    }

    /// Creates a shared heap, initially charged against `memlimit` (a soft
    /// child of the creator's memlimit, per §2) until it is frozen.
    pub fn create_shared_heap(
        &mut self,
        owner: ProcTag,
        memlimit: MemLimitId,
        label: impl Into<String>,
    ) -> HeapId {
        self.create_heap(HeapKind::Shared, owner, Some(memlimit), label.into())
    }

    fn create_heap(
        &mut self,
        kind: HeapKind,
        owner: ProcTag,
        memlimit: Option<MemLimitId>,
        label: String,
    ) -> HeapId {
        let core = HeapCore {
            generation: 0,
            alive: true,
            kind,
            owner,
            label,
            memlimit,
            pages: Vec::new(),
            retired_pages: 0,
            free_slots: Vec::new(),
            bump: 0,
            bump_end: 0,
            bytes_used: 0,
            objects: 0,
            entries: BTreeMap::new(),
            exits: BTreeMap::new(),
            frozen: false,
            gc_count: 0,
        };
        // Reuse a dead heap slot if any (generation already bumped at death).
        if let Some(index) = self.heaps.iter().position(|h| !h.alive) {
            let generation = self.heaps[index].generation;
            let mut core = core;
            core.generation = generation;
            self.heaps[index] = core;
            HeapId {
                index: index as u32,
                generation,
            }
        } else {
            let index = self.heaps.len() as u32;
            self.heaps.push(core);
            HeapId {
                index,
                generation: 0,
            }
        }
    }

    /// Freezes a shared heap: its size becomes fixed and reference fields of
    /// its objects become immutable. Detaches the population-time memlimit
    /// and returns the heap's fixed size, which the kernel then charges in
    /// full to every sharer.
    pub fn freeze_shared(&mut self, heap: HeapId) -> Result<u64, HeapError> {
        self.check_heap(heap)?;
        let core = self.heap_core(heap);
        if core.kind != HeapKind::Shared || core.frozen {
            return Err(HeapError::BadHeapState(heap));
        }
        let bytes = core.bytes_used;
        let ml = core.memlimit;
        // Mark every object frozen so even same-heap reference stores fail.
        // Wholly-empty pages hold nothing to freeze and are skipped.
        let pages = core.pages.clone();
        for page in pages {
            if self.page_table[page as usize].live == 0 {
                continue;
            }
            let start = (page * PAGE_SLOTS) as usize;
            for slot in &mut self.slots[start..start + PAGE_SLOTS as usize] {
                if let Some(obj) = slot.obj.as_mut() {
                    obj.frozen = true;
                }
            }
        }
        if let Some(ml) = ml {
            // Return the population charge; the kernel re-charges sharers
            // (including the creator) the fixed size directly.
            self.limits.credit(ml, bytes).map_err(|_| {
                HeapError::Internal("population bytes were not debited from this memlimit")
            })?;
        }
        let core = self.heap_core_mut(heap);
        core.frozen = true;
        core.memlimit = None;
        Ok(bytes)
    }

    /// True if `heap` names a live heap.
    pub fn heap_alive(&self, heap: HeapId) -> bool {
        self.heaps
            .get(heap.index as usize)
            .map(|h| h.alive && h.generation == heap.generation)
            .unwrap_or(false)
    }

    /// Heap metadata for reporting.
    pub fn snapshot(&self, heap: HeapId) -> Result<HeapSnapshot, HeapError> {
        self.check_heap(heap)?;
        let core = self.heap_core(heap);
        Ok(HeapSnapshot {
            id: heap,
            kind: core.kind,
            owner: core.owner,
            label: core.label.clone(),
            bytes_used: core.bytes_used,
            objects: core.objects,
            pages: core.pages.len(),
            entry_items: core.entries.len(),
            exit_items: core.exits.len(),
            frozen: core.frozen,
            gc_count: core.gc_count,
        })
    }

    /// Snapshots of all live heaps.
    pub fn snapshot_all(&self) -> Vec<HeapSnapshot> {
        (0..self.heaps.len())
            .filter_map(|i| {
                let h = &self.heaps[i];
                h.alive
                    .then(|| self.snapshot(h.id(i as u32)))
                    .and_then(|s| s.ok())
            })
            .collect()
    }

    /// Owner tag of a heap.
    pub fn heap_owner(&self, heap: HeapId) -> Result<ProcTag, HeapError> {
        self.check_heap(heap)?;
        Ok(self.heap_core(heap).owner)
    }

    /// Kind of a heap.
    pub fn heap_kind(&self, heap: HeapId) -> Result<HeapKind, HeapError> {
        self.check_heap(heap)?;
        Ok(self.heap_core(heap).kind)
    }

    /// Bytes currently allocated on a heap.
    pub fn heap_bytes(&self, heap: HeapId) -> Result<u64, HeapError> {
        self.check_heap(heap)?;
        Ok(self.heap_core(heap).bytes_used)
    }

    /// The memlimit a heap debits, if it has one.
    pub fn heap_memlimit(&self, heap: HeapId) -> Result<Option<MemLimitId>, HeapError> {
        self.check_heap(heap)?;
        Ok(self.heap_core(heap).memlimit)
    }

    // ----- allocation -----------------------------------------------------

    /// Allocates an instance with `nfields` fields, all null/zero. The
    /// payload is built only once the allocation is admitted, so a refused
    /// one leaves the pool as it was.
    pub fn alloc_fields(
        &mut self,
        heap: HeapId,
        class: ClassId,
        nfields: usize,
    ) -> Result<ObjRef, HeapError> {
        let bytes = saturate(self.size_model.fields_bytes(nfields));
        self.admit(heap, bytes)?;
        let data = ObjData::Fields(self.payload_pool.take(nfields, Value::Null));
        Ok(self.place(heap, class, bytes, data))
    }

    /// Allocates an instance with one field per value of `init`, holding
    /// a copy of it: a class's typed-zero template, so `int` and `float`
    /// fields start as `Int(0)` and `Float(0.0)` and reference fields as
    /// null. Accounted like [`HeapSpace::alloc_fields`] of `init.len()`
    /// fields, and the payload is built only once the allocation is
    /// admitted.
    pub fn alloc_fields_from(
        &mut self,
        heap: HeapId,
        class: ClassId,
        init: &[Value],
    ) -> Result<ObjRef, HeapError> {
        let bytes = saturate(self.size_model.fields_bytes(init.len()));
        self.admit(heap, bytes)?;
        let data = ObjData::Fields(self.payload_pool.take_copy(init));
        Ok(self.place(heap, class, bytes, data))
    }

    /// Allocates an array of `len` elements of accounted size `elem_bytes`,
    /// filled with `fill`, whose kind picks the payload shape: an `Int(0)`
    /// or `+0.0` fill makes a bufferless [`ObjData::Zeros`], any other
    /// `Int` fill an unboxed [`ObjData::Ints`], any other `Float` fill an
    /// unboxed [`ObjData::Floats`], and a reference fill an
    /// [`ObjData::Refs`]. A `len` past `u32::MAX` is refused with
    /// `ArrayTooLong` before admission. As in [`HeapSpace::alloc_fields`],
    /// the payload is built after admission.
    pub fn alloc_array(
        &mut self,
        heap: HeapId,
        class: ClassId,
        elem_bytes: u8,
        len: usize,
        fill: Value,
    ) -> Result<ObjRef, HeapError> {
        let count = u32::try_from(len).map_err(|_| HeapError::ArrayTooLong { len })?;
        let bytes = saturate(self.size_model.array_bytes(elem_bytes, len));
        self.admit(heap, bytes)?;
        let data = match fill {
            Value::Int(0) => ObjData::Zeros {
                elem_bytes,
                float: false,
                len: count,
            },
            Value::Float(f) if f.to_bits() == 0 => ObjData::Zeros {
                elem_bytes,
                float: true,
                len: count,
            },
            Value::Int(i) => ObjData::Ints {
                elem_bytes,
                values: vec![i; len].into_boxed_slice(),
            },
            Value::Float(f) => ObjData::Floats {
                elem_bytes,
                values: vec![f; len].into_boxed_slice(),
            },
            Value::Null | Value::Ref(_) => ObjData::Refs {
                elem_bytes,
                values: self.payload_pool.take(len, fill),
            },
        };
        Ok(self.place(heap, class, bytes, data))
    }

    /// Allocates a string object.
    pub fn alloc_str(
        &mut self,
        heap: HeapId,
        class: ClassId,
        s: impl Into<Box<str>>,
    ) -> Result<ObjRef, HeapError> {
        self.alloc_string(heap, class, &mut String::from(s.into()))
    }

    /// Allocates a string object whose payload is `text`'s own buffer,
    /// counting its chars once. The buffer moves only on success: after an
    /// `OutOfMemory`, `text` is intact, so a caller can retry with it once a
    /// collection has run.
    pub fn alloc_string(
        &mut self,
        heap: HeapId,
        class: ClassId,
        text: &mut String,
    ) -> Result<ObjRef, HeapError> {
        let chars = u32::try_from(text.chars().count()).unwrap_or(u32::MAX);
        let bytes = saturate(self.size_model.str_bytes(chars));
        self.admit(heap, bytes)?;
        let text = core::mem::take(text).into_boxed_str();
        Ok(self.place(heap, class, bytes, ObjData::Str { text, chars }))
    }

    /// Every failure point of an allocation of `bytes` on `heap`: a dead
    /// heap, a frozen shared heap (`BadHeapState`: its size is fixed), an
    /// injected fault, and last the memlimit debit (`OutOfMemory`). Every
    /// allocator calls it before it builds the payload.
    #[inline]
    fn admit(&mut self, heap: HeapId, bytes: u32) -> Result<(), HeapError> {
        self.check_heap(heap)?;
        if self.heap_core(heap).frozen {
            return Err(HeapError::BadHeapState(heap));
        }
        // Fault injection: every allocation attempt consumes one index, and
        // an armed fault fails the attempt *before* any state changes, so an
        // injected OOM is indistinguishable from a genuine limit miss.
        let attempt = self.alloc_counter;
        self.alloc_counter += 1;
        if let Some(fault) = self.alloc_fault {
            let fire = if fault.persistent {
                attempt >= fault.at
            } else {
                attempt == fault.at
            };
            if fire {
                if !fault.persistent {
                    self.alloc_fault = None;
                }
                self.alloc_faults_fired += 1;
                self.obs.trace.with(|t| {
                    t.record(kaffeos_trace::Payload::FaultInjected {
                        kind: kaffeos_trace::InjectionKind::AllocOom,
                    })
                });
                let node = self.heap_core(heap).memlimit.unwrap_or(self.root_limit);
                return Err(HeapError::OutOfMemory(kaffeos_memlimit::LimitExceeded {
                    node,
                    requested: bytes as u64,
                    available: 0,
                }));
            }
        }
        if let Some(ml) = self.heap_core(heap).memlimit {
            self.limits.debit(ml, bytes as u64)?;
        }
        Ok(())
    }

    /// Places an admitted object of accounted size `bytes` on `heap`.
    #[inline]
    fn place(&mut self, heap: HeapId, class: ClassId, bytes: u32, data: ObjData) -> ObjRef {
        // Slot acquisition is infallible (recycled slot, bump pointer, or a
        // fresh page), so every failure point — fault injection and the
        // memlimit debit — precedes any heap state change: a failed
        // allocation is a no-op by construction, with no rollback path for
        // an injected OOM to diverge on. The differential oracle asserts
        // this by comparing post-fault state against the reference model.
        let index = self.take_slot(heap);
        let slot = &mut self.slots[index as usize];
        debug_assert!(slot.obj.is_none(), "allocated into occupied slot");
        slot.obj = Some(Object {
            class,
            heap,
            marked: false,
            frozen: false,
            bytes,
            data,
        });
        let core = self.heap_core_mut(heap);
        core.bytes_used += bytes as u64;
        core.objects += 1;
        // Host plane: attributes the object to the armed allocation site
        // (no-op when the observability plane is disabled).
        self.obs
            .heap
            .with(|h| h.record_alloc(index, class.0, bytes));
        ObjRef {
            index,
            generation: self.slots[index as usize].generation,
        }
    }

    /// Hands out a slot for `heap`: recycled slot if one is free, else a
    /// bump-pointer increment into the heap's current page, else a new page
    /// (pooled or fresh). Infallible.
    ///
    /// Slot-index order is identical to the historical single-free-list
    /// allocator: that scheme prefilled each fresh page as a descending
    /// stack (so pops ascended through the page) and pushed swept slots on
    /// top (so recycled slots were preferred, most-recently-freed first).
    /// Popping the recycled-only list first and bumping through the current
    /// page otherwise reproduces exactly that sequence — which golden trace
    /// fixtures observe through object slot indices.
    #[inline]
    fn take_slot(&mut self, heap: HeapId) -> u32 {
        let core = self.heap_core_mut(heap);
        let index = if let Some(index) = core.free_slots.pop() {
            index
        } else if core.bump < core.bump_end {
            let index = core.bump;
            core.bump += 1;
            index
        } else {
            self.open_page(heap)
        };
        self.page_table[(index >> PAGE_SHIFT) as usize].live += 1;
        index
    }

    /// Opens a new bump page for `heap` — reusing an unowned page from the
    /// free-page pool if available, growing the global slot table otherwise
    /// — and hands out its first slot.
    fn open_page(&mut self, heap: HeapId) -> u32 {
        let page = if let Some(page) = self.free_pages.pop() {
            let meta = &mut self.page_table[page as usize];
            debug_assert!(meta.owner.is_none(), "pooled page still owned");
            debug_assert_eq!(meta.live, 0, "pooled page not empty");
            meta.owner = Some(heap);
            page
        } else {
            let page = self.page_table.len() as u32;
            debug_assert_eq!((page * PAGE_SLOTS) as usize, self.slots.len());
            self.slots.extend((0..PAGE_SLOTS).map(|_| Slot::default()));
            self.page_table.push(PageMeta {
                owner: Some(heap),
                live: 0,
            });
            page
        };
        self.obs
            .heap
            .with(|h| h.record_page_event(kaffeos_trace::PageEvent::Claim, page, heap.index));
        let start = page * PAGE_SLOTS;
        let core = self.heap_core_mut(heap);
        core.pages.push(page);
        core.bump = start + 1; // slot `start` is handed out right now
        core.bump_end = start + PAGE_SLOTS;
        start
    }

    /// Returns wholly-empty pages of `heap` to the space's free-page pool,
    /// where they sit **unowned** until `open_page` hands them to another
    /// heap. The heap's current bump page is kept even when empty (its
    /// never-used tail is still being handed out). Returns the number of
    /// pages released.
    ///
    /// The kernel calls it on the kernel heap after every kernel
    /// collection, so the pages a merged process leaves behind feed the
    /// next process instead of growing the slot table. It is invisible to
    /// the virtual plane: it charges no cycles and records no trace event,
    /// and the released pages are added to the heap's `retired_pages`,
    /// which the modelled sweep keeps charging. Recycled slot indices of
    /// a released page are purged from the heap's free list, so the
    /// released page must not be handed back out to this heap's old
    /// indices. Linear in the heap's pages plus its free slots.
    pub fn release_empty_pages(&mut self, heap: HeapId) -> Result<usize, HeapError> {
        self.check_heap(heap)?;
        let core = &mut self.heaps[heap.index as usize];
        let bump_page = core.bump_page();
        let (page_table, free_pages, obs) = (&mut self.page_table, &mut self.free_pages, &self.obs);
        let before = core.pages.len();
        core.pages.retain(|&page| {
            let meta = &mut page_table[page as usize];
            if meta.live != 0 || Some(page) == bump_page {
                return true;
            }
            meta.owner = None;
            free_pages.push(page);
            obs.heap
                .with(|h| h.record_page_event(kaffeos_trace::PageEvent::Release, page, heap.index));
            false
        });
        let released = before - core.pages.len();
        if released > 0 {
            // Drop recycled slots that lived on released pages: every free
            // slot is on a page the heap owned, so a now-unowned page is a
            // released one.
            core.free_slots
                .retain(|&s| page_table[(s >> PAGE_SHIFT) as usize].owner.is_some());
            core.retired_pages += released as u64;
        }
        Ok(released)
    }

    /// Pages in the space's page table, owned or pooled: the slot table
    /// holds `PAGE_SLOTS` slots for each.
    pub fn page_count(&self) -> usize {
        self.page_table.len()
    }

    // ----- object access --------------------------------------------------

    /// Immutable access to an object.
    #[inline]
    pub fn get(&self, obj: ObjRef) -> Result<&Object, HeapError> {
        let slot = self
            .slots
            .get(obj.index as usize)
            .ok_or(HeapError::StaleRef(obj))?;
        if slot.generation != obj.generation {
            return Err(HeapError::StaleRef(obj));
        }
        slot.obj.as_ref().ok_or(HeapError::StaleRef(obj))
    }

    #[inline]
    fn get_mut(&mut self, obj: ObjRef) -> Result<&mut Object, HeapError> {
        let slot = self
            .slots
            .get_mut(obj.index as usize)
            .ok_or(HeapError::StaleRef(obj))?;
        if slot.generation != obj.generation {
            return Err(HeapError::StaleRef(obj));
        }
        slot.obj.as_mut().ok_or(HeapError::StaleRef(obj))
    }

    /// The heap an object lives on, found the way the active barrier variant
    /// finds it: object header for *Heap Pointer*, page-table lookup for the
    /// page-based variants. Both paths always agree; the distinction matters
    /// for the modelled cycle costs, not the answer.
    #[inline]
    pub fn heap_of(&self, obj: ObjRef) -> Result<HeapId, HeapError> {
        let by_header = self.get(obj)?.heap;
        if self.barrier.uses_page_lookup() {
            let page = (obj.index >> PAGE_SHIFT) as usize;
            // A live object's page is always owned (pages are released to
            // the pool only when empty).
            let by_page = self.page_table[page]
                .owner
                .ok_or(HeapError::Internal("live object on unowned page"))?;
            debug_assert_eq!(by_page, by_header, "page table out of sync");
            Ok(by_page)
        } else {
            Ok(by_header)
        }
    }

    /// Loads a field or array element: one object lookup, one bounds
    /// check.
    #[inline]
    pub fn load(&self, obj: ObjRef, index: usize) -> Result<Value, HeapError> {
        let data = &self.get(obj)?.data;
        let v = match data {
            ObjData::Fields(slots) | ObjData::Refs { values: slots, .. } => {
                slots.get(index).copied()
            }
            ObjData::Ints { values, .. } => values.get(index).map(|&i| Value::Int(i)),
            ObjData::Floats { values, .. } => values.get(index).map(|&f| Value::Float(f)),
            &ObjData::Zeros { float, len, .. } => (index < len as usize).then_some(if float {
                Value::Float(0.0)
            } else {
                Value::Int(0)
            }),
            ObjData::Str { .. } => return Err(HeapError::KindMismatch(obj)),
        };
        v.ok_or_else(|| HeapError::IndexOutOfBounds {
            obj,
            index,
            len: data.len(),
        })
    }

    /// Stores a primitive into a field or element: one object lookup, the
    /// bounds check before the kind check. No barrier: primitive fields of
    /// shared objects stay mutable after freezing (§2), and primitive
    /// stores can never create cross-heap references. An `int[]` takes
    /// only `Int`s and a `float[]` only `Float`s; any other value is a
    /// `KindMismatch` that leaves the element as it was. A still-zero
    /// array is handled in the fallback arm, out of line
    /// ([`ObjData::store_into_zeros`]): a zero store leaves it without a
    /// buffer, a non-zero one builds the buffer first. Always inlined: it
    /// sits on the executor's field and array store paths, and its checks
    /// of the payload shapes otherwise keep it out of the dispatch loop.
    #[inline(always)]
    pub fn store_prim(&mut self, obj: ObjRef, index: usize, val: Value) -> Result<(), HeapError> {
        debug_assert!(
            !matches!(val, Value::Ref(_)),
            "reference store through store_prim"
        );
        let data = &mut self.get_mut(obj)?.data;
        if let ObjData::Str { .. } = data {
            return Err(HeapError::KindMismatch(obj));
        }
        let len = data.len();
        if index >= len {
            return Err(HeapError::IndexOutOfBounds { obj, index, len });
        }
        match (data, val) {
            (ObjData::Fields(slots) | ObjData::Refs { values: slots, .. }, _) => slots[index] = val,
            (ObjData::Ints { values, .. }, Value::Int(i)) => values[index] = i,
            (ObjData::Floats { values, .. }, Value::Float(f)) => values[index] = f,
            (data, val) => {
                return data
                    .store_into_zeros(index, val)
                    .ok_or(HeapError::KindMismatch(obj))
            }
        }
        Ok(())
    }

    /// Stores a reference (or null) into a reference-typed field or element,
    /// running the **write barrier**: every call counts as one executed
    /// barrier, the Figure-2 legality matrix is enforced, and a legal
    /// cross-heap store creates/retains the entry/exit item pair. A string
    /// or primitive array is a `KindMismatch`, after the barrier ran.
    ///
    /// Returns the modelled cycle cost of the barrier so the caller can
    /// charge it to the running process.
    pub fn store_ref(
        &mut self,
        obj: ObjRef,
        index: usize,
        val: Value,
        trusted: bool,
    ) -> Result<u64, HeapError> {
        debug_assert!(val.is_reference(), "primitive store through store_ref");
        let cycles = self.barrier.cycles();
        self.stats.executed += 1;
        self.stats.cycles += cycles;

        if self.barrier.enforces() {
            let src_heap = self.heap_of(obj)?;
            // Frozen shared objects: reference fields are immutable, even
            // for same-heap or null stores — reassignment itself is illegal.
            if self.get(obj)?.frozen {
                self.stats.violations += 1;
                self.obs.trace.with(|t| {
                    t.record(kaffeos_trace::Payload::BarrierViolation {
                        kind: SegViolationKind::FrozenSharedField.label(),
                    })
                });
                return Err(HeapError::SegViolation(SegViolationKind::FrozenSharedField));
            }
            if let Value::Ref(target) = val {
                let dst_heap = self.heap_of(target)?;
                let src_kind = self.heap_core(src_heap).kind;
                let dst_kind = self.heap_core(dst_heap).kind;
                if let Err(kind) = check_edge(src_kind, dst_kind, src_heap == dst_heap, trusted) {
                    self.stats.violations += 1;
                    self.obs.trace.with(|t| {
                        t.record(kaffeos_trace::Payload::BarrierViolation { kind: kind.label() })
                    });
                    return Err(HeapError::SegViolation(kind));
                }
                if src_heap != dst_heap {
                    self.ensure_cross_edge(src_heap, dst_heap, target, true)?;
                }
            }
        }
        // The census consumed the armed store site if a cross-heap edge was
        // created above; disarm it here so a later unattributed (kernel)
        // store cannot inherit a stale guest site. Host plane.
        self.obs.heap.with(|h| h.clear_store());

        let o = self.get_mut(obj)?;
        let slots: &mut [Value] = match &mut o.data {
            ObjData::Fields(f) | ObjData::Refs { values: f, .. } => f,
            ObjData::Ints { .. }
            | ObjData::Floats { .. }
            | ObjData::Zeros { .. }
            | ObjData::Str { .. } => return Err(HeapError::KindMismatch(obj)),
        };
        let len = slots.len();
        *slots
            .get_mut(index)
            .ok_or(HeapError::IndexOutOfBounds { obj, index, len })? = val;
        Ok(cycles)
    }

    /// Ensures `src` holds an exit item for `target` (which lives on `dst`),
    /// creating the exit item and bumping the remote entry item if absent.
    /// Exit items are charged to the source heap, entry items to the heap
    /// they point into (§2, "Precise memory and CPU accounting").
    ///
    /// With `account == false` (GC-materialised items for stack-held
    /// cross-heap references) no memlimit is debited and the operation
    /// cannot fail; the items remember they were unaccounted so their later
    /// destruction credits nothing.
    pub(crate) fn ensure_cross_edge(
        &mut self,
        src: HeapId,
        dst: HeapId,
        target: ObjRef,
        account: bool,
    ) -> Result<bool, HeapError> {
        debug_assert_ne!(src, dst);
        if self.heap_core(src).exits.contains_key(&target) {
            return Ok(false);
        }
        let exit_bytes = self.size_model.exit_item as u64;
        let src_ml = self.heap_core(src).memlimit;
        let exit_accounted = account && src_ml.is_some();
        if let (true, Some(ml)) = (account, src_ml) {
            self.limits.debit(ml, exit_bytes)?;
        }
        self.heap_core_mut(src).exits.insert(
            target,
            ExitItem {
                marked: false,
                accounted: exit_accounted,
            },
        );
        self.stats.cross_heap_created += 1;
        self.obs.trace.with(|t| {
            t.record(kaffeos_trace::Payload::ExitItemCreated {
                heap: src.index,
                target: target.index,
            })
        });

        let entry_bytes = self.size_model.entry_item as u64;
        let dst_ml = self.heap_core(dst).memlimit;
        if let Some(entry) = self.heap_core_mut(dst).entries.get_mut(&target.index) {
            entry.refs += 1;
            if account {
                self.note_census_edge(dst);
            }
            return Ok(true);
        }
        let entry_accounted = account && dst_ml.is_some();
        if let (true, Some(ml)) = (account, dst_ml) {
            // Entry items live in the destination heap; charging can in
            // principle fail, in which case the store fails cleanly after
            // rolling back the exit item.
            if let Err(e) = self.limits.debit(ml, entry_bytes) {
                self.heap_core_mut(src).exits.remove(&target);
                if let (true, Some(src_ml)) = (exit_accounted, src_ml) {
                    self.limits
                        .credit(src_ml, exit_bytes)
                        .map_err(|_| HeapError::Internal("exit-item rollback credit failed"))?;
                }
                return Err(HeapError::OutOfMemory(e));
            }
        }
        self.heap_core_mut(dst).entries.insert(
            target.index,
            EntryItem {
                refs: 1,
                accounted: entry_accounted,
            },
        );
        self.obs.trace.with(|t| {
            t.record(kaffeos_trace::Payload::EntryItemCreated {
                heap: dst.index,
                slot: target.index,
            })
        });
        if account {
            self.note_census_edge(dst);
        }
        Ok(true)
    }

    /// Charges a freshly created, *accounted* cross-heap edge to the armed
    /// store site in the census (GC-materialised edges pass
    /// `account == false` and are skipped — they re-shadow references the
    /// barrier already counted). Host plane; no-op when disabled.
    fn note_census_edge(&self, dst: HeapId) {
        self.obs.heap.with(|h| {
            let core = self.heap_core(dst);
            h.record_cross_edge(core.kind == HeapKind::Shared && core.frozen);
        });
    }

    /// Array length / field count of an object.
    #[inline]
    pub fn slot_count(&self, obj: ObjRef) -> Result<usize, HeapError> {
        Ok(self.get(obj)?.data.len())
    }

    /// String payload of a string object.
    pub fn str_value(&self, obj: ObjRef) -> Result<&str, HeapError> {
        match &self.get(obj)?.data {
            ObjData::Str { text, .. } => Ok(text),
            _ => Err(HeapError::KindMismatch(obj)),
        }
    }

    /// Char count of a string object, stored at allocation.
    #[inline]
    pub fn str_len(&self, obj: ObjRef) -> Result<usize, HeapError> {
        match &self.get(obj)?.data {
            ObjData::Str { chars, .. } => Ok(*chars as usize),
            _ => Err(HeapError::KindMismatch(obj)),
        }
    }

    /// Char `index` of a string object, or `None` past its end. O(1) for
    /// ASCII strings; O(index) otherwise.
    #[inline]
    pub fn str_char_at(&self, obj: ObjRef, index: usize) -> Result<Option<char>, HeapError> {
        match &self.get(obj)?.data {
            ObjData::Str { text, chars } => Ok(crate::object::str_char_at(text, *chars, index)),
            _ => Err(HeapError::KindMismatch(obj)),
        }
    }

    /// Chars `[start, end)` of a string object, or `None` unless
    /// `start <= end <= len`. O(1) for ASCII strings; O(end) otherwise.
    pub fn str_slice(
        &self,
        obj: ObjRef,
        start: usize,
        end: usize,
    ) -> Result<Option<&str>, HeapError> {
        match &self.get(obj)?.data {
            ObjData::Str { text, chars } => Ok(crate::object::str_slice(text, *chars, start, end)),
            _ => Err(HeapError::KindMismatch(obj)),
        }
    }

    /// Class of an object.
    #[inline]
    pub fn class_of(&self, obj: ObjRef) -> Result<ClassId, HeapError> {
        Ok(self.get(obj)?.class)
    }

    /// Number of entry items currently pinning objects of `heap`.
    pub fn entry_item_count(&self, heap: HeapId) -> Result<usize, HeapError> {
        self.check_heap(heap)?;
        Ok(self.heap_core(heap).entries.len())
    }

    /// Number of recycled free slots `heap` holds (its bump page's
    /// never-used tail is not counted).
    pub fn free_slot_count(&self, heap: HeapId) -> Result<usize, HeapError> {
        self.check_heap(heap)?;
        Ok(self.heap_core(heap).free_slots.len())
    }

    /// Number of exit items held by `heap`.
    pub fn exit_item_count(&self, heap: HeapId) -> Result<usize, HeapError> {
        self.check_heap(heap)?;
        Ok(self.heap_core(heap).exits.len())
    }

    /// True if `from` holds at least one exit item whose target lives on
    /// `to` (used by the kernel to decide when a sharer has dropped its
    /// last reference to a shared heap).
    pub fn heap_exits_into(&self, from: HeapId, to: HeapId) -> bool {
        if !self.heap_alive(from) || !self.heap_alive(to) {
            return false;
        }
        self.heap_core(from)
            .exits
            .keys()
            .any(|t| self.heap_of(*t).map(|h| h == to).unwrap_or(false))
    }

    // ----- internals shared with gc.rs -------------------------------------

    /// Samples `heap`'s occupancy into the observability timeline (owned
    /// pages, free-pool depth, live bytes and objects). Host plane; no-op
    /// when the plane is disabled.
    pub(crate) fn record_heap_occupancy(&self, heap: HeapId) {
        self.obs.heap.with(|h| {
            let core = self.heap_core(heap);
            h.record_occupancy(
                heap.index,
                core.pages.len() as u32,
                self.free_pages.len() as u32,
                core.bytes_used,
                core.objects,
            );
        });
    }

    pub(crate) fn check_heap(&self, heap: HeapId) -> Result<(), HeapError> {
        if self.heap_alive(heap) {
            Ok(())
        } else {
            Err(HeapError::HeapDead(heap))
        }
    }

    pub(crate) fn heap_core(&self, heap: HeapId) -> &HeapCore {
        debug_assert!(self.heap_alive(heap), "access to dead heap {heap:?}");
        &self.heaps[heap.index as usize]
    }

    pub(crate) fn heap_core_mut(&mut self, heap: HeapId) -> &mut HeapCore {
        debug_assert!(self.heap_alive(heap), "access to dead heap {heap:?}");
        &mut self.heaps[heap.index as usize]
    }
}

/// An accounted size as the `u32` an object header holds, saturating so
/// that a size past 4 GiB is refused by any memlimit rather than wrapping
/// to a small one.
#[inline]
fn saturate(bytes: u64) -> u32 {
    u32::try_from(bytes).unwrap_or(u32::MAX)
}
