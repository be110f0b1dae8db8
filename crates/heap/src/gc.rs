//! Per-heap mark-and-sweep collection, heap merging, and orphan detection.
//!
//! Each heap is collected independently (§2, "Full reclamation of memory"):
//! the write barrier guarantees that every cross-heap reference is shadowed
//! by an exit item in the source heap and a reference-counted entry item in
//! the destination heap, so a heap's collector never needs to scan another
//! heap. Entry items with a non-zero count are roots; exit items are swept
//! like objects, and sweeping one decrements the remote entry item.
//!
//! Thread stacks still have to be scanned for inter-heap references (the
//! "GC crosstalk" the paper accepts as the price of direct sharing): the
//! caller passes stack-derived roots in, and a root that points at another
//! heap materialises an exit item so the referenced heap stays alive.

use crate::error::HeapError;
use crate::fxhash::FxHashSet;
use crate::heap::HeapKind;
use crate::layout::costs;
use crate::refs::{HeapId, ObjRef, ProcTag};
use crate::space::{
    HeapSpace, PageMeta, PageState, PAGE_SHIFT, PAGE_SLOTS, PROMOTE_AGE, PROMOTE_MIN_LIVE,
};

/// Result of one collection of one heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// The collected heap.
    pub heap: HeapId,
    /// Owner the collection's CPU cycles are charged to (§2: GC time is
    /// attributed to the process whose heap is collected).
    pub charged_to: ProcTag,
    /// Modelled CPU cycles spent marking, tracing, and sweeping.
    pub cycles: u64,
    /// Objects reclaimed.
    pub objects_freed: u64,
    /// Bytes reclaimed (credited back to the heap's memlimit).
    pub bytes_freed: u64,
    /// Objects that survived.
    pub objects_live: u64,
    /// Exit items destroyed (each decremented a remote entry item).
    pub exit_items_freed: u64,
    /// Roots examined.
    pub roots: u64,
}

/// Persistent GC working memory, owned by the [`HeapSpace`] and reused
/// across collections: once the buffers have grown to the workload's
/// high-water mark, a steady-state `gc()` performs **no host allocation**.
/// Purely host-side — buffer reuse can never change mark order, trace
/// events, or cycle accounting, all of which are functions of heap content
/// and (sorted) root order alone.
#[derive(Debug, Default)]
pub struct GcScratch {
    /// Depth-first mark stack (phases 1–2).
    mark_stack: Vec<ObjRef>,
    /// Per-object `references()` buffer (phase 2) — replaces the old
    /// per-object `collect()` that allocated inside the trace loop.
    refs: Vec<ObjRef>,
    /// Sorted copy of the caller's roots (phase 1).
    roots: Vec<ObjRef>,
    /// Entry-item root slots, then freed slots (phases 1 and 3, disjoint).
    slots: Vec<u32>,
    /// Dead exit items (phase 4).
    exits: Vec<ObjRef>,
    /// Nursery page worklist (minor collections).
    minor_pages: Vec<u32>,
    /// Sorted remembered-set sources (minor collections).
    remset_srcs: Vec<u32>,
    /// Rebuilt remembered set, swapped into the heap core at the end of a
    /// minor collection (the old set becomes next time's scratch).
    remset_next: FxHashSet<u32>,
}

/// Result of one **minor** (nursery-only) collection of one user heap.
///
/// Minor collections are host-plane: they charge no modelled cycles, bump no
/// `gc_count`, and emit no GC trace events — only the real memlimit credits
/// for reclaimed bytes, exactly as if the objects had died in a full
/// collection later. The modelled kernel never schedules one, so golden
/// fixtures cannot observe them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinorGcReport {
    /// The collected heap.
    pub heap: HeapId,
    /// Nursery pages scanned.
    pub nursery_pages: u64,
    /// Nursery pages promoted to mature (old, dense pages whose long-lived
    /// survivors are tenured in place).
    pub pages_promoted: u64,
    /// Drained nursery pages returned to the space's free-page pool, to
    /// reopen later as fresh nursery pages.
    pub pages_released: u64,
    /// Objects reclaimed.
    pub objects_freed: u64,
    /// Bytes reclaimed (credited back to the heap's memlimit).
    pub bytes_freed: u64,
    /// Nursery objects that survived. Survivors are tenured only when their
    /// page is promoted (old and dense); the rest stay in the nursery.
    pub objects_live: u64,
    /// Remembered-set sources scanned as roots.
    pub remset_roots: u64,
}

/// Result of merging a heap into the kernel heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeReport {
    /// Bytes moved onto the kernel heap (collectable by the next kernel GC).
    pub bytes_moved: u64,
    /// Objects moved.
    pub objects_moved: u64,
    /// Exit items of the merged heap destroyed or transferred.
    pub exit_items_resolved: u64,
    /// Kernel exit items into the merged heap destroyed (user–kernel cycles
    /// become ordinary intra-heap garbage).
    pub kernel_exits_collapsed: u64,
    /// Modelled cycles for the merge, charged to the kernel.
    pub cycles: u64,
}

impl HeapSpace {
    /// Collects `heap` with the given external roots (thread stacks, statics
    /// registers, kernel pins). Roots pointing into `heap` seed the mark;
    /// roots pointing at *other* heaps materialise exit items in `heap` so
    /// that stack-held cross-heap references keep their targets alive.
    pub fn gc(&mut self, heap: HeapId, roots: &[ObjRef]) -> Result<GcReport, HeapError> {
        // Detach the persistent scratch so the collector can borrow the
        // space mutably; reattach afterwards (error paths included) so the
        // grown buffers are kept for the next collection.
        let mut scratch = core::mem::take(&mut self.gc_scratch);
        let result = self.gc_with_scratch(heap, roots, &mut scratch);
        self.gc_scratch = scratch;
        result
    }

    fn gc_with_scratch(
        &mut self,
        heap: HeapId,
        roots: &[ObjRef],
        scratch: &mut GcScratch,
    ) -> Result<GcReport, HeapError> {
        self.check_heap(heap)?;
        self.obs
            .trace
            .with(|t| t.record(kaffeos_trace::Payload::GcBegin { heap: heap.index }));
        let mut cycles: u64 = 0;

        // Phase 0: clear exit-item marks.
        for exit in self.heap_core_mut(heap).exits.values_mut() {
            exit.marked = false;
        }

        // Canonicalise the visit order: callers gather roots from hash maps
        // (statics, intern tables) whose iteration order varies per instance.
        // The marked set is order-independent, but the *trace* (exit-item
        // materialisation events) is not — sorting makes runs byte-identical.
        scratch.roots.clear();
        scratch.roots.extend_from_slice(roots);
        scratch.roots.sort_unstable();

        // Phase 1: seed the mark stack.
        scratch.mark_stack.clear();
        for i in 0..scratch.roots.len() {
            let root = scratch.roots[i];
            cycles += costs::GC_PER_ROOT;
            // A stale root is a caller bug; skip defensively in release.
            let Ok(root_heap) = self.heap_of(root) else {
                debug_assert!(false, "stale GC root {root:?}");
                continue;
            };
            if root_heap == heap {
                self.mark_push(root, &mut scratch.mark_stack);
            } else {
                // Stack-held cross-heap reference: retain via an
                // (unaccounted) exit item so a collection can never fail.
                self.ensure_cross_edge(heap, root_heap, root, false)?;
                self.heap_core_mut(heap)
                    .exits
                    .get_mut(&root)
                    .ok_or(HeapError::Internal("exit item missing right after ensure"))?
                    .marked = true;
            }
        }
        // Entry items with live remote references are roots too.
        scratch.slots.clear();
        scratch.slots.extend(
            self.heap_core(heap)
                .entries
                .iter()
                .filter(|(_, e)| e.refs > 0)
                .map(|(&slot, _)| slot),
        );
        for i in 0..scratch.slots.len() {
            let slot_index = scratch.slots[i];
            cycles += costs::GC_PER_ROOT;
            let generation = self.slots[slot_index as usize].generation;
            self.mark_push(
                ObjRef {
                    index: slot_index,
                    generation,
                },
                &mut scratch.mark_stack,
            );
        }

        // Phase 2: trace within the heap; cross-heap references mark their
        // exit items instead of being traced into. `scratch.refs` replaces a
        // per-object `collect()` — same visit order, no allocation.
        while let Some(obj) = scratch.mark_stack.pop() {
            cycles += costs::GC_MARK_PER_OBJECT;
            scratch.refs.clear();
            scratch.refs.extend(self.get(obj)?.references());
            cycles += scratch.refs.len() as u64 * costs::GC_TRACE_PER_FIELD;
            for i in 0..scratch.refs.len() {
                let target = scratch.refs[i];
                let target_heap = self.heap_of(target)?;
                if target_heap == heap {
                    self.mark_push(target, &mut scratch.mark_stack);
                } else {
                    // The write barrier created this exit item when the
                    // reference was stored; `ensure` self-heals (unaccounted)
                    // for edges whose items were destroyed by a merge while
                    // the referencing object lingered as garbage.
                    self.ensure_cross_edge(heap, target_heap, target, false)?;
                    self.heap_core_mut(heap)
                        .exits
                        .get_mut(&target)
                        .ok_or(HeapError::Internal("exit item missing right after ensure"))?
                        .marked = true;
                }
            }
        }

        // Phase 3: sweep the heap's pages. The page list is detached rather
        // than cloned (the sweep only touches `self.slots`) and reattached
        // before anything else can observe the heap core.
        let mut objects_freed = 0u64;
        let mut bytes_freed = 0u64;
        let mut objects_live = 0u64;
        let pages = core::mem::take(&mut self.heap_core_mut(heap).pages);
        scratch.slots.clear();
        let freed_slots = &mut scratch.slots;
        for &page in &pages {
            // The *virtual* sweep walks every slot of every owned page;
            // charge that arithmetically so the host can skip wholly-empty
            // pages without moving a single modelled cycle.
            cycles += PAGE_SLOTS as u64 * costs::GC_SWEEP_PER_SLOT;
            if self.page_table[page as usize].live == 0 {
                continue;
            }
            let start = page * PAGE_SLOTS;
            let mut freed_on_page = 0u32;
            for index in start..start + PAGE_SLOTS {
                let slot = &mut self.slots[index as usize];
                let Some(obj) = slot.obj.as_mut() else { continue };
                if obj.marked {
                    obj.marked = false;
                    objects_live += 1;
                } else {
                    bytes_freed += obj.bytes as u64;
                    objects_freed += 1;
                    freed_on_page += 1;
                    slot.generation = slot.generation.wrapping_add(1);
                    let dead = slot.obj.take();
                    freed_slots.push(index);
                    if let Some(dead) = dead {
                        self.payload_pool.recycle(dead.data);
                    }
                    self.obs
                        .heap
                        .with(|h| h.record_free(index, kaffeos_trace::GcKind::Full));
                }
            }
            self.page_table[page as usize].live -= freed_on_page;
        }
        // Promotion: a full collection tenures the heap wholesale — every
        // nursery page (including the current bump page) becomes mature, so
        // the remembered set empties with nothing left to remember. Pure
        // host-plane bookkeeping: no cycles, no *trace* events (the
        // observability timeline, itself host-plane, does record the
        // promotions and the survivors' tenure).
        for &page in &pages {
            let meta = &mut self.page_table[page as usize];
            if meta.state != PageState::Nursery {
                continue;
            }
            meta.state = PageState::Mature;
            meta.age = 0;
            self.obs.heap.with(|h| {
                h.record_page_event(kaffeos_trace::PageEvent::Promote, page, heap.index);
                let start = page * PAGE_SLOTS;
                for index in start..start + PAGE_SLOTS {
                    if self.slots[index as usize].obj.is_some() {
                        h.record_tenure(index);
                    }
                }
            });
        }
        {
            let core = self.heap_core_mut(heap);
            core.pages = pages;
            core.bytes_used -= bytes_freed;
            core.objects -= objects_freed;
            core.free_slots.extend(freed_slots.iter());
            core.gc_count += 1;
            core.remset.clear();
        }
        if bytes_freed > 0 {
            if let Some(ml) = self.heap_core(heap).memlimit {
                self.limits.credit(ml, bytes_freed).map_err(|_| {
                    HeapError::Internal("swept bytes were not debited at allocation")
                })?;
            }
        }

        // Phase 4: sweep exit items; destroy entry items that drop to zero.
        scratch.exits.clear();
        scratch.exits.extend(
            self.heap_core(heap)
                .exits
                .iter()
                .filter(|(_, e)| !e.marked)
                .map(|(&target, _)| target),
        );
        let exit_items_freed = scratch.exits.len() as u64;
        for i in 0..scratch.exits.len() {
            let target = scratch.exits[i];
            self.drop_exit_item(heap, target)?;
        }

        let core = self.heap_core(heap);
        self.obs.trace.with(|t| {
            t.record(kaffeos_trace::Payload::GcEnd {
                heap: heap.index,
                bytes_freed,
                objects_freed,
                cycles,
            })
        });
        // Pause histogram: recorded here, at the single choke point every
        // collection passes through, so allocation-triggered GCs inside the
        // interpreter are covered as well as kernel-initiated ones.
        self.obs
            .profile
            .with(|p| p.record_gc_pause(heap.index, cycles));
        self.obs.heap.with(|h| {
            h.record_gc(
                heap.index,
                kaffeos_trace::GcKind::Full,
                bytes_freed,
                objects_freed,
                cycles,
            )
        });
        self.record_heap_occupancy(heap);
        Ok(GcReport {
            heap,
            charged_to: core.owner,
            cycles,
            objects_freed,
            bytes_freed,
            objects_live,
            exit_items_freed,
            roots: roots.len() as u64,
        })
    }

    fn mark_push(&mut self, obj: ObjRef, stack: &mut Vec<ObjRef>) {
        if let Ok(o) = self.get(obj) {
            if !o.marked {
                // Mark eagerly so each object is traced once.
                if let Ok(slot) = usize::try_from(obj.index) {
                    if let Some(o) = self.slots[slot].obj.as_mut() {
                        o.marked = true;
                    }
                }
                stack.push(obj);
            }
        } else {
            debug_assert!(false, "marking stale ref {obj:?}");
        }
    }

    /// **Minor** collection of a user heap: scans only the heap's nursery
    /// pages, seeded by caller roots, entry items, and the remembered set —
    /// mature pages are never walked. After the sweep, drained nursery
    /// pages are released to the free-page pool (to reopen as fresh nursery
    /// pages), old dense pages are promoted to mature in place (page retag
    /// — objects never move), and the rest stay nursery; the current bump
    /// page is exempt and keeps feeding young allocations.
    ///
    /// §4.1's observation that separate kernel/user collection
    /// "approximates a generational collector" is made literal here, one
    /// level down: within a user heap, nursery pages are the young
    /// generation and the remembered set plays the role entry items play
    /// between heaps.
    ///
    /// Host-plane only: charges **zero modelled cycles**, emits no GC trace
    /// events, records no pause, and bumps `minor_gc_count` rather than the
    /// fixture-visible `gc_count`. Reclaimed bytes are really credited to
    /// the memlimit — the objects are really dead, exactly as if they had
    /// died in a later full collection. The modelled kernel never schedules
    /// minor collections, so golden traces cannot observe one; every minor
    /// collection is a strict prefix of what the next full collection would
    /// have swept (the nursery-soundness tests assert minor+full ≡ full).
    ///
    /// Collecting the kernel or a shared heap is a no-op (they have no
    /// nursery pages).
    pub fn gc_minor(&mut self, heap: HeapId, roots: &[ObjRef]) -> Result<MinorGcReport, HeapError> {
        let mut scratch = core::mem::take(&mut self.gc_scratch);
        let result = self.gc_minor_with_scratch(heap, roots, &mut scratch);
        self.gc_scratch = scratch;
        result
    }

    fn gc_minor_with_scratch(
        &mut self,
        heap: HeapId,
        roots: &[ObjRef],
        scratch: &mut GcScratch,
    ) -> Result<MinorGcReport, HeapError> {
        self.check_heap(heap)?;

        // Nursery worklist. Empty (kernel/shared heaps, or a user heap right
        // after a full collection) means there is nothing to do.
        scratch.minor_pages.clear();
        {
            let core = self.heap_core(heap);
            scratch.minor_pages.extend(
                core.pages
                    .iter()
                    .copied()
                    .filter(|&p| self.page_table[p as usize].state == PageState::Nursery),
            );
        }
        let nursery_pages = scratch.minor_pages.len() as u64;
        if nursery_pages == 0 {
            return Ok(MinorGcReport {
                heap,
                nursery_pages: 0,
                pages_promoted: 0,
                pages_released: 0,
                objects_freed: 0,
                bytes_freed: 0,
                objects_live: 0,
                remset_roots: 0,
            });
        }

        // Seed 1: caller roots that land on a nursery page of this heap.
        // Sorted for determinism, like the full collector.
        scratch.roots.clear();
        scratch.roots.extend_from_slice(roots);
        scratch.roots.sort_unstable();
        scratch.mark_stack.clear();
        for i in 0..scratch.roots.len() {
            let root = scratch.roots[i];
            if self.get(root).is_err() {
                debug_assert!(false, "stale GC root {root:?}");
                continue;
            }
            if self.page_is_young(root.index, heap) {
                self.mark_push(root, &mut scratch.mark_stack);
            }
        }

        // Seed 2: entry items — cross-heap references into the nursery were
        // shadowed with an entry item by the write barrier, so they are
        // roots here just as in a full collection.
        scratch.slots.clear();
        scratch.slots.extend(
            self.heap_core(heap)
                .entries
                .iter()
                .filter(|(_, e)| e.refs > 0)
                .map(|(&slot, _)| slot),
        );
        for i in 0..scratch.slots.len() {
            let slot_index = scratch.slots[i];
            if !self.page_is_young(slot_index, heap) {
                continue;
            }
            let generation = self.slots[slot_index as usize].generation;
            self.mark_push(
                ObjRef {
                    index: slot_index,
                    generation,
                },
                &mut scratch.mark_stack,
            );
        }

        // Seed 3: remembered set — same-heap mature objects the barrier saw
        // store a reference to a nursery object. Their nursery referents are
        // roots; the mature sources themselves are not marked (mature pages
        // are not collected). Sorted for determinism.
        scratch.remset_srcs.clear();
        scratch
            .remset_srcs
            .extend(self.heap_core(heap).remset.iter().copied());
        scratch.remset_srcs.sort_unstable();
        let remset_roots = scratch.remset_srcs.len() as u64;
        for i in 0..scratch.remset_srcs.len() {
            let src = scratch.remset_srcs[i];
            let Some(obj) = self.slots[src as usize].obj.as_ref() else {
                debug_assert!(false, "remembered-set source {src} is not live");
                continue;
            };
            debug_assert_eq!(obj.heap, heap, "remembered-set source on wrong heap");
            scratch.refs.clear();
            scratch.refs.extend(obj.references());
            for j in 0..scratch.refs.len() {
                let target = scratch.refs[j];
                if self.page_is_young(target.index, heap) {
                    self.mark_push(target, &mut scratch.mark_stack);
                }
            }
        }

        // Trace within the nursery. References out of it — to mature pages,
        // other heaps, anywhere — are not followed: those targets are not
        // being collected.
        while let Some(obj) = scratch.mark_stack.pop() {
            scratch.refs.clear();
            scratch.refs.extend(self.get(obj)?.references());
            for i in 0..scratch.refs.len() {
                let target = scratch.refs[i];
                if self.page_is_young(target.index, heap) {
                    self.mark_push(target, &mut scratch.mark_stack);
                }
            }
        }

        // Sweep the nursery pages only.
        let mut objects_freed = 0u64;
        let mut bytes_freed = 0u64;
        let mut objects_live = 0u64;
        scratch.slots.clear();
        for pi in 0..scratch.minor_pages.len() {
            let page = scratch.minor_pages[pi];
            if self.page_table[page as usize].live == 0 {
                continue;
            }
            let start = page * PAGE_SLOTS;
            let mut freed_on_page = 0u32;
            for index in start..start + PAGE_SLOTS {
                let slot = &mut self.slots[index as usize];
                let Some(obj) = slot.obj.as_mut() else { continue };
                if obj.marked {
                    obj.marked = false;
                    objects_live += 1;
                } else {
                    bytes_freed += obj.bytes as u64;
                    objects_freed += 1;
                    freed_on_page += 1;
                    slot.generation = slot.generation.wrapping_add(1);
                    let dead = slot.obj.take();
                    scratch.slots.push(index);
                    if let Some(dead) = dead {
                        self.payload_pool.recycle(dead.data);
                    }
                    self.obs
                        .heap
                        .with(|h| h.record_free(index, kaffeos_trace::GcKind::Minor));
                }
            }
            self.page_table[page as usize].live -= freed_on_page;
        }
        {
            let core = self.heap_core_mut(heap);
            core.bytes_used -= bytes_freed;
            core.objects -= objects_freed;
            core.minor_gc_count += 1;
        }
        if bytes_freed > 0 {
            if let Some(ml) = self.heap_core(heap).memlimit {
                self.limits.credit(ml, bytes_freed).map_err(|_| {
                    HeapError::Internal("swept bytes were not debited at allocation")
                })?;
            }
        }

        // Decide each swept page's fate — except the current bump page,
        // which keeps feeding young allocations:
        //
        // * **drained** (no survivors): released to the space's free-page
        //   pool, to reopen later as a fresh nursery page. Its slot indices
        //   must not reach the heap's free list — recycling individual dead
        //   slots would quietly tenure young allocations once the page is
        //   mature, which is exactly the failure mode page-granular reuse
        //   exists to avoid.
        // * **old and dense** (survived `PROMOTE_AGE` minor collections
        //   still holding `PROMOTE_MIN_LIVE`+ objects): promoted to mature
        //   in place, so its long-lived residents stop being re-marked.
        //   Promotion creates mature→nursery edges the write barrier never
        //   saw (a promoted survivor's references into a still-nursery
        //   page), so promoted pages are scanned into the rebuilt
        //   remembered set below; skipping that scan is exactly the
        //   soundness hole `check_nursery_invariants` exists to catch.
        // * otherwise: stays nursery. Sparse straggler pages are cheap to
        //   re-scan, likely to drain next time, and keeping them young
        //   means their recycled slots host young objects again.
        let bump_page = self.heap_core(heap).bump_page();
        let mut pages_promoted = 0u64;
        let mut pages_released = 0u64;
        for pi in 0..scratch.minor_pages.len() {
            let page = scratch.minor_pages[pi];
            if Some(page) == bump_page {
                continue;
            }
            let meta = &mut self.page_table[page as usize];
            if meta.live == 0 {
                *meta = PageMeta {
                    owner: None,
                    state: PageState::Mature,
                    live: 0,
                    age: 0,
                };
                self.free_pages.push(page);
                pages_released += 1;
                self.obs.heap.with(|h| {
                    h.record_page_event(kaffeos_trace::PageEvent::Release, page, heap.index)
                });
            } else {
                meta.age = meta.age.saturating_add(1);
                let promote = meta.age >= PROMOTE_AGE && meta.live >= PROMOTE_MIN_LIVE;
                if promote {
                    meta.state = PageState::Mature;
                    meta.age = 0;
                    pages_promoted += 1;
                }
                if promote {
                    self.obs.heap.with(|h| {
                        h.record_page_event(kaffeos_trace::PageEvent::Promote, page, heap.index);
                        let start = page * PAGE_SLOTS;
                        for index in start..start + PAGE_SLOTS {
                            if self.slots[index as usize].obj.is_some() {
                                h.record_tenure(index);
                            }
                        }
                    });
                }
            }
        }

        // Merge this sweep's freed slots into the heap's free list, and (if
        // pages were released) drop every index — pre-existing or freshly
        // freed — that lives on a now-unowned page.
        if pages_released > 0 {
            let mut free_slots = core::mem::take(&mut self.heap_core_mut(heap).free_slots);
            free_slots.retain(|&s| self.page_table[(s >> PAGE_SHIFT) as usize].owner.is_some());
            let mut pages = core::mem::take(&mut self.heap_core_mut(heap).pages);
            pages.retain(|&p| self.page_table[p as usize].owner == Some(heap));
            let core = self.heap_core_mut(heap);
            core.free_slots = free_slots;
            core.pages = pages;
            scratch
                .slots
                .retain(|&s| self.page_table[(s >> PAGE_SHIFT) as usize].owner.is_some());
        }
        self.heap_core_mut(heap)
            .free_slots
            .extend(scratch.slots.iter());

        // Rebuild the remembered set against the *new* page states: keep
        // old sources that still hold an edge into a (still-)nursery page,
        // add promoted survivors that do.
        scratch.remset_next.clear();
        for i in 0..scratch.remset_srcs.len() {
            let src = scratch.remset_srcs[i];
            let Some(obj) = self.slots[src as usize].obj.as_ref() else {
                continue;
            };
            if obj
                .references()
                .any(|t| self.page_is_young(t.index, heap))
            {
                scratch.remset_next.insert(src);
            }
        }
        for pi in 0..scratch.minor_pages.len() {
            let page = scratch.minor_pages[pi];
            // Only pages promoted *this* cycle: still-nursery pages hold no
            // remset candidates (their edges are traced by the next minor
            // mark), and released pages hold no objects at all.
            let meta = &self.page_table[page as usize];
            if meta.state != PageState::Mature || meta.live == 0 {
                continue;
            }
            let start = page * PAGE_SLOTS;
            for index in start..start + PAGE_SLOTS {
                let Some(obj) = self.slots[index as usize].obj.as_ref() else {
                    continue;
                };
                if obj
                    .references()
                    .any(|t| self.page_is_young(t.index, heap))
                {
                    scratch.remset_next.insert(index);
                }
            }
        }
        core::mem::swap(&mut self.heap_core_mut(heap).remset, &mut scratch.remset_next);

        self.obs.heap.with(|h| {
            h.record_gc(
                heap.index,
                kaffeos_trace::GcKind::Minor,
                bytes_freed,
                objects_freed,
                0,
            )
        });
        self.record_heap_occupancy(heap);
        Ok(MinorGcReport {
            heap,
            nursery_pages,
            pages_promoted,
            pages_released,
            objects_freed,
            bytes_freed,
            objects_live,
            remset_roots,
        })
    }

    /// True if `index` sits on a nursery page owned by `heap`.
    #[inline]
    fn page_is_young(&self, index: u32, heap: HeapId) -> bool {
        let meta = &self.page_table[(index >> PAGE_SHIFT) as usize];
        meta.state == PageState::Nursery && meta.owner == Some(heap)
    }

    /// Removes `heap`'s exit item for `target`, decrementing the remote
    /// entry item and destroying it at zero.
    pub(crate) fn drop_exit_item(&mut self, heap: HeapId, target: ObjRef) -> Result<(), HeapError> {
        let removed = self.heap_core_mut(heap).exits.remove(&target);
        debug_assert!(removed.is_some(), "dropping absent exit item");
        if removed.is_some() {
            self.obs.trace.with(|t| {
                t.record(kaffeos_trace::Payload::ExitItemDropped {
                    heap: heap.index,
                    target: target.index,
                })
            });
        }
        if removed.map(|e| e.accounted).unwrap_or(false) {
            let exit_bytes = self.size_model().exit_item as u64;
            if let Some(ml) = self.heap_core(heap).memlimit {
                self.limits.credit(ml, exit_bytes).map_err(|_| {
                    HeapError::Internal("exit item bytes were not debited at creation")
                })?;
            }
        }
        // The target heap may already be dead (merged); entry items were
        // destroyed with it. The target object itself may even have been
        // swept already if its entry item went away first.
        let Ok(target_heap) = self.heap_of(target) else {
            return Ok(());
        };
        self.decrement_entry(target_heap, target)
    }

    /// Merges `heap` into the kernel heap (§2, "Full reclamation of
    /// memory"): pages are retagged, the heap's exit items are destroyed or
    /// folded into the kernel's, kernel exit items into the heap collapse
    /// (user–kernel cycles become intra-heap garbage), and the heap dies.
    /// The next kernel collection reclaims everything unreachable.
    ///
    /// The heap's memlimit, if any, is credited for all outstanding bytes;
    /// the caller is expected to remove the memlimit node afterwards.
    pub fn merge_into_kernel(&mut self, heap: HeapId) -> Result<MergeReport, HeapError> {
        self.check_heap(heap)?;
        let kernel = self.kernel_heap();
        if heap == kernel {
            return Err(HeapError::BadHeapState(heap));
        }
        let core = self.heap_core(heap);
        let bytes_moved = core.bytes_used;
        let objects_moved = core.objects;
        let memlimit = core.memlimit;
        let pages = core.pages.clone();
        let free_slots = core.free_slots.clone();
        let (bump, bump_end) = (core.bump, core.bump_end);
        let mut cycles = objects_moved * costs::MERGE_PER_OBJECT;

        // 1. Credit the dying heap's memlimit for everything it still holds:
        //    objects, plus its exit items (destroyed below). Entry items are
        //    credited as they are destroyed.
        if let Some(ml) = memlimit {
            self.limits.credit(ml, bytes_moved).map_err(|_| {
                HeapError::Internal("heap bytes were not debited from its memlimit")
            })?;
        }

        // 2. Retag pages (ownership *and* generation state — merged pages
        //    are kernel pages, and the kernel has no nursery) and object
        //    headers onto the kernel heap. Wholly-empty pages carry no
        //    headers to retag.
        for &page in &pages {
            let meta = &mut self.page_table[page as usize];
            meta.owner = Some(kernel);
            meta.state = PageState::Mature;
            let live = meta.live;
            self.obs
                .heap
                .with(|h| h.record_page_event(kaffeos_trace::PageEvent::Retag, page, kernel.index));
            if live == 0 {
                continue;
            }
            let start = (page * PAGE_SLOTS) as usize;
            for slot in &mut self.slots[start..start + PAGE_SLOTS as usize] {
                if let Some(obj) = slot.obj.as_mut() {
                    obj.heap = kernel;
                }
            }
        }
        {
            let kcore = self.heap_core_mut(kernel);
            kcore.pages.extend(&pages);
            // Materialise the merged heap's never-used bump remainder as
            // explicit free slots *under* its recycled slots: the kernel
            // pops recycled slots first, then ascends through the
            // remainder — the exact hand-out order of the historical
            // single-free-list allocator, which golden traces observe.
            kcore.free_slots.extend((bump..bump_end).rev());
            kcore.free_slots.extend(&free_slots);
            kcore.bytes_used += bytes_moved;
            kcore.objects += objects_moved;
        }

        // 3. "All exit items are destroyed at this point and the
        //    corresponding entry items are updated" (§2). A sharer's exit
        //    items into a shared heap dying here is exactly how the last
        //    sharer's exit credits the heap and lets it become orphaned. If
        //    surviving kernel garbage still references a remote object, the
        //    next kernel GC re-materialises the edge while tracing.
        let exits: Vec<(ObjRef, bool)> = self
            .heap_core(heap)
            .exits
            .iter()
            .map(|(&t, e)| (t, e.accounted))
            .collect();
        let exit_items_resolved = exits.len() as u64;
        let exit_bytes = self.size_model().exit_item as u64;
        for (target, accounted) in exits {
            cycles += costs::MERGE_PER_OBJECT;
            self.heap_core_mut(heap).exits.remove(&target);
            self.obs.trace.with(|t| {
                t.record(kaffeos_trace::Payload::ExitItemDropped {
                    heap: heap.index,
                    target: target.index,
                })
            });
            if accounted {
                if let Some(ml) = memlimit {
                    self.limits.credit(ml, exit_bytes).map_err(|_| {
                        HeapError::Internal("exit item bytes were not debited at creation")
                    })?;
                }
            }
            // Targets are on other heaps by construction; after the page
            // retag above, former merged-heap→kernel targets read as kernel.
            let target_heap = self.heap_of(target)?;
            self.decrement_entry(target_heap, target)?;
        }

        // 4. Collapse kernel exit items that pointed into the merged heap.
        //    (Only the kernel may hold references into a user heap, so after
        //    this no exit item anywhere targets the merged heap.) Targets
        //    were retagged to the kernel heap in step 2, so we identify them
        //    by page.
        let kernel_exits: Vec<ObjRef> = self
            .heap_core(kernel)
            .exits
            .keys()
            .copied()
            .filter(|r| pages.contains(&(r.index >> PAGE_SHIFT)))
            .collect();
        let kernel_exits_collapsed = kernel_exits.len() as u64;
        for target in kernel_exits {
            cycles += costs::MERGE_PER_OBJECT;
            self.heap_core_mut(kernel).exits.remove(&target);
            self.obs.trace.with(|t| {
                t.record(kaffeos_trace::Payload::ExitItemDropped {
                    heap: kernel.index,
                    target: target.index,
                })
            });
            // The matching entry item lives in the (still-live) merged
            // heap's table; decrement there so the pair dies together.
            self.decrement_entry(heap, target)?;
        }

        // 5. Any remaining entry items of the merged heap now describe
        //    edges into kernel objects (their targets were retagged). Only
        //    the kernel may reference a user heap, and step 4 collapsed
        //    those; a shared heap is only merged once orphaned (all counts
        //    zero). Fold any survivor into the kernel's entry table for
        //    robustness rather than dropping a non-zero count on the floor.
        let entry_bytes = self.size_model().entry_item as u64;
        let leftover: Vec<(u32, crate::heap::EntryItem)> =
            std::mem::take(&mut self.heap_core_mut(heap).entries)
                .into_iter()
                .collect();
        for (slot, entry) in leftover {
            if entry.accounted {
                if let Some(ml) = memlimit {
                    self.limits.credit(ml, entry_bytes).map_err(|_| {
                        HeapError::Internal("entry item bytes were not debited at creation")
                    })?;
                }
            }
            if entry.refs > 0 {
                self.heap_core_mut(kernel)
                    .entries
                    .entry(slot)
                    .and_modify(|e| e.refs += entry.refs)
                    .or_insert(crate::heap::EntryItem {
                        refs: entry.refs,
                        accounted: false,
                    });
            }
        }

        // 6. The heap is dead; bump its generation so stale HeapIds fail.
        let core = self.heap_core_mut(heap);
        core.alive = false;
        core.generation = core.generation.wrapping_add(1);
        core.pages.clear();
        core.free_slots.clear();
        core.bump = 0;
        core.bump_end = 0;
        core.remset.clear();
        core.bytes_used = 0;
        core.objects = 0;
        core.memlimit = None;

        self.obs.trace.with(|t| {
            t.record(kaffeos_trace::Payload::HeapMerged {
                heap: heap.index,
                bytes: bytes_moved,
                objects: objects_moved,
            })
        });
        Ok(MergeReport {
            bytes_moved,
            objects_moved,
            exit_items_resolved,
            kernel_exits_collapsed,
            cycles,
        })
    }

    fn decrement_entry(&mut self, heap: HeapId, target: ObjRef) -> Result<(), HeapError> {
        let entry_bytes = self.size_model().entry_item as u64;
        let core = self.heap_core_mut(heap);
        let Some(entry) = core.entries.get_mut(&target.index) else {
            return Ok(());
        };
        entry.refs = entry.refs.saturating_sub(1);
        if entry.refs == 0 {
            let accounted = entry.accounted;
            core.entries.remove(&target.index);
            self.obs.trace.with(|t| {
                t.record(kaffeos_trace::Payload::EntryItemDropped {
                    heap: heap.index,
                    slot: target.index,
                })
            });
            if accounted {
                if let Some(ml) = self.heap_core(heap).memlimit {
                    self.limits.credit(ml, entry_bytes).map_err(|_| {
                        HeapError::Internal("entry item bytes were not debited at creation")
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Shared heaps whose last sharer is gone: no entry item holds a live
    /// reference into them. The kernel collector checks for these at the
    /// beginning of each GC cycle and merges them into the kernel heap (§2).
    pub fn orphaned_shared_heaps(&self) -> Vec<HeapId> {
        (0..self.heaps.len())
            .filter_map(|i| {
                let h = &self.heaps[i];
                (h.alive
                    && h.kind == HeapKind::Shared
                    && h.frozen
                    && h.entries.values().all(|e| e.refs == 0))
                .then(|| h.id(i as u32))
            })
            .collect()
    }
}
