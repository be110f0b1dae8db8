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
use crate::heap::HeapKind;
use crate::layout::costs;
use crate::refs::{HeapId, ObjRef, ProcTag};
use crate::space::{HeapSpace, PAGE_SHIFT, PAGE_SLOTS};

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
                    self.obs.heap.with(|h| h.record_free(index));
                }
            }
            self.page_table[page as usize].live -= freed_on_page;
        }
        {
            let core = self.heap_core_mut(heap);
            core.pages = pages;
            core.bytes_used -= bytes_freed;
            core.objects -= objects_freed;
            core.free_slots.extend(freed_slots.iter());
            core.gc_count += 1;
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
        self.obs
            .heap
            .with(|h| h.record_gc(heap.index, bytes_freed, objects_freed, cycles));
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

        // 2. Retag pages and object headers onto the kernel heap.
        //    Wholly-empty pages carry no headers to retag.
        for &page in &pages {
            let meta = &mut self.page_table[page as usize];
            meta.owner = Some(kernel);
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
