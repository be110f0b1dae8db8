//! Whole-space invariant auditor.
//!
//! [`HeapSpace::audit`] re-derives the bookkeeping the space maintains
//! incrementally — per-heap object/byte counts, page ownership, entry/exit
//! reference-count conservation, memlimit coverage — and reports the first
//! discrepancy. The kernel's fault harness runs it after every injected
//! fault: a violation means an invariant the paper's isolation story depends
//! on was silently broken, even if nothing has crashed yet.

use core::fmt;

use kaffeos_memlimit::LimitAuditError;

use crate::error::HeapError;
use crate::refs::{HeapId, ObjRef};
use crate::space::{HeapSpace, PAGE_SHIFT, PAGE_SLOTS};

/// Deterministic summary of a clean audit. Identical space states produce
/// identical reports (plain counters, no addresses or timestamps), which the
/// fault harness uses to check replay determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceAuditReport {
    /// Live heaps examined.
    pub heaps: u64,
    /// Live objects across all heaps.
    pub objects: u64,
    /// Accounted object bytes across all heaps.
    pub bytes_used: u64,
    /// Entry items across all heaps.
    pub entry_items: u64,
    /// Exit items across all heaps.
    pub exit_items: u64,
    /// Sum of entry-item reference counts (equals the number of resolvable
    /// exit items when conservation holds).
    pub entry_refs: u64,
    /// Live memlimit nodes in the tree.
    pub memlimit_nodes: u64,
}

/// A broken heap-space invariant found by [`HeapSpace::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceAuditViolation {
    /// The memlimit tree's own conservation audit failed.
    Limit(LimitAuditError),
    /// A heap's recorded object/byte counters disagree with a recount of
    /// its pages.
    HeapCount {
        /// The inconsistent heap.
        heap: HeapId,
        /// Which counter (`"objects"` or `"bytes_used"`).
        field: &'static str,
        /// The heap's incremental counter.
        recorded: u64,
        /// The value re-derived from the slot table.
        actual: u64,
    },
    /// A page in a heap's page list is owned by a different heap, or an
    /// object on the page carries the wrong heap in its header.
    PageOwnership {
        /// The heap claiming the page.
        heap: HeapId,
        /// The page index.
        page: u32,
        /// The owner the page table or object header reports.
        observed: HeapId,
    },
    /// An exit item's target resolves to a live object but the destination
    /// heap has no matching entry item.
    DanglingExit {
        /// Heap holding the exit item.
        heap: HeapId,
        /// The exit item's target.
        target: ObjRef,
    },
    /// An entry item's reference count disagrees with the number of exit
    /// items across all other heaps that target its slot.
    EntryRefMismatch {
        /// Heap holding the entry item.
        heap: HeapId,
        /// The pinned slot.
        slot: u32,
        /// The entry item's count.
        refs: u64,
        /// Exit items actually found.
        actual: u64,
    },
    /// An entry item with a non-zero count pins a slot that holds no live
    /// object of that heap.
    EntryStale {
        /// Heap holding the entry item.
        heap: HeapId,
        /// The pinned slot.
        slot: u32,
    },
    /// A heap's accounted bytes (objects + accounted entry/exit items)
    /// exceed what its memlimit has recorded as debited.
    UnderAccounted {
        /// The heap.
        heap: HeapId,
        /// The memlimit's current use.
        memlimit_current: u64,
        /// Accounted bytes the heap actually holds.
        accounted: u64,
    },
    /// Page-table bookkeeping broke: the page table, the heaps' page lists
    /// and the free-page pool disagree about a page, or a page's live-slot
    /// counter disagrees with a slot recount.
    PageAccounting {
        /// The inconsistent page.
        page: u32,
        /// What went wrong.
        detail: &'static str,
    },
    /// A heap's bump cursor or recycled-slot free list is inconsistent with
    /// the slot table (cursor outside an owned page, free slot occupied or
    /// on a foreign page, …).
    AllocatorState {
        /// The heap with broken allocator state.
        heap: HeapId,
        /// What went wrong.
        detail: &'static str,
    },
}

impl fmt::Display for SpaceAuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceAuditViolation::Limit(e) => write!(f, "memlimit audit: {e}"),
            SpaceAuditViolation::HeapCount {
                heap,
                field,
                recorded,
                actual,
            } => write!(
                f,
                "heap {heap:?}: {field} records {recorded} but recount finds {actual}"
            ),
            SpaceAuditViolation::PageOwnership {
                heap,
                page,
                observed,
            } => write!(
                f,
                "heap {heap:?}: page {page} reports owner {observed:?}"
            ),
            SpaceAuditViolation::DanglingExit { heap, target } => write!(
                f,
                "heap {heap:?}: exit item for {target:?} has no matching entry item"
            ),
            SpaceAuditViolation::EntryRefMismatch {
                heap,
                slot,
                refs,
                actual,
            } => write!(
                f,
                "heap {heap:?}: entry item at slot {slot} counts {refs} refs but {actual} exit items target it"
            ),
            SpaceAuditViolation::EntryStale { heap, slot } => write!(
                f,
                "heap {heap:?}: entry item pins slot {slot} which holds no live object of this heap"
            ),
            SpaceAuditViolation::UnderAccounted {
                heap,
                memlimit_current,
                accounted,
            } => write!(
                f,
                "heap {heap:?}: holds {accounted} accounted bytes but its memlimit records only {memlimit_current}"
            ),
            SpaceAuditViolation::PageAccounting { page, detail } => {
                write!(f, "page {page}: {detail}")
            }
            SpaceAuditViolation::AllocatorState { heap, detail } => {
                write!(f, "heap {heap:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for SpaceAuditViolation {}

impl HeapSpace {
    /// Bytes the heap has charged to its memlimit: live object bytes plus
    /// accounted entry/exit item bytes.
    pub fn accounted_bytes(&self, heap: HeapId) -> Result<u64, HeapError> {
        self.check_heap(heap)?;
        let core = self.heap_core(heap);
        let exit = self.size_model().exit_item as u64;
        let entry = self.size_model().entry_item as u64;
        let exits = core.exits.values().filter(|e| e.accounted).count() as u64;
        let entries = core.entries.values().filter(|e| e.accounted).count() as u64;
        Ok(core.bytes_used + exits * exit + entries * entry)
    }

    /// Re-derives every incremental invariant of the space and reports the
    /// first violation, or a deterministic summary when all hold. See the
    /// module docs; the checks are:
    ///
    /// 1. memlimit tree conservation ([`kaffeos_memlimit::MemLimitTree::audit`]);
    /// 2. per-heap object and byte counters match a recount of the heap's
    ///    pages, page/header ownership is consistent, per-page live-slot
    ///    counters match a recount;
    /// 3. entry/exit conservation: every resolvable exit item has a remote
    ///    entry item, and every entry item's count equals the number of
    ///    exit items targeting it;
    /// 4. memlimit coverage: a heap never holds more accounted bytes than
    ///    its memlimit has debited;
    /// 5. page-table/pool conservation: every page is either owned by
    ///    exactly one live heap (listed by it exactly once) or unowned,
    ///    empty and pooled exactly once — the full ownership-transition
    ///    story `open_page` / `merge_into_kernel` /
    ///    [`HeapSpace::release_empty_pages`] maintain;
    /// 6. allocator state: each heap's bump cursor lies within a page it
    ///    owns, the cursor's unused tail is empty, and every recycled free
    ///    slot is an empty slot on a page the heap owns.
    pub fn audit(&self) -> Result<SpaceAuditReport, SpaceAuditViolation> {
        self.limits.audit().map_err(SpaceAuditViolation::Limit)?;

        let live: Vec<HeapId> = (0..self.heaps.len())
            .filter_map(|i| {
                let h = &self.heaps[i];
                h.alive.then(|| h.id(i as u32))
            })
            .collect();

        let mut report = SpaceAuditReport {
            heaps: live.len() as u64,
            memlimit_nodes: self.limits.len() as u64,
            ..SpaceAuditReport::default()
        };

        // 2. Recount pages.
        for &heap in &live {
            let core = self.heap_core(heap);
            let mut objects = 0u64;
            let mut bytes = 0u64;
            for &page in &core.pages {
                let meta = &self.page_table[page as usize];
                match meta.owner {
                    None => {
                        return Err(SpaceAuditViolation::PageAccounting {
                            page,
                            detail: "page is on a heap's page list but the page table says unowned",
                        })
                    }
                    Some(owner) if owner != heap => {
                        return Err(SpaceAuditViolation::PageOwnership {
                            heap,
                            page,
                            observed: owner,
                        })
                    }
                    Some(_) => {}
                }
                let mut occupied = 0u32;
                let start = (page * PAGE_SLOTS) as usize;
                for slot in &self.slots[start..start + PAGE_SLOTS as usize] {
                    if let Some(obj) = &slot.obj {
                        if obj.heap != heap {
                            return Err(SpaceAuditViolation::PageOwnership {
                                heap,
                                page,
                                observed: obj.heap,
                            });
                        }
                        occupied += 1;
                        objects += 1;
                        bytes += obj.bytes as u64;
                    }
                }
                if occupied != meta.live {
                    return Err(SpaceAuditViolation::PageAccounting {
                        page,
                        detail: "live-slot counter disagrees with slot recount",
                    });
                }
            }
            if objects != core.objects {
                return Err(SpaceAuditViolation::HeapCount {
                    heap,
                    field: "objects",
                    recorded: core.objects,
                    actual: objects,
                });
            }
            if bytes != core.bytes_used {
                return Err(SpaceAuditViolation::HeapCount {
                    heap,
                    field: "bytes_used",
                    recorded: core.bytes_used,
                    actual: bytes,
                });
            }
            report.objects += objects;
            report.bytes_used += bytes;
        }

        // 3. Entry/exit conservation.
        for &heap in &live {
            let core = self.heap_core(heap);
            report.exit_items += core.exits.len() as u64;
            for &target in core.exits.keys() {
                // A stale target (object already swept, destination heap
                // merged) is legal transient garbage; only resolvable
                // targets must be pinned.
                let Ok(dst) = self.heap_of(target) else {
                    continue;
                };
                let pinned = self
                    .heap_core(dst)
                    .entries
                    .get(&target.index)
                    .map(|e| e.refs >= 1)
                    .unwrap_or(false);
                if !pinned {
                    return Err(SpaceAuditViolation::DanglingExit { heap, target });
                }
            }
        }
        for &heap in &live {
            let core = self.heap_core(heap);
            report.entry_items += core.entries.len() as u64;
            for (&slot, entry) in &core.entries {
                report.entry_refs += entry.refs as u64;
                if entry.refs == 0 {
                    continue;
                }
                // The pinned slot must hold a live object of this heap.
                let holds = self
                    .slots
                    .get(slot as usize)
                    .and_then(|s| s.obj.as_ref())
                    .map(|o| o.heap == heap)
                    .unwrap_or(false);
                if !holds {
                    return Err(SpaceAuditViolation::EntryStale { heap, slot });
                }
                let actual: u64 = live
                    .iter()
                    .filter(|&&other| other != heap)
                    .map(|&other| {
                        self.heap_core(other)
                            .exits
                            .keys()
                            .filter(|t| {
                                t.index == slot
                                    && self.heap_of(**t).map(|h| h == heap).unwrap_or(false)
                            })
                            .count() as u64
                    })
                    .sum();
                if actual != entry.refs as u64 {
                    return Err(SpaceAuditViolation::EntryRefMismatch {
                        heap,
                        slot,
                        refs: entry.refs as u64,
                        actual,
                    });
                }
            }
        }

        // 4. Memlimit coverage.
        for &heap in &live {
            if let Some(ml) = self.heap_core(heap).memlimit {
                let accounted = self
                    .accounted_bytes(heap)
                    .unwrap_or(u64::MAX);
                let current = self.limits.current(ml);
                if accounted > current {
                    return Err(SpaceAuditViolation::UnderAccounted {
                        heap,
                        memlimit_current: current,
                        accounted,
                    });
                }
            }
        }

        // 5. Page-table / free-page-pool conservation.
        let mut listed_by = vec![0u32; self.page_table.len()];
        for &heap in &live {
            for &page in &self.heap_core(heap).pages {
                listed_by[page as usize] += 1;
            }
        }
        let mut pooled = vec![0u32; self.page_table.len()];
        for &page in &self.free_pages {
            match pooled.get_mut(page as usize) {
                Some(n) => *n += 1,
                None => {
                    return Err(SpaceAuditViolation::PageAccounting {
                        page,
                        detail: "free-page pool names a page outside the page table",
                    })
                }
            }
        }
        for page in 0..self.page_table.len() {
            let meta = &self.page_table[page];
            let page_u32 = page as u32;
            match meta.owner {
                Some(owner) => {
                    if !self.heap_alive(owner) {
                        return Err(SpaceAuditViolation::PageAccounting {
                            page: page_u32,
                            detail: "page owned by a dead heap",
                        });
                    }
                    if listed_by[page] != 1 {
                        return Err(SpaceAuditViolation::PageAccounting {
                            page: page_u32,
                            detail: "owned page not listed by exactly one heap",
                        });
                    }
                    if pooled[page] != 0 {
                        return Err(SpaceAuditViolation::PageAccounting {
                            page: page_u32,
                            detail: "owned page also sits in the free-page pool",
                        });
                    }
                }
                None => {
                    if listed_by[page] != 0 {
                        return Err(SpaceAuditViolation::PageAccounting {
                            page: page_u32,
                            detail: "unowned page still on a heap's page list",
                        });
                    }
                    if pooled[page] != 1 {
                        return Err(SpaceAuditViolation::PageAccounting {
                            page: page_u32,
                            detail: "unowned page not pooled exactly once",
                        });
                    }
                    if meta.live != 0 {
                        return Err(SpaceAuditViolation::PageAccounting {
                            page: page_u32,
                            detail: "unowned page has a non-zero live counter",
                        });
                    }
                    let start = page * PAGE_SLOTS as usize;
                    if self.slots[start..start + PAGE_SLOTS as usize]
                        .iter()
                        .any(|s| s.obj.is_some())
                    {
                        return Err(SpaceAuditViolation::PageAccounting {
                            page: page_u32,
                            detail: "unowned page holds objects",
                        });
                    }
                }
            }
        }

        // 6. Allocator state: bump cursors and recycled free lists.
        for &heap in &live {
            let core = self.heap_core(heap);
            if core.bump > core.bump_end {
                return Err(SpaceAuditViolation::AllocatorState {
                    heap,
                    detail: "bump cursor past the end of its region",
                });
            }
            if core.bump < core.bump_end {
                let page = core.bump >> PAGE_SHIFT;
                if (core.bump_end - 1) >> PAGE_SHIFT != page
                    || self.page_table[page as usize].owner != Some(heap)
                {
                    return Err(SpaceAuditViolation::AllocatorState {
                        heap,
                        detail: "bump region is not within a single owned page",
                    });
                }
                if self.slots[core.bump as usize..core.bump_end as usize]
                    .iter()
                    .any(|s| s.obj.is_some())
                {
                    return Err(SpaceAuditViolation::AllocatorState {
                        heap,
                        detail: "never-used bump tail holds an object",
                    });
                }
            }
            for &slot in &core.free_slots {
                let on_owned_page = self
                    .page_table
                    .get((slot >> PAGE_SHIFT) as usize)
                    .map(|m| m.owner == Some(heap))
                    .unwrap_or(false);
                if !on_owned_page {
                    return Err(SpaceAuditViolation::AllocatorState {
                        heap,
                        detail: "recycled free slot on a page the heap does not own",
                    });
                }
                if self.slots[slot as usize].obj.is_some() {
                    return Err(SpaceAuditViolation::AllocatorState {
                        heap,
                        detail: "recycled free slot is occupied",
                    });
                }
            }
        }

        Ok(report)
    }
}
