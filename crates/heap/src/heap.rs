use std::collections::BTreeMap;

use kaffeos_memlimit::MemLimitId;

use crate::refs::{HeapId, ObjRef, ProcTag};

/// The three heap roles of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapKind {
    /// The single trusted heap holding kernel state and shared classes.
    Kernel,
    /// A process heap; dies by being merged into the kernel heap.
    User,
    /// An inter-process communication heap: populated by its creator, then
    /// frozen (reference fields become immutable, size fixed for life).
    Shared,
}

/// Reference-counted entry item: marks a local object as the target of
/// cross-heap references, and acts as a GC root for this heap while its
/// count is non-zero (§2, "Precise memory and CPU accounting").
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryItem {
    /// Number of exit items (in other heaps) pointing at this object.
    pub refs: u32,
    /// Whether this item's bytes were debited from the heap's memlimit.
    /// Items materialised during GC (for stack-held cross-heap references)
    /// are unaccounted so a collection can never fail on a full memlimit.
    pub accounted: bool,
}

/// Exit item: records that this heap holds at least one reference to the
/// remote object `target`. Exit items are swept like objects: the mark phase
/// marks the exit items for cross-heap references it finds live; unmarked
/// exit items are destroyed and the remote entry item's count dropped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitItem {
    pub marked: bool,
    /// See [`EntryItem::accounted`].
    pub accounted: bool,
}

/// Per-heap bookkeeping. Objects live in the global table; the heap tracks
/// which pages it owns, its free slots, accounting, and its entry/exit item
/// tables.
#[derive(Debug)]
pub(crate) struct HeapCore {
    pub generation: u32,
    pub alive: bool,
    pub kind: HeapKind,
    pub owner: ProcTag,
    pub label: String,
    /// Memlimit debited by allocations; `None` for frozen shared heaps whose
    /// population-time memlimit has been detached (sharers are then charged
    /// the heap's full fixed size directly).
    pub memlimit: Option<MemLimitId>,
    /// Pages (of `PAGE_SLOTS` object slots) owned by this heap.
    pub pages: Vec<u32>,
    /// Pages [`crate::HeapSpace::release_empty_pages`] has given back to
    /// the free-page pool. The modelled sweep still charges them (see
    /// `gc.rs`, phase 3), so a release never moves a virtual cycle.
    pub retired_pages: u64,
    /// *Recycled* free slot indices within owned pages (slots freed by a
    /// sweep). Never-yet-used slots of the current page are handed out by
    /// the bump cursor instead and are not listed here.
    pub free_slots: Vec<u32>,
    /// Bump cursor into the heap's current page: the next never-used slot.
    /// Equal to `bump_end` when no page is open for bump allocation.
    pub bump: u32,
    /// One past the last slot of the current bump page.
    pub bump_end: u32,
    /// Accounted bytes currently allocated.
    pub bytes_used: u64,
    /// Live object count (including unreachable-but-unswept).
    pub objects: u64,
    /// Entry items keyed by local slot index.
    pub entries: BTreeMap<u32, EntryItem>,
    /// Exit items keyed by remote reference.
    pub exits: BTreeMap<ObjRef, ExitItem>,
    /// Shared heap only: set when the heap is frozen.
    pub frozen: bool,
    /// Monotonic count of collections run on this heap.
    pub gc_count: u64,
}

impl HeapCore {
    /// True if the bump cursor has unused slots left on the current page.
    #[inline]
    pub(crate) fn bump_open(&self) -> bool {
        self.bump < self.bump_end
    }

    /// The page the bump cursor currently allocates into, if any.
    #[inline]
    pub(crate) fn bump_page(&self) -> Option<u32> {
        self.bump_open().then_some(self.bump >> crate::space::PAGE_SHIFT)
    }
}

impl HeapCore {
    pub(crate) fn id(&self, index: u32) -> HeapId {
        HeapId {
            index,
            generation: self.generation,
        }
    }
}

/// Read-only view of one heap for diagnostics, reporting and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// The heap.
    pub id: HeapId,
    /// Kernel, user, or shared.
    pub kind: HeapKind,
    /// Owning process tag.
    pub owner: ProcTag,
    /// Diagnostic label.
    pub label: String,
    /// Accounted bytes currently allocated.
    pub bytes_used: u64,
    /// Live (unswept) object count.
    pub objects: u64,
    /// Pages owned.
    pub pages: usize,
    /// Entry items (remote references into this heap).
    pub entry_items: usize,
    /// Exit items (references out of this heap).
    pub exit_items: usize,
    /// Shared heap only: frozen yet?
    pub frozen: bool,
    /// Collections run on this heap.
    pub gc_count: u64,
}
