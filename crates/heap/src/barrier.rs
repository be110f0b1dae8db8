//! Write-barrier implementations and the Figure-2 legality matrix.
//!
//! A write barrier is a check on every pointer write to the heap (§2, "Full
//! reclamation of memory"). KaffeOS uses it to forbid the cross-heap
//! references that would prevent a terminated process' memory from being
//! reclaimed, and to maintain entry/exit items for the legal cross-heap
//! references. Illegal writes raise "segmentation violations".
//!
//! Every reference store funnels through one choke point,
//! `HeapSpace::store_ref`, which runs the checks below and charges the
//! modelled cycles of the configured barrier.

use crate::heap::HeapKind;
use crate::layout::costs;

/// The barrier implementations measured in §4.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BarrierKind {
    /// No write barrier; everything runs on the kernel heap. Baseline for
    /// Figure 3 / Table 1 ("No Write Barrier").
    None,
    /// The barrier finds the object's heap id in the object header.
    /// 25 cycles with a hot cache, but adds 4 bytes to every object.
    HeapPointer,
    /// The barrier finds the object's heap id by looking at the page on
    /// which the object lies. 41 cycles with a hot cache, no padding.
    /// This is KaffeOS's default.
    #[default]
    NoHeapPointer,
    /// The page-lookup barrier *plus* 4 bytes of padding per object, used in
    /// the paper to isolate the cost of the Heap Pointer padding.
    FakeHeapPointer,
}

impl BarrierKind {
    /// Modelled cycles for one barrier execution.
    pub fn cycles(self) -> u64 {
        match self {
            BarrierKind::None => 0,
            BarrierKind::HeapPointer => costs::BARRIER_HEAP_POINTER,
            BarrierKind::NoHeapPointer | BarrierKind::FakeHeapPointer => {
                costs::BARRIER_NO_HEAP_POINTER
            }
        }
    }

    /// True if objects carry the 4-byte heap-id (or fake) header word.
    pub fn pads_header(self) -> bool {
        matches!(
            self,
            BarrierKind::HeapPointer | BarrierKind::FakeHeapPointer
        )
    }

    /// True if reference stores are checked at all.
    pub fn enforces(self) -> bool {
        !matches!(self, BarrierKind::None)
    }

    /// True if the barrier discovers heap ids via the page table rather than
    /// the object header.
    pub fn uses_page_lookup(self) -> bool {
        matches!(
            self,
            BarrierKind::NoHeapPointer | BarrierKind::FakeHeapPointer
        )
    }

    /// All four variants, for sweeps in benches and tests.
    pub const ALL: [BarrierKind; 4] = [
        BarrierKind::None,
        BarrierKind::HeapPointer,
        BarrierKind::NoHeapPointer,
        BarrierKind::FakeHeapPointer,
    ];

    /// Display name matching the paper's figure legend.
    pub fn label(self) -> &'static str {
        match self {
            BarrierKind::None => "No Write Barrier",
            BarrierKind::HeapPointer => "Heap Pointer",
            BarrierKind::NoHeapPointer => "No Heap Pointer",
            BarrierKind::FakeHeapPointer => "Fake Heap Pointer",
        }
    }
}

/// Why a reference store was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegViolationKind {
    /// A reference from one user heap to a different user heap.
    UserToUser,
    /// A reference from a shared heap into a user heap (shared heaps may
    /// not keep process-private objects alive).
    SharedToUser,
    /// A reference between two distinct shared heaps (would let one shared
    /// heap's lifetime pin another's).
    SharedToShared,
    /// Reassignment of a reference field of an object on a frozen shared
    /// heap (only primitive fields of shared objects are mutable).
    FrozenSharedField,
    /// An untrusted (user-mode) write of a user-heap reference into a
    /// kernel object; only kernel code may create kernel→user references.
    UntrustedKernelWrite,
}

impl SegViolationKind {
    /// Short stable label used by trace events.
    pub fn label(self) -> &'static str {
        match self {
            SegViolationKind::UserToUser => "user-to-user",
            SegViolationKind::SharedToUser => "shared-to-user",
            SegViolationKind::SharedToShared => "shared-to-shared",
            SegViolationKind::FrozenSharedField => "frozen-shared-field",
            SegViolationKind::UntrustedKernelWrite => "untrusted-kernel-write",
        }
    }

    /// Human-readable message carried by the guest-visible exception.
    pub fn message(self) -> &'static str {
        match self {
            SegViolationKind::UserToUser => "cross-process reference (user heap to user heap)",
            SegViolationKind::SharedToUser => "shared heap may not reference a user heap",
            SegViolationKind::SharedToShared => "shared heap may not reference another shared heap",
            SegViolationKind::FrozenSharedField => {
                "reference field of a frozen shared object is immutable"
            }
            SegViolationKind::UntrustedKernelWrite => {
                "user code may not store user references into kernel objects"
            }
        }
    }
}

/// Decides whether a reference from an object on `src` may point at an
/// object on `dst` (Figure 2). `trusted` is true only while the thread runs
/// in kernel mode.
///
/// Same-heap stores are always legal at this level; frozen-shared-field
/// checks are handled by the caller because they apply even to same-heap
/// stores.
pub fn check_edge(
    src: HeapKind,
    dst: HeapKind,
    same_heap: bool,
    trusted: bool,
) -> Result<(), SegViolationKind> {
    if same_heap {
        return Ok(());
    }
    use HeapKind::*;
    match (src, dst) {
        // User heaps can contain pointers into the kernel heap and shared
        // heaps.
        (User, Kernel) | (User, Shared) => Ok(()),
        // ... but never into other user heaps.
        (User, User) => Err(SegViolationKind::UserToUser),
        // The kernel heap can contain pointers anywhere, but only trusted
        // code may create kernel→user edges (the kernel is coded to only do
        // so for objects whose lifetime equals the process' lifetime).
        (Kernel, User) => {
            if trusted {
                Ok(())
            } else {
                Err(SegViolationKind::UntrustedKernelWrite)
            }
        }
        (Kernel, Kernel) | (Kernel, Shared) => Ok(()),
        // Shared heaps cannot point into user heaps nor other shared heaps;
        // shared→kernel is allowed (e.g. shared class metadata referring to
        // kernel-resident runtime structures).
        (Shared, User) => Err(SegViolationKind::SharedToUser),
        (Shared, Shared) => Err(SegViolationKind::SharedToShared),
        (Shared, Kernel) => Ok(()),
    }
}

/// Counters behind Table 1 and the barrier micro-benchmarks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BarrierStats {
    /// Barriers executed (every reference store, including null stores —
    /// the check runs regardless of the value written).
    pub executed: u64,
    /// Modelled cycles spent executing barriers.
    pub cycles: u64,
    /// Stores that created a new cross-heap edge (exit item created).
    pub cross_heap_created: u64,
    /// Stores rejected with a segmentation violation.
    pub violations: u64,
}

impl BarrierStats {
    /// Zeroes all counters (per-benchmark-run reset).
    pub fn reset(&mut self) {
        *self = BarrierStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapKind::*;

    #[test]
    fn same_heap_always_legal() {
        for kind in [User, Kernel, Shared] {
            assert!(check_edge(kind, kind, true, false).is_ok());
        }
    }

    #[test]
    fn user_to_user_is_segv() {
        assert_eq!(
            check_edge(User, User, false, false),
            Err(SegViolationKind::UserToUser)
        );
        // Trust does not help: the restriction is structural.
        assert_eq!(
            check_edge(User, User, false, true),
            Err(SegViolationKind::UserToUser)
        );
    }

    #[test]
    fn user_may_reference_kernel_and_shared() {
        assert!(check_edge(User, Kernel, false, false).is_ok());
        assert!(check_edge(User, Shared, false, false).is_ok());
    }

    #[test]
    fn kernel_to_user_requires_trust() {
        assert!(check_edge(Kernel, User, false, true).is_ok());
        assert_eq!(
            check_edge(Kernel, User, false, false),
            Err(SegViolationKind::UntrustedKernelWrite)
        );
    }

    #[test]
    fn shared_heap_restrictions() {
        assert_eq!(
            check_edge(Shared, User, false, true),
            Err(SegViolationKind::SharedToUser)
        );
        assert_eq!(
            check_edge(Shared, Shared, false, false),
            Err(SegViolationKind::SharedToShared)
        );
        assert!(check_edge(Shared, Kernel, false, false).is_ok());
    }

    #[test]
    fn barrier_costs_match_paper() {
        assert_eq!(BarrierKind::HeapPointer.cycles(), 25);
        assert_eq!(BarrierKind::NoHeapPointer.cycles(), 41);
        assert_eq!(BarrierKind::FakeHeapPointer.cycles(), 41);
        assert_eq!(BarrierKind::None.cycles(), 0);
        assert!(BarrierKind::HeapPointer.pads_header());
        assert!(BarrierKind::FakeHeapPointer.pads_header());
        assert!(!BarrierKind::NoHeapPointer.pads_header());
    }
}
