use core::fmt;

use kaffeos_memlimit::LimitExceeded;

use crate::barrier::SegViolationKind;
use crate::refs::{HeapId, ObjRef};

/// Errors surfaced by heap operations.
///
/// `SegViolation` and `OutOfMemory` become guest-visible exceptions at the
/// kernel layer; the rest indicate runtime bugs (the verifier and GC make
/// them unreachable for well-formed guests) and are kept as errors rather
/// than panics so the kernel can kill the offending process instead of the
/// whole VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeapError {
    /// An illegal cross-heap reference store (§2: "segmentation violation").
    SegViolation(SegViolationKind),
    /// The owning memlimit (or an ancestor) cannot cover the allocation.
    OutOfMemory(LimitExceeded),
    /// Dereference of a reference whose slot has been reused or freed —
    /// only reachable through a GC or VM bug.
    StaleRef(ObjRef),
    /// Operation on a heap that has died (been merged).
    HeapDead(HeapId),
    /// Field or element index out of bounds for the object's payload.
    IndexOutOfBounds {
        /// The accessed object.
        obj: ObjRef,
        /// The offending index.
        index: usize,
        /// The payload length.
        len: usize,
    },
    /// A slot access with the wrong payload kind (e.g. field store into an
    /// array) — unreachable for verified code.
    KindMismatch(ObjRef),
    /// An array of more elements than an object can count (`u32::MAX`),
    /// refused before admission.
    ArrayTooLong {
        /// The requested element count.
        len: usize,
    },
    /// Store into a frozen shared heap during population, or freezing a
    /// non-shared heap, etc.
    BadHeapState(HeapId),
    /// An internal bookkeeping step that must not fail did fail — a broken
    /// kernel invariant surfaced as an error (instead of a panic) so the
    /// kernel can contain the damage to one process.
    Internal(&'static str),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::SegViolation(kind) => {
                write!(f, "segmentation violation: {}", kind.message())
            }
            HeapError::OutOfMemory(e) => write!(f, "out of memory: {e}"),
            HeapError::StaleRef(r) => write!(f, "stale reference {r:?}"),
            HeapError::HeapDead(h) => write!(f, "heap {h:?} is dead"),
            HeapError::IndexOutOfBounds { obj, index, len } => {
                write!(f, "index {index} out of bounds (len {len}) on {obj:?}")
            }
            HeapError::KindMismatch(r) => write!(f, "payload kind mismatch on {r:?}"),
            HeapError::ArrayTooLong { len } => write!(f, "array of {len} elements is too long"),
            HeapError::BadHeapState(h) => write!(f, "bad heap state for {h:?}"),
            HeapError::Internal(msg) => write!(f, "internal heap invariant broken: {msg}"),
        }
    }
}

impl std::error::Error for HeapError {}

impl From<LimitExceeded> for HeapError {
    fn from(e: LimitExceeded) -> Self {
        HeapError::OutOfMemory(e)
    }
}
