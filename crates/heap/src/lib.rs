//! Multi-heap object store for KaffeOS.
//!
//! KaffeOS gives every process its own garbage-collected heap inside one
//! address space, plus a **kernel heap** for trusted runtime state and
//! **shared heaps** for direct inter-process communication (Figure 2 of the
//! paper). This crate implements that heap structure:
//!
//! * a global [`HeapSpace`] whose object slots are handed to heaps in
//!   **pages**, so the *No Heap Pointer* write barrier can recover an
//!   object's heap from its page exactly as in §4.1 of the paper;
//! * the four **write-barrier** implementations measured in the paper
//!   ([`BarrierKind`]): no barrier, heap pointer in the object header
//!   (25 cycles, +4 bytes/object), page lookup (41 cycles), and the fake
//!   heap pointer used to isolate the padding cost;
//! * the cross-heap reference legality matrix of Figure 2, enforced on every
//!   reference store — illegal writes raise *segmentation violations*;
//! * reference-counted **entry items** and per-heap **exit items** (a
//!   distributed-GC technique, §2 "Full reclamation of memory") that let
//!   each heap be collected independently;
//! * per-heap **mark-and-sweep** collection (Kaffe's collector is a simple
//!   non-generational mark-and-sweep) with cycle metering so GC time can be
//!   charged to the process whose heap is collected;
//! * **merge into the kernel heap** on process termination, which destroys
//!   the heap's entry/exit items so user–kernel cycles become ordinary
//!   garbage (§2), and orphan detection for shared heaps.
//!
//! Memory accounting is *complete*: every object, array, string, entry item
//! and exit item is debited from the owning heap's
//! [`kaffeos_memlimit::MemLimitTree`] node and credited back when swept.

mod audit;
mod barrier;
mod dump;
mod error;
pub mod fxhash;
mod gc;
mod heap;
mod layout;
mod object;
mod refs;
mod space;
mod value;

pub use audit::{SpaceAuditReport, SpaceAuditViolation};
pub use dump::HeapRecount;
pub use barrier::{BarrierKind, BarrierStats, SegViolationKind};
pub use error::HeapError;
pub use fxhash::{FxHashMap, FxHasher};
pub use gc::{GcReport, MergeReport};
pub use heap::{HeapKind, HeapSnapshot};
pub use layout::{costs, SizeModel};
pub use object::{ObjData, Object};
pub use refs::{ClassId, HeapId, ObjRef, ProcTag};
pub use space::{AllocFault, HeapSpace, SpaceConfig};
pub use value::Value;

#[cfg(test)]
mod tests;
