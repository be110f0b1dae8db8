//! Byte-size and cycle-cost model.
//!
//! KaffeOS accounts memory in bytes as laid out by the original VM, not as
//! laid out by this Rust reproduction, so that memlimit arithmetic and the
//! padding effect of the *Heap Pointer* barrier (+4 bytes per object, §4.1)
//! match the paper. All sizes follow a JDK-1.1-era 32-bit layout: 8-byte
//! object header, 4-byte fields for `int`/references, 8-byte for
//! `float`/`long` — we charge a uniform 8 bytes per field slot (our `Value`
//! is slot-sized) plus typed array element sizes.

use crate::barrier::BarrierKind;
use crate::object::ObjData;

/// Modelled machine cycle costs (500 MHz Pentium III of §4).
pub mod costs {
    /// Cycles for one *Heap Pointer* barrier hit (hot cache, §4.1).
    pub const BARRIER_HEAP_POINTER: u64 = 25;
    /// Cycles for one *No Heap Pointer* (page-lookup) barrier hit (§4.1).
    pub const BARRIER_NO_HEAP_POINTER: u64 = 41;
    /// Cycles charged per object visited during the mark phase.
    pub const GC_MARK_PER_OBJECT: u64 = 30;
    /// Cycles charged per reference field scanned while tracing.
    pub const GC_TRACE_PER_FIELD: u64 = 4;
    /// Cycles charged per slot examined during the sweep phase.
    pub const GC_SWEEP_PER_SLOT: u64 = 12;
    /// Cycles charged per root processed.
    pub const GC_PER_ROOT: u64 = 8;
    /// Cycles charged per thread-stack slot examined while gathering roots
    /// (the "GC crosstalk" of §2: stacks must be scanned during GC, and a
    /// process with many threads pays to scan them all).
    pub const GC_STACK_SCAN_PER_SLOT: u64 = 2;
    /// Cycles charged per object for a heap merge (page retag + item fixup).
    pub const MERGE_PER_OBJECT: u64 = 6;
    /// Cycles for an allocation fast path (free-list pop + header init).
    pub const ALLOC_BASE: u64 = 40;
    /// Additional cycles per field/element initialised at allocation.
    pub const ALLOC_PER_SLOT: u64 = 2;
    /// The modelled clock: 500 MHz ("Katmai" Pentium III).
    pub const CLOCK_HZ: u64 = 500_000_000;

    /// Convert modelled cycles to modelled seconds.
    pub fn cycles_to_seconds(cycles: u64) -> f64 {
        cycles as f64 / CLOCK_HZ as f64
    }
}

/// Byte-size model for accounted allocations.
#[derive(Debug, Clone, Copy)]
pub struct SizeModel {
    /// Base object header bytes (class word + flags/lock word).
    pub header: u32,
    /// Extra header bytes for the heap-id word (Heap Pointer and Fake Heap
    /// Pointer barrier variants pay 4; the others pay 0).
    pub heap_word: u32,
    /// Bytes per instance field slot.
    pub field: u32,
    /// Bytes per entry item (refcount + back pointer).
    pub entry_item: u32,
    /// Bytes per exit item (remote ref + list linkage).
    pub exit_item: u32,
}

impl SizeModel {
    /// The model used for a given barrier implementation.
    pub fn for_barrier(kind: BarrierKind) -> Self {
        SizeModel {
            header: 8,
            heap_word: if kind.pads_header() { 4 } else { 0 },
            field: 8,
            entry_item: 16,
            exit_item: 16,
        }
    }

    /// Accounted size of an object with the given payload.
    pub fn object_bytes(&self, data: &ObjData) -> u64 {
        let payload = match data {
            ObjData::Fields(fields) => fields.len() as u64 * self.field as u64,
            // Arrays carry a 4-byte length word plus typed elements.
            ObjData::Array {
                elem_bytes, values, ..
            } => 4 + values.len() as u64 * *elem_bytes as u64,
            ObjData::Str { chars, .. } => return self.str_bytes(*chars),
        };
        (self.header + self.heap_word) as u64 + payload
    }

    /// Accounted size of a string of `chars` chars: length word plus
    /// UTF-16-ish 2 bytes/char (JDK 1.1).
    pub fn str_bytes(&self, chars: u32) -> u64 {
        (self.header + self.heap_word) as u64 + 4 + 2 * chars as u64
    }
}
