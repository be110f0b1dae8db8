//! Deterministic heap snapshots: an hprof-style dump walker over the whole
//! [`HeapSpace`].
//!
//! [`HeapSpace::dump_jsonl`] renders the space as hand-rolled JSON-lines —
//! one self-describing record per line — in a fixed walk order (heaps by
//! index, pages by page number, objects by slot index, map entries in
//! `BTreeMap`/sorted order). Because every ingredient is part of the
//! virtual machine state, the dump is a pure function of
//! `(program, seed)`: two runs of the same workload produce byte-identical
//! dumps, so dumps can be diffed, golden-tested, and compared across
//! barrier variants.
//!
//! Record types, in emission order:
//!
//! * `space` — one header line: live heap count, page/slot totals, pool
//!   size, barrier variant.
//! * `heap` — per live heap: identity, accounting totals, sorted page
//!   list, entry/exit item tables.
//! * `page` — per owned page: owner, live count.
//! * `object` — per live object, in slot order: owner heap, class tag,
//!   accounted bytes, payload shape, outgoing references.
//! * `xedge` — per cross-heap reference, classified `may_cross` (into a
//!   live mutable heap) or `shared_frozen` (into a frozen shared heap);
//!   same-heap edges are only counted.
//! * `edges` — one census summary line (`local`/`may_cross`/
//!   `shared_frozen` totals).
//! * `recount` — per live heap: live bytes/objects *recounted by walking
//!   the slots*, so a dump consumer can reconcile the walked truth against
//!   each heap's accounted `bytes_used`/`objects` without trusting either.
//!
//! The dump reads class identity as the VM's numeric tag ([`ClassId`]);
//! callers that know the class table (the kernel) prepend a `classmap`
//! line mapping tags to names.

use kaffeos_trace::push_json_str;

use crate::heap::HeapKind;
use crate::object::ObjData;
use crate::refs::HeapId;
use crate::space::{HeapSpace, PAGE_SHIFT};

fn kind_name(kind: HeapKind) -> &'static str {
    match kind {
        HeapKind::Kernel => "kernel",
        HeapKind::User => "user",
        HeapKind::Shared => "shared",
    }
}

/// Per-heap walked recount: what the slot table actually holds, as opposed
/// to what the heap's accounting says it holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapRecount {
    /// Heap index (`HeapId::index`).
    pub heap: u32,
    /// Sum of live objects' accounted bytes.
    pub live_bytes: u64,
    /// Number of live objects.
    pub live_objects: u64,
}

impl HeapSpace {
    /// Recounts each live heap's bytes/objects by walking the slot table.
    /// Returned in heap-index order. This is the ground truth a dump's
    /// `recount` lines carry; tests reconcile it against `bytes_used` /
    /// `objects` and the memlimit tree.
    pub fn recount_heaps(&self) -> Vec<HeapRecount> {
        let mut counts: Vec<HeapRecount> = self
            .heaps
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive)
            .map(|(i, _)| HeapRecount {
                heap: i as u32,
                ..HeapRecount::default()
            })
            .collect();
        for slot in &self.slots {
            let Some(obj) = slot.obj.as_ref() else {
                continue;
            };
            let hi = obj.heap.index;
            if let Some(rc) = counts.iter_mut().find(|rc| rc.heap == hi) {
                rc.live_bytes += obj.bytes as u64;
                rc.live_objects += 1;
            }
        }
        counts
    }

    /// Renders the whole space as deterministic JSON-lines (see the module
    /// docs for the record grammar). Pure function of the virtual state:
    /// byte-identical across runs of the same `(program, seed)`.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        let live_heaps = self.heaps.iter().filter(|c| c.alive).count();
        out.push_str(&format!(
            "{{\"type\":\"space\",\"heaps\":{},\"pages\":{},\"pool_pages\":{},\"slots\":{},\"barrier\":",
            live_heaps,
            self.page_table.len(),
            self.free_pages.len(),
            self.slots.len(),
        ));
        push_json_str(&mut out, &format!("{:?}", self.barrier_kind()));
        out.push_str("}\n");

        // Heaps, by index.
        for (i, core) in self.heaps.iter().enumerate() {
            if !core.alive {
                continue;
            }
            out.push_str(&format!("{{\"type\":\"heap\",\"heap\":{i},\"label\":"));
            push_json_str(&mut out, &core.label);
            out.push_str(&format!(
                ",\"kind\":\"{}\",\"owner\":{},\"bytes_used\":{},\"objects\":{},\"frozen\":{},\"gc_count\":{}",
                kind_name(core.kind),
                core.owner.0,
                core.bytes_used,
                core.objects,
                core.frozen,
                core.gc_count,
            ));
            let mut pages = core.pages.clone();
            pages.sort_unstable();
            out.push_str(",\"pages\":[");
            for (n, p) in pages.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                out.push_str(&p.to_string());
            }
            out.push(']');
            out.push_str(",\"entries\":[");
            for (n, (slot, e)) in core.entries.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"slot\":{},\"refs\":{}}}", slot, e.refs));
            }
            out.push(']');
            out.push_str(",\"exits\":[");
            for (n, (target, _)) in core.exits.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"slot\":{},\"gen\":{}}}",
                    target.index, target.generation
                ));
            }
            out.push_str("]}\n");
        }

        // Owned pages, by page number.
        for (page, meta) in self.page_table.iter().enumerate() {
            let Some(owner) = meta.owner else { continue };
            out.push_str(&format!(
                "{{\"type\":\"page\",\"page\":{},\"heap\":{},\"live\":{}}}\n",
                page, owner.index, meta.live,
            ));
        }

        // Objects in slot order, with outgoing references; cross-heap edges
        // classified against the *destination* heap's kind/frozen state —
        // the same classification the live census applies at store time.
        let mut local = 0u64;
        let mut may_cross = 0u64;
        let mut shared_frozen = 0u64;
        let mut xedges = String::new();
        for (index, slot) in self.slots.iter().enumerate() {
            let Some(obj) = slot.obj.as_ref() else {
                continue;
            };
            out.push_str(&format!(
                "{{\"type\":\"object\",\"slot\":{},\"gen\":{},\"heap\":{},\"class\":{},\"bytes\":{},\"frozen\":{},\"shape\":\"{}\",\"len\":{}",
                index,
                slot.generation,
                obj.heap.index,
                obj.class.0,
                obj.bytes,
                obj.frozen,
                match &obj.data {
                    ObjData::Fields(_) => "fields",
                    ObjData::Refs { .. }
                    | ObjData::Ints { .. }
                    | ObjData::Floats { .. }
                    | ObjData::Zeros { .. } => "array",
                    ObjData::Str { .. } => "str",
                },
                obj.data.len(),
            ));
            out.push_str(",\"refs\":[");
            for (n, target) in obj.references().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                out.push_str(&target.index.to_string());
                let dst_heap = self.page_table[(target.index >> PAGE_SHIFT) as usize]
                    .owner
                    .unwrap_or(HeapId {
                        index: u32::MAX,
                        generation: 0,
                    });
                if dst_heap.index == obj.heap.index {
                    local += 1;
                } else {
                    let class = self
                        .heaps
                        .get(dst_heap.index as usize)
                        .filter(|c| c.kind == HeapKind::Shared && c.frozen)
                        .map(|_| "shared_frozen")
                        .unwrap_or("may_cross");
                    if class == "shared_frozen" {
                        shared_frozen += 1;
                    } else {
                        may_cross += 1;
                    }
                    xedges.push_str(&format!(
                        "{{\"type\":\"xedge\",\"src\":{},\"dst\":{},\"src_heap\":{},\"dst_heap\":{},\"class\":\"{}\"}}\n",
                        index, target.index, obj.heap.index, dst_heap.index, class,
                    ));
                }
            }
            out.push_str("]}\n");
        }
        out.push_str(&xedges);
        out.push_str(&format!(
            "{{\"type\":\"edges\",\"local\":{local},\"may_cross\":{may_cross},\"shared_frozen\":{shared_frozen}}}\n"
        ));

        // Walked recounts, last, so consumers can reconcile in one pass.
        for rc in self.recount_heaps() {
            out.push_str(&format!(
                "{{\"type\":\"recount\",\"heap\":{},\"live_bytes\":{},\"live_objects\":{}}}\n",
                rc.heap, rc.live_bytes, rc.live_objects,
            ));
        }
        out
    }
}
