//! Heap observability plane: allocation-site profiling, survival stats,
//! and the GC/page timeline.
//!
//! The store is the `heap` [`Plane`](crate::Plane) of [`Obs`](crate::Obs):
//! off, it costs one `Option` test per recording point, and on, it has no
//! cycle model, so virtual numbers are byte-identical either way. Because
//! the whole system is deterministic given (program, seed), every export is
//! byte-identical across runs.
//!
//! It records four things:
//!
//! * **Allocation sites** — the interpreter *arms* a one-shot site
//!   (raw method index + pc, resolved lazily to `Class.method@bN` exactly
//!   like the CPU profiler's leaves) immediately before each allocation;
//!   [`HeapProfStore::record_alloc`] consumes it and attributes the object
//!   to a `(pid, leaf, class)` site. Unarmed allocations (kernel-internal,
//!   exception materialisation) fall to the `[vm]` pseudo-frame.
//! * **Survival accounting** — sweeps report each freed slot, so every
//!   site accumulates allocated / died / still-live tallies.
//! * **GC/page timeline** — typed events for page claim/release/retag,
//!   per-collection records, and occupancy samples, exported as JSON lines
//!   in event order. GC pause cycles feed per-heap [`LogHistogram`]s.
//! * **Cross-heap edge census** — the interpreter arms the store site
//!   before every guest reference store; edge creation in
//!   `ensure_cross_edge` charges the armed site's census row. A store the
//!   analyzer proved `Local → Local` can never create an edge, so every
//!   census row must land on a non-`Elide` verdict — the cross-validation
//!   the soundness test enforces.
//!
//! All rendered output iterates `BTreeMap`s or sorts first; class ids are
//! resolved to names only at export time through a caller-supplied closure,
//! keeping this crate decoupled from the VM's class table.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::hist::LogHistogram;
use crate::profile::{render_svg, FlameNode, PC_BUCKET};

/// Pseudo-frame for allocations with no armed guest site (kernel-internal
/// allocations, exception materialisation, harness setup).
pub const VM_FRAME: &str = "[vm]";

/// A page-lifecycle transition in the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEvent {
    /// A heap claimed the page (fresh or from the free-page pool).
    Claim,
    /// The page was returned to the free-page pool.
    Release,
    /// The page was retagged to another heap (merge into the kernel).
    Retag,
}

impl PageEvent {
    fn label(self) -> &'static str {
        match self {
            PageEvent::Claim => "claim",
            PageEvent::Release => "release",
            PageEvent::Retag => "retag",
        }
    }
}

/// Per-site survival tallies. `allocs - freed` objects are still live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Objects allocated at this site.
    pub allocs: u64,
    /// Accounted bytes allocated at this site.
    pub bytes: u64,
    /// Objects freed by collections.
    pub freed: u64,
    /// Bytes freed by collections.
    pub freed_bytes: u64,
}

/// One live object's attribution record, keyed by slot index.
#[derive(Debug, Clone, Copy)]
struct LiveRec {
    /// `(pid, leaf frame id, class tag)` — the site key.
    site: (u32, u32, u32),
    bytes: u32,
}

/// Cross-heap edge creations charged to one store site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CensusCounts {
    /// Edges into an unfrozen user/shared heap (MayCross).
    pub may_cross: u64,
    /// Edges into a frozen shared heap (SharedFrozen).
    pub shared_frozen: u64,
}

/// A runtime cross-heap edge census row: the raw store site and its counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CensusSite {
    /// Raw method index of the store, or `u32::MAX` for unattributed
    /// (kernel/trusted) stores.
    pub method: u32,
    /// Instruction index of the store within the method.
    pub pc: u32,
    /// Edge counts.
    pub counts: CensusCounts,
}

/// Timeline entries, recorded in event order (which is deterministic:
/// the plane is driven entirely by the deterministic virtual machine).
#[derive(Debug, Clone, Copy)]
enum TimelineEvent {
    Page {
        clock: u64,
        pid: u32,
        kind: PageEvent,
        page: u32,
        heap: u32,
    },
    Gc {
        clock: u64,
        pid: u32,
        heap: u32,
        freed_bytes: u64,
        freed_objects: u64,
        cycles: u64,
    },
    Occupancy {
        clock: u64,
        heap: u32,
        pages: u32,
        pool_pages: u32,
        live_bytes: u64,
        live_objects: u64,
    },
}

/// The heap-profile store: interned allocation-site frames, the live-object
/// table, per-site survival stats, the GC/page timeline, per-heap pause
/// histograms, and the cross-heap edge census.
#[derive(Debug, Default)]
pub struct HeapProfStore {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
    leaf_frames: HashMap<(u32, u32), u32>,
    labels: BTreeMap<u32, String>,
    ctx_pid: u32,
    clock: u64,
    armed_alloc: Option<u32>,
    armed_store: Option<(u32, u32)>,
    live: HashMap<u32, LiveRec>,
    sites: BTreeMap<(u32, u32, u32), SiteStats>,
    /// Class tags seen at allocation sites (export resolves them to names).
    classes: BTreeMap<u32, ()>,
    timeline: Vec<TimelineEvent>,
    gc_pause: BTreeMap<u32, LogHistogram>,
    census: BTreeMap<(u32, u32), CensusCounts>,
}

impl HeapProfStore {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Labels `pid` (typically with its image name) for rendered output.
    pub fn set_label(&mut self, pid: u32, label: &str) {
        self.labels.insert(pid, label.to_string());
    }

    /// Stamps the pid/virtual-clock context applied to subsequent records
    /// (the kernel stamps at quantum starts and kernel crossings, the same
    /// convention the trace plane uses).
    pub fn set_context(&mut self, pid: u32, clock: u64) {
        self.ctx_pid = pid;
        self.clock = clock;
    }

    /// Arms the allocation site for the next [`record_alloc`]: raw method
    /// index and pc, with `resolve` supplying the qualified `Class.method`
    /// name on first sight only (the CPU profiler's leaf discipline,
    /// `Class.method@bN` with the same [`PC_BUCKET`]).
    ///
    /// [`record_alloc`]: HeapProfStore::record_alloc
    pub fn arm_alloc(&mut self, raw_method: u32, pc: u32, resolve: impl FnOnce() -> String) {
        let bucket = pc / PC_BUCKET;
        let id = if let Some(&id) = self.leaf_frames.get(&(raw_method, bucket)) {
            id
        } else {
            let base = resolve();
            let id = self.intern(&format!("{base}@b{bucket}"));
            self.leaf_frames.insert((raw_method, bucket), id);
            id
        };
        self.armed_alloc = Some(id);
    }

    /// Records a successful allocation of `bytes` bytes of class `class`
    /// into slot `slot`, consuming the armed site (or `[vm]` if none).
    pub fn record_alloc(&mut self, slot: u32, class: u32, bytes: u32) {
        let leaf = match self.armed_alloc.take() {
            Some(id) => id,
            None => self.intern(VM_FRAME),
        };
        let site = (self.ctx_pid, leaf, class);
        self.classes.entry(class).or_default();
        let stats = self.sites.entry(site).or_default();
        stats.allocs += 1;
        stats.bytes += bytes as u64;
        self.live.insert(slot, LiveRec { site, bytes });
    }

    /// Records that the object in `slot` was freed by a sweep.
    pub fn record_free(&mut self, slot: u32) {
        let Some(rec) = self.live.remove(&slot) else {
            return;
        };
        let stats = self.sites.entry(rec.site).or_default();
        stats.freed += 1;
        stats.freed_bytes += rec.bytes as u64;
    }

    /// Arms the store site for a potential cross-heap edge creation.
    pub fn arm_store(&mut self, raw_method: u32, pc: u32) {
        self.armed_store = Some((raw_method, pc));
    }

    /// Disarms any armed store site (called when the store completes, so a
    /// later unattributed store cannot inherit a stale guest site).
    pub fn clear_store(&mut self) {
        self.armed_store = None;
    }

    /// Records the creation of a cross-heap edge against the armed store
    /// site (or the `u32::MAX` sentinel for kernel/trusted stores that
    /// never arm). `shared_frozen` classifies the destination.
    pub fn record_cross_edge(&mut self, shared_frozen: bool) {
        let site = self.armed_store.take().unwrap_or((u32::MAX, 0));
        let counts = self.census.entry(site).or_default();
        if shared_frozen {
            counts.shared_frozen += 1;
        } else {
            counts.may_cross += 1;
        }
    }

    /// Records a page-lifecycle event.
    pub fn record_page_event(&mut self, kind: PageEvent, page: u32, heap: u32) {
        self.timeline.push(TimelineEvent::Page {
            clock: self.clock,
            pid: self.ctx_pid,
            kind,
            page,
            heap,
        });
    }

    /// Records one collection: a timeline entry plus the pause histogram
    /// sample.
    pub fn record_gc(&mut self, heap: u32, freed_bytes: u64, freed_objects: u64, cycles: u64) {
        self.timeline.push(TimelineEvent::Gc {
            clock: self.clock,
            pid: self.ctx_pid,
            heap,
            freed_bytes,
            freed_objects,
            cycles,
        });
        self.gc_pause.entry(heap).or_default().record(cycles);
    }

    /// Records an occupancy sample for one heap.
    pub fn record_occupancy(
        &mut self,
        heap: u32,
        pages: u32,
        pool_pages: u32,
        live_bytes: u64,
        live_objects: u64,
    ) {
        self.timeline.push(TimelineEvent::Occupancy {
            clock: self.clock,
            heap,
            pages,
            pool_pages,
            live_bytes,
            live_objects,
        });
    }

    fn pid_prefix(&self, pid: u32) -> String {
        match self.labels.get(&pid) {
            Some(label) => format!("pid{pid}:{label}"),
            None => format!("pid{pid}"),
        }
    }

    fn folded_by(&self, resolve_class: &dyn Fn(u32) -> String, by_bytes: bool) -> String {
        let mut lines: Vec<String> = Vec::with_capacity(self.sites.len());
        for (&(pid, leaf, class), stats) in &self.sites {
            let weight = if by_bytes { stats.bytes } else { stats.allocs };
            if weight == 0 {
                continue;
            }
            let mut line = self.pid_prefix(pid);
            line.push(';');
            line.push_str(&self.names[leaf as usize]);
            line.push(';');
            line.push_str(&resolve_class(class));
            let _ = write!(line, " {weight}");
            lines.push(line);
        }
        lines.sort_unstable();
        let mut out = String::new();
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Folded allocation stacks weighted by accounted **bytes**
    /// (`pid;site;class bytes`), sorted — feedable to `flamegraph.pl`.
    pub fn folded_bytes(&self, resolve_class: &dyn Fn(u32) -> String) -> String {
        self.folded_by(resolve_class, true)
    }

    /// Folded allocation stacks weighted by **object counts**.
    pub fn folded_objects(&self, resolve_class: &dyn Fn(u32) -> String) -> String {
        self.folded_by(resolve_class, false)
    }

    /// Self-contained SVG allocation flamegraph (bytes-weighted), using the
    /// CPU profiler's deterministic renderer.
    pub fn flamegraph_svg(&self, resolve_class: &dyn Fn(u32) -> String) -> String {
        let mut root = FlameNode::new("alloc");
        for (&(pid, leaf, class), stats) in &self.sites {
            if stats.bytes == 0 {
                continue;
            }
            root.total += stats.bytes;
            let mut node = root
                .children
                .entry(self.pid_prefix(pid))
                .or_insert_with_key(|k| FlameNode::new(k));
            node.total += stats.bytes;
            node = node
                .children
                .entry(self.names[leaf as usize].clone())
                .or_insert_with_key(|k| FlameNode::new(k));
            node.total += stats.bytes;
            node = node
                .children
                .entry(resolve_class(class))
                .or_insert_with_key(|k| FlameNode::new(k));
            node.total += stats.bytes;
            node.self_weight += stats.bytes;
        }
        render_svg(&root)
    }

    /// Per-site survival table: one sorted line per site with allocation,
    /// died and still-live tallies.
    pub fn survival_text(&self, resolve_class: &dyn Fn(u32) -> String) -> String {
        let mut out = String::from("# site survival: allocs bytes died live\n");
        for (&(pid, leaf, class), s) in &self.sites {
            let _ = writeln!(
                out,
                "{};{};{} allocs={} bytes={} died={} died_bytes={} live={}",
                self.pid_prefix(pid),
                self.names[leaf as usize],
                resolve_class(class),
                s.allocs,
                s.bytes,
                s.freed,
                s.freed_bytes,
                s.allocs - s.freed,
            );
        }
        out
    }

    /// The GC/page timeline as JSON lines, in event order.
    pub fn timeline_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.timeline {
            match *ev {
                TimelineEvent::Page {
                    clock,
                    pid,
                    kind,
                    page,
                    heap,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"page\",\"clock\":{clock},\"pid\":{pid},\
                         \"event\":\"{}\",\"page\":{page},\"heap\":{heap}}}",
                        kind.label()
                    );
                }
                TimelineEvent::Gc {
                    clock,
                    pid,
                    heap,
                    freed_bytes,
                    freed_objects,
                    cycles,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"gc\",\"clock\":{clock},\"pid\":{pid},\
                         \"heap\":{heap},\"freed_bytes\":{freed_bytes},\
                         \"freed_objects\":{freed_objects},\"cycles\":{cycles}}}"
                    );
                }
                TimelineEvent::Occupancy {
                    clock,
                    heap,
                    pages,
                    pool_pages,
                    live_bytes,
                    live_objects,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"occupancy\",\"clock\":{clock},\"heap\":{heap},\
                         \"pages\":{pages},\"pool_pages\":{pool_pages},\"live_bytes\":{live_bytes},\
                         \"live_objects\":{live_objects}}}"
                    );
                }
            }
        }
        out
    }

    /// Per-heap pause-attribution report: GC pause cycles as
    /// [`LogHistogram`]s.
    pub fn heap_hists_text(&self) -> String {
        let mut out = String::new();
        for (heap, h) in &self.gc_pause {
            let _ = writeln!(out, "# full gc pause cycles, heap {heap}");
            h.render(&mut out);
        }
        out
    }

    /// The cross-heap edge census rows, sorted by (method, pc).
    pub fn census(&self) -> Vec<CensusSite> {
        self.census
            .iter()
            .map(|(&(method, pc), &counts)| CensusSite { method, pc, counts })
            .collect()
    }

    /// Survival stats for every site, keyed `(pid, leaf name, class tag)`.
    pub fn site_stats(&self) -> Vec<((u32, String, u32), SiteStats)> {
        self.sites
            .iter()
            .map(|(&(pid, leaf, class), &s)| ((pid, self.names[leaf as usize].clone(), class), s))
            .collect()
    }

    /// Class tags observed at allocation sites (for export-time resolution).
    pub fn class_tags(&self) -> Vec<u32> {
        self.classes.keys().copied().collect()
    }

    /// Number of timeline events recorded so far.
    pub fn timeline_len(&self) -> usize {
        self.timeline.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(tag: u32) -> String {
        format!("Class{tag}")
    }

    #[test]
    fn alloc_sites_fold_by_bytes_and_counts() {
        let mut p = HeapProfStore::default();
        p.set_label(1, "compress");
        p.set_context(1, 100);
        p.arm_alloc(7, 10, || "Lzw.step".to_string());
        p.record_alloc(0, 3, 64);
        p.arm_alloc(7, 12, || panic!("resolve must be cached per bucket"));
        p.record_alloc(1, 3, 32);
        p.record_alloc(2, 5, 16); // unarmed → [vm]
        let bytes = p.folded_bytes(&resolve);
        assert_eq!(
            bytes,
            "pid1:compress;Lzw.step@b0;Class3 96\npid1:compress;[vm];Class5 16\n"
        );
        let objects = p.folded_objects(&resolve);
        assert_eq!(
            objects,
            "pid1:compress;Lzw.step@b0;Class3 2\npid1:compress;[vm];Class5 1\n"
        );
    }

    #[test]
    fn survival_tracks_frees() {
        let mut p = HeapProfStore::default();
        p.set_context(2, 0);
        p.arm_alloc(1, 0, || "A.m".to_string());
        p.record_alloc(10, 1, 8);
        p.arm_alloc(1, 0, || unreachable!());
        p.record_alloc(11, 1, 8);
        p.arm_alloc(1, 0, || unreachable!());
        p.record_alloc(12, 1, 8);
        p.record_free(10);
        p.record_free(11);
        p.record_free(11); // already freed: ignored
        let stats = p.site_stats();
        assert_eq!(stats.len(), 1);
        let s = stats[0].1;
        assert_eq!(s.allocs, 3);
        assert_eq!(s.freed, 2);
        assert_eq!(s.freed_bytes, 16);
        let text = p.survival_text(&resolve);
        assert_eq!(
            text,
            "# site survival: allocs bytes died live\n\
             pid2;A.m@b0;Class1 allocs=3 bytes=24 died=2 died_bytes=16 live=1\n"
        );
    }

    #[test]
    fn census_attributes_armed_sites_and_sentinels() {
        let mut p = HeapProfStore::default();
        p.arm_store(4, 9);
        p.record_cross_edge(false);
        p.record_cross_edge(true); // unattributed: armed site was consumed
        let rows = p.census();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].method, 4);
        assert_eq!(rows[0].pc, 9);
        assert_eq!(rows[0].counts.may_cross, 1);
        assert_eq!(rows[1].method, u32::MAX);
        assert_eq!(rows[1].counts.shared_frozen, 1);
    }

    #[test]
    fn clear_store_prevents_stale_attribution() {
        let mut p = HeapProfStore::default();
        p.arm_store(4, 9);
        p.clear_store();
        p.record_cross_edge(false);
        let rows = p.census();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].method, u32::MAX);
    }

    #[test]
    fn timeline_renders_events_in_order() {
        let mut p = HeapProfStore::default();
        p.set_context(3, 500);
        p.record_page_event(PageEvent::Claim, 2, 1);
        p.record_gc(1, 256, 8, 9000);
        p.record_occupancy(1, 5, 1, 4096, 60);
        let text = p.timeline_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"claim\""), "{text}");
        assert_eq!(
            lines[1],
            "{\"type\":\"gc\",\"clock\":500,\"pid\":3,\"heap\":1,\"freed_bytes\":256,\
             \"freed_objects\":8,\"cycles\":9000}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"occupancy\",\"clock\":500,\"heap\":1,\"pages\":5,\"pool_pages\":1,\
             \"live_bytes\":4096,\"live_objects\":60}"
        );
        let hists = p.heap_hists_text();
        assert!(hists.starts_with("# full gc pause cycles, heap 1\n"), "{hists}");
    }

    #[test]
    fn svg_export_is_wellformed() {
        let mut p = HeapProfStore::default();
        p.set_context(1, 0);
        p.arm_alloc(0, 0, || "Main.run".to_string());
        p.record_alloc(0, 2, 100);
        let svg = p.flamegraph_svg(&resolve);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("Main.run@b0"));
    }
}
