//! Deterministic virtual-time sampling profiler.
//!
//! Classical sampling profilers interrupt on wall-clock timers, so two runs
//! of the same program produce different profiles. KaffeOS has no wall
//! clock: every cost is modelled in virtual cycles, and every scheduling
//! decision is deterministic. Sampling at *virtual-time edges* — quantum
//! boundaries and kernel crossings — therefore yields a profile that is a
//! pure function of (program, seed): byte-identical across runs, diffable
//! in CI like a golden trace.
//!
//! A sample is a weighted stack: the frames of the current thread (interned
//! method names, the leaf refined by a program-counter bucket) plus a
//! weight — the virtual cycles consumed since the previous sample. Because
//! weights are *measured* cycles rather than counted ticks, the per-pid
//! sums reconcile exactly with the kernel's CPU accounting (`cpu.exec`,
//! `cpu.gc`, `cpu.kernel`), which the reconciliation test locks down.
//!
//! Alongside stacks the store keeps log₂ [`LogHistogram`]s for GC pause
//! cycles per heap, syscall latency per syscall name, and quantum jitter
//! (granted vs. consumed slice). Exporters: Brendan-Gregg folded-stack
//! text ([`ProfileStore::folded`], feedable to `flamegraph.pl`), a
//! self-contained SVG flamegraph ([`ProfileStore::flamegraph_svg`]), the
//! histogram report, and per-pid summaries served through the `proc.*`
//! syscalls.
//!
//! The store is the `profile` [`Plane`](crate::Plane) of [`Obs`](crate::Obs)
//! and shares its on/off contract.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::hist::LogHistogram;

/// Program-counter bucket width: leaves are attributed to `pc / 64`, coarse
/// enough to keep stack cardinality bounded, fine enough to split phases of
/// a long method.
pub const PC_BUCKET: u32 = 64;

/// Which accounting pool a sample's weight belongs to. Mirrors the kernel's
/// per-process CPU split so profiler totals reconcile with `cpu()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Mutator cycles (quantum cycles minus the GC share).
    Exec,
    /// Collection cycles billed to the process.
    Gc,
    /// Kernel-mode cycles (syscall base cost).
    Kernel,
}

/// Per-pid sample totals, split by [`SampleKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PidTotals {
    /// Mutator cycles sampled.
    pub exec: u64,
    /// GC cycles sampled.
    pub gc: u64,
    /// Kernel cycles sampled.
    pub kernel: u64,
    /// Number of samples recorded.
    pub samples: u64,
}

impl PidTotals {
    /// Sum across the three pools.
    pub fn total(&self) -> u64 {
        self.exec + self.gc + self.kernel
    }
}

/// The profile store: interned frame names, weighted stacks, per-pid
/// totals, and the latency histograms. All rendered output iterates
/// `BTreeMap`s (or sorts first), so equal stores render byte-identically.
#[derive(Debug, Default)]
pub struct ProfileStore {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
    method_frames: HashMap<u32, u32>,
    leaf_frames: HashMap<(u32, u32), u32>,
    stacks: BTreeMap<(u32, Vec<u32>), u64>,
    totals: BTreeMap<u32, PidTotals>,
    labels: BTreeMap<u32, String>,
    gc_pause: BTreeMap<u32, LogHistogram>,
    syscall_latency: BTreeMap<&'static str, LogHistogram>,
    quantum_jitter: LogHistogram,
}

impl ProfileStore {
    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Frame id for a raw method index; `resolve` supplies the qualified
    /// `Class.method` name on first sight only.
    pub fn method_frame(&mut self, raw_method: u32, resolve: impl FnOnce() -> String) -> u32 {
        if let Some(&id) = self.method_frames.get(&raw_method) {
            return id;
        }
        let id = self.intern(&resolve());
        self.method_frames.insert(raw_method, id);
        id
    }

    /// Leaf frame id for a raw method index at `pc`: the qualified name
    /// refined with the pc bucket, rendered `Class.method@bN`.
    pub fn leaf_frame(&mut self, raw_method: u32, pc: u32, resolve: impl FnOnce() -> String) -> u32 {
        let bucket = pc / PC_BUCKET;
        if let Some(&id) = self.leaf_frames.get(&(raw_method, bucket)) {
            return id;
        }
        let base = self.method_frame(raw_method, resolve);
        let name = format!("{}@b{bucket}", self.names[base as usize]);
        let id = self.intern(&name);
        self.leaf_frames.insert((raw_method, bucket), id);
        id
    }

    /// Labels `pid` (typically with its image name) for rendered output.
    pub fn set_label(&mut self, pid: u32, label: &str) {
        self.labels.insert(pid, label.to_string());
    }

    /// Records one weighted stack sample. Zero-weight samples are dropped —
    /// they carry no time and would only bloat the stack set.
    pub fn add_sample(&mut self, pid: u32, frames: Vec<u32>, weight: u64, kind: SampleKind) {
        if weight == 0 {
            return;
        }
        let t = self.totals.entry(pid).or_default();
        match kind {
            SampleKind::Exec => t.exec += weight,
            SampleKind::Gc => t.gc += weight,
            SampleKind::Kernel => t.kernel += weight,
        }
        t.samples += 1;
        *self.stacks.entry((pid, frames)).or_insert(0) += weight;
    }

    /// Records a GC pause (cycles) against `heap`'s histogram.
    pub fn record_gc_pause(&mut self, heap: u32, cycles: u64) {
        self.gc_pause.entry(heap).or_default().record(cycles);
    }

    /// Records a syscall's modelled latency (cycles) against its name.
    pub fn record_syscall_latency(&mut self, name: &'static str, cycles: u64) {
        self.syscall_latency.entry(name).or_default().record(cycles);
    }

    /// Records quantum jitter: |granted slice − consumed cycles|.
    pub fn record_quantum_jitter(&mut self, jitter: u64) {
        self.quantum_jitter.record(jitter);
    }

    fn pid_prefix(&self, pid: u32) -> String {
        match self.labels.get(&pid) {
            Some(label) => format!("pid{pid}:{label}"),
            None => format!("pid{pid}"),
        }
    }

    /// Renders the Brendan-Gregg folded-stack format: one
    /// `root;frame;...;leaf weight` line per distinct stack, sorted, with
    /// the pid (and its image label) as the root frame.
    pub fn folded(&self) -> String {
        let mut lines: Vec<String> = Vec::with_capacity(self.stacks.len());
        for ((pid, frames), weight) in &self.stacks {
            let mut line = self.pid_prefix(*pid);
            for &id in frames {
                line.push(';');
                line.push_str(&self.names[id as usize]);
            }
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

    /// Renders every histogram family as deterministic text.
    pub fn histograms_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# quantum jitter (|granted - consumed| cycles)\n");
        self.quantum_jitter.render(&mut out);
        for (heap, h) in &self.gc_pause {
            let _ = writeln!(out, "# gc pause cycles, heap {heap}");
            h.render(&mut out);
        }
        for (name, h) in &self.syscall_latency {
            let _ = writeln!(out, "# syscall latency cycles, {name}");
            h.render(&mut out);
        }
        out
    }

    /// Top `n` leaf frames for `pid` by sampled weight (ties broken by
    /// name), as `(name, weight)` pairs.
    pub fn top_leaves(&self, pid: u32, n: usize) -> Vec<(String, u64)> {
        let mut by_leaf: BTreeMap<u32, u64> = BTreeMap::new();
        for ((p, frames), weight) in &self.stacks {
            if *p != pid {
                continue;
            }
            if let Some(&leaf) = frames.last() {
                *by_leaf.entry(leaf).or_insert(0) += weight;
            }
        }
        let mut ranked: Vec<(String, u64)> = by_leaf
            .into_iter()
            .map(|(id, w)| (self.names[id as usize].clone(), w))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }

    /// A human-readable per-pid summary (served by `proc.profile`).
    pub fn summary(&self, pid: u32) -> String {
        let t = self.totals.get(&pid).copied().unwrap_or_default();
        let mut out = format!(
            "{}: samples={} exec={} gc={} kernel={} total={}\n",
            self.pid_prefix(pid),
            t.samples,
            t.exec,
            t.gc,
            t.kernel,
            t.total()
        );
        for (rank, (name, weight)) in self.top_leaves(pid, 5).into_iter().enumerate() {
            let _ = writeln!(out, "  {}. {name} {weight}", rank + 1);
        }
        out
    }

    /// The per-pid totals.
    pub fn totals(&self) -> &BTreeMap<u32, PidTotals> {
        &self.totals
    }

    /// Renders a self-contained SVG flamegraph (icicle layout: root on top,
    /// leaves below, width proportional to sampled cycles). Colors are a
    /// pure hash of the frame name, so the image is deterministic.
    pub fn flamegraph_svg(&self) -> String {
        let root = self.build_tree();
        render_svg(&root)
    }

    fn build_tree(&self) -> FlameNode {
        let mut root = FlameNode::new("all");
        for ((pid, frames), weight) in &self.stacks {
            root.total += weight;
            let mut node = root
                .children
                .entry(self.pid_prefix(*pid))
                .or_insert_with_key(|k| FlameNode::new(k));
            node.total += weight;
            for &id in frames {
                node = node
                    .children
                    .entry(self.names[id as usize].clone())
                    .or_insert_with_key(|k| FlameNode::new(k));
                node.total += weight;
            }
            node.self_weight += weight;
        }
        root
    }
}

pub(crate) struct FlameNode {
    pub(crate) name: String,
    pub(crate) total: u64,
    pub(crate) self_weight: u64,
    pub(crate) children: BTreeMap<String, FlameNode>,
}

impl FlameNode {
    pub(crate) fn new(name: &str) -> Self {
        FlameNode {
            name: name.to_string(),
            total: 0,
            self_weight: 0,
            children: BTreeMap::new(),
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(FlameNode::depth).max().unwrap_or(0)
    }
}

/// Escapes `s` for XML text/attribute context.
fn push_xml(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

/// FNV-1a hash of the frame name, used to pick a deterministic warm color.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn color(name: &str) -> (u8, u8, u8) {
    let h = fnv1a(name);
    let r = 205 + (h % 50) as u8;
    let g = ((h >> 8) % 180) as u8;
    let b = ((h >> 16) % 55) as u8;
    (r, g, b)
}

const SVG_WIDTH: f64 = 1200.0;
const ROW_HEIGHT: f64 = 16.0;
/// Rectangles narrower than this are dropped (with their subtrees): they
/// would be invisible and only bloat the file. The cut is a pure function
/// of the weights, so output stays deterministic.
const MIN_WIDTH: f64 = 0.3;

pub(crate) fn render_svg(root: &FlameNode) -> String {
    let depth = root.depth();
    let height = (depth as f64 + 1.0) * ROW_HEIGHT + 24.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {SVG_WIDTH} {height}\" font-family=\"monospace\" font-size=\"11\">"
    );
    out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"#f8f8f8\"/>\n");
    let _ = writeln!(
        out,
        "<text x=\"4\" y=\"14\">KaffeOS virtual-time flamegraph — {} cycles sampled</text>",
        root.total
    );
    if root.total > 0 {
        render_node(&mut out, root, 0.0, SVG_WIDTH, 24.0, root.total);
    }
    out.push_str("</svg>\n");
    out
}

fn render_node(out: &mut String, node: &FlameNode, x: f64, width: f64, y: f64, grand_total: u64) {
    if width < MIN_WIDTH {
        return;
    }
    let pct = 100.0 * node.total as f64 / grand_total as f64;
    let (r, g, b) = color(&node.name);
    out.push_str("<g><title>");
    push_xml(out, &node.name);
    let _ = write!(out, " ({} cycles, {:.2}%)</title>", node.total, pct);
    let _ = write!(
        out,
        "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{width:.2}\" height=\"{:.2}\" \
         fill=\"rgb({r},{g},{b})\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
        ROW_HEIGHT
    );
    // Only label rects wide enough to fit a few characters.
    if width >= 40.0 {
        let max_chars = ((width - 6.0) / 6.6) as usize;
        let label: String = node.name.chars().take(max_chars).collect();
        let _ = write!(out, "<text x=\"{:.2}\" y=\"{:.2}\">", x + 3.0, y + 12.0);
        push_xml(out, &label);
        out.push_str("</text>");
    }
    out.push_str("</g>\n");
    let mut child_x = x;
    for child in node.children.values() {
        let child_width = width * child.total as f64 / node.total as f64;
        render_node(out, child, child_x, child_width, y + ROW_HEIGHT, grand_total);
        child_x += child_width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ProfileStore {
        let mut p = ProfileStore::default();
        p.set_label(1, "compress");
        let main = p.method_frame(0, || "Main.main".to_string());
        let leaf_a = p.leaf_frame(7, 10, || "Lzw.step".to_string());
        let leaf_b = p.leaf_frame(7, 200, || "Lzw.step".to_string());
        p.add_sample(1, vec![main, leaf_a], 1000, SampleKind::Exec);
        p.add_sample(1, vec![main, leaf_b], 500, SampleKind::Exec);
        p.add_sample(1, vec![main, leaf_a], 250, SampleKind::Gc);
        p
    }

    #[test]
    fn folded_output_is_sorted_and_weighted() {
        let p = sample_store();
        let text = p.folded();
        assert_eq!(
            text,
            "pid1:compress;Main.main;Lzw.step@b0 1250\n\
             pid1:compress;Main.main;Lzw.step@b3 500\n"
        );
    }

    #[test]
    fn zero_weight_samples_are_dropped() {
        let mut p = ProfileStore::default();
        let f = p.intern("(no stack)");
        p.add_sample(2, vec![f], 0, SampleKind::Exec);
        assert!(p.folded().is_empty());
        assert!(p.totals().is_empty());
    }

    #[test]
    fn totals_split_by_kind_and_reconcile() {
        let p = sample_store();
        let t = p.totals()[&1];
        assert_eq!(t.exec, 1500);
        assert_eq!(t.gc, 250);
        assert_eq!(t.kernel, 0);
        assert_eq!(t.samples, 3);
        assert_eq!(t.total(), 1750);
    }

    #[test]
    fn summary_names_the_pid_and_ranks_leaves() {
        let p = sample_store();
        let s = p.summary(1);
        assert!(s.starts_with("pid1:compress: samples=3"), "{s}");
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains("1. Lzw.step@b0 1250"), "{s}");
        assert!(lines[2].contains("2. Lzw.step@b3 500"), "{s}");
    }

    #[test]
    fn svg_is_wellformed_and_escapes_names() {
        let mut p = sample_store();
        let odd = p.intern("a<b>&\"c\"");
        p.add_sample(3, vec![odd], 800, SampleKind::Exec);
        let svg = p.flamegraph_svg();
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c&quot;"), "names escaped");
        assert!(!svg.contains("a<b>"), "raw name must not leak");
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    }

    #[test]
    fn histogram_report_covers_all_three_families() {
        let mut p = ProfileStore::default();
        p.record_quantum_jitter(3);
        p.record_gc_pause(2, 4096);
        p.record_syscall_latency("proc.wait", 300);
        let text = p.histograms_text();
        assert!(text.contains("# quantum jitter"), "{text}");
        assert!(text.contains("# gc pause cycles, heap 2"), "{text}");
        assert!(text.contains("# syscall latency cycles, proc.wait"), "{text}");
        assert!(text.contains("[2048,4096)") || text.contains("[4096,8192)"));
    }
}
