//! Spans around the benchmark's calls into each layer.
//!
//! A span is named `<layer>.<function>` (`core.spawn`, `cupc.compile`, …);
//! the layer is the crate the call enters. Spans nest through `parent`;
//! a span's *self time* is its duration minus the part of that interval
//! its children cover, so per-layer self times add up to the wall time of
//! the root spans. Spans are kept in memory and written out once, at exit.
//!
//! With the tracer off `begin`/`end`/`span` record nothing and read no
//! clock, which is how the untraced run measures the end-to-end metrics.
//!
//! Start and end are raw host time. Every figure derived from spans is
//! *paced*: divided by the host's slowdown over the stretch of the run the
//! span lies in (`pace.rs`), exactly as the end-to-end walls are, so that a
//! layer's time and the end-to-end time it is part of are in one unit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// "No parent" / "outside any round" / "no request" marker.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Round the span belongs to, or [`NONE`] (set-up, probes, teardown).
    pub round: u32,
    /// Request the span serves, or [`NONE`].
    pub request: u32,
    /// The host's slowdown while the span ran ([`Tracer::pace`]).
    pub slowdown: f64,
}

impl Span {
    /// Raw host time.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Host time at the reference pace.
    pub fn paced_ns(&self) -> f64 {
        self.dur_ns() as f64 / self.slowdown
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
    /// Spans before this index know their slowdown.
    paced: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: NONE,
            paced: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans begun from now on belong to `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records `slowdown` as the host's pace for every span recorded since
    /// the previous call: the stretch one lap of the pacer covers.
    pub fn pace(&mut self, slowdown: f64) {
        assert!(self.open.is_empty(), "tracer paced inside a span");
        for span in &mut self.spans[self.paced..] {
            span.slowdown = slowdown;
        }
        self.paced = self.spans.len();
    }

    /// Opens a span; pass the result to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NONE),
            round: self.round,
            request,
            slowdown: 1.0,
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is charged to the
        // parent, not to this span.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Paced durations, in nanoseconds and recording order, of the spans
    /// called `name` that `keep` accepts.
    pub fn durations_ns(&self, name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .map(Span::paced_ns)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"workload\":\"{workload}\",\"round\":{},\"request\":{},\"slowdown\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.round),
                opt(s.request),
                s.slowdown,
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Paced self time summed per layer, and the paced wall time of the root
/// spans.
pub struct Attribution {
    pub layer_self_ns: BTreeMap<&'static str, f64>,
    pub wall_ns: f64,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Self {
        let mut layer_self_ns = BTreeMap::new();
        let mut wall_ns = 0.0;
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            *layer_self_ns.entry(s.layer()).or_insert(0.0) += own as f64 / s.slowdown;
            if s.parent == NONE {
                wall_ns += s.paced_ns();
            }
        }
        Attribution {
            layer_self_ns,
            wall_ns,
        }
    }

    /// Share of the wall time spent in the benchmark's own code, outside
    /// any call into a layer: the self time of the `bench.*` spans.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.layer_self_ns.get("bench").copied().unwrap_or(0.0);
        own / self.wall_ns.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: NONE,
            request: NONE,
            slowdown: 1.0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("bench.round", 0, 100, NONE), // 0: children cover 10..40 and 40..70
            span("core.spawn", 10, 40, 0),     // 1: one child 20..30
            span("analyze.analyze", 20, 30, 1), // 2: leaf
            span("core.run", 40, 70, 0),       // 3: adjacent to 1, leaf
        ];
        assert_eq!(self_times_ns(&spans), [40, 20, 10, 30]);
        let attr = Attribution::of(&spans);
        assert_eq!(attr.wall_ns, 100.0);
        assert_eq!(attr.layer_self_ns["bench"], 40.0);
        assert_eq!(attr.layer_self_ns["core"], 50.0);
        assert_eq!(attr.layer_self_ns["analyze"], 10.0);
        // Self times add back up to the wall.
        assert_eq!(attr.layer_self_ns.values().sum::<f64>(), attr.wall_ns);
        assert_eq!(attr.unattributed_share(), 0.4);
    }

    /// A stretch the host ran at half speed counts half: spans and the
    /// walls they are part of are divided by the same slowdown.
    #[test]
    fn paced_figures_divide_each_stretch_by_its_slowdown() {
        let mut tr = Tracer::new();
        tr.set_on(true);
        tr.span("core.spawn", NONE, || ());
        tr.pace(2.0);
        tr.span("core.spawn", NONE, || ());
        tr.pace(0.5);
        let spans = tr.spans();
        assert_eq!((spans[0].slowdown, spans[1].slowdown), (2.0, 0.5));
        assert_eq!(spans[0].paced_ns(), spans[0].dur_ns() as f64 / 2.0);
        assert_eq!(
            tr.durations_ns("core.spawn", |_| true),
            [spans[0].paced_ns(), spans[1].paced_ns()]
        );
        let attr = Attribution::of(spans);
        assert_eq!(attr.wall_ns, spans[0].paced_ns() + spans[1].paced_ns());
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("bench.round", 10, 50, NONE),
            span("core.a", 0, 30, 0),  // clipped to 10..30
            span("core.b", 20, 40, 0), // overlaps a: adds 30..40 only
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn tracer_records_nesting_and_nothing_when_off() {
        let mut tr = Tracer::new();
        assert_eq!(tr.span("core.new", NONE, || 7), 7);
        assert!(tr.spans().is_empty());
        tr.set_on(true);
        tr.set_round(3);
        let root = tr.begin("bench.round", NONE);
        tr.span("core.spawn", 5, || ());
        tr.end(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (NONE, 0));
        assert_eq!((spans[1].round, spans[1].request), (3, 5));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].layer(), "core");
    }
}
