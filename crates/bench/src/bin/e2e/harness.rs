//! The part every workload shares: set-up, the time-boxed round loop, the
//! output checks, and turning rounds and spans into the named metrics.
//!
//! A workload is a sequence of *rounds*. One round is a fixed amount of
//! work made from the seed, so rounds of one run are comparable with each
//! other and with the rounds of any other run of the same seed; `--seconds`
//! only decides how many of them are measured. Every metric is a median
//! over rounds (or over the requests of all rounds), which is what keeps
//! the numbers steady on a shared two-core host.

use std::collections::BTreeMap;
use std::time::Instant;

use kaffeos::{KaffeOs, KaffeOsConfig, Pid, RunReport};

use crate::json;
use crate::metrics;
use crate::pace::{Lap, Pacer};
use crate::spans::{Attribution, Span, Tracer, NONE};
use crate::stats::{self, Digest};

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

impl Plan {
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// Round sizes are divided by this in `--quick` mode.
    pub fn scale(&self, full: u64) -> u64 {
        if self.quick {
            (full / 5).max(1)
        } else {
            full
        }
    }
}

/// Counters read off a kernel the round owned. All exact: they must repeat
/// between rounds, runs and hosts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub ops: u64,
    pub procs: u64,
    pub quanta: u64,
    pub gc_cycles: u64,
    pub barriers: u64,
    pub jit_compiled: u64,
    pub jit_reused: u64,
    pub jit_cache_bytes: u64,
}

impl Counters {
    pub fn harvest(os: &KaffeOs, report: &RunReport) -> Self {
        let pids = || (1..=report.processes.len() as u32).map(Pid);
        let jit = |f: fn(&kaffeos_vm::ProcJitStats) -> u64| -> u64 {
            pids().filter_map(|p| os.jit_stats(p)).map(|s| f(&s)).sum()
        };
        Counters {
            ops: os.ops_executed(),
            procs: report.processes.len() as u64,
            quanta: report.quanta,
            gc_cycles: pids().map(|p| os.cpu(p).gc).sum(),
            barriers: report.barrier.executed,
            jit_compiled: jit(|s| s.compiled),
            jit_reused: jit(|s| s.reuse),
            jit_cache_bytes: os.jit_cache_usage().1,
        }
    }

    /// Sums the counters of two kernels (a spec round boots one per program).
    pub fn add(&mut self, other: Counters) {
        self.ops += other.ops;
        self.procs += other.procs;
        self.quanta += other.quanta;
        self.gc_cycles += other.gc_cycles;
        self.barriers += other.barriers;
        self.jit_compiled += other.jit_compiled;
        self.jit_reused += other.jit_reused;
        self.jit_cache_bytes += other.jit_cache_bytes;
    }
}

/// Guest work done in one timed stretch of a round.
#[derive(Debug, Clone)]
pub struct Part {
    /// Program name, or `all` when the round is not split by program.
    pub label: &'static str,
    /// 10^6 guest ops (10^6 virtual cycles where ops are not observable).
    pub work_m: f64,
    pub wall_s: f64,
}

/// The outcome of one round.
#[derive(Default)]
pub struct Round {
    pub wall_s: f64,
    /// Correctly completed requests (numerator of `req_per_s`).
    pub requests: u64,
    /// Operations whose outputs were checked, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    pub parts: Vec<Part>,
    /// Host wall of every request, in issue order.
    pub req_walls_us: Vec<f64>,
    /// Drift inside the round, where requests share one kernel.
    pub slope: Option<f64>,
    /// Digest of the round's virtual outputs.
    pub digest: u64,
    /// Exact counts: program checksums, `vm.ops`, `core.procs_total`, ….
    pub counts: BTreeMap<String, u64>,
    pub counters: Option<Counters>,
    /// Workload-specific figures of this round (see `metrics::EXTRAS`).
    pub notes: Vec<(String, f64)>,
    /// The round's kernel, when the caller asked to keep it.
    pub kernel: Option<KaffeOs>,
    /// Which input set the round ran, whether it recorded spans, and the
    /// host's slowdown while it ran; the harness fills these in.
    pub slot: u32,
    pub traced: bool,
    pub slowdown: f64,
}

impl Round {
    /// Rescales every wall of the round to the reference pace. The drift
    /// inside the round compares its two ends, so each end is rescaled by
    /// the reference timing next to it: a host that changes speed halfway
    /// through the round does not read as a kernel that slows down.
    fn at_reference_pace(&mut self, lap: Lap) {
        let slowdown = lap.slowdown();
        self.slowdown = slowdown;
        self.wall_s /= slowdown;
        for part in &mut self.parts {
            part.wall_s /= slowdown;
        }
        for wall in &mut self.req_walls_us {
            *wall /= slowdown;
        }
        if let Some(slope) = &mut self.slope {
            *slope *= lap.start / lap.end;
        }
    }

    /// Records the counters and the exact counts derived from them.
    pub fn set_counters(&mut self, c: Counters) {
        self.counters = Some(c);
        self.counts.insert("vm.ops".into(), c.ops);
        self.counts.insert("core.procs_total".into(), c.procs);
    }
}

pub trait Workload {
    /// Images the set-up kernel registers: `(image name, Cup source)`.
    fn sources(&self) -> Vec<(&'static str, &'static str)>;

    /// Configuration of the set-up kernel.
    fn config(&self) -> KaffeOsConfig;

    /// Extra set-up work on the booted kernel (the spec warm-up runs).
    fn warm_up(&self, _os: &mut KaffeOs, _tr: &mut Tracer) {}

    /// Number of distinct input sets the rounds cycle through.
    fn slots(&self) -> u32 {
        1
    }

    /// True when the outputs do not depend on the seed, so the expected
    /// digest applies to every seed and not only to seed 1.
    fn seed_free_outputs(&self) -> bool {
        false
    }

    /// Runs one round on input set `slot`. With `keep` a workload that owns
    /// its kernel returns it instead of dropping it.
    fn round(&mut self, slot: u32, tr: &mut Tracer, keep: bool) -> Round;

    /// For a workload whose rounds never expose a kernel: a traced stand-in
    /// round that does, for the per-layer kernel metrics.
    fn probe(&mut self, _tr: &mut Tracer) -> Option<Round> {
        None
    }

    /// Workload-specific comparisons that need runs of their own. Called
    /// once, at the end of the traced run, with that run's spans and the
    /// pacer, one lap of which has just ended.
    fn extras(&mut self, _run: &Tracer, _pacer: &mut Pacer) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// One metric value with its unit, as it is printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one invocation measured.
pub struct RunResult {
    pub workload: &'static str,
    pub plan: Plan,
    pub attempted: u64,
    pub failed: u64,
    pub virt_digest: u64,
    /// The digest `expected.json` holds for this mode, if it was compared.
    pub expected_digest: Option<u64>,
    pub problems: Vec<String>,
    /// Wall of every round at the reference pace, in order (traced and
    /// untraced alike), and the host's slowdown it was divided by.
    pub round_walls_s: Vec<f64>,
    pub round_slowdowns: Vec<f64>,
    pub request_samples: usize,
    pub tail_percentile: u32,
    pub counts: BTreeMap<String, u64>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Reading>,
    pub extras: Vec<Reading>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn readings_json(readings: &[Reading]) -> String {
        let body: Vec<String> = readings
            .iter()
            .map(|r| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(&r.name),
                    json::number(r.value),
                    json::quote(r.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// The one-line result the driver reads.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            Self::readings_json(&self.metrics)
        )
    }

    /// The full record kept in the result file.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{}:{v}", json::quote(k)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json::quote(p)).collect();
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| json::number(*x))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"schema\":\"kaffeos-e2e/1\",\"mode\":\"{}\",\"workload\":\"{}\",\"seed\":{},\
             \"seconds\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"virt_digest\":\"{:#018x}\",\"expected_digest\":{},\"problems\":[{}],\
             \"rounds\":{},\"round_walls_s\":[{}],\"round_slowdowns\":[{}],\
             \"request_samples\":{},\"tail_percentile\":{},\
             \"counts\":{{{}}},\"metrics\":{},\"extra\":{}}}",
            self.plan.mode(),
            self.workload,
            self.plan.seed,
            json::number(self.plan.seconds),
            self.plan.trace,
            self.correct(),
            self.attempted,
            self.failed,
            self.virt_digest,
            self.expected_digest
                .map_or("null".to_string(), |d| format!("\"{d:#018x}\"")),
            problems.join(","),
            self.round_walls_s.len(),
            list(&self.round_walls_s),
            list(&self.round_slowdowns),
            self.request_samples,
            self.tail_percentile,
            counts.join(","),
            Self::readings_json(&self.metrics),
            Self::readings_json(&self.extras),
        )
    }
}

/// Ends a stretch of the run: times the reference loop, tells the tracer
/// the slowdown of the spans the stretch recorded, and returns the lap for
/// the stretch's walls.
fn lap(pacer: &mut Pacer, tr: &mut Tracer) -> Lap {
    let lap = pacer.lap();
    tr.pace(lap.slowdown());
    lap
}

/// Boots a kernel and registers every image of the workload: one set-up.
fn set_up(w: &dyn Workload, tr: &mut Tracer) -> KaffeOs {
    let root = tr.begin("bench.setup", NONE);
    let config = w.config();
    let mut os = tr.span("core.new", NONE, || KaffeOs::new(config));
    for (image, source) in w.sources() {
        tr.span("core.register_image", NONE, || {
            os.register_image(image, source)
        })
        .unwrap_or_else(|e| panic!("guest image {image} does not compile: {e}"));
    }
    w.warm_up(&mut os, tr);
    tr.end(root);
    os
}

/// Compiles every guest source again, this time through the compiler's own
/// entry point, so `cupc` gets spans that `register_image` would hide.
fn probe_cupc(w: &dyn Workload, os: &KaffeOs, tr: &mut Tracer) -> usize {
    let table = os.class_table();
    let ns = table
        .namespaces
        .iter()
        .find(|n| n.name == "template")
        .expect("the kernel compiles images against its template namespace")
        .id;
    let mut lines = 0;
    for (image, source) in w.sources() {
        lines += source.lines().count();
        tr.span("cupc.compile", NONE, || {
            kaffeos_cupc::compile(source, table, ns)
        })
        .unwrap_or_else(|e| panic!("guest image {image} does not compile: {e}"));
    }
    lines
}

/// Rounds of the memlimit probe.
const MEMLIMIT_ROUNDS: u64 = 100_000;

/// What one process costs the memlimit tree over its life: a child limit
/// created, debited, credited and removed.
fn probe_memlimit(tr: &mut Tracer) {
    use kaffeos_memlimit::{Kind, MemLimitTree};
    let mut tree = MemLimitTree::new();
    let root = tree.create_root(256 << 20, "root");
    tr.span("memlimit.ops", NONE, || {
        for i in 0..MEMLIMIT_ROUNDS {
            let child = tree
                .create_child(root, Kind::Soft, 16 << 20, "p")
                .expect("root has budget");
            let bytes = 4096 + (i & 1023);
            tree.debit(child, bytes).expect("within the child's limit");
            tree.credit(child, bytes)
                .expect("credited what was debited");
            tree.remove(child).expect("an empty child can be removed");
        }
    });
    std::hint::black_box(tree.current(root));
}

/// Figures of the kernel-side teardown of one kept kernel.
struct Teardown {
    analysis: kaffeos::analyze::Analysis,
    classes: usize,
    audit_ok: bool,
}

/// Three explicit kernel collections, the audit, one whole-program
/// analysis and the drop of the kernel, each in its own span.
fn tear_down(mut os: KaffeOs, tr: &mut Tracer) -> Teardown {
    for _ in 0..3 {
        tr.span("core.kernel_gc", NONE, || os.kernel_gc());
    }
    let audit_ok = tr.span("core.audit", NONE, || os.audit()).is_ok();
    let analysis = tr.span("analyze.analyze", NONE, || {
        kaffeos::analyze::analyze(os.class_table())
    });
    let classes = os.class_table().classes.len();
    tr.span("core.drop", NONE, || drop(os));
    Teardown {
        analysis,
        classes,
        audit_ok,
    }
}

/// The seed-1 outputs recorded in `expected.json`, by mode and workload:
/// the digest and the exact counts a run must produce. `traced_counts` are
/// the ones only a traced run can (a shipped driver exposes no kernel).
fn expected(mode: &str, workload: &str, traced: bool) -> Option<(u64, BTreeMap<String, u64>)> {
    let doc = json::parse(include_str!("expected.json")).expect("expected.json is valid JSON");
    let entry = doc.get(mode)?.get(workload)?;
    let digest = entry.get("virt_digest")?.as_str()?;
    let digest = u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok()?;
    let lists: &[&str] = if traced {
        &["counts", "traced_counts"]
    } else {
        &["counts"]
    };
    let counts = lists
        .iter()
        .filter_map(|list| entry.get(list))
        .flat_map(json::Value::members)
        .filter_map(|(k, v)| match v {
            json::Value::Num(n) => Some((k.clone(), n.parse().ok()?)),
            _ => None,
        })
        .collect();
    Some((digest, counts))
}

/// One problem per expected count the run got wrong. A count the run no
/// longer produces is as wrong as a changed one.
fn wrong_counts(got: &BTreeMap<String, u64>, want: &BTreeMap<String, u64>) -> Vec<String> {
    want.iter()
        .filter(|(key, want)| got.get(*key) != Some(want))
        .map(|(key, want)| {
            let got = got.get(key).map_or("missing".to_string(), u64::to_string);
            format!("{key} is {got} but expected.json says {want}")
        })
        .collect()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Runs `w` as `plan` says and derives every metric.
pub fn run(name: &'static str, plan: Plan, w: &mut dyn Workload) -> (RunResult, Tracer) {
    let mut tr = Tracer::new();
    tr.set_on(plan.trace);

    // Set-up is a few milliseconds on most workloads, so it is repeated —
    // spread across the whole run, between rounds, so that the repetitions
    // do not all sit in one stretch of the host's noise — and the median is
    // reported. Like every wall, each is rescaled to the reference pace
    // by the reference timings around it (`pace.rs`).
    let setups = if plan.quick { 1 } else { 8 };
    let mut pacer = Pacer::start();
    let mut setup_s = Vec::new();
    let mut setup_os = None;
    let mut set_up_again =
        |tr: &mut Tracer, w: &dyn Workload, pacer: &mut Pacer, setup_s: &mut Vec<f64>| {
            drop(setup_os.take());
            tr.set_on(plan.trace);
            tr.set_round(NONE);
            let t = Instant::now();
            setup_os = Some(set_up(w, tr));
            let wall_s = t.elapsed().as_secs_f64();
            setup_s.push(wall_s / lap(pacer, tr).slowdown());
        };
    set_up_again(&mut tr, w, &mut pacer, &mut setup_s);

    // The time-boxed section. A traced run alternates traced and untraced
    // rounds of the same inputs: their ratio is the tracing overhead, and
    // their outputs must agree.
    let slots = w.slots();
    let min_rounds = slots * if plan.trace { 2 } else { 1 };
    let mut rounds: Vec<Round> = Vec::new();
    let mut teardown = None;
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    let mut k = 0;
    while k < min_rounds || started.elapsed().as_secs_f64() < plan.seconds {
        let (slot, traced) = if plan.trace {
            ((k / 2) % slots, k % 2 == 0)
        } else {
            (k % slots, false)
        };
        tr.set_on(traced);
        tr.set_round(k);
        // The first traced round keeps its kernel for the teardown spans.
        let keep = traced && teardown.is_none();
        let root = tr.begin("bench.round", NONE);
        let mut round = w.round(slot, &mut tr, keep);
        tr.end(root);
        (round.slot, round.traced) = (slot, traced);
        if let Some(os) = round.kernel.take() {
            let root = tr.begin("bench.teardown", NONE);
            teardown = Some(tear_down(os, &mut tr));
            tr.end(root);
            // Every other round drops its kernel inside its wall.
            let dropped = tr.spans().last().expect("tear_down ends with core.drop");
            round.wall_s += dropped.dur_ns() as f64 / 1e9;
        }
        round.at_reference_pace(lap(&mut pacer, &mut tr));
        rounds.push(round);
        k += 1;
        // Memory is read once every input set has run once: what the process
        // holds later depends on how many rounds the time box let in and on
        // what the allocator kept of them, not on the workload.
        if k == min_rounds {
            peak_rss_mb = read_peak_rss_mb();
        }
        let due = 1.0 + started.elapsed().as_secs_f64() / plan.seconds * (setups - 1) as f64;
        if (setup_s.len() as f64) < due.min(setups as f64) {
            set_up_again(&mut tr, w, &mut pacer, &mut setup_s);
        }
    }
    tr.set_round(NONE);
    let setup_os = setup_os.expect("at least one set-up");

    let mut probe_round = None;
    let mut cupc_lines = 0;
    let mut extras_own = Vec::new();
    if plan.trace {
        tr.set_on(true);
        let root = tr.begin("bench.probe", NONE);
        cupc_lines = probe_cupc(w, &setup_os, &mut tr);
        probe_memlimit(&mut tr);
        tr.end(root);
        lap(&mut pacer, &mut tr);
        if teardown.is_none() {
            tr.set_round(k);
            let root = tr.begin("bench.round", NONE);
            let mut round = w
                .probe(&mut tr)
                .expect("a workload without kernels has a probe");
            tr.end(root);
            tr.set_round(NONE);
            let os = round.kernel.take().expect("the probe keeps its kernel");
            let root = tr.begin("bench.teardown", NONE);
            teardown = Some(tear_down(os, &mut tr));
            tr.end(root);
            lap(&mut pacer, &mut tr);
            probe_round = Some(round);
        }
        tr.set_on(false);
        extras_own = w.extras(&tr, &mut pacer);
    }
    drop(setup_os);

    // ---- output checks ----------------------------------------------------
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut slot_digest: Vec<Option<u64>> = vec![None; slots as usize];
    let mut slot_counts: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); slots as usize];
    for (i, round) in rounds.iter().enumerate() {
        let slot = round.slot;
        attempted += round.attempted;
        let first = *slot_digest[slot as usize].get_or_insert(round.digest);
        let known = &mut slot_counts[slot as usize];
        let mut same = first == round.digest;
        for (key, &v) in &round.counts {
            same &= *known.entry(key.clone()).or_insert(v) == v;
        }
        if same {
            failed += round.failed;
        } else {
            failed += round.attempted;
            problems.push(format!(
                "round {i} (input set {slot}) produced other outputs than the first round on the same inputs"
            ));
        }
    }
    let mut digest = Digest::new();
    let mut counts = BTreeMap::new();
    for (d, c) in slot_digest.iter().zip(&slot_counts) {
        digest.u64(d.expect("every input set ran at least once"));
        for (key, &v) in c {
            // Counts of several input sets add up; a checksum has one owner.
            *counts.entry(key.clone()).or_insert(0) += v;
        }
    }
    let virt_digest = digest.finish();
    // Wrong outputs, or a kernel that fails its own audit, mean nothing this
    // run measured can be trusted: every operation counts as failed.
    let mut trusted = true;
    let mut expected_digest = None;
    if let Some((want, want_counts)) = expected(plan.mode(), name, plan.trace) {
        if plan.seed == 1 || w.seed_free_outputs() {
            expected_digest = Some(want);
            if want != virt_digest {
                trusted = false;
                problems.push(format!(
                    "virt_digest {virt_digest:#018x} differs from expected.json ({want:#018x})"
                ));
            }
            let wrong = wrong_counts(&counts, &want_counts);
            trusted &= wrong.is_empty();
            problems.extend(wrong);
        }
    }
    if let Some(t) = &teardown {
        if !t.audit_ok {
            trusted = false;
            problems.push("audit() reported a violation after the round".to_string());
        }
    }
    if !trusted {
        failed = attempted;
    }

    // ---- metrics ----------------------------------------------------------
    let measured: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let samples_per_round = measured.first().map_or(0, |r| r.req_walls_us.len());
    let mut readings = Vec::new();
    let mut extras = Vec::new();
    if plan.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let t = teardown
            .as_ref()
            .expect("a traced run tears one kernel down");
        layer_metrics(
            &tr,
            &traced,
            &measured,
            probe_round.as_ref(),
            t,
            cupc_lines,
            &mut readings,
        );
        for label in part_labels(&traced) {
            if label != "all" {
                extras.push((format!("vm.mops.{label}"), part_rate(&traced, label)));
            }
        }
        let kills = tr.durations_ns("core.kill", |_| true);
        if !kills.is_empty() {
            let kills: Vec<f64> = kills.iter().map(|ns| ns / 1e3).collect();
            extras.push(("core.kill_us_p50".to_string(), stats::median(&kills)));
        }
        let mut noted: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for round in &traced {
            for (key, v) in &round.notes {
                noted.entry(key).or_default().push(*v);
            }
        }
        extras.extend(
            noted
                .into_iter()
                .map(|(k, v)| (k.to_string(), stats::median(&v))),
        );
        extras.extend(extras_own);
    } else {
        // One value per input set, then the median over input sets.
        let per_slot: Vec<EndToEnd> = (0..slots)
            .map(|slot| {
                let of_slot: Vec<&Round> = measured
                    .iter()
                    .copied()
                    .filter(|r| r.slot == slot)
                    .collect();
                EndToEnd::of(&of_slot)
            })
            .collect();
        let over_slots =
            |f: fn(&EndToEnd) -> f64| -> f64 { stats::median_of(per_slot.iter().map(f)) };
        let mut put = |name: &str, value: f64| {
            let m = metrics::find(name).expect("a declared metric");
            readings.push(Reading {
                name: name.to_string(),
                unit: m.unit,
                value,
            });
        };
        put("guest_mops", over_slots(|e| e.guest_mops));
        put("req_per_s", over_slots(|e| e.req_per_s));
        put("req_wall_p50_us", over_slots(|e| e.req_wall_p50_us));
        put("req_wall_p95_us", over_slots(|e| e.req_wall_p95_us));
        put("churn_slope", over_slots(|e| e.churn_slope));
        put("peak_rss_mb", peak_rss_mb);
        put("setup_s", stats::median(&setup_s));
    }
    let extras = extras
        .into_iter()
        .map(|(name, value)| Reading {
            unit: extra_unit(&name),
            name,
            value,
        })
        .collect();

    let result = RunResult {
        workload: name,
        plan,
        attempted,
        failed,
        virt_digest,
        expected_digest,
        problems,
        round_walls_s: rounds.iter().map(|r| r.wall_s).collect(),
        round_slowdowns: rounds.iter().map(|r| r.slowdown).collect(),
        request_samples: samples_per_round,
        tail_percentile: stats::tail_percentile(samples_per_round),
        counts,
        metrics: readings,
        extras,
    };
    (result, tr)
}

/// Labels of the parts the rounds are split into, in first-round order.
fn part_labels(rounds: &[&Round]) -> Vec<&'static str> {
    let mut labels = Vec::new();
    for part in rounds.iter().flat_map(|r| &r.parts) {
        if !labels.contains(&part.label) {
            labels.push(part.label);
        }
    }
    labels
}

/// 10^6 work units per second of one part, median over rounds.
fn part_rate(rounds: &[&Round], label: &str) -> f64 {
    stats::median_of(
        rounds
            .iter()
            .flat_map(|r| &r.parts)
            .filter(|p| p.label == label)
            .map(|p| p.work_m / p.wall_s),
    )
}

/// The end-to-end metrics of the rounds of one input set: each is computed
/// per round, from walls already rescaled to the reference pace, and the
/// median over rounds is reported.
struct EndToEnd {
    guest_mops: f64,
    req_per_s: f64,
    req_wall_p50_us: f64,
    req_wall_p95_us: f64,
    churn_slope: f64,
}

impl EndToEnd {
    fn of(rounds: &[&Round]) -> Self {
        let over_rounds = |f: &dyn Fn(&Round) -> f64| stats::median_of(rounds.iter().map(|r| f(r)));
        let rates: Vec<f64> = part_labels(rounds)
            .into_iter()
            .map(|label| part_rate(rounds, label))
            .collect();
        let slopes: Vec<f64> = rounds.iter().filter_map(|r| r.slope).collect();
        let churn_slope = if slopes.is_empty() {
            // Rounds on fresh kernels: does the process itself slow down?
            // Median wall of the later two thirds of the rounds over that of
            // the earlier two thirds (overlapping, so that a short run still
            // has a few rounds on each side).
            let window = (rounds.len() * 2).div_ceil(3);
            let typical = |part: &[&Round]| stats::median_of(part.iter().map(|r| r.wall_s));
            typical(&rounds[rounds.len() - window..]) / typical(&rounds[..window])
        } else {
            stats::median(&slopes)
        };
        EndToEnd {
            guest_mops: stats::geomean(&rates),
            req_per_s: over_rounds(&|r| r.requests as f64 / r.wall_s),
            req_wall_p50_us: over_rounds(&|r| stats::median(&r.req_walls_us)),
            req_wall_p95_us: over_rounds(&|r| stats::tail(&r.req_walls_us)),
            churn_slope,
        }
    }
}

/// Unit of a workload-specific figure, from `metrics::EXTRAS`.
fn extra_unit(name: &str) -> &'static str {
    metrics::EXTRAS
        .iter()
        .find(|(pattern, ..)| match pattern.split_once('<') {
            Some((prefix, _)) => name.starts_with(prefix),
            None => *pattern == name,
        })
        .map_or("count", |&(_, unit, ..)| unit)
}

/// `VmHWM` of this process, in MB.
fn read_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM on Linux");
    kb / 1024.0
}

/// Derives the per-layer metrics from the spans and the kernel counters of
/// the traced rounds (or of the probe round, where rounds expose no kernel).
fn layer_metrics(
    tr: &Tracer,
    traced: &[&Round],
    untraced: &[&Round],
    probe: Option<&Round>,
    teardown: &Teardown,
    cupc_lines: usize,
    out: &mut Vec<Reading>,
) {
    let spans = tr.spans();
    let any = |_: &Span| true;
    let in_round = |s: &Span| s.round != NONE;
    let ms = |name: &str| -> Vec<f64> {
        tr.durations_ns(name, any)
            .iter()
            .map(|ns| ns / 1e6)
            .collect()
    };
    let us = |name: &str, keep: fn(&Span) -> bool| -> Vec<f64> {
        tr.durations_ns(name, keep)
            .iter()
            .map(|ns| ns / 1e3)
            .collect()
    };

    // Per-round views of the spawn and run spans.
    let mut spawn_by_round: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    let mut run_by_round: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| in_round(s)) {
        let by_round = match s.name {
            "core.spawn" => &mut spawn_by_round,
            "core.run" => &mut run_by_round,
            _ => continue,
        };
        by_round
            .entry(s.round)
            .or_default()
            .push(s.paced_ns() / 1e3);
    }
    let over_rounds = |by_round: &BTreeMap<u32, Vec<f64>>, f: &dyn Fn(&[f64]) -> f64| {
        median_or_zero(&by_round.values().map(|v| f(v)).collect::<Vec<f64>>())
    };
    let spawns = us("core.spawn", in_round);
    let run_s = over_rounds(&run_by_round, &|v| v.iter().sum::<f64>() / 1e6);

    // Kernel counters: identical in every round of one input set, so the
    // median over rounds is that value (or the middle one across sets).
    let counters: Vec<Counters> = traced
        .iter()
        .filter_map(|r| r.counters)
        .chain(probe.and_then(|r| r.counters))
        .collect();
    let counter = |f: fn(&Counters) -> u64| -> f64 {
        median_or_zero(&counters.iter().map(|c| f(c) as f64).collect::<Vec<f64>>())
    };
    // A count the rounds report themselves wins over the probe's.
    let count = |key: &str, f: fn(&Counters) -> u64| -> f64 {
        let own: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.counts.get(key))
            .map(|&v| v as f64)
            .collect();
        if own.is_empty() {
            counter(f)
        } else {
            stats::median(&own)
        }
    };

    let compile_us = us("cupc.compile", any);
    let compile_s = compile_us.iter().sum::<f64>() / 1e6;
    let attribution = Attribution::of(spans);
    let typical_wall = |rounds: &[&Round]| stats::median_of(rounds.iter().map(|r| r.wall_s));
    let (elided, _) = teardown.analysis.elision_counts();
    let (devirt, _) = teardown.analysis.devirt_counts();
    let memlimit_ns = tr.durations_ns("memlimit.ops", any);

    let values: [(&str, f64); 32] = [
        ("core.boot_ms", median_or_zero(&ms("core.new"))),
        (
            "core.register_image_us",
            median_or_zero(&us("core.register_image", any)),
        ),
        ("cupc.compile_us", median_or_zero(&compile_us)),
        ("cupc.lines_per_s", cupc_lines as f64 / compile_s.max(1e-9)),
        ("core.spawn_us_p50", median_or_zero(&spawns)),
        (
            "core.spawn_us_p95",
            if spawns.is_empty() {
                0.0
            } else {
                stats::tail(&spawns)
            },
        ),
        (
            "core.spawn_calls",
            over_rounds(&spawn_by_round, &|v| v.len() as f64),
        ),
        (
            "core.spawn_us_first_decile",
            over_rounds(&spawn_by_round, &|v| stats::end_medians(v, 20, 10).0),
        ),
        (
            "core.spawn_us_last_decile",
            over_rounds(&spawn_by_round, &|v| stats::end_medians(v, 20, 10).1),
        ),
        ("core.run_s", run_s),
        (
            "core.run_calls",
            over_rounds(&run_by_round, &|v| v.len() as f64),
        ),
        ("core.quanta", counter(|c| c.quanta)),
        ("core.quanta_per_s", counter(|c| c.quanta) / run_s.max(1e-9)),
        (
            "core.kernel_gc_ms_p50",
            median_or_zero(&ms("core.kernel_gc")),
        ),
        ("core.audit_ms", median_or_zero(&ms("core.audit"))),
        ("core.drop_ms", median_or_zero(&ms("core.drop"))),
        ("core.procs_total", count("core.procs_total", |c| c.procs)),
        ("vm.ops", count("vm.ops", |c| c.ops)),
        ("vm.jit_compiled", counter(|c| c.jit_compiled)),
        ("vm.jit_reused", counter(|c| c.jit_reused)),
        ("vm.jit_cache_bytes", counter(|c| c.jit_cache_bytes)),
        ("heap.gc_virtual_cycles", counter(|c| c.gc_cycles)),
        ("heap.barriers_executed", counter(|c| c.barriers)),
        ("analyze.full_ms", median_or_zero(&ms("analyze.analyze"))),
        ("analyze.classes", teardown.classes as f64),
        ("analyze.elided_sites", elided as f64),
        ("analyze.devirt_sites", devirt as f64),
        (
            "memlimit.op_ns",
            median_or_zero(&memlimit_ns) / MEMLIMIT_ROUNDS as f64,
        ),
        ("bench.wall_s", attribution.wall_ns / 1e9),
        ("bench.span_count", spans.len() as f64),
        (
            "bench.trace_overhead_ratio",
            typical_wall(traced) / typical_wall(untraced),
        ),
        ("bench.unattributed_share", attribution.unattributed_share()),
    ];
    for (m, (name, value)) in metrics::PER_LAYER.iter().zip(values) {
        assert_eq!(
            m.name, name,
            "per-layer values follow the order of metrics::PER_LAYER"
        );
        out.push(Reading {
            name: name.to_string(),
            unit: m.unit,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_count_is_a_wrong_count() {
        let counts = |pairs: &[(&str, u64)]| -> BTreeMap<String, u64> {
            pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        let want = counts(&[("vm.ops", 7), ("checksum.db", 9)]);
        assert!(wrong_counts(
            &counts(&[("vm.ops", 7), ("checksum.db", 9), ("extra", 1)]),
            &want
        )
        .is_empty());
        assert_eq!(
            wrong_counts(&counts(&[("vm.ops", 8)]), &want),
            [
                "checksum.db is missing but expected.json says 9",
                "vm.ops is 8 but expected.json says 7"
            ]
        );
    }

    /// Every workload's seed-1 entry names the counts an untraced run must
    /// produce; the ones only a traced run can are added for a traced run.
    #[test]
    fn expected_json_lists_traced_counts_apart() {
        for mode in ["full", "quick"] {
            for w in &metrics::WORKLOADS {
                let (_, untraced) = expected(mode, w.name, false).expect("an entry per workload");
                let (_, traced) = expected(mode, w.name, true).unwrap();
                assert!(!untraced.is_empty(), "{mode} {}", w.name);
                assert!(untraced.iter().all(|(k, v)| traced.get(k) == Some(v)));
            }
        }
        let (_, untraced) = expected("full", "servlet-dos", false).unwrap();
        let (_, traced) = expected("full", "servlet-dos", true).unwrap();
        assert!(!untraced.contains_key("vm.ops") && traced.contains_key("vm.ops"));
    }
}
