//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root declares the same workloads, end-to-end metrics and per-layer
//! metrics; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "spec-compute",
        why: "compress, mpegaudio, mtrt: dispatch-bound guest code, so vm (interp/JIT) does the work and heap/core almost none",
    },
    WorkloadInfo {
        name: "spec-alloc",
        why: "jess, db, javac, jack: call/alloc/exception/barrier-heavy guest code, where heap GC and barriers share the work and the JIT buys ~1.0x",
    },
    WorkloadInfo {
        name: "servlet-dos",
        why: "Fig. 4 headline: 20 long-lived servlets under a MemHog; scheduler, per-heap GC, kill/merge/respawn; spawn path used rarely",
    },
    WorkloadInfo {
        name: "slo-scenarios",
        why: "six shipped tenancy scenarios, one process per request with elide off, one kernel boot per scenario; report texts must repeat byte for byte",
    },
    WorkloadInfo {
        name: "spawn-churn",
        why: "process-per-request on one long-lived default-config kernel: spawn (load, verify, re-analyze, link), exit/reap and push-only host tables dominate",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen, as
    /// `BENCHMARK.json` states it: one number per metric, so it has to fit
    /// the noisiest workload that prints the metric. End-to-end metrics only.
    pub bound: Option<f64>,
    /// The workloads the metric is defined on, each with the bound `compare`
    /// judges that pair by: twice to three times the spread ten seeds showed
    /// on it (README, "End-to-end metrics"). The driver's contract has every
    /// workload print every end-to-end metric; on a workload not listed here
    /// the value is a stand-in derived from the round wall, which `compare`
    /// leaves out. End-to-end metrics only.
    pub on: &'static [(&'static str, f64)],
    /// Definition, or for a per-layer metric the end-to-end metric and
    /// workload it is expected to move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [(&'static str, f64)],
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        on,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        on: &[],
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured with tracing off. Every workload prints
/// every one, as the driver's contract asks; `on` says where each is defined
/// (the README says what a "request" is on each workload).
pub const END_TO_END: [Metric; 7] = [
    e2e("guest_mops", "Mops/s", Higher, 0.25,
        &[("spec-compute", 0.10), ("spec-alloc", 0.15)],
        "10^6 guest ops per host second; geometric mean over a spec workload's programs"),
    e2e("req_per_s", "1/s", Higher, 0.25,
        &[("servlet-dos", 0.25), ("slo-scenarios", 0.20), ("spawn-churn", 0.10)],
        "correctly completed requests per host second of a round, median over rounds"),
    e2e("req_wall_p50_us", "us", Lower, 0.25,
        &[("spawn-churn", 0.15)],
        "host wall of one request, median over the requests of a round, median over rounds"),
    e2e("req_wall_p95_us", "us", Lower, 0.25,
        &[("spawn-churn", 0.15)],
        "same, 95th percentile of the round, or the highest percentile that still has 10 samples beyond it"),
    e2e("churn_slope", "ratio", Lower, 0.25,
        &[("spawn-churn", 0.20)],
        "late wall / early wall of identical work on one kernel: last vs first decile of a churn round's requests"),
    e2e("peak_rss_mb", "MB", Lower, 0.05,
        &[("spec-compute", 0.05), ("spec-alloc", 0.05), ("servlet-dos", 0.05), ("slo-scenarios", 0.05), ("spawn-churn", 0.05)],
        "VmHWM of the workload's process after set-up and one round of every input set"),
    e2e("setup_s", "s", Lower, 0.25,
        &[("spec-compute", 0.25), ("spec-alloc", 0.25), ("servlet-dos", 0.25), ("slo-scenarios", 0.25), ("spawn-churn", 0.25)],
        "one set-up (boot, register every image, default-n warm-up of each spec program), median of eight spread over the run"),
];

/// Per-layer metrics every workload reports from its traced run. Values
/// that depend on how much ran are per round (median over traced rounds).
/// Times come from spans and are at the reference pace (`pace.rs`), as
/// the end-to-end walls they are parts of. The note names the end-to-end
/// metric and workload each should move; `BENCHMARK.json` has no field for
/// it (a `per_layer` entry is exactly name, unit, better).
pub const PER_LAYER: [Metric; 32] = [
    layer("core.boot_ms", "ms", Lower, "KaffeOs::new, median -> setup_s everywhere; req_per_s on slo-scenarios (one boot per scenario run)"),
    layer("core.register_image_us", "us", Lower, "register_image, median -> setup_s"),
    layer("cupc.compile_us", "us", Lower, "cupc::compile of one guest source, median -> setup_s"),
    layer("cupc.lines_per_s", "1/s", Higher, "source lines compiled per second -> setup_s"),
    layer("core.spawn_us_p50", "us", Lower, "spawn call, median -> req_per_s, req_wall_* on spawn-churn; flat on spec-*"),
    layer("core.spawn_us_p95", "us", Lower, "spawn call, tail percentile -> req_wall_p95_us on spawn-churn"),
    layer("core.spawn_calls", "count", Lower, "spawn calls per round (exact)"),
    layer("core.spawn_us_first_decile", "us", Lower, "median spawn of a round's first decile -> churn_slope on spawn-churn"),
    layer("core.spawn_us_last_decile", "us", Lower, "median spawn of a round's last decile -> churn_slope, req_per_s on spawn-churn"),
    layer("core.run_s", "s", Lower, "time inside run/run_until_exit per round -> req_per_s on servlet-dos, guest_mops on spec-*"),
    layer("core.run_calls", "count", Lower, "run/run_until_exit calls per round (exact)"),
    layer("core.quanta", "count", Lower, "scheduler quanta per round (exact)"),
    layer("core.quanta_per_s", "1/s", Higher, "quanta per second inside run -> req_per_s on servlet-dos"),
    layer("core.kernel_gc_ms_p50", "ms", Lower, "explicit kernel_gc after the last round, median of three -> req_per_s on servlet-dos, spawn-churn"),
    layer("core.audit_ms", "ms", Lower, "audit() after the last round (must pass) -> none by default"),
    layer("core.drop_ms", "ms", Lower, "dropping the last round's kernel -> peak_rss_mb, req_per_s on slo-scenarios"),
    layer("core.procs_total", "count", Lower, "processes spawned per round (exact) -> explains peak_rss_mb on spawn-churn"),
    layer("vm.ops", "count", Lower, "guest ops per round (exact) -> denominator of guest_mops"),
    layer("vm.jit_compiled", "count", Lower, "methods compiled per round -> guest_mops on spec-*"),
    layer("vm.jit_reused", "count", Higher, "bodies reused from another process -> req_per_s on spawn-churn"),
    layer("vm.jit_cache_bytes", "B", Lower, "shared code cache occupancy after a round -> peak_rss_mb"),
    layer("heap.gc_virtual_cycles", "count", Lower, "virtual cycles of per-process GC per round (exact) -> guest_mops on spec-alloc, req_per_s on servlet-dos"),
    layer("heap.barriers_executed", "count", Lower, "write barriers per round (exact) -> guest_mops on spec-alloc; flat on spec-compute"),
    layer("analyze.full_ms", "ms", Lower, "analyze() over the last round's class table -> req_per_s, churn_slope on spawn-churn"),
    layer("analyze.classes", "count", Lower, "classes in that table -> churn_slope, peak_rss_mb on spawn-churn"),
    layer("analyze.elided_sites", "count", Higher, "barrier sites proven elidable -> guest_mops on spec-alloc"),
    layer("analyze.devirt_sites", "count", Higher, "monomorphic virtual call sites -> guest_mops on spec-*"),
    layer("memlimit.op_ns", "ns", Lower, "create_child + debit + credit + remove -> req_per_s on spawn-churn; expected to be noise"),
    layer("bench.wall_s", "s", Lower, "wall of all traced phases (sum of root spans)"),
    layer("bench.span_count", "count", Lower, "spans recorded in the run"),
    layer("bench.trace_overhead_ratio", "ratio", Lower, "median traced round wall / median untraced round wall"),
    layer("bench.unattributed_share", "ratio", Lower, "share of bench.wall_s outside any call into a layer"),
];

/// The metric called `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Workload-specific figures: written to the result file beside the
/// declared metrics, but not part of `BENCHMARK.json` because they do not
/// exist on every workload. `(name prefix, unit, workload, note)`.
pub const EXTRAS: [(&str, &str, &str, &str); 11] = [
    (
        "vm.mops.<program>",
        "Mops/s",
        "spec-*",
        "one row per program -> guest_mops on the workload holding it",
    ),
    (
        "core.kill_us_p50",
        "us",
        "servlet-dos",
        "kill of the MemHog at the end of a round",
    ),
    (
        "workloads.memhog_restarts",
        "count",
        "servlet-dos",
        "hog kills per round (exact)",
    ),
    (
        "workloads.servlet_nohog_req_per_s",
        "1/s",
        "servlet-dos",
        "same round without the MemHog",
    ),
    (
        "workloads.hog_tax",
        "ratio",
        "servlet-dos",
        "1 - req_per_s with hog / without",
    ),
    (
        "workloads.scenario_ms.<scenario>",
        "ms",
        "slo-scenarios",
        "wall of one run_scenario call, median",
    ),
    (
        "workloads.scenario_requests.<scenario>",
        "count",
        "slo-scenarios",
        "requests it completed (exact)",
    ),
    (
        "core.tenant_rejected",
        "count",
        "slo-scenarios",
        "admissions rejected per round (exact)",
    ),
    (
        "core.tenant_restarts",
        "count",
        "slo-scenarios",
        "supervised restarts per round (exact)",
    ),
    (
        "analyze.spawn_share",
        "ratio",
        "spawn-churn",
        "1 - spawn p50 with elide off / with default config",
    ),
    (
        "trace.planes_on_ratio",
        "ratio",
        "spawn-churn",
        "churn wall with trace, profile, heapprof on / all off",
    ),
];

/// Exact counts that must agree between traced and untraced rounds.
pub const EXACT_COUNTS: [&str; 3] = ["vm.ops", "core.procs_total", "workloads.memhog_restarts"];

/// True if `name` is made of letters, digits, `_`, `.` and `-` only.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.each_ref().map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.each_ref().map(|m| m.name));
        for (w, j) in WORKLOADS.iter().zip(doc.get("workloads").unwrap().items()) {
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let declared = doc.get("end_to_end").unwrap().items().iter();
        let declared = declared.chain(doc.get("per_layer").unwrap().items());
        for (m, j) in END_TO_END.iter().chain(&PER_LAYER).zip(declared) {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.better.label()));
            assert_eq!(
                j.get("bound").and_then(json::Value::as_f64),
                m.bound,
                "{}",
                m.name
            );
            assert!(valid_name(m.name));
        }
    }

    /// `compare` never waves through what the driver would reject: a pair's
    /// own bound is at most the one `BENCHMARK.json` states for the metric.
    #[test]
    fn pair_bounds_name_declared_workloads_and_stay_within_the_metric_bound() {
        for m in &END_TO_END {
            assert!(!m.on.is_empty(), "{} is defined nowhere", m.name);
            for (workload, bound) in m.on {
                assert!(WORKLOADS.iter().any(|w| w.name == *workload), "{workload}");
                assert!(*bound > 0.0 && *bound <= m.bound.unwrap(), "{}", m.name);
            }
        }
        assert!(PER_LAYER
            .iter()
            .all(|m| m.on.is_empty() && m.bound.is_none()));
    }
}
