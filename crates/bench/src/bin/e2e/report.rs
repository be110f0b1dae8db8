//! Reading result files back: `compare`, `--check` and `expected`.
//!
//! A result file is either one run (what `--workload` writes) or a set
//! (`--all`: `{"runs": [...]}`); both are handled as a list of runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::{self, Better, END_TO_END, EXACT_COUNTS, WORKLOADS};
use crate::stats;

/// One run as read back from a result file.
pub struct Run<'a> {
    pub workload: &'a str,
    pub mode: &'a str,
    pub seed: &'a str,
    pub traced: bool,
    pub doc: &'a Value,
}

pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The runs a result document holds.
pub fn runs(doc: &Value) -> Result<Vec<Run<'_>>, String> {
    let docs: Vec<&Value> = match doc.get("runs") {
        Some(list) => list.items().iter().collect(),
        None => vec![doc],
    };
    docs.into_iter()
        .map(|doc| {
            let text = |key: &str| {
                doc.get(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("a run has no \"{key}\""))
            };
            Ok(Run {
                workload: text("workload")?,
                mode: text("mode")?,
                seed: match doc.get("seed") {
                    Some(Value::Num(n)) => n,
                    _ => return Err("a run has no \"seed\"".to_string()),
                },
                traced: doc
                    .get("traced")
                    .and_then(Value::as_bool)
                    .ok_or("a run has no \"traced\"")?,
                doc,
            })
        })
        .collect()
}

/// The one mode every run of a file was made in.
fn single_mode<'a>(runs: &[Run<'a>], path: &str) -> Result<&'a str, String> {
    let mode = runs.first().ok_or(format!("{path} holds no runs"))?.mode;
    if runs.iter().any(|r| r.mode != mode) {
        return Err(format!("{path} mixes quick and full runs"));
    }
    Ok(mode)
}

/// Values of end-to-end metric `metric` over the untraced runs of `workload`.
fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.doc.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Spread of same-side runs as a share of their median: the interquartile
/// range from four runs on, the full range below that, nothing for one.
fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let width = match v.len() {
        0 | 1 => 0.0,
        2 | 3 => v[v.len() - 1] - v[0],
        n => stats::percentile(&v, 75) - v[(n * 25).div_ceil(100) - 1],
    };
    width / stats::median(&v)
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

/// `ok`, `regressed`, or `unresolved` when either side's own spread is wider
/// than the bound, so a move of the size of the bound could be noise.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> &'static str {
    if spread(a) > bound || spread(b) > bound {
        "unresolved"
    } else if worsening(better, stats::median(a), stats::median(b)) > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// One row per end-to-end metric × workload it is defined on, judged by
/// that pair's own bound (`Metric::on`). `Err` when the files cannot be
/// compared; `Ok((table, regressions))` otherwise.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, usize), String> {
    let (doc_a, doc_b) = (load(path_a)?, load(path_b)?);
    let (runs_a, runs_b) = (runs(&doc_a)?, runs(&doc_b)?);
    let (mode_a, mode_b) = (single_mode(&runs_a, path_a)?, single_mode(&runs_b, path_b)?);
    if mode_a != mode_b {
        return Err(format!(
            "{path_a} is a {mode_a} run and {path_b} a {mode_b} run: sizes differ, nothing to compare"
        ));
    }
    Ok(table(&runs_a, &runs_b))
}

/// The comparison table of two lists of runs, and how many rows regressed.
fn table(runs_a: &[Run], runs_b: &[Run]) -> (String, usize) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>14} {:>14} {:>18} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "spread a", "spread b", "bound"
    );
    let mut regressions = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let Some(&(_, bound)) = m.on.iter().find(|(on, _)| *on == w.name) else {
                continue;
            };
            let (a, b) = (
                values(runs_a, w.name, m.name),
                values(runs_b, w.name, m.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (med_a, med_b) = (stats::median(&a), stats::median(&b));
            let verdict = verdict(m.better, bound, &a, &b);
            regressions += usize::from(verdict == "regressed");
            let _ = writeln!(
                out,
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>7.4} of {:<8.4} {:>8.2}% {:>8.2}% {:>5.0}%  {verdict} ({} is better; n={}/{}, {})",
                w.name,
                m.name,
                med_a,
                med_b,
                med_b / med_a,
                med_a,
                spread(&a) * 100.0,
                spread(&b) * 100.0,
                bound * 100.0,
                m.better.label(),
                a.len(),
                b.len(),
                m.unit,
            );
        }
    }
    (out, regressions)
}

/// Checks one metrics object against the declared list: every declared
/// metric exactly once, with its unit and a finite value, and nothing else.
fn check_metrics(
    what: &str,
    got: Option<&Value>,
    declared: &[(String, String)],
    problems: &mut Vec<String>,
) {
    let members = got.map(Value::members).unwrap_or_default();
    for (name, unit) in declared {
        let hits: Vec<&Value> = members
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .collect();
        match hits.as_slice() {
            [] => problems.push(format!("{what}: {name} is missing")),
            [one] => {
                if one.get("unit").and_then(Value::as_str) != Some(unit) {
                    problems.push(format!("{what}: {name} is not in {unit}"));
                }
                if one.get("value").and_then(Value::as_f64).is_none() {
                    problems.push(format!("{what}: {name} has no finite value"));
                }
            }
            _ => problems.push(format!("{what}: {name} appears {} times", hits.len())),
        }
    }
    for (name, _) in members {
        if !metrics::valid_name(name) {
            problems.push(format!("{what}: bad metric name {name:?}"));
        }
        if !declared.iter().any(|(d, _)| d == name) {
            problems.push(format!("{what}: {name} is not declared in BENCHMARK.json"));
        }
    }
}

/// `(name, unit)` of every entry of one list of `BENCHMARK.json`.
fn declared(benchmark: &Value, list: &str) -> Result<Vec<(String, String)>, String> {
    benchmark
        .get(list)
        .ok_or(format!("BENCHMARK.json has no {list}"))?
        .items()
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: an entry of {list} has no {key}"))
            };
            Ok((field("name")?, field("unit").unwrap_or_default()))
        })
        .collect()
}

/// Validates a result file against `BENCHMARK.json`; returns the problems.
pub fn check(result_path: &str, benchmark_path: &str) -> Result<Vec<String>, String> {
    let benchmark = load(benchmark_path)?;
    let doc = load(result_path)?;
    let runs = runs(&doc)?;
    single_mode(&runs, result_path)?;
    let workloads = declared(&benchmark, "workloads")?;
    let end_to_end = declared(&benchmark, "end_to_end")?;
    let per_layer = declared(&benchmark, "per_layer")?;
    let mut problems = Vec::new();

    for run in &runs {
        if !workloads.iter().any(|(w, _)| w == run.workload) {
            problems.push(format!(
                "workload {} is not declared in BENCHMARK.json",
                run.workload
            ));
        }
    }
    for (workload, _) in &workloads {
        if !metrics::valid_name(workload) {
            problems.push(format!("bad workload name {workload:?}"));
        }
        let of_workload: Vec<&Run> = runs.iter().filter(|r| r.workload == workload).collect();
        let untraced = of_workload.iter().filter(|r| !r.traced).count();
        let traced = of_workload.iter().filter(|r| r.traced).count();
        if untraced == 0 {
            problems.push(format!(
                "{workload}: no untraced run, so no end-to-end metrics"
            ));
        }
        if traced == 0 {
            problems.push(format!(
                "{workload}: no traced run, so no per-layer metrics"
            ));
        }
        if untraced > 0 && traced > 0 && untraced != traced {
            problems.push(format!(
                "{workload}: {untraced} untraced runs but {traced} traced"
            ));
        }
        for run in &of_workload {
            let (what, list) = if run.traced {
                (format!("{workload} (traced)"), &per_layer)
            } else {
                (format!("{workload} (untraced)"), &end_to_end)
            };
            check_metrics(&what, run.doc.get("metrics"), list, &mut problems);
            if run.doc.get("correct").and_then(Value::as_bool) != Some(true) {
                problems.push(format!("{what}: outputs were not correct"));
            }
        }
        // Virtual outputs may not depend on whether spans were recorded,
        // nor on which run of a seed produced them.
        let mut by_seed: BTreeMap<&str, Vec<&Run>> = BTreeMap::new();
        for run in of_workload {
            by_seed.entry(run.seed).or_default().push(run);
        }
        for (seed, same) in by_seed {
            for key in std::iter::once("virt_digest").chain(EXACT_COUNTS) {
                let mut seen: Vec<&Value> = same
                    .iter()
                    .filter_map(|r| match key {
                        "virt_digest" => r.doc.get(key),
                        _ => r.doc.get("counts")?.get(key),
                    })
                    .collect();
                seen.dedup();
                if seen.len() > 1 {
                    problems.push(format!(
                        "{workload}, seed {seed}: {key} differs between runs"
                    ));
                }
            }
        }
    }
    Ok(problems)
}

/// What `expected.json` records for one workload in one mode.
#[derive(Default)]
struct Expected {
    virt_digest: String,
    /// Exact counts, as the source text of their numbers.
    counts: BTreeMap<String, String>,
    /// The counts an untraced run produces too; the rest need a traced one.
    untraced: BTreeSet<String>,
}

/// Renders `expected.json` from the runs of the given result files (one set
/// per mode, traced and untraced runs): per mode and workload, the digest and
/// every exact count.
pub fn expected(paths: &[String]) -> Result<String, String> {
    let mut modes: BTreeMap<String, BTreeMap<String, Expected>> = BTreeMap::new();
    for path in paths {
        let doc = load(path)?;
        for run in runs(&doc)? {
            let digest = run
                .doc
                .get("virt_digest")
                .and_then(Value::as_str)
                .ok_or("a run has no virt_digest")?;
            let entry = modes
                .entry(run.mode.to_string())
                .or_default()
                .entry(run.workload.to_string())
                .or_insert_with(|| Expected {
                    virt_digest: digest.to_string(),
                    ..Expected::default()
                });
            if entry.virt_digest != digest {
                return Err(format!("{}: runs disagree on virt_digest", run.workload));
            }
            for (key, v) in run
                .doc
                .get("counts")
                .map(Value::members)
                .unwrap_or_default()
            {
                if let Value::Num(n) = v {
                    entry.counts.insert(key.clone(), n.clone());
                    if !run.traced {
                        entry.untraced.insert(key.clone());
                    }
                }
            }
        }
    }
    let mut out = String::from("{\n");
    let mut first_mode = true;
    for (mode, workloads) in &modes {
        if !std::mem::take(&mut first_mode) {
            out.push_str(",\n");
        }
        let _ = writeln!(out, "  {}: {{", json::quote(mode));
        let rows: Vec<String> = WORKLOADS
            .iter()
            .filter_map(|w| workloads.get_key_value(w.name))
            .map(|(workload, expected)| {
                let counts = |in_untraced: bool| -> String {
                    let list: Vec<String> = expected
                        .counts
                        .iter()
                        .filter(|(k, _)| expected.untraced.contains(*k) == in_untraced)
                        .map(|(k, v)| format!("{}: {v}", json::quote(k)))
                        .collect();
                    list.join(", ")
                };
                format!(
                    "    {}: {{\"virt_digest\": {}, \"counts\": {{{}}}, \"traced_counts\": {{{}}}}}",
                    json::quote(workload),
                    json::quote(&expected.virt_digest),
                    counts(true),
                    counts(false)
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_bound_direction_and_spread() {
        use Better::{Higher, Lower};
        // Lower is better: +4 % is inside a 5 % bound, +8 % is not.
        assert_eq!(verdict(Lower, 0.05, &[100.0], &[104.0]), "ok");
        assert_eq!(verdict(Lower, 0.05, &[100.0], &[108.0]), "regressed");
        assert_eq!(verdict(Lower, 0.05, &[100.0], &[50.0]), "ok");
        // Higher is better: losing 8 % of the base regresses.
        assert_eq!(verdict(Higher, 0.05, &[100.0], &[92.0]), "regressed");
        assert_eq!(verdict(Higher, 0.05, &[100.0], &[130.0]), "ok");
        // Same-side runs 12 % apart cannot resolve a 5 % bound.
        assert_eq!(
            verdict(Lower, 0.05, &[100.0, 112.0], &[100.0]),
            "unresolved"
        );
        assert_eq!(
            verdict(Lower, 0.05, &[100.0, 101.0], &[100.0, 120.0]),
            "unresolved"
        );
    }

    /// A 20 % loss regresses where the metric is defined and tight enough to
    /// see it; the stand-in the same metric prints elsewhere is not judged.
    #[test]
    fn compare_judges_only_the_pairs_a_metric_is_defined_on() {
        let run = |workload: &str, mops: f64| {
            format!(
                "{{\"workload\":\"{workload}\",\"mode\":\"full\",\"seed\":1,\"traced\":false,\
                 \"metrics\":{{\"guest_mops\":{{\"value\":{mops},\"unit\":\"Mops/s\"}}}}}}"
            )
        };
        let set = |mops: f64| {
            let runs = [run("spec-compute", mops), run("servlet-dos", mops)];
            json::parse(&format!("{{\"runs\":[{}]}}", runs.join(","))).unwrap()
        };
        let (a, b) = (set(100.0), set(80.0));
        let (text, regressions) = table(&runs(&a).unwrap(), &runs(&b).unwrap());
        assert_eq!(regressions, 1);
        assert!(text.contains("spec-compute") && text.contains("regressed"));
        assert!(!text.contains("servlet-dos"));
    }

    #[test]
    fn spread_is_the_interquartile_range_from_four_runs_on() {
        assert_eq!(spread(&[10.0]), 0.0);
        assert_eq!(spread(&[9.0, 11.0]), 0.2);
        // Quartiles of 1..=8 by nearest rank are 2 and 6; the median is 4.5.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(spread(&v), 4.0 / 4.5);
    }
}
