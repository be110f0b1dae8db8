//! `e2e` — the repository's wall-clock benchmark.
//!
//! Five workloads, seven end-to-end metrics, and a per-layer split timed
//! from outside the product: spans around every call the benchmark makes
//! into a crate's public API. The simulator's virtual time is
//! deterministic, so everything reported is **host** time, host memory or
//! an exact count; the virtual outputs (checksums, served requests, report
//! texts, exit statuses, the virtual clock) are folded into a `virt_digest`
//! and are the correctness check. README.md beside this file defines every
//! name used here.
//!
//! ```text
//! e2e --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--quick] [--out <file>]
//! e2e --all [--seed <u64>] [--seconds <s>] [--sets <k>] [--quick] [--out <file>]
//! e2e --list
//! e2e --check <result.json> [--benchmark <BENCHMARK.json>]
//! e2e compare <a.json> <b.json>
//! e2e expected <result.json>...
//! ```
//!
//! The last line of a `--workload` run's standard output is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — end-to-end
//! with tracing off, per-layer with tracing on.

mod churn;
mod gen;
mod harness;
mod json;
mod metrics;
mod pace;
mod report;
mod servlet;
mod slo;
mod spans;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Plan, RunResult, Workload};
use metrics::{END_TO_END, EXTRAS, PER_LAYER, WORKLOADS};

/// Seconds of rounds a full-size run measures unless told otherwise.
const DEFAULT_SECONDS: f64 = 20.0;
/// The same for `--quick`: one or two small rounds per workload.
const QUICK_SECONDS: f64 = 0.3;

/// Where result files and spans go: beside the build outputs.
fn bench_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("bench-e2e")
}

fn workload(name: &str, plan: &Plan) -> Option<(&'static str, Box<dyn Workload>)> {
    let info = WORKLOADS.iter().find(|w| w.name == name)?;
    let w: Box<dyn Workload> = match info.name {
        "spec-compute" => Box::new(spec::Spec::compute(plan)),
        "spec-alloc" => Box::new(spec::Spec::alloc(plan)),
        "servlet-dos" => Box::new(servlet::Servlet::new(plan)),
        "slo-scenarios" => Box::new(slo::Slo::new(plan)),
        "spawn-churn" => Box::new(churn::Churn::new(plan)),
        other => unreachable!("workload {other} is declared but not built"),
    };
    Some((info.name, w))
}

/// Command-line options shared by the running modes.
struct Options {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    sets: u32,
    out: Option<PathBuf>,
    check: Option<String>,
    benchmark: String,
    list: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        sets: 1,
        out: None,
        check: None,
        benchmark: "BENCHMARK.json".to_string(),
        list: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: {text:?} is not a number"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(&mut i, "--workload")?),
            "--all" => o.all = true,
            "--seed" => o.seed = number("--seed", value(&mut i, "--seed")?)?,
            "--seconds" => {
                let s: f64 = number("--seconds", value(&mut i, "--seconds")?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                o.seconds = Some(s);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (o.trace, i) = (false, i + 1),
                Some("1") => (o.trace, i) = (true, i + 1),
                _ => o.trace = true,
            },
            "--quick" => o.quick = true,
            "--sets" => o.sets = number("--sets", value(&mut i, "--sets")?)?,
            "--out" => o.out = Some(value(&mut i, "--out")?.into()),
            "--check" => o.check = Some(value(&mut i, "--check")?),
            "--benchmark" => o.benchmark = value(&mut i, "--benchmark")?,
            "--list" => o.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(o)
}

impl Options {
    fn plan(&self) -> Plan {
        Plan {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(if self.quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            trace: self.trace,
            quick: self.quick,
        }
    }
}

fn print_readings(result: &RunResult) {
    let kind = if result.plan.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "{} (seed {}, {} mode, {} rounds, {} request samples): {kind} metrics",
        result.workload,
        result.plan.seed,
        result.plan.mode(),
        result.round_walls_s.len(),
        result.request_samples
    );
    let walls: Vec<String> = result
        .round_walls_s
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    println!("  round walls at reference pace (s):{}", walls.join(" "));
    let slow: Vec<String> = result
        .round_slowdowns
        .iter()
        .map(|s| format!("{s:.2}"))
        .collect();
    println!("  host slowdown in each round:     {}", slow.join(" "));
    for r in result.metrics.iter().chain(&result.extras) {
        println!("  {:<44} {:>18.6} {}", r.name, r.value, r.unit);
    }
    if !result.plan.trace {
        println!(
            "  (req_wall_p95_us is the p{} of its samples)",
            result.tail_percentile
        );
    }
    println!(
        "  virt_digest {:#018x}{}; {} of {} operations failed",
        result.virt_digest,
        match result.expected_digest {
            Some(d) if d == result.virt_digest => " (as expected.json)",
            Some(_) => " (NOT as expected.json)",
            None => " (recorded, not compared: expected.json holds seed 1)",
        },
        result.failed,
        result.attempted
    );
    for p in &result.problems {
        println!("  problem: {p}");
    }
}

/// Runs one workload in this process.
fn run_one(name: &str, o: &Options) -> Result<ExitCode, String> {
    let plan = o.plan();
    let (name, mut w) = workload(name, &plan).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let (result, tracer) = harness::run(name, plan, w.as_mut());

    let dir = bench_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if plan.trace {
        let path = dir.join(format!("spans.{name}.jsonl"));
        tracer
            .write_jsonl(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let out = o.out.clone().unwrap_or_else(|| {
        let kind = if plan.trace { "traced" } else { "untraced" };
        dir.join(format!("{name}.{kind}.json"))
    });
    std::fs::write(&out, result.to_json() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;

    print_readings(&result);
    println!("{}", result.summary_json());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload, untraced then traced, each in a process of its own
/// so that `peak_rss_mb` belongs to one workload; merges the result files.
fn run_all(o: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let dir = bench_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let plan = o.plan();
    let mut docs = Vec::new();
    let mut all_correct = true;
    for _ in 0..o.sets {
        for w in &WORKLOADS {
            for trace in ["0", "1"] {
                let out = dir.join(format!("{}.part.json", w.name));
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["--workload", w.name, "--trace", trace])
                    .args(["--seed", &plan.seed.to_string()])
                    .args(["--seconds", &plan.seconds.to_string()])
                    .arg("--out")
                    .arg(&out);
                if plan.quick {
                    cmd.arg("--quick");
                }
                let status = cmd
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("{} (trace {trace}) ended with {status}", w.name));
                }
                let text =
                    std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
                let _ = std::fs::remove_file(&out);
                let correct = json::parse(&text)
                    .map_err(|e| format!("{}: {e}", out.display()))?
                    .get("correct")
                    .and_then(json::Value::as_bool);
                all_correct &= correct == Some(true);
                docs.push(text.trim_end().to_string());
            }
        }
    }
    let out = o.out.clone().unwrap_or_else(|| dir.join("result.json"));
    let set = format!(
        "{{\"schema\":\"kaffeos-e2e-set/1\",\"mode\":\"{}\",\"seed\":{},\"runs\":[\n{}\n]}}\n",
        plan.mode(),
        plan.seed,
        docs.join(",\n")
    );
    std::fs::write(&out, set).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!(
        "\nend-to-end metrics (tracing off; every workload prints every one, `compare` judges"
    );
    println!("the pairs listed under each; BENCHMARK.json's bound fits the noisiest workload):");
    for m in &END_TO_END {
        println!(
            "  {:<28} {:<7} {:<6} is better, may worsen by {:>2.0}%  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.expect("end-to-end metrics have bounds") * 100.0,
            m.note
        );
        let on: Vec<String> =
            m.on.iter()
                .map(|(w, bound)| format!("{w} {:.0}%", bound * 100.0))
                .collect();
        println!("  {:<28} defined on: {}", "", on.join(", "));
    }
    println!("\nper-layer metrics (traced run; no bound):");
    for m in &PER_LAYER {
        println!(
            "  {:<28} {:<7} {:<6} is better  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.note
        );
    }
    println!("\nworkload-specific figures (result file only):");
    for (name, unit, workload, note) in &EXTRAS {
        println!("  {name:<40} {unit:<7} {workload:<14} {note}");
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("usage: e2e compare <a.json> <b.json>".to_string());
            };
            let (table, regressions) = report::compare(a, b)?;
            print!("{table}");
            Ok(if regressions == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("expected") => {
            print!("{}", report::expected(&args[1..])?);
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let o = parse_options(args)?;
            if o.list {
                list();
                Ok(ExitCode::SUCCESS)
            } else if let Some(path) = &o.check {
                let problems = report::check(path, &o.benchmark)?;
                for p in &problems {
                    println!("{p}");
                }
                println!("{path}: {} problems", problems.len());
                Ok(if problems.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            } else if o.all {
                run_all(&o)
            } else if let Some(name) = &o.workload {
                run_one(name, &o)
            } else {
                Err("nothing to do: pass --workload <name>, --all, --list, --check, compare or expected".to_string())
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// This directory builds through two manifests (README, "Layout"): as
    /// the `e2e` bin of kaffeos-bench and as the package BENCHMARK.json's
    /// command names. They must build the same binary.
    #[test]
    fn both_manifests_build_the_same_thing() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let tables = |manifest: &'static str, prefix: &str| -> Vec<&'static str> {
            manifest
                .split("\n[")
                .filter(|table| table.starts_with(prefix))
                .collect()
        };
        assert_eq!(tables(own, "profile"), tables(root, "profile"));
        let [deps] = tables(own, "dependencies")[..] else {
            panic!("one [dependencies] table");
        };
        let [bench_deps] = tables(bench, "dependencies")[..] else {
            panic!("one [dependencies] table");
        };
        for (name, _) in deps.lines().skip(1).filter_map(|l| l.split_once(" = ")) {
            assert!(
                bench_deps
                    .lines()
                    .any(|l| l.starts_with(&format!("{name}."))),
                "{name} is not a dependency of kaffeos-bench"
            );
            assert!(root.contains(&format!("{name} = {{ path = ")), "{name}");
        }
    }
}
