//! Fault-injection runner: drives a small multi-process workload under a
//! seeded [`FaultPlan`] and audits every kernel invariant afterwards.
//!
//! ```text
//! cargo run -p kaffeos-workloads -- --faults seed=42
//! cargo run -p kaffeos-workloads -- --faults seed=42 --trace out.json
//! cargo run -p kaffeos-workloads -- --faults seed=42 --profile prof --top
//! ```
//!
//! The seed fully determines the experiment (which mechanisms arm, where
//! the injected OOM lands, which victims the termination sweep picks), so
//! any failure reported here replays exactly. Each of `--trace`,
//! `--profile` and `--heap-profile` switches on one plane of the kernel's
//! observability handle (`os.obs()`), and the files are that plane's
//! exports. With `--trace <path>` the run records the kernel's structured
//! event stream and writes it as a Chrome `trace_event` file (load in
//! `chrome://tracing` / Perfetto); the JSON lines form is written
//! alongside with a `.jsonl` suffix. With `--profile <base>` the
//! virtual-time sampling profiler records the run and writes
//! `<base>.folded` (Brendan-Gregg folded stacks), `<base>.svg`
//! (flamegraph) and `<base>.hist` (GC pause / syscall latency / quantum
//! jitter histograms). `--top` prints a `kaffeos-top` snapshot table
//! before teardown (and turns the profiler on for its TOP-METHOD column).
//! With `--heap-profile <base>` the heap plane records the run
//! and writes `<base>.alloc.folded` / `<base>.objects.folded` (allocation
//! flamegraph inputs weighted by bytes / object counts),
//! `<base>.alloc.svg`, `<base>.survival` (per-site allocated / died /
//! live table), `<base>.timeline.jsonl` (GC/page events and occupancy
//! samples) and `<base>.heaphist` (per-heap GC pause histograms). With
//! `--heap-dump <path>` a deterministic whole-space snapshot is written
//! mid-run (after the fault window) to `<path>` and again after teardown
//! to `<path>.final`. All outputs are byte-identical across reruns of the
//! same seed. Exits non-zero if the audit finds a violation or a process
//! outlives teardown.

use std::process::ExitCode;

use kaffeos::trace::{HeapProfStore, ProfileStore, TraceBuffer};
use kaffeos::{FaultPlan, KaffeOs, KaffeOsConfig, Pid, SpawnOpts};
use kaffeos_workloads::lint::SHMER_SOURCE as SHMER;
use kaffeos_workloads::spec;

fn build_os(trace: bool, profile: bool, heapprof: bool) -> KaffeOs {
    let mut os = KaffeOs::new(KaffeOsConfig {
        trace,
        profile,
        heapprof,
        ..KaffeOsConfig::default()
    });
    os.load_shared_source("class Cell { int value; }")
        .expect("shared class compiles");
    os.register_image("shmer", SHMER).expect("shmer compiles");
    for name in ["compress", "db", "jack"] {
        let bench = spec::by_name(name).expect("known benchmark");
        os.register_image(name, bench.source)
            .expect("benchmark compiles");
    }
    os
}

fn spawn_workload(os: &mut KaffeOs) -> Vec<Pid> {
    [("compress", "1"), ("db", "1"), ("jack", "1"), ("shmer", "3")]
        .iter()
        .map(|(image, arg)| {
            os.spawn_with(
                image,
                arg,
                SpawnOpts {
                    mem_limit: Some(8 << 20),
                    ..SpawnOpts::default()
                },
            )
            .expect("spawn succeeds")
        })
        .collect()
}

fn run_faults(
    seed: u64,
    trace_path: Option<&str>,
    profile_base: Option<&str>,
    heap_profile_base: Option<&str>,
    heap_dump_path: Option<&str>,
    top: bool,
) -> Result<(), String> {
    let plan = FaultPlan::from_seed(seed);
    println!("seed {seed:#x} arms: {plan:?}");

    // `--top` wants the TOP-METHOD column, so it turns the profiler on too.
    let mut os = build_os(
        trace_path.is_some(),
        profile_base.is_some() || top,
        heap_profile_base.is_some(),
    );
    os.install_faults(plan);
    let pids = spawn_workload(&mut os);
    os.run(Some(os.clock() + 2_000_000_000));

    // Mid-run audit: every invariant must hold while faults are active.
    os.audit()
        .map_err(|v| format!("audit while faulted: {v}"))?;

    if top {
        println!("kaffeos-top @ {} cycles:", os.clock());
        print!("{}", os.top_text());
    }

    // Mid-run snapshot: after the fault window, before teardown — the
    // interesting moment for a dump (dead processes not yet merged).
    if let Some(path) = heap_dump_path {
        std::fs::write(path, os.heap_dump())
            .map_err(|e| format!("writing heap dump {path}: {e}"))?;
    }

    // Teardown: kill survivors, drain, collect twice, audit again. The
    // cleared plan keeps the injection counters for the final summary.
    let fired = os.clear_faults();
    for &pid in &pids {
        let _ = os.kill(pid);
    }
    os.run(Some(os.clock() + 500_000_000));
    os.kernel_gc();
    os.kernel_gc();
    for &pid in &pids {
        if os.is_alive(pid) {
            return Err(format!("{pid:?} survived teardown"));
        }
    }
    let report = os
        .audit()
        .map_err(|v| format!("audit after teardown: {v}"))?;
    let root = os.space().root_memlimit();
    if os.space().limits().current(root) != 0 {
        return Err(format!(
            "machine budget did not drain: {} bytes",
            os.space().limits().current(root)
        ));
    }

    let obs = os.obs();
    if let Some(path) = trace_path {
        std::fs::write(path, obs.trace.read(TraceBuffer::chrome))
            .map_err(|e| format!("writing trace {path}: {e}"))?;
        let jsonl_path = format!("{path}.jsonl");
        std::fs::write(&jsonl_path, obs.trace.read(TraceBuffer::jsonl))
            .map_err(|e| format!("writing trace {jsonl_path}: {e}"))?;
        let (recorded, dropped) = obs
            .trace
            .read(|t| (t.metrics().events_recorded, t.metrics().events_dropped));
        println!(
            "trace: {recorded} events recorded ({dropped} dropped by the ring) -> {path}, {jsonl_path}"
        );
    }

    if let Some(base) = profile_base {
        for (suffix, body) in [
            ("folded", obs.profile.read(ProfileStore::folded)),
            ("svg", obs.profile.read(ProfileStore::flamegraph_svg)),
            ("hist", obs.profile.read(ProfileStore::histograms_text)),
        ] {
            let path = format!("{base}.{suffix}");
            std::fs::write(&path, &body).map_err(|e| format!("writing profile {path}: {e}"))?;
        }
        let sampled: u64 = obs
            .profile
            .read(|p| p.totals().values().map(|t| t.total()).sum());
        println!("profile: {sampled} cycles sampled -> {base}.folded, {base}.svg, {base}.hist");
    }

    if let Some(base) = heap_profile_base {
        let class = |tag| os.class_tag_name(tag);
        for (suffix, body) in [
            ("alloc.folded", obs.heap.read(|h| h.folded_bytes(&class))),
            ("objects.folded", obs.heap.read(|h| h.folded_objects(&class))),
            ("alloc.svg", obs.heap.read(|h| h.flamegraph_svg(&class))),
            ("survival", obs.heap.read(|h| h.survival_text(&class))),
            ("timeline.jsonl", obs.heap.read(HeapProfStore::timeline_jsonl)),
            ("heaphist", obs.heap.read(HeapProfStore::heap_hists_text)),
        ] {
            let path = format!("{base}.{suffix}");
            std::fs::write(&path, &body)
                .map_err(|e| format!("writing heap profile {path}: {e}"))?;
        }
        println!(
            "heap profile: {} timeline events -> {base}.alloc.folded, {base}.objects.folded, {base}.alloc.svg, {base}.survival, {base}.timeline.jsonl, {base}.heaphist",
            obs.heap.read(HeapProfStore::timeline_len)
        );
    }

    if let Some(path) = heap_dump_path {
        let final_path = format!("{path}.final");
        std::fs::write(&final_path, os.heap_dump())
            .map_err(|e| format!("writing heap dump {final_path}: {e}"))?;
        println!("heap dumps -> {path} (mid-run), {final_path}");
    }

    println!("statuses:");
    for &pid in &pids {
        println!("  {pid:?}: {:?}", os.status(pid));
    }
    println!("audit report: {report:#?}");
    if let Some(fired) = fired {
        println!(
            "injections: {} alloc faults, {} kills, {} illegal writes (0 accepted required: {})",
            report.alloc_faults_fired, fired.kills_injected, fired.illegal_writes_attempted,
            fired.illegal_writes_accepted
        );
        if fired.illegal_writes_accepted > 0 {
            return Err(format!(
                "barrier accepted {} illegal writes",
                fired.illegal_writes_accepted
            ));
        }
    }
    println!("seed {seed:#x}: all invariants held");
    Ok(())
}

/// Runs one named SLO scenario (or `all`) and prints/writes the golden
/// per-tenant report.
fn run_scenarios(which: &str, seed: u64, out: Option<&str>) -> Result<(), String> {
    let names: Vec<&str> = if which == "all" {
        kaffeos_workloads::SCENARIOS.to_vec()
    } else {
        vec![which]
    };
    let mut combined = String::new();
    for name in names {
        let report = kaffeos_workloads::run_scenario(name, seed)
            .ok_or_else(|| format!("unknown scenario {name:?} (see --scenario list)"))?;
        combined.push_str(&report.text);
        combined.push('\n');
    }
    match out {
        Some(path) => {
            std::fs::write(path, &combined).map_err(|e| format!("writing {path}: {e}"))?;
            println!("scenario report -> {path}");
        }
        None => print!("{combined}"),
    }
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: kaffeos-workloads --faults seed=<N> [--trace <path>] [--profile <base>] \
       [--heap-profile <base>] [--heap-dump <path>] [--top]"
    );
    eprintln!("       kaffeos-workloads --scenario <name|all|list> seed=<N> [--out <path>]");
    eprintln!("       kaffeos-workloads --lint [--allowlist <path>]");
    eprintln!("       (N may be decimal or 0x-prefixed hex)");
    eprintln!("       --profile writes <base>.folded, <base>.svg and <base>.hist");
    eprintln!(
        "       --heap-profile writes <base>.alloc.folded, <base>.objects.folded, \
       <base>.alloc.svg, <base>.survival, <base>.timeline.jsonl, <base>.heaphist"
    );
    eprintln!("       --heap-dump writes a deterministic JSONL snapshot mid-run and <path>.final");
    eprintln!("       --top prints a kaffeos-top snapshot table before teardown");
    eprintln!(
        "       scenarios: {}",
        kaffeos_workloads::SCENARIOS.join(", ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--lint") {
        return kaffeos_workloads::lint::run_lint_cli(&args);
    }
    let scenario = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    if scenario.is_none() && !args.iter().any(|a| a == "--faults") {
        return usage();
    }
    if scenario == Some("list") {
        for name in kaffeos_workloads::SCENARIOS {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(seed) = args.iter().find_map(|a| {
        let n = a.strip_prefix("seed=")?;
        match n.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => n.parse().ok(),
        }
    }) else {
        return usage();
    };
    let path_after = |flag: &str| match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1) {
            Some(path) => Ok(Some(path.as_str())),
            None => Err(()),
        },
        None => Ok(None),
    };
    if let Some(which) = scenario {
        let Ok(out) = path_after("--out") else {
            return usage();
        };
        return match run_scenarios(which, seed, out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("SCENARIO FAILED: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let Ok(trace_path) = path_after("--trace") else {
        return usage();
    };
    let Ok(profile_base) = path_after("--profile") else {
        return usage();
    };
    let Ok(heap_profile_base) = path_after("--heap-profile") else {
        return usage();
    };
    let Ok(heap_dump_path) = path_after("--heap-dump") else {
        return usage();
    };
    let top = args.iter().any(|a| a == "--top");
    match run_faults(
        seed,
        trace_path,
        profile_base,
        heap_profile_base,
        heap_dump_path,
        top,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("FAULT EXPERIMENT FAILED (seed {seed:#x}): {msg}");
            ExitCode::FAILURE
        }
    }
}
