//! Static-analysis lint driver: loads every bundled guest program into one
//! VM and reports the heap-flow analyzer's diagnostics.
//!
//! This is the program behind `kaffeos-lint` and `kaffeos-workloads
//! --lint`. It boots a kernel, registers the seven SPEC-analogue
//! benchmarks, the servlet engine, the memhog, and the fault-runner's
//! shared-memory writer, spawns each once (spawning is what loads an
//! image's classes), and then runs [`kaffeos::analyze`] over the whole
//! class table — stdlib included.
//!
//! In `--allowlist` mode every diagnostic's stable key
//! (`"<kind> <Class>.<method>"`, deliberately pc-free) must appear in the
//! given file or the run fails; CI pins the expected lint surface this
//! way, so a new diagnostic anywhere in the bundled guests breaks the
//! build until a human looks at it.

use std::collections::BTreeSet;
use std::process::ExitCode;

use kaffeos::{KaffeOs, KaffeOsConfig};

use crate::spec;

/// The fault-runner's shared-memory writer: stores into a frozen shared
/// `Cell` — the canonical *dynamic* seg-violation workload, and therefore
/// also the canonical expected lint.
pub const SHMER_SOURCE: &str = r#"
    class Main {
        static int main(int n) {
            try {
                if (Shm.lookup("box") < 0) {
                    Shm.create("box", "Cell", 16);
                }
                Cell c = Shm.get("box", n % 16) as Cell;
                c.value = n;
                return c.value;
            } catch (Exception e) {
                return -5;
            }
        }
    }
"#;

/// Result of a lint sweep over the bundled programs.
pub struct LintReport {
    /// Every diagnostic, sorted and exact-deduplicated (per-process class
    /// reloads produce byte-identical repeats).
    pub lines: Vec<String>,
    /// Stable allowlist keys of the diagnostics, deduplicated.
    pub keys: BTreeSet<String>,
    /// Reference-store sites proven elidable.
    pub elided: usize,
    /// All reference-store sites seen.
    pub total_sites: usize,
    /// One-line verdict summary across all passes (store elision,
    /// monomorphic virtual sites, escape classes). Byte-stable for
    /// a fixed class table; CI double-runs the linter and compares it.
    pub verdicts: String,
}

/// Boots a kernel with every bundled guest program loaded and runs the
/// static heap-flow analyzer over the full class table.
pub fn lint_bundled() -> LintReport {
    let mut os = KaffeOs::new(KaffeOsConfig::default());
    os.load_shared_source("class Cell { int value; }")
        .expect("shared class compiles");
    os.register_image("shmer", SHMER_SOURCE)
        .expect("shmer compiles");
    os.register_image("servlet", crate::servlet::SERVLET_SOURCE)
        .expect("servlet compiles");
    os.register_image("memhog", crate::servlet::MEMHOG_SOURCE)
        .expect("memhog compiles");
    for bench in spec::all_benchmarks() {
        os.register_image(bench.name, bench.source)
            .expect("benchmark compiles");
    }
    for image in [
        "shmer",
        "servlet",
        "memhog",
        "compress",
        "jess",
        "db",
        "javac",
        "mpegaudio",
        "mtrt",
        "jack",
    ] {
        os.spawn(image, "1", None).expect("spawn loads the image");
    }

    let analysis = os.analysis();
    let (elided, total_sites) = analysis.elision_counts();
    let mut lines: Vec<String> = Vec::new();
    let mut keys = BTreeSet::new();
    for lint in &analysis.lints {
        let line = lint.to_string();
        // Per-process stdlib reloads repeat identical diagnostics.
        if lines.last() != Some(&line) {
            lines.push(line);
        }
        keys.insert(lint.key());
    }
    lines.dedup();
    LintReport {
        lines,
        keys,
        elided,
        total_sites,
        verdicts: analysis.verdict_summary(),
    }
}

/// CLI entry shared by `kaffeos-lint` and `kaffeos-workloads --lint`:
/// prints the report; with `--allowlist <path>` fails on any diagnostic
/// key missing from the file (one key per line, `#` comments). With
/// `--strict`, allowlist entries that no longer fire are *also* fatal, so
/// the pinned lint surface cannot silently rot as diagnostics are fixed.
pub fn run_lint_cli(args: &[String]) -> ExitCode {
    let strict = args.iter().any(|a| a == "--strict");
    let allowlist_path = match args.iter().position(|a| a == "--allowlist") {
        Some(i) => match args.get(i + 1) {
            Some(path) => Some(path.clone()),
            None => {
                eprintln!("usage: kaffeos-lint [--allowlist <path>] [--strict]");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let report = lint_bundled();
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "{} diagnostics ({} unique keys); {}/{} reference-store sites barrier-elidable",
        report.lines.len(),
        report.keys.len(),
        report.elided,
        report.total_sites
    );
    println!("{}", report.verdicts);

    let Some(path) = allowlist_path else {
        return ExitCode::SUCCESS;
    };
    let allow = match std::fs::read_to_string(&path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect::<BTreeSet<_>>(),
        Err(e) => {
            eprintln!("cannot read allowlist {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let new: Vec<_> = report.keys.difference(&allow).collect();
    for key in &new {
        eprintln!("NEW DIAGNOSTIC (not in {path}): {key}");
    }
    let mut stale_count = 0usize;
    for stale in allow.difference(&report.keys) {
        if strict {
            eprintln!("STALE ALLOWLIST ENTRY (no longer fires): {stale}");
            stale_count += 1;
        } else {
            println!("note: allowlist entry no longer fires: {stale}");
        }
    }
    if new.is_empty() && stale_count == 0 {
        println!("lint surface matches {path}");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
