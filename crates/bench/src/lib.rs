//! Shared helpers for the figure/table harness binaries.
//!
//! Binaries (`cargo run --release -p kaffeos-bench --bin <name>`):
//!
//! * `fig3` — SPEC-analogue benchmarks on the seven platforms (Figure 3)
//! * `table1` — write barriers executed per benchmark (Table 1)
//! * `fig4` — servlet scaling under denial of service (Figure 4)
//! * `class_sharing` — shared vs reloaded library classes (§3.2)
//!
//! All numbers that matter are *virtual* (deterministic cycle model at the
//! paper's 500 MHz); wall-clock numbers are printed alongside for
//! reference. Pass `--quick` to any binary for a fast smoke run.

/// Formats a float with the given width/precision for plain-text tables.
pub fn cell(v: f64, width: usize, precision: usize) -> String {
    format!("{v:>width$.precision$}")
}

/// Formats a float for the hand-written `BENCH_*.json` reports: three
/// decimals, `null` for a non-finite value (JSON has no NaN/inf).
pub fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// True if `--quick` was passed.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
