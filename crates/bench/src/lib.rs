//! Shared helpers for the figure/table harness binaries.
//!
//! Binaries (`cargo run --release -p kaffeos-bench --bin <name>`):
//!
//! * `fig3` — SPEC-analogue benchmarks on the seven platforms (Figure 3)
//! * `table1` — write barriers executed per benchmark (Table 1)
//! * `fig4` — servlet scaling under denial of service (Figure 4)
//! * `class_sharing` — shared vs reloaded library classes (§3.2)
//! * `e2e` — the wall-clock benchmark and CI gate (`src/bin/e2e/README.md`);
//!   it is also a package of its own and does not use these helpers
//!
//! The figure/table numbers are *virtual* (deterministic cycle model at the
//! paper's 500 MHz); wall-clock numbers are printed alongside for reference,
//! and `e2e` is what judges host time. Pass `--quick` to any binary for a
//! fast smoke run. `cargo bench -p kaffeos-bench` runs the
//! `micro` and `ablations` harnesses.

/// True if `--quick` was passed.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Times `iters` runs of `f` after `warmup` unrecorded runs and prints
/// mean ns/iteration: the `micro` and `ablations` harnesses' timer.
pub fn bench(name: &str, warmup: u32, iters: u32, mut f: impl FnMut()) {
    for _ in 0..warmup {
        f();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<44} {per:>14.1} ns/iter  ({iters} iters)");
}
