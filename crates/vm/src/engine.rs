//! Execution engines and the virtual cycle model.
//!
//! Figure 3 of the paper compares seven platforms: the IBM JDK (one of the
//! fastest JITs of the time), Kaffe00, Kaffe99, and four KaffeOS barrier
//! configurations. We cannot run those VMs; instead one interpreter runs
//! under per-engine **cycle models** whose CPI (cycles-per-bytecode)
//! factors are calibrated to the measured ratios the paper reports:
//! IBM ≈ 2–5× faster than Kaffe00, Kaffe00 ≈ 2× faster than Kaffe99, and
//! KaffeOS slightly faster than Kaffe99 thanks to back-ported Kaffe00
//! features (notably fast exception dispatch, which the paper singles out
//! for `jack`). Virtual time is deterministic; wall-clock time is measured
//! separately and reported side by side.

/// Per-operation base cycle costs (before the engine CPI factor).
#[derive(Debug, Clone, Copy)]
pub struct OpCosts {
    /// Arithmetic, comparisons, stack shuffles.
    pub simple: u64,
    /// Local loads/stores, constants.
    pub local: u64,
    /// Branches.
    pub branch: u64,
    /// Field access (get/put), array load/store.
    pub field: u64,
    /// Allocation base (plus per-slot cost from the heap model).
    pub alloc: u64,
    /// Call overhead (frame push) plus per-argument copy.
    pub call: u64,
    /// Per-argument cost added to `call`.
    pub call_per_arg: u64,
    /// Return overhead.
    pub ret: u64,
    /// String operation base (plus per-char cost).
    pub string: u64,
    /// Per-character cost added to `string`.
    pub string_per_char: u64,
    /// Monitor acquire/release.
    pub monitor: u64,
}

/// Re-exported stack-scan cost (see `kaffeos_heap::costs`).
pub const GC_STACK_SCAN_PER_SLOT: u64 = kaffeos_heap::costs::GC_STACK_SCAN_PER_SLOT;

/// Baseline costs roughly matching a simple threaded interpreter on the
/// paper's 500 MHz Pentium III at CPI factor 1.0 (i.e. "JIT-quality").
pub const BASE_COSTS: OpCosts = OpCosts {
    simple: 1,
    local: 1,
    branch: 2,
    field: 3,
    alloc: 40,
    call: 12,
    call_per_arg: 2,
    ret: 6,
    string: 12,
    string_per_char: 1,
    monitor: 20,
};

/// An execution engine: a named cycle model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Engine {
    /// Display name for figures.
    pub name: &'static str,
    /// CPI factor in tenths (10 = 1.0×). Applied to every op's base cost.
    pub cpi_tenths: u64,
    /// Fixed cycles per exception throw (dispatch machinery).
    pub throw_base: u64,
    /// Cycles per frame examined during exception dispatch. Kaffe99's slow
    /// dispatch also materialises a stack trace on every throw, which the
    /// interpreter really does for engines with `slow_throw`.
    pub throw_per_frame: u64,
    /// Whether exception dispatch builds a full stack trace eagerly
    /// (Kaffe99) or lazily (Kaffe00's fast dispatch, integrated into
    /// KaffeOS).
    pub slow_throw: bool,
    /// Extra cycles for monitor operations (heavyweight locking in
    /// Kaffe99 vs lightweight locking in Kaffe00).
    pub lock_extra: u64,
}

/// The KaffeOS cycle model, the kernel's default.
impl Default for Engine {
    fn default() -> Self {
        Engine::KAFFEOS
    }
}

impl Engine {
    /// The IBM JDK JIT analogue — the fast commercial baseline.
    pub const JIT_IBM: Engine = Engine {
        name: "IBM",
        cpi_tenths: 10,
        throw_base: 150,
        throw_per_frame: 20,
        slow_throw: false,
        lock_extra: 0,
    };

    /// Kaffe00 (April 2000): better JIT, fast exception dispatch,
    /// lightweight locking.
    pub const KAFFE00: Engine = Engine {
        name: "Kaffe00",
        cpi_tenths: 30,
        throw_base: 300,
        throw_per_frame: 40,
        slow_throw: false,
        lock_extra: 10,
    };

    /// Kaffe99 (1.0b4, May 1999): the base Kaffe KaffeOS was built on.
    pub const KAFFE99: Engine = Engine {
        name: "Kaffe99",
        cpi_tenths: 62,
        throw_base: 2500,
        throw_per_frame: 400,
        slow_throw: true,
        lock_extra: 150,
    };

    /// KaffeOS: Kaffe99 plus back-ported Kaffe00 features (fast exception
    /// dispatch, improved allocator), slightly faster than Kaffe99.
    pub const KAFFEOS: Engine = Engine {
        name: "KaffeOS",
        cpi_tenths: 55,
        throw_base: 300,
        throw_per_frame: 40,
        slow_throw: false,
        lock_extra: 20,
    };

    /// Applies the CPI factor to a base cost.
    #[inline]
    pub fn scaled(&self, base: u64) -> u64 {
        (base * self.cpi_tenths).div_ceil(10)
    }

    /// Cycle cost of dispatching one throw across `frames` frames.
    #[inline]
    pub fn throw_cost(&self, frames: usize) -> u64 {
        self.throw_base + self.throw_per_frame * frames as u64
    }
}
