//! Template JIT tier with a cross-process compile-once body memo (ShareJIT).
//!
//! Hot methods (invocation + loop back-edge counters past a per-run
//! threshold) are compiled from the verified [`Op`] stream into a
//! straight-line *template* form: runs of simple ops become **blocks** of
//! pre-scaled micro-ops (superinstruction fusion folds load/load/op/store
//! and compare-and-branch sequences into single micros) with field slots
//! resolved once at compile time. Every other op — allocation, calls,
//! returns, statics, strings, monitors, throws — compiles to a bare
//! [`TOp::Rt`] that the executor runs by calling the
//! interpreter's own `rt_op` on the frame's real `Op` stream: the runtime
//! ops are implemented exactly once.
//!
//! The **virtual cycle model is pinned byte-for-byte**: compiled code bumps
//! the identical cycle/op/safepoint/barrier counters the interpreter does.
//! Three mechanisms make that exact:
//!
//! * per-micro costs are the interpreter's own `engine.scaled(...)` values,
//!   computed once at compile time and added per micro, so cycle totals at
//!   every observation point (throw, GC, syscall, preemption) match;
//! * a block is entered only when the preemption-fuel guard proves the
//!   interpreter would not have preempted *inside* it (the guard uses the
//!   block cost minus its final original op — the last point the
//!   interpreter checks fuel); otherwise the executor **deopts**: it syncs
//!   `frame.pc` and lets the interpreter (the reference semantics) run the
//!   quantum tail op-by-op, re-entering compiled code at the next back-edge
//!   or frame change (on-stack replacement);
//! * ops with dynamic virtual cost (ref stores that return barrier cycles
//!   or trigger GC) may only terminate a block, so the static prefix-cost
//!   guard stays sound and operand-stack GC roots match the interpreter's
//!   at every point a collection can happen.
//!
//! Compiled bodies are process-independent — block micros name no class,
//! method or statics object, and `TOp::Rt` reads the running frame's own
//! constant pool — so the kernel keeps one [`BodyMemo`] for all of them:
//! the ShareJIT argument, N processes, one compilation of the hot loop.
//! A body is keyed by the method's shared code allocation (one per class
//! definition, shared by every load of it) and the fingerprint of the
//! field slots its micros bake in. Loaded code never changes, so a key
//! never goes stale, no body is ever invalidated, and none is evicted: the
//! memo holds one body per (definition, method, field layout), and the
//! definitions themselves live as long as the kernel. A process's tier
//! table holds its bodies directly; reap drops the table.
//! Tier-up decisions are a pure function of the program and seed
//! (counters advance identically in the fault-injected interpreter variant,
//! which never *enters* compiled code but performs the same memo
//! bookkeeping), and compilation charges zero virtual cycles.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use kaffeos_heap::{FxHashMap, Value};

use crate::bytecode::Op;
use crate::classes::{ClassTable, MethodIdx, RConst};
use crate::engine::{Engine, BASE_COSTS};
use crate::interp::{
    do_return, heap_exception, load_elem, npe, raise, rt_op, store_elem, store_ref_checked,
    BuiltinEx, ExecCtx, RunExit, StepFlow, Thread, VmException,
};

/// Default hot-method threshold (invocations + taken back-edges before a
/// method tiers up). Documented in DESIGN.md §17; override with
/// `KAFFEOS_JIT=threshold=N` or `workloads --jit=threshold=N`.
pub const DEFAULT_JIT_THRESHOLD: u32 = 64;

/// JIT tier configuration (kernel-level; fixed for a run so tier-up stays
/// deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitConfig {
    /// Master switch for the template tier.
    pub enabled: bool,
    /// Hot counter threshold (≥1).
    pub threshold: u32,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            enabled: true,
            threshold: DEFAULT_JIT_THRESHOLD,
        }
    }
}

/// The values [`JitConfig::parse`] accepts, for error messages.
pub const JIT_GRAMMAR: &str = "off, on, or threshold=N";

impl JitConfig {
    /// Reads the `KAFFEOS_JIT` environment toggle through
    /// [`JitConfig::from_var`]. Panics on a value it cannot parse, so a
    /// typo can never silently run the default tier.
    pub fn from_env() -> Self {
        let v = match std::env::var("KAFFEOS_JIT") {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(e) => panic!("KAFFEOS_JIT: {e}"),
        };
        Self::from_var(v.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolves a `KAFFEOS_JIT` value: unset means the default tier,
    /// `off`/`0`/`false` disables the tier, `on`/`1`/`true` enables it with
    /// defaults, and `threshold=N` enables it with a custom hot threshold.
    /// Anything else is an error naming the variable and the grammar.
    pub fn from_var(v: Option<&str>) -> Result<Self, String> {
        match v {
            None => Ok(JitConfig::default()),
            Some(v) => Self::parse(v)
                .ok_or_else(|| format!("bad KAFFEOS_JIT value {v:?} (want {JIT_GRAMMAR})")),
        }
    }

    /// Parses a `--jit=` / `KAFFEOS_JIT=` value.
    pub fn parse(v: &str) -> Option<Self> {
        let v = v.trim();
        match v {
            "off" | "0" | "false" => Some(JitConfig {
                enabled: false,
                ..JitConfig::default()
            }),
            "on" | "1" | "true" | "" => Some(JitConfig::default()),
            _ => {
                let n = v.strip_prefix("threshold=")?.parse::<u32>().ok()?;
                Some(JitConfig {
                    enabled: true,
                    threshold: n.max(1),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The memo key
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_u64(v: u64, mut h: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint of the resolution facts block micros embed: per field
/// access, the instance-field slot and whether it holds a reference.
fn res_fingerprint(table: &ClassTable, midx: MethodIdx) -> u64 {
    let m = table.method(midx);
    let lc = table.class(m.class);
    let mut h = fnv_u64(m.code.ops.len() as u64, FNV_OFFSET);
    for op in m.code.ops.iter() {
        if let Op::GetField(idx) | Op::PutField(idx) = *op {
            if let Some(RConst::InstanceField { slot, ty, .. }) = lc.rpool.get(idx as usize) {
                h = fnv_u64(*slot as u64, h);
                h = fnv_u64(ty.is_reference() as u64, h);
            }
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

/// Operand-source kind for fused micros (bits 4–5 / 6–7 of `flags`).
const SRC_LOCAL: u8 = 0;
const SRC_CONST: u8 = 1;
const SRC_STACK: u8 = 2;

/// Micro-op kinds executed inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum MK {
    ConstNull,
    ConstK,
    Load,
    Store,
    Pop,
    Dup,
    Swap,
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Div,
    Rem,
    Neg,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FNeg,
    I2F,
    F2I,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    FCmpEq,
    FCmpLt,
    FCmpLe,
    FCmpGt,
    FCmpGe,
    RefEq,
    RefNe,
    Jump,
    JumpIfTrue,
    JumpIfFalse,
    NullCheck,
    ArrayLen,
    ALoad,
    AStore,
    GetField,
    PutFieldPrim,
    PutFieldRef,
    FusedAlu,
    FusedAluSt,
    FusedCmpT,
    FusedCmpF,
    /// `[LoadK arr][LoadK idx][ALoad]` (nops=3) or `[LoadK idx][ALoad]`
    /// with the array on the stack (nops=2).
    FusedALoad,
    /// `[LoadK obj][GetField]` where the pool entry is an instance field.
    FusedGet,
    /// `[LoadK src][Store dst]` — a local/const-to-local copy.
    Move,
    /// `[alu][alu]` stack-chained pair: `r = alu2(c, alu1(a, b))`, pushed.
    AluAlu,
    /// `[alu][alu][Store dst]` — the chained pair stored to a local.
    AluAluSt,
}

/// One pre-scaled micro-op. `cost` is the exact interpreter charge for the
/// constituent op(s), already scaled by the engine CPI; `nops` is how many
/// original bytecode ops it retires (fusion makes this >1).
#[derive(Debug, Clone, Copy)]
struct Micro {
    kind: MK,
    /// Fused encoding: low nibble = alu/cmp code, bits 4–5 = src-a kind,
    /// bits 6–7 = src-b kind.
    flags: u8,
    nops: u8,
    a: u16,
    b: u16,
    c: u16,
    cost: u32,
}

const _: () = assert!(core::mem::size_of::<Micro>() <= 16, "Micro grew");

/// One template op: either a block of micros or a single op that needs the
/// runtime.
#[derive(Debug, Clone, Copy)]
enum TOp {
    /// `cost` = total pre-scaled cost of the block, `cost2` = that total
    /// minus the final original op's cost (the fuel-guard margin).
    Block {
        m0: u32,
        mlen: u16,
        cost2: u32,
    },
    /// Any non-blockable op, or the implicit return at `pc == ops.len()`:
    /// executed by the interpreter's `rt_op` on the frame's real `Op`.
    Rt,
}

const _: () = assert!(core::mem::size_of::<TOp>() <= 16, "TOp grew");

/// A compiled, process-independent method body (opaque outside the VM).
#[derive(Debug)]
pub struct CompiledBody {
    t_ops: Vec<TOp>,
    micros: Vec<Micro>,
    consts: Vec<Value>,
    /// `entries[pc]` = template index whose first original op is `pc`, or
    /// `u32::MAX` for mid-block pcs (the interpreter owns those — deopt
    /// resume points). Length is `ops.len() + 1`; the final entry is the
    /// implicit-return template op.
    entries: Vec<u32>,
    /// `src_pc[tix]` = pc of the template op's first original op.
    src_pc: Vec<u32>,
    /// Modelled size of the body in bytes.
    bytes: u64,
}

// ---------------------------------------------------------------------------
// The compile-once body memo
// ---------------------------------------------------------------------------

/// The kernel's compile-once memo (the ShareJIT artifact): one body per
/// (method code allocation, resolution fingerprint), shared by every
/// process that tiers the method up, and never evicted.
///
/// The code allocation is the `Arc<[Op]>` every load of a class definition
/// shares, so two processes of one image meet at the same key; the
/// fingerprint splits it when the definition binds over different field
/// layouts. Each entry holds a clone of that `Arc`, so the address cannot
/// be reused while the key exists. The memo grows by at most one entry per
/// (definition, method, field layout), and the image registry and the
/// loader's verify memo already pin every definition for the kernel's
/// lifetime.
#[derive(Debug, Default)]
pub struct BodyMemo {
    bodies: FxHashMap<(usize, u64), Memoized>,
    bytes: u64,
}

#[derive(Debug)]
struct Memoized {
    /// Pins the code allocation whose address is the key.
    _code: Arc<[Op]>,
    body: Arc<CompiledBody>,
    /// The process that compiled the body (cross-process reuse
    /// attribution).
    creator: u32,
}

impl BodyMemo {
    /// `(bodies, modelled bytes)` of everything compiled so far.
    pub fn usage(&self) -> (usize, u64) {
        (self.bodies.len(), self.bytes)
    }
}

// ---------------------------------------------------------------------------
// Per-process JIT state
// ---------------------------------------------------------------------------

/// Per-process JIT statistics (procfs / kaffeos-top surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcJitStats {
    /// Methods this process compiled itself (memo misses).
    pub compiled: u64,
    /// Tier-ups satisfied by a body already in the memo.
    pub hits: u64,
    /// Of `hits`, bodies compiled by a *different* process (shared reuse).
    pub reuse: u64,
    /// Hot methods the template compiler bailed on (stay interpreted).
    pub rejected: u64,
    /// Cumulative template bytes attached (compiled + reused); monotone,
    /// like every other procfs counter.
    pub bytes: u64,
}

/// Per-method tier state. Lives in a dense `Vec` indexed by [`MethodIdx`]
/// so the executor's per-frame-transition lookup is one array load, not a
/// hash — call-dense workloads change frames every dozen ops.
#[derive(Debug, Clone, Default)]
pub enum BodySlot {
    /// Not yet hot; the counter is still running.
    #[default]
    Cold,
    /// Went hot but the compiler bailed — stays interpreted, counter
    /// frozen so the attempt never repeats.
    Rejected,
    /// Compiled and attached (one `Arc` bump to hand to the executor).
    Hot(Arc<CompiledBody>),
}

/// Per-process JIT state: hot counters, attached bodies, stats.
#[derive(Debug, Default)]
pub struct ProcJit {
    /// Combined invocation + back-edge counters (frozen once resolved).
    pub counters: FxHashMap<MethodIdx, u32>,
    /// Tier state per method, indexed by `MethodIdx` (grown on demand;
    /// missing tail entries read as [`BodySlot::Cold`]).
    pub bodies: Vec<BodySlot>,
    /// Cumulative stats.
    pub stats: ProcJitStats,
}

impl ProcJit {
    /// Tier state for `midx` (missing tail entries are cold).
    #[inline]
    pub fn slot(&self, midx: MethodIdx) -> &BodySlot {
        static COLD: BodySlot = BodySlot::Cold;
        self.bodies.get(midx.0 as usize).unwrap_or(&COLD)
    }

    /// Mutable tier state for `midx`, growing the table as needed.
    pub(crate) fn slot_mut(&mut self, midx: MethodIdx) -> &mut BodySlot {
        let idx = midx.0 as usize;
        if idx >= self.bodies.len() {
            self.bodies.resize(idx + 1, BodySlot::Cold);
        }
        &mut self.bodies[idx]
    }
}

/// The JIT runtime handle threaded through [`ExecCtx`] for one quantum:
/// the running process's state plus the kernel's body memo.
pub struct JitRt<'a> {
    /// Per-process state.
    pub proc: &'a mut ProcJit,
    /// The kernel's compile-once memo.
    pub memo: &'a mut BodyMemo,
    /// Hot threshold for this run.
    pub threshold: u32,
    /// Running process id (cross-process reuse attribution).
    pub pid: u32,
}

// ---------------------------------------------------------------------------
// The template compiler
// ---------------------------------------------------------------------------

/// Exact interpreter charge for a blockable op, pre-scaled by the engine
/// (the same `engine.scaled(...)` expression the dispatch loop uses).
fn static_cost(engine: Engine, op: &Op) -> u64 {
    let c = &BASE_COSTS;
    match op {
        Op::ConstNull | Op::ConstInt(_) | Op::ConstFloat(_) | Op::Load(_) | Op::Store(_) => {
            engine.scaled(c.local)
        }
        Op::Pop
        | Op::Dup
        | Op::Swap
        | Op::Add
        | Op::Sub
        | Op::Mul
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Shl
        | Op::Shr
        | Op::Neg
        | Op::FNeg
        | Op::I2F
        | Op::F2I
        | Op::CmpEq
        | Op::CmpNe
        | Op::CmpLt
        | Op::CmpLe
        | Op::CmpGt
        | Op::CmpGe
        | Op::FCmpEq
        | Op::FCmpLt
        | Op::FCmpLe
        | Op::FCmpGt
        | Op::FCmpGe
        | Op::RefEq
        | Op::RefNe
        | Op::NullCheck
        | Op::ArrayLen => engine.scaled(c.simple),
        Op::Div | Op::Rem => engine.scaled(c.simple * 4),
        Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => engine.scaled(c.simple * 2),
        Op::Jump(_) | Op::JumpIfTrue(_) | Op::JumpIfFalse(_) => engine.scaled(c.branch),
        Op::ALoad | Op::AStore | Op::GetField(_) | Op::PutField(_) => engine.scaled(c.field),
        _ => 0,
    }
}

/// Whether an op can live inside a block (fixed static cost, no frame
/// change, no allocation). `PutField` is blockable only when its pool entry
/// resolves to an instance field; ref stores and `AStore` may only be the
/// *last* op of a block (dynamic barrier/GC cycles).
fn blockable(op: &Op, pool: &[RConst]) -> bool {
    match op {
        Op::ConstNull
        | Op::ConstInt(_)
        | Op::ConstFloat(_)
        | Op::Load(_)
        | Op::Store(_)
        | Op::Pop
        | Op::Dup
        | Op::Swap
        | Op::Add
        | Op::Sub
        | Op::Mul
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Shl
        | Op::Shr
        | Op::Div
        | Op::Rem
        | Op::Neg
        | Op::FAdd
        | Op::FSub
        | Op::FMul
        | Op::FDiv
        | Op::FNeg
        | Op::I2F
        | Op::F2I
        | Op::CmpEq
        | Op::CmpNe
        | Op::CmpLt
        | Op::CmpLe
        | Op::CmpGt
        | Op::CmpGe
        | Op::FCmpEq
        | Op::FCmpLt
        | Op::FCmpLe
        | Op::FCmpGt
        | Op::FCmpGe
        | Op::RefEq
        | Op::RefNe
        | Op::Jump(_)
        | Op::JumpIfTrue(_)
        | Op::JumpIfFalse(_)
        | Op::NullCheck
        | Op::ArrayLen
        | Op::ALoad
        | Op::AStore => true,
        Op::GetField(idx) | Op::PutField(idx) => {
            matches!(pool.get(*idx as usize), Some(RConst::InstanceField { .. }))
        }
        _ => false,
    }
}

/// True for ops that must terminate a block: unconditional jumps (control
/// always leaves) and stores with dynamic virtual cost (barrier cycles /
/// GC retries). Conditional branches stay *inside* blocks — the branch
/// micros exit the block only when taken, so the not-taken path falls
/// through to the next micro without a block transition.
fn block_terminator(op: &Op, pool: &[RConst]) -> bool {
    match op {
        Op::Jump(_) | Op::AStore => true,
        Op::PutField(idx) => match pool.get(*idx as usize) {
            Some(RConst::InstanceField { ty, .. }) => ty.is_reference(),
            _ => true,
        },
        _ => false,
    }
}

/// Fusion operand source: local slot or constant.
fn loadk(op: &Op, consts: &mut Vec<Value>) -> Option<(u8, u16)> {
    match op {
        Op::Load(slot) => Some((SRC_LOCAL, *slot)),
        Op::ConstInt(v) => {
            if consts.len() >= u16::MAX as usize {
                return None;
            }
            consts.push(Value::Int(*v));
            Some((SRC_CONST, (consts.len() - 1) as u16))
        }
        Op::ConstFloat(v) => {
            if consts.len() >= u16::MAX as usize {
                return None;
            }
            consts.push(Value::Float(*v));
            Some((SRC_CONST, (consts.len() - 1) as u16))
        }
        _ => None,
    }
}

/// Fusible ALU code (low nibble of `flags`); `None` for non-fusible ops.
fn alu_code(op: &Op) -> Option<u8> {
    Some(match op {
        Op::Add => 0,
        Op::Sub => 1,
        Op::Mul => 2,
        Op::And => 3,
        Op::Or => 4,
        Op::Xor => 5,
        Op::Shl => 6,
        Op::Shr => 7,
        Op::FAdd => 8,
        Op::FSub => 9,
        Op::FMul => 10,
        Op::FDiv => 11,
        _ => return None,
    })
}

/// Fusible ALU code for the *last* op of a fused micro: the fallible
/// `Div`/`Rem` are allowed there (codes 12/13) because on a throw the
/// micro's whole op/cycle charge and the `at` pc match the interpreter —
/// which is only true when every preceding constituent has already retired.
fn alu_code_last(op: &Op) -> Option<u8> {
    match op {
        Op::Div => Some(12),
        Op::Rem => Some(13),
        _ => alu_code(op),
    }
}

/// Fusible comparison code.
fn cmp_code(op: &Op) -> Option<u8> {
    Some(match op {
        Op::CmpEq => 0,
        Op::CmpNe => 1,
        Op::CmpLt => 2,
        Op::CmpLe => 3,
        Op::CmpGt => 4,
        Op::CmpGe => 5,
        Op::FCmpEq => 6,
        Op::FCmpLt => 7,
        Op::FCmpLe => 8,
        Op::FCmpGt => 9,
        Op::FCmpGe => 10,
        _ => return None,
    })
}

struct Compiler<'t> {
    engine: Engine,
    ops: &'t [Op],
    pool: &'t [RConst],
    t_ops: Vec<TOp>,
    micros: Vec<Micro>,
    consts: Vec<Value>,
    src_pc: Vec<u32>,
    /// Micro indices holding a pc-encoded branch target to fix up.
    branch_fixups: Vec<(usize, u32)>,
}

impl<'t> Compiler<'t> {
    #[allow(clippy::too_many_arguments)]
    fn micro(&mut self, kind: MK, flags: u8, nops: u8, a: u16, b: u16, c: u16, cost: u64) {
        self.micros.push(Micro {
            kind,
            flags,
            nops,
            a,
            b,
            c,
            cost: cost as u32,
        });
    }

    /// Lowers one blockable op at `pc` into a plain micro. Returns `false`
    /// on an unsupported shape (compile bails).
    fn plain_micro(&mut self, pc: usize) -> bool {
        let op = &self.ops[pc];
        let cost = static_cost(self.engine, op);
        let m = |k: MK| (k, 0u16, 0u8);
        let (kind, a, flags) = match op {
            Op::ConstNull => m(MK::ConstNull),
            Op::ConstInt(_) | Op::ConstFloat(_) => {
                let Some((_, idx)) = loadk(op, &mut self.consts) else {
                    return false;
                };
                (MK::ConstK, idx, 0)
            }
            Op::Load(s) => (MK::Load, *s, 0),
            Op::Store(s) => (MK::Store, *s, 0),
            Op::Pop => m(MK::Pop),
            Op::Dup => m(MK::Dup),
            Op::Swap => m(MK::Swap),
            Op::Add => m(MK::Add),
            Op::Sub => m(MK::Sub),
            Op::Mul => m(MK::Mul),
            Op::And => m(MK::And),
            Op::Or => m(MK::Or),
            Op::Xor => m(MK::Xor),
            Op::Shl => m(MK::Shl),
            Op::Shr => m(MK::Shr),
            Op::Div => m(MK::Div),
            Op::Rem => m(MK::Rem),
            Op::Neg => m(MK::Neg),
            Op::FAdd => m(MK::FAdd),
            Op::FSub => m(MK::FSub),
            Op::FMul => m(MK::FMul),
            Op::FDiv => m(MK::FDiv),
            Op::FNeg => m(MK::FNeg),
            Op::I2F => m(MK::I2F),
            Op::F2I => m(MK::F2I),
            Op::CmpEq => m(MK::CmpEq),
            Op::CmpNe => m(MK::CmpNe),
            Op::CmpLt => m(MK::CmpLt),
            Op::CmpLe => m(MK::CmpLe),
            Op::CmpGt => m(MK::CmpGt),
            Op::CmpGe => m(MK::CmpGe),
            Op::FCmpEq => m(MK::FCmpEq),
            Op::FCmpLt => m(MK::FCmpLt),
            Op::FCmpLe => m(MK::FCmpLe),
            Op::FCmpGt => m(MK::FCmpGt),
            Op::FCmpGe => m(MK::FCmpGe),
            Op::RefEq => m(MK::RefEq),
            Op::RefNe => m(MK::RefNe),
            Op::Jump(t) => {
                self.branch_fixups.push((self.micros.len(), *t));
                (MK::Jump, 0, 0)
            }
            Op::JumpIfTrue(t) => {
                self.branch_fixups.push((self.micros.len(), *t));
                (MK::JumpIfTrue, 0, 0)
            }
            Op::JumpIfFalse(t) => {
                self.branch_fixups.push((self.micros.len(), *t));
                (MK::JumpIfFalse, 0, 0)
            }
            Op::NullCheck => m(MK::NullCheck),
            Op::ArrayLen => m(MK::ArrayLen),
            Op::ALoad => m(MK::ALoad),
            Op::AStore => m(MK::AStore),
            Op::GetField(idx) => {
                let Some(RConst::InstanceField { slot, .. }) = self.pool.get(*idx as usize)
                else {
                    return false;
                };
                (MK::GetField, *slot, 0)
            }
            Op::PutField(idx) => {
                let Some(RConst::InstanceField { slot, ty, .. }) = self.pool.get(*idx as usize)
                else {
                    return false;
                };
                if ty.is_reference() {
                    (MK::PutFieldRef, *slot, 0)
                } else {
                    (MK::PutFieldPrim, *slot, 0)
                }
            }
            _ => return false,
        };
        self.micro(kind, flags, 1, a, 0, 0, cost);
        true
    }

    /// Tries superinstruction fusion at `pc` within `[pc, end)`. Returns
    /// the number of ops consumed (0 = no pattern matched).
    fn try_fuse(&mut self, pc: usize, end: usize) -> usize {
        let ops = self.ops;
        let avail = end - pc;
        let cost2 = |s: &Self, n: usize| -> u64 {
            (0..n).map(|k| static_cost(s.engine, &ops[pc + k])).sum()
        };
        // [LoadK a][LoadK b][alu][Store d]  and  [LoadK a][LoadK b][cmp][JumpIf t]
        if avail >= 4 {
            if let (Some(code), Op::Store(d)) = (alu_code(&ops[pc + 2]), &ops[pc + 3]) {
                let save = self.consts.len();
                if let Some((ka, a)) = loadk(&ops[pc], &mut self.consts) {
                    if let Some((kb, b)) = loadk(&ops[pc + 1], &mut self.consts) {
                        let cost = cost2(self, 4);
                        let flags = code | (ka << 4) | (kb << 6);
                        self.micro(MK::FusedAluSt, flags, 4, a, b, *d, cost);
                        return 4;
                    }
                }
                self.consts.truncate(save);
            }
            if let Some(code) = cmp_code(&ops[pc + 2]) {
                let branch = match &ops[pc + 3] {
                    Op::JumpIfTrue(t) => Some((MK::FusedCmpT, *t)),
                    Op::JumpIfFalse(t) => Some((MK::FusedCmpF, *t)),
                    _ => None,
                };
                if let Some((kind, target)) = branch {
                    let save = self.consts.len();
                    if let Some((ka, a)) = loadk(&ops[pc], &mut self.consts) {
                        if let Some((kb, b)) = loadk(&ops[pc + 1], &mut self.consts) {
                            let cost = cost2(self, 4);
                            let flags = code | (ka << 4) | (kb << 6);
                            self.branch_fixups.push((self.micros.len(), target));
                            self.micro(kind, flags, 4, a, b, 0, cost);
                            return 4;
                        }
                    }
                    self.consts.truncate(save);
                }
            }
        }
        if avail >= 3 {
            // [LoadK a][LoadK b][alu] — result pushed; Div/Rem allowed (last).
            if let Some(code) = alu_code_last(&ops[pc + 2]) {
                let save = self.consts.len();
                if let Some((ka, a)) = loadk(&ops[pc], &mut self.consts) {
                    if let Some((kb, b)) = loadk(&ops[pc + 1], &mut self.consts) {
                        let cost = cost2(self, 3);
                        let flags = code | (ka << 4) | (kb << 6);
                        self.micro(MK::FusedAlu, flags, 3, a, b, 0, cost);
                        return 3;
                    }
                }
                self.consts.truncate(save);
            }
            // [LoadK arr][LoadK idx][ALoad]
            if matches!(&ops[pc + 2], Op::ALoad) {
                let save = self.consts.len();
                if let Some((ka, a)) = loadk(&ops[pc], &mut self.consts) {
                    if let Some((kb, b)) = loadk(&ops[pc + 1], &mut self.consts) {
                        let cost = cost2(self, 3);
                        let flags = (ka << 4) | (kb << 6);
                        self.micro(MK::FusedALoad, flags, 3, a, b, 0, cost);
                        return 3;
                    }
                }
                self.consts.truncate(save);
            }
            // [alu][alu][Store d] — both infallible (the Store is last).
            if let (Some(c1), Some(c2), Op::Store(d)) =
                (alu_code(&ops[pc]), alu_code(&ops[pc + 1]), &ops[pc + 2])
            {
                let cost = cost2(self, 3);
                self.micro(MK::AluAluSt, c1 | (c2 << 4), 3, 0, 0, *d, cost);
                return 3;
            }
            // [LoadK b][cmp][JumpIf t]
            if let Some(code) = cmp_code(&ops[pc + 1]) {
                let branch = match &ops[pc + 2] {
                    Op::JumpIfTrue(t) => Some((MK::FusedCmpT, *t)),
                    Op::JumpIfFalse(t) => Some((MK::FusedCmpF, *t)),
                    _ => None,
                };
                if let Some((kind, target)) = branch {
                    if let Some((kb, b)) = loadk(&ops[pc], &mut self.consts) {
                        let cost = cost2(self, 3);
                        let flags = code | (SRC_STACK << 4) | (kb << 6);
                        self.branch_fixups.push((self.micros.len(), target));
                        self.micro(kind, flags, 3, 0, b, 0, cost);
                        return 3;
                    }
                }
            }
        }
        if avail >= 2 {
            // [LoadK b][alu] — first operand from the stack.
            if let Some(code) = alu_code_last(&ops[pc + 1]) {
                if let Some((kb, b)) = loadk(&ops[pc], &mut self.consts) {
                    let cost = cost2(self, 2);
                    let flags = code | (SRC_STACK << 4) | (kb << 6);
                    self.micro(MK::FusedAlu, flags, 2, 0, b, 0, cost);
                    return 2;
                }
            }
            // [LoadK idx][ALoad] — array from the stack.
            if matches!(&ops[pc + 1], Op::ALoad) {
                if let Some((kb, b)) = loadk(&ops[pc], &mut self.consts) {
                    let cost = cost2(self, 2);
                    let flags = (SRC_STACK << 4) | (kb << 6);
                    self.micro(MK::FusedALoad, flags, 2, 0, b, 0, cost);
                    return 2;
                }
            }
            // [LoadK obj][GetField] — instance fields only.
            if let Op::GetField(idx) = &ops[pc + 1] {
                if let Some(RConst::InstanceField { slot, .. }) = self.pool.get(*idx as usize) {
                    let slot = *slot;
                    if let Some((kb, b)) = loadk(&ops[pc], &mut self.consts) {
                        let cost = cost2(self, 2);
                        self.micro(MK::FusedGet, kb << 6, 2, slot, b, 0, cost);
                        return 2;
                    }
                }
            }
            // [LoadK src][Store dst] — local/const-to-local copy.
            if let Op::Store(d) = &ops[pc + 1] {
                if let Some((ka, a)) = loadk(&ops[pc], &mut self.consts) {
                    let cost = cost2(self, 2);
                    self.micro(MK::Move, ka << 4, 2, a, 0, *d, cost);
                    return 2;
                }
            }
            // [alu][alu] — stack-chained pair (second may be Div/Rem: last).
            if let (Some(c1), Some(c2)) = (alu_code(&ops[pc]), alu_code_last(&ops[pc + 1])) {
                let cost = cost2(self, 2);
                self.micro(MK::AluAlu, c1 | (c2 << 4), 2, 0, 0, 0, cost);
                return 2;
            }
            // [cmp][JumpIf t] — both operands from the stack.
            if let Some(code) = cmp_code(&ops[pc]) {
                let branch = match &ops[pc + 1] {
                    Op::JumpIfTrue(t) => Some((MK::FusedCmpT, *t)),
                    Op::JumpIfFalse(t) => Some((MK::FusedCmpF, *t)),
                    _ => None,
                };
                if let Some((kind, target)) = branch {
                    let cost = cost2(self, 2);
                    let flags = code | (SRC_STACK << 4) | (SRC_STACK << 6);
                    self.branch_fixups.push((self.micros.len(), target));
                    self.micro(kind, flags, 2, 0, 0, 0, cost);
                    return 2;
                }
            }
        }
        0
    }

    /// Lowers the blockable run `[start, end)` into one Block template op.
    /// Returns `false` on an unsupported shape.
    fn lower_block(&mut self, start: usize, end: usize) -> bool {
        let m0 = self.micros.len();
        if m0 > u16::MAX as usize * 64 {
            return false;
        }
        let mut pc = start;
        while pc < end {
            let n = self.try_fuse(pc, end);
            if n > 0 {
                pc += n;
            } else {
                if !self.plain_micro(pc) {
                    return false;
                }
                pc += 1;
            }
        }
        let mlen = self.micros.len() - m0;
        if m0 > u32::MAX as usize / 2 || mlen > u16::MAX as usize {
            return false;
        }
        // Guard margin: total cost minus the final *original* op's cost —
        // the interpreter's last in-block fuel check sits before that op.
        let total: u64 = (start..end)
            .map(|p| static_cost(self.engine, &self.ops[p]))
            .sum();
        let last = static_cost(self.engine, &self.ops[end - 1]);
        let cost2 = total - last;
        if cost2 > u32::MAX as u64 {
            return false;
        }
        self.t_ops.push(TOp::Block {
            m0: m0 as u32,
            mlen: mlen as u16,
            cost2: cost2 as u32,
        });
        self.src_pc.push(start as u32);
        true
    }
}

/// Compiles a verified method into its template form. Returns `None` when
/// the method exceeds template limits (it then stays interpreter-only — a
/// correct, slower tier).
fn compile(table: &ClassTable, midx: MethodIdx, engine: Engine) -> Option<CompiledBody> {
    let m = table.method(midx);
    let lc = table.class(m.class);
    let ops = &m.code.ops;
    if ops.len() >= u16::MAX as usize {
        return None;
    }

    // Template-op boundaries: entry, every branch target, every handler
    // target. Blocks never span one, so every possible JIT entry pc (frame
    // entry, jump target, handler, syscall resume, monitor retry) is a
    // template-op start.
    let mut boundary = vec![false; ops.len() + 1];
    boundary[0] = true;
    for op in ops.iter() {
        if let Op::Jump(t) | Op::JumpIfTrue(t) | Op::JumpIfFalse(t) = op {
            if (*t as usize) > ops.len() {
                return None;
            }
            boundary[*t as usize] = true;
        }
    }
    for h in m.code.handlers.iter() {
        if (h.target as usize) > ops.len() {
            return None;
        }
        boundary[h.target as usize] = true;
    }

    let mut c = Compiler {
        engine,
        ops,
        pool: &lc.rpool,
        t_ops: Vec::new(),
        micros: Vec::new(),
        consts: Vec::new(),
        src_pc: Vec::new(),
        branch_fixups: Vec::new(),
    };

    let mut pc = 0usize;
    while pc < ops.len() {
        if blockable(&ops[pc], c.pool) {
            // Extend the run to the next boundary, non-blockable op, or
            // just past a terminating op (branch / dynamic-cost store).
            let mut end = pc;
            loop {
                let op = &ops[end];
                end += 1;
                if block_terminator(op, c.pool) {
                    break;
                }
                if end >= ops.len() || boundary[end] || !blockable(&ops[end], c.pool) {
                    break;
                }
            }
            if !c.lower_block(pc, end) {
                return None;
            }
            pc = end;
        } else {
            c.t_ops.push(TOp::Rt);
            c.src_pc.push(pc as u32);
            pc += 1;
        }
    }
    // Implicit return at pc == ops.len() (falling off the end).
    c.t_ops.push(TOp::Rt);
    c.src_pc.push(ops.len() as u32);

    if c.t_ops.len() > u16::MAX as usize
        || c.micros.len() > u16::MAX as usize
        || c.consts.len() > u16::MAX as usize
    {
        return None;
    }

    // Entry map and branch-target fixups (pc → template index).
    let mut entries = vec![u32::MAX; ops.len() + 1];
    for (tix, &src) in c.src_pc.iter().enumerate() {
        entries[src as usize] = tix as u32;
    }
    for (mi, target) in c.branch_fixups.drain(..).collect::<Vec<_>>() {
        let tix = entries[target as usize];
        if tix == u32::MAX || tix > u16::MAX as u32 {
            return None;
        }
        // Plain branch micros carry the target in `a`; fused
        // compare-and-branch micros carry operands in `a`/`b` and the
        // target in `c`.
        match c.micros[mi].kind {
            MK::FusedCmpT | MK::FusedCmpF => c.micros[mi].c = tix as u16,
            _ => c.micros[mi].a = tix as u16,
        }
    }

    let bytes = (c.t_ops.len() * core::mem::size_of::<TOp>()
        + c.micros.len() * core::mem::size_of::<Micro>()
        + c.consts.len() * core::mem::size_of::<Value>()
        + entries.len() * 4
        + c.src_pc.len() * 4) as u64;

    Some(CompiledBody {
        t_ops: c.t_ops,
        micros: c.micros,
        consts: c.consts,
        entries,
        src_pc: c.src_pc,
        bytes,
    })
}

// ---------------------------------------------------------------------------
// Tier-up hooks (run identically in the fast and fault-injected variants)
// ---------------------------------------------------------------------------

/// Attaches `midx`'s body from the memo, compiling it on a miss. A body
/// the compiler bails on is not memoized: the method stays interpreted in
/// this process, and another process that tiers it up bails on its own.
fn compile_and_attach(table: &ClassTable, engine: Engine, jit: &mut JitRt<'_>, midx: MethodIdx) {
    let code = &table.method(midx).code.ops;
    let key = (Arc::as_ptr(code).cast::<Op>() as usize, res_fingerprint(table, midx));
    let stats = &mut jit.proc.stats;
    let body = match jit.memo.bodies.entry(key) {
        Entry::Occupied(e) => {
            let m = e.get();
            stats.hits += 1;
            if m.creator != jit.pid {
                stats.reuse += 1;
            }
            m.body.clone()
        }
        Entry::Vacant(e) => match compile(table, midx, engine) {
            Some(body) => {
                stats.compiled += 1;
                jit.memo.bytes += body.bytes;
                let body = Arc::new(body);
                e.insert(Memoized {
                    _code: code.clone(),
                    body: body.clone(),
                    creator: jit.pid,
                });
                body
            }
            None => {
                stats.rejected += 1;
                *jit.proc.slot_mut(midx) = BodySlot::Rejected;
                return;
            }
        },
    };
    stats.bytes += body.bytes;
    *jit.proc.slot_mut(midx) = BodySlot::Hot(body);
}

/// Invocation hook (called from `push_frame` in *both* dispatch variants so
/// tier-up bookkeeping is identical under fault injection). Charges no
/// virtual cycles and emits no trace events.
#[inline]
pub(crate) fn note_invoke(ctx: &mut ExecCtx<'_>, midx: MethodIdx) {
    let table = ctx.table;
    let engine = ctx.engine;
    let Some(jit) = ctx.jit.as_mut() else {
        return;
    };
    if !matches!(jit.proc.slot(midx), BodySlot::Cold) {
        return;
    }
    let c = jit.proc.counters.entry(midx).or_insert(0);
    *c += 1;
    if *c >= jit.threshold {
        compile_and_attach(table, engine, jit, midx);
    }
}

/// Taken-back-edge hook. Returns `true` when a compiled body is attached
/// for `midx` — the fast variant then re-enters it at the branch target
/// (on-stack replacement); the injected variant ignores the result but
/// performs the identical counter/memo bookkeeping.
#[inline]
pub(crate) fn note_backedge(ctx: &mut ExecCtx<'_>, midx: MethodIdx) -> bool {
    let table = ctx.table;
    let engine = ctx.engine;
    let Some(jit) = ctx.jit.as_mut() else {
        return false;
    };
    match jit.proc.slot(midx) {
        BodySlot::Hot(_) => return true,
        BodySlot::Rejected => return false,
        BodySlot::Cold => {}
    }
    let c = jit.proc.counters.entry(midx).or_insert(0);
    *c += 1;
    if *c >= jit.threshold {
        compile_and_attach(table, engine, jit, midx);
        matches!(jit.proc.slot(midx), BodySlot::Hot(_))
    } else {
        false
    }
}

// ---------------------------------------------------------------------------
// The template executor
// ---------------------------------------------------------------------------

/// Why a compiled-body run stopped.
enum BodyFlow {
    /// Quantum-level exit (preempt, syscall, finish, unhandled, blocked).
    Exit(RunExit),
    /// The frame set or pc changed (call, return, handler); re-dispatch.
    Frame,
    /// Fuel guard refused a block: the interpreter must run the quantum
    /// tail op-by-op (`frame.pc` is synced to the block start; nothing of
    /// the block has executed).
    Deopt,
}

/// Tries to run the top frame's compiled body from its current pc.
/// Returns `Some(exit)` when the quantum ended inside compiled code; `None`
/// when the interpreter should take over (no body, mid-block pc, deopt).
/// Called from the dispatch loop's frame (re)load point, *before* the
/// interpreter's own fuel check — the executor performs the identical check
/// at its first template op.
#[inline]
pub(crate) fn try_enter(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    fuel: u64,
    start_cycles: u64,
) -> Option<RunExit> {
    // Tiny method-keyed cache of attached bodies, local to this quantum
    // segment: call-dense code bounces between the same few frames every
    // dozen ops, and a linear scan over at most four entries is far cheaper
    // than re-borrowing the tier table and bumping the `Arc` each time.
    let mut seen: [(u32, Option<Arc<CompiledBody>>); 4] =
        [(u32::MAX, None), (u32::MAX, None), (u32::MAX, None), (u32::MAX, None)];
    let mut victim = 0usize;
    loop {
        let top = thread.frames.last()?;
        let midx = top.method;
        let pc = top.pc as usize;
        let ab: Arc<CompiledBody> = match seen.iter().position(|(m, _)| *m == midx.0) {
            Some(i) => seen[i].1.clone()?,
            None => {
                let jit = ctx.jit.as_ref()?;
                let slot = match jit.proc.slot(midx) {
                    BodySlot::Hot(ab) => Some(ab.clone()),
                    _ => None,
                };
                seen[victim] = (midx.0, slot);
                let i = victim;
                victim = (victim + 1) % seen.len();
                seen[i].1.clone()?
            }
        };
        let tix = *ab.entries.get(pc)?;
        if tix == u32::MAX {
            return None;
        }
        match run_body(thread, ctx, ab, tix, fuel, start_cycles) {
            BodyFlow::Exit(exit) => return Some(exit),
            BodyFlow::Frame => continue,
            BodyFlow::Deopt => return None,
        }
    }
}

/// Applies a fused ALU code to two operand values with the interpreter's
/// exact coercions. Codes 0–7 are int ops, 8–11 float, 12/13 the fallible
/// `Div`/`Rem`; `None` means division by zero (caller raises).
#[inline(always)]
fn alu_eval(code: u8, va: Value, vb: Value) -> Option<Value> {
    Some(if code < 8 {
        let a = va.as_int();
        let b = vb.as_int();
        Value::Int(match code {
            0 => a.wrapping_add(b),
            1 => a.wrapping_sub(b),
            2 => a.wrapping_mul(b),
            3 => a & b,
            4 => a | b,
            5 => a ^ b,
            6 => a.wrapping_shl(b as u32 & 63),
            _ => a.wrapping_shr(b as u32 & 63),
        })
    } else if code < 12 {
        let a = va.as_float();
        let b = vb.as_float();
        Value::Float(match code {
            8 => a + b,
            9 => a - b,
            10 => a * b,
            _ => a / b,
        })
    } else {
        let a = va.as_int();
        let b = vb.as_int();
        if b == 0 {
            return None;
        }
        Value::Int(if code == 12 {
            a.wrapping_div(b)
        } else {
            a.wrapping_rem(b)
        })
    })
}

/// Runs compiled bodies for the top frame starting at template op `tix`.
/// When the frame set changes (call, return, handled exception) and the new
/// top frame also has a compiled body at a template-op boundary, execution
/// switches to it in place — call-dense code would otherwise pay a full
/// executor exit and re-entry per transition. Every cycle/op/safepoint
/// effect is byte-identical to the interpreter executing the same ops.
fn run_body(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    mut ab: Arc<CompiledBody>,
    mut tix: u32,
    fuel: u64,
    start_cycles: u64,
) -> BodyFlow {
    let table = ctx.table;
    'method: loop {
    let body = &*ab;
    // The dispatch loop only enters with a live frame; if it is somehow
    // gone, hand control back rather than assert in the hot tier.
    let Some(top) = thread.frames.last() else {
        return BodyFlow::Frame;
    };
    let method_idx = top.method;
    let ops: &[Op] = &table.method(method_idx).code.ops;
    let locals_base = top.locals_base as usize;
    let stack_base = top.stack_base as usize;

    macro_rules! sync {
        ($pc:expr) => {
            if let Some(f) = thread.frames.last_mut() {
                f.pc = $pc as u32;
            }
        };
    }
    // The loop label is threaded through as a macro argument: labels are
    // hygienic, so a literal `break 'body` in a macro body could not bind
    // the label defined below.
    macro_rules! jthrow {
        ($lbl:lifetime, $pc:expr, $ex:expr) => {{
            sync!($pc);
            match raise(thread, ctx, $ex) {
                None => break $lbl,
                Some(exit) => return BodyFlow::Exit(exit),
            }
        }};
    }
    macro_rules! vpop {
        () => {
            thread.values.pop().unwrap_or(Value::Null)
        };
    }

    'body: loop {
        let src = body.src_pc[tix as usize] as usize;
        // Safe point: preemption fuel — the same check the interpreter
        // makes before the op at `src`.
        let d = thread.cycles - start_cycles;
        if d >= fuel {
            sync!(src);
            return BodyFlow::Exit(RunExit::Preempted);
        }
        match body.t_ops[tix as usize] {
            TOp::Block { m0, mlen, cost2 } => {
                // The interpreter's last in-block fuel check happens before
                // the final op, `cost2` cycles in. If it would fire, run
                // the tail interpreted instead (nothing executed yet).
                if cost2 > 0 && d + cost2 as u64 >= fuel {
                    sync!(src);
                    return BodyFlow::Deopt;
                }
                let mut at = src;
                let micros = &body.micros[m0 as usize..m0 as usize + mlen as usize];
                let mut mi = 0usize;
                let mend = micros.len();
                let mut next = tix + 1;
                // Op/cycle charges accumulate in locals and flush at block
                // exit; any arm that lets the runtime observe thread state
                // (raise, GC retry, write barrier) flushes first.
                let mut ops_acc: u64 = 0;
                let mut cyc_acc: u64 = 0;
                macro_rules! flush {
                    () => {{
                        thread.ops += ops_acc;
                        thread.cycles += cyc_acc;
                        ops_acc = 0;
                        cyc_acc = 0;
                    }};
                }
                macro_rules! mthrow {
                    // Terminal: no need to zero the accumulators.
                    ($lbl:lifetime, $pc:expr, $ex:expr) => {{
                        thread.ops += ops_acc;
                        thread.cycles += cyc_acc;
                        jthrow!($lbl, $pc, $ex)
                    }};
                }
                macro_rules! fetch {
                    ($kind:expr, $operand:expr) => {
                        match $kind {
                            SRC_LOCAL => thread.values[locals_base + $operand as usize],
                            SRC_CONST => body.consts[$operand as usize],
                            _ => vpop!(),
                        }
                    };
                }
                // Taken branch to template op `$t`. A back-edge to this
                // block's own head restarts the micro loop in place after
                // replaying the block-entry checks (fuel, `cost2` margin) —
                // a loop iteration then costs no outer dispatch at all.
                macro_rules! jump {
                    ($lbl:lifetime, $t:expr) => {{
                        let t = $t;
                        if t == tix {
                            thread.ops += ops_acc;
                            thread.cycles += cyc_acc;
                            ops_acc = 0;
                            cyc_acc = 0;
                            let d = thread.cycles - start_cycles;
                            if d >= fuel {
                                sync!(src);
                                return BodyFlow::Exit(RunExit::Preempted);
                            }
                            if cost2 > 0 && d + cost2 as u64 >= fuel {
                                sync!(src);
                                return BodyFlow::Deopt;
                            }
                            at = src;
                            mi = 0;
                            continue $lbl;
                        }
                        next = t;
                        break $lbl;
                    }};
                }
                'micros: while mi < mend {
                    let m = micros[mi];
                    ops_acc += m.nops as u64;
                    at += m.nops as usize;
                    cyc_acc += m.cost as u64;
                    match m.kind {
                        MK::ConstNull => thread.values.push(Value::Null),
                        MK::ConstK => thread.values.push(body.consts[m.a as usize]),
                        MK::Load => {
                            let v = thread.values[locals_base + m.a as usize];
                            thread.values.push(v);
                        }
                        MK::Store => {
                            let v = vpop!();
                            thread.values[locals_base + m.a as usize] = v;
                        }
                        MK::Pop => {
                            let _ = vpop!();
                        }
                        MK::Dup => {
                            let v = *thread.values.last().unwrap_or(&Value::Null);
                            thread.values.push(v);
                        }
                        MK::Swap => {
                            let len = thread.values.len();
                            if len >= stack_base + 2 {
                                thread.values.swap(len - 1, len - 2);
                            }
                        }
                        MK::Add | MK::Sub | MK::Mul | MK::And | MK::Or | MK::Xor | MK::Shl
                        | MK::Shr => {
                            let b = vpop!().as_int();
                            let a = vpop!().as_int();
                            let r = match m.kind {
                                MK::Add => a.wrapping_add(b),
                                MK::Sub => a.wrapping_sub(b),
                                MK::Mul => a.wrapping_mul(b),
                                MK::And => a & b,
                                MK::Or => a | b,
                                MK::Xor => a ^ b,
                                MK::Shl => a.wrapping_shl(b as u32 & 63),
                                _ => a.wrapping_shr(b as u32 & 63),
                            };
                            thread.values.push(Value::Int(r));
                        }
                        MK::Div | MK::Rem => {
                            let b = vpop!().as_int();
                            let a = vpop!().as_int();
                            if b == 0 {
                                mthrow!('body, 
                                    at,
                                    VmException::Builtin(
                                        BuiltinEx::Arithmetic,
                                        "division by zero".to_string(),
                                    )
                                );
                            }
                            let r = if matches!(m.kind, MK::Div) {
                                a.wrapping_div(b)
                            } else {
                                a.wrapping_rem(b)
                            };
                            thread.values.push(Value::Int(r));
                        }
                        MK::Neg => {
                            let a = vpop!().as_int();
                            thread.values.push(Value::Int(a.wrapping_neg()));
                        }
                        MK::FAdd | MK::FSub | MK::FMul | MK::FDiv => {
                            let b = vpop!().as_float();
                            let a = vpop!().as_float();
                            let r = match m.kind {
                                MK::FAdd => a + b,
                                MK::FSub => a - b,
                                MK::FMul => a * b,
                                _ => a / b,
                            };
                            thread.values.push(Value::Float(r));
                        }
                        MK::FNeg => {
                            let a = vpop!().as_float();
                            thread.values.push(Value::Float(-a));
                        }
                        MK::I2F => {
                            let a = vpop!().as_int();
                            thread.values.push(Value::Float(a as f64));
                        }
                        MK::F2I => {
                            let a = vpop!().as_float();
                            thread.values.push(Value::Int(a as i64));
                        }
                        MK::CmpEq | MK::CmpNe | MK::CmpLt | MK::CmpLe | MK::CmpGt | MK::CmpGe => {
                            let b = vpop!().as_int();
                            let a = vpop!().as_int();
                            let r = match m.kind {
                                MK::CmpEq => a == b,
                                MK::CmpNe => a != b,
                                MK::CmpLt => a < b,
                                MK::CmpLe => a <= b,
                                MK::CmpGt => a > b,
                                _ => a >= b,
                            };
                            thread.values.push(Value::Int(r as i64));
                        }
                        MK::FCmpEq | MK::FCmpLt | MK::FCmpLe | MK::FCmpGt | MK::FCmpGe => {
                            let b = vpop!().as_float();
                            let a = vpop!().as_float();
                            let r = match m.kind {
                                MK::FCmpEq => a == b,
                                MK::FCmpLt => a < b,
                                MK::FCmpLe => a <= b,
                                MK::FCmpGt => a > b,
                                _ => a >= b,
                            };
                            thread.values.push(Value::Int(r as i64));
                        }
                        MK::RefEq | MK::RefNe => {
                            let b = vpop!();
                            let a = vpop!();
                            let eq = match (a, b) {
                                (Value::Null, Value::Null) => true,
                                (Value::Ref(x), Value::Ref(y)) => x == y,
                                _ => false,
                            };
                            let r = if matches!(m.kind, MK::RefEq) { eq } else { !eq };
                            thread.values.push(Value::Int(r as i64));
                        }
                        MK::Jump => jump!('micros, m.a as u32),
                        MK::JumpIfTrue => {
                            if vpop!().is_truthy() {
                                jump!('micros, m.a as u32);
                            }
                        }
                        MK::JumpIfFalse => {
                            if !vpop!().is_truthy() {
                                jump!('micros, m.a as u32);
                            }
                        }
                        MK::NullCheck => {
                            let v = vpop!();
                            if !matches!(v, Value::Ref(_)) {
                                mthrow!('body, at, npe("explicit null check"));
                            }
                        }
                        MK::ArrayLen => {
                            let Value::Ref(arr) = vpop!() else {
                                mthrow!('body, at, npe("array length of null"));
                            };
                            match ctx.space.slot_count(arr) {
                                Ok(n) => thread.values.push(Value::Int(n as i64)),
                                Err(e) => mthrow!('body, at, heap_exception(e)),
                            }
                        }
                        MK::ALoad => {
                            let index = vpop!().as_int();
                            let Value::Ref(arr) = vpop!() else {
                                mthrow!('body, at, npe("array load on null"));
                            };
                            match load_elem(ctx, arr, index) {
                                Ok(v) => thread.values.push(v),
                                Err(e) => mthrow!('body, at, e),
                            }
                        }
                        MK::AStore => {
                            flush!();
                            let v = vpop!();
                            let index = vpop!().as_int();
                            let Value::Ref(arr) = vpop!() else {
                                jthrow!('body, at, npe("array store on null"));
                            };
                            let pc = at as u32 - 1;
                            if let Err(e) = store_elem(thread, ctx, method_idx, pc, arr, index, v) {
                                jthrow!('body, at, e);
                            }
                        }
                        MK::GetField => {
                            let Value::Ref(obj) = vpop!() else {
                                mthrow!('body, at, npe("field access on null"));
                            };
                            match ctx.space.load(obj, m.a as usize) {
                                Ok(v) => thread.values.push(v),
                                Err(e) => mthrow!('body, at, heap_exception(e)),
                            }
                        }
                        MK::PutFieldPrim | MK::PutFieldRef => {
                            flush!();
                            let v = vpop!();
                            let Value::Ref(obj) = vpop!() else {
                                jthrow!('body, at, npe("field store on null"));
                            };
                            let result = if matches!(m.kind, MK::PutFieldRef) {
                                let pc = at as u32 - 1;
                                store_ref_checked(thread, ctx, method_idx, pc, obj, m.a as usize, v)
                            } else {
                                ctx.space.store_prim(obj, m.a as usize, v)
                            };
                            if let Err(e) = result {
                                jthrow!('body, at, heap_exception(e));
                            }
                        }
                        MK::FusedAlu | MK::FusedAluSt => {
                            let code = m.flags & 0x0f;
                            let kb = (m.flags >> 6) & 3;
                            let ka = (m.flags >> 4) & 3;
                            let vb = fetch!(kb, m.b);
                            let va = fetch!(ka, m.a);
                            let Some(r) = alu_eval(code, va, vb) else {
                                mthrow!('body, 
                                    at,
                                    VmException::Builtin(
                                        BuiltinEx::Arithmetic,
                                        "division by zero".to_string(),
                                    )
                                );
                            };
                            if matches!(m.kind, MK::FusedAluSt) {
                                thread.values[locals_base + m.c as usize] = r;
                            } else {
                                thread.values.push(r);
                            }
                        }
                        MK::AluAlu | MK::AluAluSt => {
                            let b = vpop!();
                            let a = vpop!();
                            // The first code is always infallible (< 12).
                            let r1 = alu_eval(m.flags & 0x0f, a, b).unwrap_or(Value::Null);
                            let c = vpop!();
                            let Some(r) = alu_eval(m.flags >> 4, c, r1) else {
                                mthrow!('body, 
                                    at,
                                    VmException::Builtin(
                                        BuiltinEx::Arithmetic,
                                        "division by zero".to_string(),
                                    )
                                );
                            };
                            if matches!(m.kind, MK::AluAluSt) {
                                thread.values[locals_base + m.c as usize] = r;
                            } else {
                                thread.values.push(r);
                            }
                        }
                        MK::FusedALoad => {
                            let kb = (m.flags >> 6) & 3;
                            let ka = (m.flags >> 4) & 3;
                            let vidx = fetch!(kb, m.b);
                            let varr = fetch!(ka, m.a);
                            let index = vidx.as_int();
                            let Value::Ref(arr) = varr else {
                                mthrow!('body, at, npe("array load on null"));
                            };
                            match load_elem(ctx, arr, index) {
                                Ok(v) => thread.values.push(v),
                                Err(e) => mthrow!('body, at, e),
                            }
                        }
                        MK::FusedGet => {
                            let kb = (m.flags >> 6) & 3;
                            let vobj = fetch!(kb, m.b);
                            let Value::Ref(obj) = vobj else {
                                mthrow!('body, at, npe("field access on null"));
                            };
                            match ctx.space.load(obj, m.a as usize) {
                                Ok(v) => thread.values.push(v),
                                Err(e) => mthrow!('body, at, heap_exception(e)),
                            }
                        }
                        MK::Move => {
                            let ka = (m.flags >> 4) & 3;
                            let v = fetch!(ka, m.a);
                            thread.values[locals_base + m.c as usize] = v;
                        }
                        MK::FusedCmpT | MK::FusedCmpF => {
                            let code = m.flags & 0x0f;
                            let kb = (m.flags >> 6) & 3;
                            let ka = (m.flags >> 4) & 3;
                            let vb = fetch!(kb, m.b);
                            let va = fetch!(ka, m.a);
                            let r = if code < 6 {
                                let a = va.as_int();
                                let b = vb.as_int();
                                match code {
                                    0 => a == b,
                                    1 => a != b,
                                    2 => a < b,
                                    3 => a <= b,
                                    4 => a > b,
                                    _ => a >= b,
                                }
                            } else {
                                let a = va.as_float();
                                let b = vb.as_float();
                                match code {
                                    6 => a == b,
                                    7 => a < b,
                                    8 => a <= b,
                                    9 => a > b,
                                    _ => a >= b,
                                }
                            };
                            let take = if matches!(m.kind, MK::FusedCmpT) { r } else { !r };
                            if take {
                                jump!('micros, m.c as u32);
                            }
                        }
                    }
                    mi += 1;
                }
                thread.ops += ops_acc;
                thread.cycles += cyc_acc;
                tix = next;
                continue 'body;
            }
            TOp::Rt => {
                // The interpreter's own implementation runs the op (or the
                // implicit return past the last one) on the real frame.
                thread.ops += 1;
                sync!(src + 1);
                let flow = match ops.get(src) {
                    Some(&op) => rt_op(thread, ctx, op),
                    None => do_return(thread, None),
                };
                match flow {
                    StepFlow::Next => {}
                    StepFlow::Continue => break 'body,
                    StepFlow::Exit(exit) => return BodyFlow::Exit(exit),
                    StepFlow::Raise(ex) => jthrow!('body, src + 1, ex),
                }
            }
        }
        tix += 1;
    }

    // The frame set changed: a call pushed, a return popped, or a handled
    // exception rewound the stack. Re-enter compiled code for the new top
    // frame without leaving the executor when possible; otherwise hand the
    // frame back to the dispatch loop.
    let Some(top) = thread.frames.last() else {
        return BodyFlow::Frame;
    };
    let midx = top.method;
    let pc = top.pc as usize;
    if midx == method_idx {
        match body.entries.get(pc) {
            Some(&t) if t != u32::MAX => {
                tix = t;
                continue 'method;
            }
            _ => return BodyFlow::Frame,
        }
    }
    let Some(jit) = ctx.jit.as_ref() else {
        return BodyFlow::Frame;
    };
    let BodySlot::Hot(nab) = jit.proc.slot(midx) else {
        return BodyFlow::Frame;
    };
    match nab.entries.get(pc) {
        Some(&t) if t != u32::MAX => {
            tix = t;
            ab = nab.clone();
            continue 'method;
        }
        _ => return BodyFlow::Frame,
    }
    } // 'method
}
