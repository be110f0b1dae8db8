//! Template lowering and the VM's one executor.
//!
//! Every method is lowered once per load context, when its class is
//! linked, from the verified [`Op`] stream into a straight-line *template*
//! body: runs of simple ops become **blocks** of pre-scaled micro-ops
//! (superinstruction fusion folds load/load/op/store and compare-and-branch
//! sequences into single micros) with field slots resolved at lowering
//! time. Calls and returns lower to their own template ops, which the
//! executor runs itself: a call pushes the callee's frame from the shape
//! its class load fixed ([`crate::classes::FrameShape`]: argument slots,
//! locals, the pre-scaled call charge) and switches the executor's
//! per-frame state in place, and a return switches it back to the caller.
//! Every other op —
//! allocation, statics, strings, monitors, throws — lowers to a bare
//! [`TOp::Rt`] that the executor runs by calling `interp::rt_op` on the
//! frame's real `Op` stream. Each op is implemented exactly once: a runtime
//! op as an `rt_op` arm, a call or return as an executor arm, and every
//! block op as one micro arm.
//!
//! Each block also carries its **plain** lowering, one micro per op. The
//! executor runs a block's fused micros when the preemption-fuel guard
//! proves no per-op fuel check inside the block would fire (the guard is
//! the block cost minus its final op's — the last point a per-op check
//! happens), and its plain micros — with a fuel check before each, as
//! before every op — when the guard fails, when a frame resumes at a pc
//! inside the block (after a preemption there), and always under fault
//! injection, whose forced collections and kill checks run before every
//! op. Both forms run the same micro arms and charge the same cycles, so
//! virtual time does not depend on which one ran. Ops with a dynamic
//! virtual cost (reference stores that return barrier cycles or trigger a
//! collection) may only end a block, so the static guard stays sound and
//! the operand stack a collection scans is the one a per-op run would
//! show.
//!
//! Every micro's cost and every block guard is pre-scaled for the cycle
//! model of the class table ([`ClassTable::engine`]), the one model the
//! table's threads run under.
//!
//! Bodies are process-independent — block micros name no class, method or
//! statics object, and call and runtime ops read the running frame's own
//! constant pool — so a body belongs to its class's linked definition
//! ([`crate::classes::LinkedClass`]), which the class table's link memo
//! shares between every load over the same load context: the ShareJIT
//! argument, N processes of one image, one lowering of each method. The
//! context fixes every field slot a body's micros bake in. Loaded code
//! never changes, so a body is never invalidated or evicted.
//! Lowering charges zero virtual cycles.

use kaffeos_heap::Value;

use crate::bytecode::Op;
use crate::classes::{ClassTable, MethodIdx, RConst};
use crate::engine::{Engine, BASE_COSTS};
use crate::interp::{
    forced_gc, heap_exception, honour_kill, load_elem, npe, raise, rt_op, store_elem,
    store_ref_checked, BuiltinEx, ExecCtx, Frame, RunExit, StepFlow, Thread, VmException,
    MAX_FRAMES,
};

/// Most ops one method may have: template-op indices are `u16` inside
/// branch micros, and a body has one template op per op plus the implicit
/// return. The verifier refuses longer methods before allocating.
pub(crate) const MAX_METHOD_OPS: usize = u16::MAX as usize - 1;

// ---------------------------------------------------------------------------
// Template form
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

/// One micro-op. `cost` is the exact per-op charge of its constituent ops,
/// already scaled by the table's engine CPI; `nops` is how many original
/// bytecode ops it retires (fusion makes this >1).
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
    /// Fused micros `m0..m0 + mlen`; plain micros from `p0`, one per op of
    /// the block. `cost2` = the block's pre-scaled cost minus its final
    /// op's (the fuel-guard margin).
    Block {
        m0: u32,
        mlen: u16,
        cost2: u32,
        p0: u32,
    },
    /// `CallStatic`, `CallSpecial` or `CallVirtual` through entry `idx` of
    /// the running frame's constant pool; the executor pushes the callee's
    /// frame from its link-time shape.
    Call { kind: CallKind, idx: u16 },
    /// `Return`, `ReturnVal` (`value`), or the implicit return at
    /// `pc == ops.len()`; `cycles` is its pre-scaled charge (none for the
    /// implicit return).
    Ret { value: bool, cycles: u32 },
    /// Any other non-blockable op: executed by the interpreter's `rt_op` on
    /// the frame's real `Op`.
    Rt,
}

/// How a [`TOp::Call`] finds its callee.
#[derive(Debug, Clone, Copy)]
enum CallKind {
    /// The pool's `DirectMethod`.
    Static,
    /// The named class's vtable entry: constructors and `super` calls.
    Special,
    /// The receiver's vtable entry.
    Virtual,
}

const _: () = assert!(core::mem::size_of::<TOp>() <= 16, "TOp grew");

/// A method's lowered, process-independent template body. The default
/// body is empty: it stands in for a method whose class has not finished
/// loading, and running it faults.
#[derive(Debug, Default)]
pub(crate) struct CompiledBody {
    t_ops: Vec<TOp>,
    micros: Vec<Micro>,
    consts: Vec<Value>,
    /// `entries[pc]` = index of the template op holding `pc` (a pc inside
    /// a block maps to that block). Length is `ops.len() + 1`; the final
    /// entry is the implicit-return template op.
    entries: Vec<u32>,
    /// `src_pc[tix]` = pc of the template op's first original op, plus one
    /// trailing entry one past the implicit return.
    src_pc: Vec<u32>,
    /// Modelled size of the body in bytes.
    bytes: u64,
}

impl CompiledBody {
    /// Modelled size of the body in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Lowering statistics (procfs / kaffeos-top surface). The kernel
/// attributes to a process what its spawn's class loads lowered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcJitStats {
    /// Methods lowered (link-memo misses).
    pub compiled: u64,
    /// Methods bound to a body already in the link memo.
    pub hits: u64,
    /// Of `hits`, bodies another namespace lowered (shared reuse).
    pub reuse: u64,
    /// Template bytes linked (lowered + reused); monotone, like every
    /// other procfs counter.
    pub bytes: u64,
}

impl ProcJitStats {
    /// What was counted after `before` was taken from the same counters.
    pub fn since(self, before: ProcJitStats) -> ProcJitStats {
        ProcJitStats {
            compiled: self.compiled - before.compiled,
            hits: self.hits - before.hits,
            reuse: self.reuse - before.reuse,
            bytes: self.bytes - before.bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// The lowering
// ---------------------------------------------------------------------------

/// Base cycle cost of a blockable op, before the engine's CPI factor (the
/// same base the runtime ops' `engine.scaled(...)` charges use); `None`
/// for an op that needs the runtime.
fn base_cost(op: &Op) -> Option<u64> {
    let c = &BASE_COSTS;
    Some(match op {
        Op::ConstNull | Op::ConstInt(_) | Op::ConstFloat(_) | Op::Load(_) | Op::Store(_) => c.local,
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
        | Op::ArrayLen => c.simple,
        Op::Div | Op::Rem => c.simple * 4,
        Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => c.simple * 2,
        Op::Jump(_) | Op::JumpIfTrue(_) | Op::JumpIfFalse(_) => c.branch,
        Op::ALoad | Op::AStore | Op::GetField(_) | Op::PutField(_) => c.field,
        _ => return None,
    })
}

/// Whether an op can live inside a block (fixed static cost, no frame
/// change, no allocation). `GetField`/`PutField` are blockable only when
/// their pool entry resolves to an instance field; ref stores and `AStore`
/// may only be the *last* op of a block (dynamic barrier/GC cycles).
fn blockable(op: &Op, pool: &[RConst]) -> bool {
    match op {
        Op::GetField(idx) | Op::PutField(idx) => {
            matches!(pool.get(*idx as usize), Some(RConst::InstanceField { .. }))
        }
        _ => base_cost(op).is_some(),
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
/// micro's whole op/cycle charge and the `at` pc match a per-op run —
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

struct Lowering<'t> {
    engine: Engine,
    ops: &'t [Op],
    pool: &'t [RConst],
    t_ops: Vec<TOp>,
    micros: Vec<Micro>,
    consts: Vec<Value>,
    /// `const_slot[pc]` = index in `consts` of the constant op at `pc`.
    const_slot: Vec<u16>,
    src_pc: Vec<u32>,
    /// Micro indices holding a pc-encoded branch target to fix up.
    branch_fixups: Vec<(usize, u32)>,
}

impl<'t> Lowering<'t> {
    /// Pre-scaled charge of the op at `pc`.
    fn cost(&self, pc: usize) -> u64 {
        self.engine.scaled(base_cost(&self.ops[pc]).unwrap_or(0))
    }

    /// Fusion operand source of the op at `pc`: a local slot or a
    /// constant.
    fn loadk(&self, pc: usize) -> Option<(u8, u16)> {
        match self.ops[pc] {
            Op::Load(slot) => Some((SRC_LOCAL, slot)),
            Op::ConstInt(_) | Op::ConstFloat(_) => Some((SRC_CONST, self.const_slot[pc])),
            _ => None,
        }
    }

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

    /// Lowers the blockable op at `pc` into its plain micro.
    fn plain_micro(&mut self, pc: usize) {
        let op = &self.ops[pc];
        let m = |k: MK| (k, 0u16);
        let (kind, a) = match op {
            Op::ConstInt(_) | Op::ConstFloat(_) => (MK::ConstK, self.const_slot[pc]),
            Op::Load(s) => (MK::Load, *s),
            Op::Store(s) => (MK::Store, *s),
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
                m(MK::Jump)
            }
            Op::JumpIfTrue(t) => {
                self.branch_fixups.push((self.micros.len(), *t));
                m(MK::JumpIfTrue)
            }
            Op::JumpIfFalse(t) => {
                self.branch_fixups.push((self.micros.len(), *t));
                m(MK::JumpIfFalse)
            }
            Op::NullCheck => m(MK::NullCheck),
            Op::ArrayLen => m(MK::ArrayLen),
            Op::ALoad => m(MK::ALoad),
            Op::AStore => m(MK::AStore),
            // Blockable field ops resolve to instance fields.
            Op::GetField(idx) | Op::PutField(idx) => {
                let (slot, is_ref) = match self.pool.get(*idx as usize) {
                    Some(RConst::InstanceField { slot, ty, .. }) => (*slot, ty.is_reference()),
                    _ => (0, false),
                };
                match (op, is_ref) {
                    (Op::GetField(_), _) => (MK::GetField, slot),
                    (_, true) => (MK::PutFieldRef, slot),
                    _ => (MK::PutFieldPrim, slot),
                }
            }
            // `ConstNull`: no other op is blockable.
            _ => m(MK::ConstNull),
        };
        self.micro(kind, 0, 1, a, 0, 0, self.cost(pc));
    }

    /// Tries superinstruction fusion at `pc` within `[pc, end)`. Returns
    /// the number of ops consumed (0 = no pattern matched).
    fn try_fuse(&mut self, pc: usize, end: usize) -> usize {
        let ops = self.ops;
        let avail = end - pc;
        let cost2 = |s: &Self, n: usize| -> u64 { (pc..pc + n).map(|p| s.cost(p)).sum() };
        // [LoadK a][LoadK b][alu][Store d]  and  [LoadK a][LoadK b][cmp][JumpIf t]
        if avail >= 4 {
            if let (Some(code), Op::Store(d)) = (alu_code(&ops[pc + 2]), &ops[pc + 3]) {
                if let Some((ka, a)) = self.loadk(pc) {
                    if let Some((kb, b)) = self.loadk(pc + 1) {
                        let cost = cost2(self, 4);
                        let flags = code | (ka << 4) | (kb << 6);
                        self.micro(MK::FusedAluSt, flags, 4, a, b, *d, cost);
                        return 4;
                    }
                }
            }
            if let Some(code) = cmp_code(&ops[pc + 2]) {
                let branch = match &ops[pc + 3] {
                    Op::JumpIfTrue(t) => Some((MK::FusedCmpT, *t)),
                    Op::JumpIfFalse(t) => Some((MK::FusedCmpF, *t)),
                    _ => None,
                };
                if let Some((kind, target)) = branch {
                    if let Some((ka, a)) = self.loadk(pc) {
                        if let Some((kb, b)) = self.loadk(pc + 1) {
                            let cost = cost2(self, 4);
                            let flags = code | (ka << 4) | (kb << 6);
                            self.branch_fixups.push((self.micros.len(), target));
                            self.micro(kind, flags, 4, a, b, 0, cost);
                            return 4;
                        }
                    }
                }
            }
        }
        if avail >= 3 {
            // [LoadK a][LoadK b][alu] — result pushed; Div/Rem allowed (last).
            if let Some(code) = alu_code_last(&ops[pc + 2]) {
                if let Some((ka, a)) = self.loadk(pc) {
                    if let Some((kb, b)) = self.loadk(pc + 1) {
                        let cost = cost2(self, 3);
                        let flags = code | (ka << 4) | (kb << 6);
                        self.micro(MK::FusedAlu, flags, 3, a, b, 0, cost);
                        return 3;
                    }
                }
            }
            // [LoadK arr][LoadK idx][ALoad]
            if matches!(&ops[pc + 2], Op::ALoad) {
                if let Some((ka, a)) = self.loadk(pc) {
                    if let Some((kb, b)) = self.loadk(pc + 1) {
                        let cost = cost2(self, 3);
                        let flags = (ka << 4) | (kb << 6);
                        self.micro(MK::FusedALoad, flags, 3, a, b, 0, cost);
                        return 3;
                    }
                }
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
                    if let Some((kb, b)) = self.loadk(pc) {
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
                if let Some((kb, b)) = self.loadk(pc) {
                    let cost = cost2(self, 2);
                    let flags = code | (SRC_STACK << 4) | (kb << 6);
                    self.micro(MK::FusedAlu, flags, 2, 0, b, 0, cost);
                    return 2;
                }
            }
            // [LoadK idx][ALoad] — array from the stack.
            if matches!(&ops[pc + 1], Op::ALoad) {
                if let Some((kb, b)) = self.loadk(pc) {
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
                    if let Some((kb, b)) = self.loadk(pc) {
                        let cost = cost2(self, 2);
                        self.micro(MK::FusedGet, kb << 6, 2, slot, b, 0, cost);
                        return 2;
                    }
                }
            }
            // [LoadK src][Store dst] — local/const-to-local copy.
            if let Op::Store(d) = &ops[pc + 1] {
                if let Some((ka, a)) = self.loadk(pc) {
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

    /// Lowers the blockable run `[start, end)` into one Block template op:
    /// its fused micros, then its plain micros.
    fn lower_block(&mut self, start: usize, end: usize) {
        let m0 = self.micros.len();
        let mut pc = start;
        while pc < end {
            let n = self.try_fuse(pc, end);
            if n > 0 {
                pc += n;
            } else {
                self.plain_micro(pc);
                pc += 1;
            }
        }
        let mlen = self.micros.len() - m0;
        let p0 = self.micros.len();
        for pc in start..end {
            self.plain_micro(pc);
        }
        // Guard margin: total cost minus the final *original* op's cost —
        // a per-op run's last in-block fuel check sits before that op. A
        // margin past `u32` saturates, which only sends more entries down
        // the plain path.
        let total: u64 = (start..end).map(|p| self.cost(p)).sum();
        let cost2 = total - self.cost(end - 1);
        self.t_ops.push(TOp::Block {
            m0: m0 as u32,
            mlen: mlen as u16,
            cost2: u32::try_from(cost2).unwrap_or(u32::MAX),
            p0: p0 as u32,
        });
        self.src_pc.push(start as u32);
    }
}

/// Lowers a verified method into its template form, pre-scaled for the
/// table's engine. The verifier bounds the method at [`MAX_METHOD_OPS`],
/// so every index fits its field.
pub(crate) fn lower(table: &ClassTable, midx: MethodIdx) -> CompiledBody {
    let m = table.decl(midx);
    let lc = table.class(table.method(midx).class);
    let ops = &m.code.ops;

    // Template-op boundaries: every branch and handler target. Blocks
    // never span one, so every pc control can arrive at other than by
    // falling through (frame entry, jump target, handler, syscall resume,
    // monitor retry) is a template-op start. Targets out of range sit in
    // code the verifier found unreachable.
    let mut boundary = vec![false; ops.len() + 1];
    let targets = ops.iter().filter_map(|op| match op {
        Op::Jump(t) | Op::JumpIfTrue(t) | Op::JumpIfFalse(t) => Some(*t),
        _ => None,
    });
    for t in targets.chain(m.code.handlers.iter().map(|h| h.target)) {
        if let Some(b) = boundary.get_mut(t as usize) {
            *b = true;
        }
    }

    // One constant slot per constant op, shared by its fused and plain
    // micros; at most `MAX_METHOD_OPS` of them, so a `u16` indexes each.
    let mut consts = Vec::new();
    let mut const_slot = vec![0u16; ops.len()];
    for (pc, op) in ops.iter().enumerate() {
        let v = match *op {
            Op::ConstInt(v) => Value::Int(v),
            Op::ConstFloat(v) => Value::Float(v),
            _ => continue,
        };
        const_slot[pc] = consts.len() as u16;
        consts.push(v);
    }

    let mut l = Lowering {
        engine: table.engine(),
        ops,
        pool: &lc.rpool,
        // At most one template op per op plus the implicit return, and at
        // most two micros (fused and plain) per op: sized once, since every
        // loaded method is lowered.
        t_ops: Vec::with_capacity(ops.len() + 1),
        micros: Vec::with_capacity(2 * ops.len()),
        consts,
        const_slot,
        src_pc: Vec::with_capacity(ops.len() + 2),
        branch_fixups: Vec::new(),
    };

    let ret = u32::try_from(l.engine.scaled(BASE_COSTS.ret)).unwrap_or(u32::MAX);
    let mut pc = 0usize;
    while pc < ops.len() {
        if blockable(&ops[pc], l.pool) {
            // Extend the run to the next boundary, non-blockable op, or
            // just past a terminating op (branch / dynamic-cost store).
            let mut end = pc;
            loop {
                let op = &ops[end];
                end += 1;
                if block_terminator(op, l.pool) {
                    break;
                }
                if end >= ops.len() || boundary[end] || !blockable(&ops[end], l.pool) {
                    break;
                }
            }
            l.lower_block(pc, end);
            pc = end;
        } else {
            let call = |kind, idx| TOp::Call { kind, idx };
            l.t_ops.push(match ops[pc] {
                Op::CallStatic(idx) => call(CallKind::Static, idx),
                Op::CallSpecial(idx) => call(CallKind::Special, idx),
                Op::CallVirtual(idx) => call(CallKind::Virtual, idx),
                Op::Return => TOp::Ret {
                    value: false,
                    cycles: ret,
                },
                Op::ReturnVal => TOp::Ret {
                    value: true,
                    cycles: ret,
                },
                _ => TOp::Rt,
            });
            l.src_pc.push(pc as u32);
            pc += 1;
        }
    }
    // Implicit return at pc == ops.len() (falling off the end), which
    // charges nothing, then the end sentinel that bounds the last template
    // op.
    l.t_ops.push(TOp::Ret {
        value: false,
        cycles: 0,
    });
    l.src_pc.push(ops.len() as u32);
    l.src_pc.push(ops.len() as u32 + 1);

    // Entry map (pc → the template op holding it) and branch fixups. A
    // target no template op starts at is out of range, in unreachable
    // code; it points at the implicit return so the body stays in bounds.
    let mut entries = vec![0u32; ops.len() + 1];
    for (tix, w) in l.src_pc.windows(2).enumerate() {
        entries[w[0] as usize..w[1] as usize].fill(tix as u32);
    }
    let last = (l.t_ops.len() - 1) as u16;
    for (mi, target) in core::mem::take(&mut l.branch_fixups) {
        let tix = match entries.get(target as usize) {
            Some(&t) if l.src_pc[t as usize] == target => t as u16,
            _ => last,
        };
        // Plain branch micros carry the target in `a`; fused
        // compare-and-branch micros carry operands in `a`/`b` and the
        // target in `c`.
        match l.micros[mi].kind {
            MK::FusedCmpT | MK::FusedCmpF => l.micros[mi].c = tix,
            _ => l.micros[mi].a = tix,
        }
    }

    let bytes = (l.t_ops.len() * core::mem::size_of::<TOp>()
        + l.micros.len() * core::mem::size_of::<Micro>()
        + l.consts.len() * core::mem::size_of::<Value>()
        + entries.len() * 4
        + l.src_pc.len() * 4) as u64;

    CompiledBody {
        t_ops: l.t_ops,
        micros: l.micros,
        consts: l.consts,
        entries,
        src_pc: l.src_pc,
        bytes,
    }
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// Writes `pc` back to the top frame.
#[inline(always)]
fn sync(thread: &mut Thread, pc: usize) {
    if let Some(f) = thread.frames.last_mut() {
        f.pc = pc as u32;
    }
}

/// Fault injection's hooks at the safe point before the op at `pc`: a
/// forced collection, which shakes out GC-unsafety (missing roots,
/// premature sweeps) that allocation-triggered collections would rarely
/// reach, then the kill re-check. `Some` ends the quantum.
fn injected_safepoint(thread: &mut Thread, ctx: &mut ExecCtx<'_>, pc: usize) -> Option<RunExit> {
    if let Err(e) = forced_gc(thread, ctx) {
        sync(thread, pc);
        return Some(RunExit::Fault(crate::VmError::Heap(e)));
    }
    (thread.kill_requested && thread.kernel_depth == 0).then(|| honour_kill(thread, ctx))
}

/// Runs `thread` for up to `fuel` modelled cycles past `start_cycles`:
/// the VM's one dispatch loop. `INJECT` compiles in the per-op fault hooks
/// (forced GC, kill re-check) and runs every block plain; the other
/// variant checks termination once per quantum — the kernel only flips
/// `kill_requested`/`kernel_depth` between quanta, so a per-op check
/// observes exactly the same values. Virtual behaviour (ops executed,
/// cycles charged, preemption boundaries) is identical in both variants.
pub(crate) fn execute<const INJECT: bool>(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    fuel: u64,
    start_cycles: u64,
) -> RunExit {
    // Copy the shared table reference out of `ctx` so body borrows are
    // independent of later `&mut ctx` uses.
    let table = ctx.table;

    if !INJECT && thread.kill_requested && thread.kernel_depth == 0 {
        return honour_kill(thread, ctx);
    }

    // The running frame's state: its method, body, code, resolved pool,
    // stack bases, and the template op at its pc. It stays valid until the
    // frame set changes.
    let mut method_idx: MethodIdx;
    let mut body: &CompiledBody;
    let mut ops: &[Op];
    let mut pool: &[RConst];
    let mut locals_base: usize;
    let mut stack_base: usize;
    let mut tix: u32;
    // A frame resumed inside a block (after a preemption there) runs the
    // rest of that block plain.
    let mut resume: Option<usize>;

    // Switches the state to the top frame at its stored pc; returns when
    // no frame is left.
    macro_rules! load_top {
        () => {{
            let Some(&top) = thread.frames.last() else {
                return RunExit::Finished(None);
            };
            method_idx = top.method;
            let method = table.method(method_idx);
            body = &method.body;
            ops = &method.ops;
            pool = &table.class(top.class).rpool;
            locals_base = top.locals_base as usize;
            stack_base = top.stack_base as usize;
            let pc = top.pc as usize;
            let Some(&t) = body.entries.get(pc) else {
                return RunExit::Fault(crate::VmError::BadBytecode(format!(
                    "no template op at pc {pc} of {}",
                    table.qualified_name(method_idx)
                )));
            };
            tix = t;
            resume = (body.src_pc[tix as usize] as usize != pc).then_some(pc);
        }};
    }
    macro_rules! vpop {
        () => {
            thread.values.pop().unwrap_or(Value::Null)
        };
    }
    // The safe point before a call, return or runtime op at `$pc`: fault
    // injection's hooks, then the fuel check.
    macro_rules! safepoint {
        ($pc:expr) => {{
            if INJECT {
                if let Some(exit) = injected_safepoint(thread, ctx, $pc) {
                    return exit;
                }
            }
            if thread.cycles - start_cycles >= fuel {
                sync(thread, $pc);
                return RunExit::Preempted;
            }
        }};
    }
    macro_rules! fault {
        ($($msg:tt)*) => {
            return RunExit::Fault(crate::VmError::BadBytecode(format!($($msg)*)))
        };
    }

    // Entry, and after an unwind: the state comes from the top frame.
    // Calls and returns switch it in place. Unwinds come back here so the
    // many raise sites share one switch: a copy at each costs the block
    // micros their registers.
    'frame: loop {
        load_top!();
        loop {
            // Exception dispatch at `$pc`: unwind to a handler (and switch to
            // its frame) or exit with the escaping exception.
            macro_rules! raise_at {
                ($pc:expr, $ex:expr) => {{
                    sync(thread, $pc);
                    match raise(thread, ctx, $ex) {
                        None => continue 'frame,
                        Some(exit) => return exit,
                    }
                }};
            }
            let src = body.src_pc[tix as usize] as usize;
            match body.t_ops[tix as usize] {
                TOp::Block {
                    m0,
                    mlen,
                    cost2,
                    p0,
                } => {
                    // Which form runs: the fused micros when the block is
                    // entered at its head and the fuel guard allows them,
                    // otherwise the plain micros from the entry pc.
                    let fits = !INJECT && resume.is_none() && {
                        // Safe point: the same fuel check a per-op run
                        // makes before the block's first op.
                        let d = thread.cycles - start_cycles;
                        if d >= fuel {
                            sync(thread, src);
                            return RunExit::Preempted;
                        }
                        // A per-op run's last in-block fuel check happens
                        // before the final op, `cost2` cycles in.
                        cost2 == 0 || d + (cost2 as u64) < fuel
                    };
                    let plain = !fits;
                    let (micros, mut at) = if fits {
                        (&body.micros[m0 as usize..m0 as usize + mlen as usize], src)
                    } else {
                        let at = resume.take().unwrap_or(src);
                        let end = body.src_pc[tix as usize + 1] as usize;
                        let first = p0 as usize + (at - src);
                        (&body.micros[first..p0 as usize + (end - src)], at)
                    };
                    let mut mi = 0usize;
                    let mend = micros.len();
                    let mut next = tix + 1;
                    // Op/cycle charges of the fused form accumulate in
                    // locals and flush at block exit; any arm that lets the
                    // runtime observe thread state (raise, GC retry, write
                    // barrier) flushes first. The plain form charges the
                    // thread directly and leaves both at zero.
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
                    macro_rules! throw {
                        ($ex:expr) => {{
                            thread.ops += ops_acc;
                            thread.cycles += cyc_acc;
                            raise_at!(at, $ex)
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
                    // Taken branch to template op `$t`. A fused back-edge
                    // to this block's own head restarts the micro loop in
                    // place once the block-entry checks (fuel, `cost2`
                    // margin) pass — a loop iteration then costs no outer
                    // dispatch at all; otherwise the template loop makes
                    // those checks. The loop label is a macro argument:
                    // labels are hygienic, and the loops come below.
                    macro_rules! jump {
                        ($lbl:lifetime, $t:expr) => {{
                            let t = $t;
                            if !plain && t == tix {
                                flush!();
                                let d = thread.cycles - start_cycles;
                                if d < fuel && (cost2 == 0 || d + (cost2 as u64) < fuel) {
                                    at = src;
                                    mi = 0;
                                    continue $lbl;
                                }
                            }
                            next = t;
                            break $lbl;
                        }};
                    }
                    // Every micro arm, once; expanded into the fused and the
                    // plain loop below.
                    macro_rules! micro {
                        ($lbl:lifetime, $m:expr) => {{
                            let m: Micro = $m;
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
                                MK::Add
                                | MK::Sub
                                | MK::Mul
                                | MK::And
                                | MK::Or
                                | MK::Xor
                                | MK::Shl
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
                                        throw!(division_by_zero());
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
                                MK::CmpEq
                                | MK::CmpNe
                                | MK::CmpLt
                                | MK::CmpLe
                                | MK::CmpGt
                                | MK::CmpGe => {
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
                                MK::Jump => jump!($lbl, m.a as u32),
                                MK::JumpIfTrue => {
                                    if vpop!().is_truthy() {
                                        jump!($lbl, m.a as u32);
                                    }
                                }
                                MK::JumpIfFalse => {
                                    if !vpop!().is_truthy() {
                                        jump!($lbl, m.a as u32);
                                    }
                                }
                                MK::NullCheck => {
                                    let v = vpop!();
                                    if !matches!(v, Value::Ref(_)) {
                                        throw!(npe("explicit null check"));
                                    }
                                }
                                MK::ArrayLen => {
                                    let Value::Ref(arr) = vpop!() else {
                                        throw!(npe("array length of null"));
                                    };
                                    match ctx.space.slot_count(arr) {
                                        Ok(n) => thread.values.push(Value::Int(n as i64)),
                                        Err(e) => throw!(heap_exception(e)),
                                    }
                                }
                                MK::ALoad => {
                                    let index = vpop!().as_int();
                                    let Value::Ref(arr) = vpop!() else {
                                        throw!(npe("array load on null"));
                                    };
                                    match load_elem(ctx, arr, index) {
                                        Ok(v) => thread.values.push(v),
                                        Err(e) => throw!(e),
                                    }
                                }
                                MK::AStore => {
                                    flush!();
                                    let v = vpop!();
                                    let index = vpop!().as_int();
                                    let Value::Ref(arr) = vpop!() else {
                                        throw!(npe("array store on null"));
                                    };
                                    let pc = at as u32 - 1;
                                    if let Err(e) =
                                        store_elem(thread, ctx, method_idx, pc, arr, index, v)
                                    {
                                        throw!(e);
                                    }
                                }
                                MK::GetField => {
                                    let Value::Ref(obj) = vpop!() else {
                                        throw!(npe("field access on null"));
                                    };
                                    match ctx.space.load(obj, m.a as usize) {
                                        Ok(v) => thread.values.push(v),
                                        Err(e) => throw!(heap_exception(e)),
                                    }
                                }
                                MK::PutFieldPrim | MK::PutFieldRef => {
                                    flush!();
                                    let v = vpop!();
                                    let Value::Ref(obj) = vpop!() else {
                                        throw!(npe("field store on null"));
                                    };
                                    let result = if matches!(m.kind, MK::PutFieldRef) {
                                        let pc = at as u32 - 1;
                                        store_ref_checked(
                                            thread,
                                            ctx,
                                            method_idx,
                                            pc,
                                            obj,
                                            m.a as usize,
                                            v,
                                        )
                                    } else {
                                        ctx.space.store_prim(obj, m.a as usize, v)
                                    };
                                    if let Err(e) = result {
                                        throw!(heap_exception(e));
                                    }
                                }
                                MK::FusedAlu | MK::FusedAluSt => {
                                    let code = m.flags & 0x0f;
                                    let kb = (m.flags >> 6) & 3;
                                    let ka = (m.flags >> 4) & 3;
                                    let vb = fetch!(kb, m.b);
                                    let va = fetch!(ka, m.a);
                                    let Some(r) = alu_eval(code, va, vb) else {
                                        throw!(division_by_zero());
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
                                        throw!(division_by_zero());
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
                                        throw!(npe("array load on null"));
                                    };
                                    match load_elem(ctx, arr, index) {
                                        Ok(v) => thread.values.push(v),
                                        Err(e) => throw!(e),
                                    }
                                }
                                MK::FusedGet => {
                                    let kb = (m.flags >> 6) & 3;
                                    let vobj = fetch!(kb, m.b);
                                    let Value::Ref(obj) = vobj else {
                                        throw!(npe("field access on null"));
                                    };
                                    match ctx.space.load(obj, m.a as usize) {
                                        Ok(v) => thread.values.push(v),
                                        Err(e) => throw!(heap_exception(e)),
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
                                    let take = if matches!(m.kind, MK::FusedCmpT) {
                                        r
                                    } else {
                                        !r
                                    };
                                    if take {
                                        jump!($lbl, m.c as u32);
                                    }
                                }
                            }
                        }};
                    }
                    if plain {
                        'plain: while mi < mend {
                            let m = micros[mi];
                            if INJECT {
                                if let Some(exit) = injected_safepoint(thread, ctx, at) {
                                    return exit;
                                }
                            }
                            if thread.cycles - start_cycles >= fuel {
                                sync(thread, at);
                                return RunExit::Preempted;
                            }
                            thread.ops += 1;
                            thread.cycles += m.cost as u64;
                            at += 1;
                            micro!('plain, m);
                            mi += 1;
                        }
                    } else {
                        'fused: while mi < mend {
                            let m = micros[mi];
                            ops_acc += m.nops as u64;
                            cyc_acc += m.cost as u64;
                            at += m.nops as usize;
                            micro!('fused, m);
                            mi += 1;
                        }
                    }
                    thread.ops += ops_acc;
                    thread.cycles += cyc_acc;
                    tix = next;
                }
                TOp::Call { kind, idx } => {
                    safepoint!(src);
                    thread.ops += 1;
                    sync(thread, src + 1);
                    let entry = pool.get(idx as usize);
                    let midx = match (kind, entry) {
                        (CallKind::Static, Some(&RConst::DirectMethod(midx))) => midx,
                        (
                            CallKind::Special,
                            Some(&RConst::VirtualMethod {
                                class: cidx, vslot, ..
                            }),
                        ) => table.class(cidx).vtable[vslot as usize],
                        (CallKind::Virtual, Some(&RConst::VirtualMethod { vslot, nargs, .. })) => {
                            // Receiver sits below the arguments.
                            if thread.values.len() - stack_base < nargs as usize {
                                fault!("virtual call with short stack");
                            }
                            let recv_pos = thread.values.len() - nargs as usize;
                            let Value::Ref(recv) = thread.values[recv_pos] else {
                                raise_at!(src + 1, npe("virtual call on null"));
                            };
                            let recv_class = match ctx.space.class_of(recv) {
                                Ok(id) => table.from_heap_class(id),
                                Err(e) => raise_at!(src + 1, heap_exception(e)),
                            };
                            table.class(recv_class).vtable[vslot as usize]
                        }
                        _ => fault!("{kind:?} call on bad pool entry {idx}"),
                    };
                    let callee = table.method(midx);
                    let shape = callee.shape;
                    thread.cycles += u64::from(shape.call_cycles);
                    if thread.frames.len() >= MAX_FRAMES {
                        raise_at!(
                            src + 1,
                            VmException::Builtin(
                                BuiltinEx::StackOverflow,
                                format!("{} frames", thread.frames.len()),
                            )
                        );
                    }
                    // The callee's leading locals overlay the caller's
                    // pushed arguments in place: no values move, and
                    // nothing is allocated once the thread's vectors reach
                    // their high-water mark.
                    debug_assert!(
                        thread.values.len() - stack_base >= shape.args as usize,
                        "call with short operand stack (verifier bug)"
                    );
                    let callee_locals = thread.values.len().saturating_sub(shape.args as usize);
                    let callee_stack = callee_locals + shape.max_locals as usize;
                    thread.values.resize(callee_stack, Value::Null);
                    thread.frames.push(Frame {
                        method: midx,
                        class: callee.class,
                        pc: 0,
                        locals_base: callee_locals as u32,
                        stack_base: callee_stack as u32,
                    });
                    // Switch to the callee at its first template op.
                    method_idx = midx;
                    body = &callee.body;
                    ops = &callee.ops;
                    pool = &table.class(callee.class).rpool;
                    locals_base = callee_locals;
                    stack_base = callee_stack;
                    if body.t_ops.is_empty() {
                        fault!("no template op at pc 0 of {}", table.qualified_name(midx));
                    }
                    tix = 0;
                    resume = None;
                }
                TOp::Ret { value, cycles } => {
                    safepoint!(src);
                    thread.ops += 1;
                    sync(thread, src + 1);
                    thread.cycles += cycles as u64;
                    let value = value.then(|| vpop!());
                    if let Some(f) = thread.frames.pop() {
                        thread.values.truncate(f.locals_base as usize);
                    }
                    if thread.frames.is_empty() {
                        return RunExit::Finished(value);
                    }
                    if let Some(v) = value {
                        thread.values.push(v);
                    }
                    load_top!();
                }
                TOp::Rt => {
                    safepoint!(src);
                    // `rt_op` runs the op on the real frame, its pc past
                    // the op.
                    thread.ops += 1;
                    sync(thread, src + 1);
                    let Some(&op) = ops.get(src) else {
                        fault!("no op at pc {src} of {}", table.qualified_name(method_idx));
                    };
                    match rt_op(thread, ctx, op) {
                        StepFlow::Next => tix += 1,
                        StepFlow::Exit(exit) => return exit,
                        StepFlow::Raise(ex) => raise_at!(src + 1, ex),
                    }
                }
            }
        }
    }
}

/// Applies a fused ALU code to two operand values with the per-op arms'
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

fn division_by_zero() -> VmException {
    VmException::Builtin(BuiltinEx::Arithmetic, "division by zero".to_string())
}
