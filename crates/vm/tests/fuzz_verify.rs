//! Verifier soundness fuzzing.
//!
//! Type safety is KaffeOS's memory-protection mechanism, so the verifier
//! must be *sound*: any bytecode it accepts must execute without breaking
//! the VM. This test throws random instruction sequences at the loader,
//! most of which get rejected, and then mostly well-typed statement
//! sequences with branches, loops and handlers, most of which get accepted.
//! Every accepted one is executed under a fuel cap and must terminate,
//! trap, or preempt cleanly — never panic, never reach a `Fault`.
//!
//! (Debug builds make this stronger: the VM's `debug_assert!`s on type
//! confusion fire if the verifier ever lets a bad program through.)
//!
//! Every accepted case also runs through the fuel-split oracle: a second
//! fresh thread on a fresh heap, stepped one op per `step` (fuel 1, so
//! every block runs its plain micros) up to the first run's stop, must
//! stop alike and charge the same cycles and ops as the first run, whose
//! blocks ran fused.
//!
//! The static heap-flow analyzer rides along. Every case loads into one
//! growing table, which `analyze()` then covers whole. A variant with a
//! verifier-rejected body forced into a loaded method is analyzed too,
//! asserting the analyzer never panics on garbage it was never promised
//! (it must bail per-method, not trust verifier invariants).
//!
//! A second case family, `compare_and_branch_cases_split_alike`, emits
//! comparison + conditional-branch sequences in every shape the lowering
//! fuses into one compare-and-branch micro, so the oracle also covers
//! those micros against their plain ops.
//!
//! Instruction sequences come from a seeded SplitMix64 generator so every
//! case replays exactly; a failing case names its seed.
//!
//! Every case's verdict (accepted, or the first error's pc, op and message),
//! every method's `Elide` sites, and the final whole-program lints and verdict
//! summary are folded into one digest pinned to a constant: a rewrite of
//! the verifier or the analyzer that changes which error is reported
//! first, or any fact, fails here even when the result is still sound.
//! The compare-and-branch family folds each case's verdict, stop and
//! charge into a digest of its own.

use std::sync::Arc;

use kaffeos_analyze::{Analysis, Verdict};
use kaffeos_heap::{HeapSpace, SpaceConfig, Value};
use kaffeos_memlimit::Kind;
use kaffeos_vm::{
    step, ClassBuilder, ClassTable, Code, Const, ExecCtx, IntrinsicRegistry, MethodBuilder,
    MethodIdx, Op, RunExit, Thread, TypeDesc, VmError, VmException,
};

/// Digest of every case's load verdict and facts. Change it only together
/// with an intended change to what the verifier or the analyzer reports.
const VERDICT_DIGEST: u64 = 0x4dfa_3c6c_2071_d249;

/// Digest of every compare-and-branch case's verdict, stop and charge.
/// Change it only together with an intended change to what the verifier
/// reports, what a comparison computes or what an op costs.
const CMP_DIGEST: u64 = 0x31a2_d5d4_bcd3_f8bc;

/// FNV-1a over the `Debug` rendering of each folded item.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, item: impl core::fmt::Debug) {
        for b in format!("{item:?}").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A loaded method's code, made writable: its class's linked definition
/// and class text are copied first when shared.
fn code_mut(table: &mut ClassTable, m: MethodIdx) -> &mut Code {
    let rt = table.method(m);
    let (class, slot) = (rt.class.0 as usize, rt.slot as usize);
    let link = Arc::make_mut(&mut table.classes[class].link);
    &mut Arc::make_mut(&mut link.def).methods[slot].code
}

/// Every method's `Elide` store sites as a bitmap over its pcs (bit `pc`
/// set ⇔ the store at `pc` got the verdict; empty when none did), indexed
/// by method: the per-method fact the digest folds.
fn elide_bits(table: &ClassTable, analysis: &Analysis) -> Vec<Vec<u64>> {
    let mut bits = vec![Vec::new(); table.methods.len()];
    for site in analysis.sites().filter(|s| s.verdict == Verdict::Elide) {
        let b: &mut Vec<u64> = &mut bits[site.method.0 as usize];
        if b.is_empty() {
            b.resize(table.decl(site.method).code.ops.len().div_ceil(64), 0);
        }
        b[(site.pc / 64) as usize] |= 1 << (site.pc % 64);
    }
    bits
}

/// Deterministic SplitMix64 sequence generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random instruction over small operand spaces. Pool indices are drawn
/// from a fixed 8-entry pool; locals from 0..4; jump targets from 0..LEN+2
/// (some deliberately out of range).
fn gen_op(rng: &mut Rng, code_len: u32) -> Op {
    match rng.below(62) {
        0 => Op::ConstNull,
        1 => Op::ConstInt(-3 + rng.below(103) as i64),
        2 => Op::ConstFloat(-2.0 + rng.below(4000) as f64 / 1000.0),
        3 => Op::ConstStr(rng.below(8) as u16),
        4 => Op::Load(rng.below(4) as u16),
        5 => Op::Store(rng.below(4) as u16),
        6 => Op::Pop,
        7 => Op::Dup,
        8 => Op::Swap,
        9 => Op::Add,
        10 => Op::Sub,
        11 => Op::Mul,
        12 => Op::Div,
        13 => Op::Rem,
        14 => Op::Neg,
        15 => Op::Shl,
        16 => Op::Shr,
        17 => Op::And,
        18 => Op::Or,
        19 => Op::Xor,
        20 => Op::FAdd,
        21 => Op::FSub,
        22 => Op::FMul,
        23 => Op::FDiv,
        24 => Op::FNeg,
        25 => Op::I2F,
        26 => Op::F2I,
        27 => Op::CmpEq,
        28 => Op::CmpLt,
        29 => Op::FCmpLt,
        30 => Op::RefEq,
        31 => Op::RefNe,
        32 => Op::Jump(rng.below((code_len + 2) as u64) as u32),
        33 => Op::JumpIfTrue(rng.below((code_len + 2) as u64) as u32),
        34 => Op::JumpIfFalse(rng.below((code_len + 2) as u64) as u32),
        35 => Op::Return,
        36 => Op::ReturnVal,
        37 => Op::New(rng.below(8) as u16),
        38 => Op::GetField(rng.below(8) as u16),
        39 => Op::PutField(rng.below(8) as u16),
        40 => Op::GetStatic(rng.below(8) as u16),
        41 => Op::PutStatic(rng.below(8) as u16),
        42 => Op::NullCheck,
        43 => Op::InstanceOf(rng.below(8) as u16),
        44 => Op::CheckCast(rng.below(8) as u16),
        45 => Op::NewArray(rng.below(8) as u16),
        46 => Op::ALoad,
        47 => Op::AStore,
        48 => Op::ArrayLen,
        49 => Op::CallStatic(rng.below(8) as u16),
        50 => Op::CallVirtual(rng.below(8) as u16),
        51 => Op::CallSpecial(rng.below(8) as u16),
        52 => Op::Throw,
        53 => Op::StrConcat,
        54 => Op::StrLen,
        55 => Op::StrCharAt,
        56 => Op::StrEq,
        57 => Op::Intern,
        58 => Op::ToStr,
        59 => Op::Substr,
        60 => Op::ParseInt,
        _ => {
            if rng.below(2) == 0 {
                Op::MonitorEnter
            } else {
                Op::MonitorExit
            }
        }
    }
}

/// Locals of the fuzzed `main(int)`: the parameter plus `.locals(3)`.
const LOCALS: u64 = 4;

/// What `gen_typed` knows a local holds on the straight-line path.
#[derive(Clone, Copy, PartialEq)]
enum Held {
    Int,
    Float,
    Null,
    Str,
    Target,
    Object,
    Array,
}

/// A mostly well-typed body: statements that each start and end on an
/// empty stack, so branches between statement boundaries always agree on
/// stack height. Each statement is well-typed for the locals the straight
/// line before it wrote, so a case is rejected only where a branch joins
/// locals of different kinds (or at one of the raw random ops, one
/// statement in twenty): the verifier's joins and visit order, not its
/// underflow checks, decide the verdict. Monitors may be unbalanced. Half
/// the bodies also get a catch-all handler `(start, end, target)` over a
/// run of statements, whose block stores the exception into a local and
/// jumps back to a boundary.
fn gen_typed(rng: &mut Rng) -> (Vec<Op>, Option<(u32, u32, u32)>) {
    use Held::*;
    let is_ref = |k: Held| !matches!(k, Int | Float);
    // Local 0 is the `Object` parameter: a may-cross region to the
    // analyzer, so its joins with fresh local objects move verdicts.
    let mut ty = [Object; LOCALS as usize];
    let mut ops = Vec::new();
    for l in 1..LOCALS as u16 {
        let (op, kind) = match rng.below(4) {
            0 => (Op::ConstInt(1), Int),
            1 => (Op::ConstNull, Null),
            2 => (Op::New(7), Target),
            _ => (Op::ConstStr(0), Str),
        };
        ops.extend([op, Op::Store(l)]);
        ty[l as usize] = kind;
    }
    let mut starts = Vec::new();
    let mut jumps = Vec::new();
    for _ in 0..4 + rng.below(9) {
        starts.push(ops.len() as u32);
        let (l, l2) = (rng.below(LOCALS) as u16, rng.below(LOCALS) as u16);
        let (a, b) = (ty[l as usize], ty[l2 as usize]);
        // Field and array statements use a local of the right kind when
        // the straight line holds one.
        let find = |want: Held| (0..LOCALS as u16).find(|&i| ty[i as usize] == want);
        let (t, arr) = (find(Target).unwrap_or(l), find(Array).unwrap_or(l));
        let (is_target, is_array) = (ty[t as usize] == Target, ty[arr as usize] == Array);
        // The statement, and the local it writes with the kind written.
        let (stmt, wrote): (Vec<Op>, Option<(u16, Held)>) = match rng.below(20) {
            0 => (vec![Op::ConstInt(rng.below(5) as i64), Op::Store(l)], Some((l, Int))),
            1 => (vec![Op::ConstFloat(0.5), Op::Store(l)], Some((l, Float))),
            2 => (vec![Op::ConstNull, Op::Store(l)], Some((l, Null))),
            3 => (vec![Op::ConstStr(0), Op::Store(l)], Some((l, Str))),
            4 => (vec![Op::New(7), Op::Store(l)], Some((l, Target))),
            5 => (vec![Op::New(1), Op::Store(l)], Some((l, Object))),
            6 if a == Int && b == Int => {
                (vec![Op::Load(l), Op::Load(l2), Op::Add, Op::Store(l)], None)
            }
            7 if a != Float => (vec![Op::Load(l), Op::JumpIfTrue(0)], None),
            8 => (vec![Op::Jump(0)], None),
            9 if is_ref(a) => (vec![Op::Load(l), Op::MonitorEnter], None),
            10 if is_ref(a) => (vec![Op::Load(l), Op::MonitorExit], None),
            11 if is_target && is_ref(b) => {
                (vec![Op::Load(t), Op::Load(l2), Op::PutField(3)], None)
            }
            12 if is_target => (
                vec![Op::Load(t), Op::GetField(3), Op::Store(l2)],
                Some((l2, Object)),
            ),
            13 if is_target => (
                vec![Op::Load(t), Op::ConstInt(1), Op::CallVirtual(5), Op::Store(l2)],
                Some((l2, Int)),
            ),
            14 => (
                vec![Op::ConstInt(4), Op::NewArray(1), Op::Store(l)],
                Some((l, Array)),
            ),
            15 if is_array && is_ref(b) => (
                vec![Op::Load(arr), Op::ConstInt(0), Op::Load(l2), Op::AStore],
                None,
            ),
            16 if is_array => (
                vec![Op::Load(arr), Op::ArrayLen, Op::Store(l2)],
                Some((l2, Int)),
            ),
            17 => (vec![Op::CallStatic(6), Op::Store(l)], Some((l, Int))),
            18 if a == Int => (vec![Op::Load(l), Op::PutStatic(4)], None),
            19 => (vec![gen_op(rng, 24)], None),
            _ => (vec![Op::Load(l), Op::Store(l2)], Some((l2, a))),
        };
        if let Some((l, kind)) = wrote {
            ty[l as usize] = kind;
        }
        if matches!(stmt.last(), Some(Op::Jump(_) | Op::JumpIfTrue(_))) {
            jumps.push(ops.len() + stmt.len() - 1);
        }
        ops.extend(stmt);
    }
    starts.push(ops.len() as u32);
    ops.push(Op::Return);
    let handler = (rng.below(2) == 0).then(|| {
        let (i, j) = (rng.below(starts.len() as u64), rng.below(starts.len() as u64));
        let target = ops.len() as u32;
        jumps.push(ops.len() + 1);
        ops.extend([Op::Store(rng.below(LOCALS) as u16), Op::Jump(0)]);
        (starts[i.min(j) as usize], starts[i.max(j) as usize], target)
    });
    // Branch targets are statement boundaries, forward or backward.
    for at in jumps {
        let target = starts[rng.below(starts.len() as u64) as usize];
        ops[at] = match ops[at] {
            Op::Jump(_) => Op::Jump(target),
            _ => Op::JumpIfTrue(target),
        };
    }
    (ops, handler)
}

/// An int operand of a compare-and-branch case: local 0 or 1, or a small
/// constant.
fn int_operand(rng: &mut Rng) -> Op {
    match rng.below(3) {
        0 => Op::ConstInt(rng.below(7) as i64 - 3),
        _ => Op::Load(rng.below(2) as u16),
    }
}

/// A float operand of a compare-and-branch case: local 2 or 3, or a small
/// constant.
fn float_operand(rng: &mut Rng) -> Op {
    match rng.below(3) {
        0 => Op::ConstFloat(rng.below(5) as f64 * 0.5 - 1.0),
        _ => Op::Load(2 + rng.below(2) as u16),
    }
}

const INT_CMPS: [Op; 6] = [Op::CmpEq, Op::CmpNe, Op::CmpLt, Op::CmpLe, Op::CmpGt, Op::CmpGe];
const FLOAT_CMPS: [Op; 5] = [Op::FCmpEq, Op::FCmpLt, Op::FCmpLe, Op::FCmpGt, Op::FCmpGe];

/// A compare-and-branch body for `main(int) -> int` over two int locals
/// (0, 1) and two float locals (2, 3). Statements start and end on an
/// empty stack and branch to statement boundaries, forward or backward.
/// Comparisons come in each shape the lowering fuses with the branch
/// after them (both operands loaded, the left one computed, both
/// computed) and unfused, their result stored; other statements step a
/// local, so some loops count to an exit and some run to the fuel cap.
/// One statement in sixteen compares an int with a float, which the
/// verifier rejects.
fn gen_cmp(rng: &mut Rng) -> Vec<Op> {
    let mut ops = vec![
        Op::ConstInt(rng.below(9) as i64 - 4),
        Op::Store(1),
        Op::ConstFloat(rng.below(9) as f64 * 0.25),
        Op::Store(2),
        Op::ConstFloat(rng.below(9) as f64 * -0.25),
        Op::Store(3),
    ];
    let mut starts = Vec::new();
    let mut jumps = Vec::new();
    for _ in 0..4 + rng.below(9) {
        starts.push(ops.len() as u32);
        let float = rng.below(2) == 0;
        let operand = |rng: &mut Rng| {
            if float {
                float_operand(rng)
            } else {
                int_operand(rng)
            }
        };
        let cmp = if float {
            FLOAT_CMPS[rng.below(5) as usize]
        } else {
            INT_CMPS[rng.below(6) as usize]
        };
        let branch = match rng.below(2) {
            0 => Op::JumpIfTrue(0),
            _ => Op::JumpIfFalse(0),
        };
        let (one, add, neg) = if float {
            (Op::ConstFloat(1.0), Op::FAdd, Op::FNeg)
        } else {
            (Op::ConstInt(1), Op::Add, Op::Neg)
        };
        let stmt = match rng.below(16) {
            0..=5 => vec![operand(rng), operand(rng), cmp, branch],
            6 | 7 => vec![operand(rng), one, add, operand(rng), cmp, branch],
            8 | 9 => vec![operand(rng), neg, operand(rng), neg, cmp, branch],
            10 => vec![operand(rng), operand(rng), cmp, Op::Store(1)],
            11 | 12 if float => {
                let l = 2 + rng.below(2) as u16;
                let op = [Op::FAdd, Op::FSub, Op::FDiv][rng.below(3) as usize];
                vec![Op::Load(l), float_operand(rng), op, Op::Store(l)]
            }
            11 | 12 => {
                let l = rng.below(2) as u16;
                let op = [Op::Add, Op::Sub, Op::Add, Op::Div][rng.below(4) as usize];
                vec![Op::Load(l), int_operand(rng), op, Op::Store(l)]
            }
            13 | 14 => vec![Op::Jump(0)],
            _ => vec![int_operand(rng), float_operand(rng), cmp, branch],
        };
        if matches!(
            stmt.last(),
            Some(Op::Jump(_) | Op::JumpIfTrue(_) | Op::JumpIfFalse(_))
        ) {
            jumps.push(ops.len() + stmt.len() - 1);
        }
        ops.extend(stmt);
    }
    starts.push(ops.len() as u32);
    ops.extend([Op::Load(1), Op::ReturnVal]);
    for at in jumps {
        let target = starts[rng.below(starts.len() as u64) as usize];
        ops[at] = match ops[at] {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfTrue(_) => Op::JumpIfTrue(target),
            _ => Op::JumpIfFalse(target),
        };
    }
    ops
}

fn base_classes() -> Vec<kaffeos_vm::ClassDef> {
    let mut out = vec![
        ClassBuilder::root("Object").build(),
        ClassBuilder::new("String").build(),
        ClassBuilder::new("Exception")
            .field("msg", TypeDesc::Str)
            .build(),
        // A field- and method-bearing target for Field/Method pool refs.
        {
            let mut b = ClassBuilder::new("Target")
                .field("x", TypeDesc::Int)
                .field("obj", TypeDesc::Class("Object".to_string()));
            b = b.static_field("counter", TypeDesc::Int);
            b.method(
                MethodBuilder::instance("poke")
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Int)
                    .ops([Op::Load(1), Op::ReturnVal])
                    .build(),
            )
            .method(
                MethodBuilder::of_static("make")
                    .returns(TypeDesc::Int)
                    .ops([Op::ConstInt(4), Op::ReturnVal])
                    .build(),
            )
            .build()
        },
    ];
    for name in [
        "NullPointerException",
        "IndexOutOfBoundsException",
        "ArithmeticException",
        "ClassCastException",
        "SegmentationViolation",
        "OutOfMemoryError",
        "StackOverflowError",
        "IllegalStateException",
    ] {
        out.push(ClassBuilder::new(name).extends("Exception").build());
    }
    out
}

/// Cycles each accepted case runs for.
const FUEL: u64 = 200_000;

/// A fresh heap space with one 4 MiB user heap, as every run starts from.
fn fresh_space() -> (HeapSpace, kaffeos_heap::HeapId) {
    let mut space = HeapSpace::new(SpaceConfig::default());
    let root = space.root_memlimit();
    let ml = space
        .limits_mut()
        .create_child(root, Kind::Soft, 4 << 20, "fuzz")
        .unwrap();
    let heap = space.create_user_heap(kaffeos_heap::ProcTag(1), ml, "fuzz");
    (space, heap)
}

/// A run's stop with object identities erased: two runs allocate the same
/// objects at different addresses.
fn stop_shape(exit: &RunExit) -> String {
    let erase = |v: &Value| match v {
        Value::Ref(_) => "ref".to_string(),
        other => format!("{other:?}"),
    };
    match exit {
        RunExit::Finished(Some(v)) => format!("Finished({})", erase(v)),
        RunExit::Unhandled(VmException::Guest(_)) => "Unhandled(guest)".to_string(),
        RunExit::Blocked(_) => "Blocked".to_string(),
        RunExit::Syscall { id, args } => {
            format!("Syscall({id}, {:?})", args.iter().map(erase).collect::<Vec<_>>())
        }
        other => format!("{other:?}"),
    }
}

/// Runs an accepted case's `main` to its first stop at or past `FUEL`
/// cycles, which must not be a `Fault`, and collects what it built. Then
/// the fuel-split oracle: a fresh thread on a fresh heap, stepped one op
/// per `step` (fuel 1, so every block runs its plain micros), must reach
/// the same stop with the same cycles and ops as the first run, whose
/// blocks ran fused. Returns the stop's shape and the charge.
fn run_split(
    table: &ClassTable,
    ns: u32,
    midx: MethodIdx,
    arg: Value,
    case: u64,
) -> (String, u64, u64) {
    let run = |space: &mut HeapSpace, heap, fuel| {
        let mut thread = Thread::new(1, table, midx, vec![arg]);
        let mut statics = kaffeos_heap::FxHashMap::default();
        let mut intern = kaffeos_heap::FxHashMap::default();
        let mut monitors = kaffeos_heap::FxHashMap::default();
        let mut ctx = ExecCtx {
            space,
            table,
            ns,
            heap,
            trusted: false,
            statics: &mut statics,
            intern: &mut intern,
            string_class: table.lookup(ns, "String").unwrap(),
            monitors: &mut monitors,
            extra_roots: &[],
            extra_scan_slots: 0,
            gc_every_safepoint: false,
        };
        // Steps of `fuel` cycles up to the first stop at or past `FUEL`
        // cycles, which one step of `FUEL` also stops at.
        let exit = loop {
            match step(&mut thread, &mut ctx, fuel) {
                RunExit::Preempted if thread.cycles < FUEL => {}
                other => break other,
            }
        };
        (exit, thread)
    };
    let (mut space, heap) = fresh_space();
    let (exit, thread) = run(&mut space, heap, FUEL);
    assert!(
        !matches!(exit, RunExit::Fault(_)),
        "case {case}: verifier accepted bytecode that faulted: {exit:?}"
    );
    // A GC over whatever the program built must also be safe.
    space.gc(heap, &thread.stack_roots()).unwrap();

    let (mut space, heap) = fresh_space();
    let (split, split_thread) = run(&mut space, heap, 1);
    assert_eq!(
        stop_shape(&split),
        stop_shape(&exit),
        "case {case}: one op per step stopped elsewhere"
    );
    assert_eq!(
        (split_thread.cycles, split_thread.ops),
        (thread.cycles, thread.ops),
        "case {case}: one op per step charged differently"
    );
    (stop_shape(&exit), thread.cycles, thread.ops)
}

#[test]
fn accepted_bytecode_never_panics() {
    // One table for all cases, each in its own namespace over the base
    // classes.
    let mut table = ClassTable::new(IntrinsicRegistry::new());
    let base = table.create_namespace("base", None);
    for def in base_classes() {
        table.load_class(base, def.into_arc()).unwrap();
    }
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    // Cases below 512 are raw random ops into `main(int)`, which the
    // verifier mostly rejects at their first instructions; the rest are
    // `gen_typed` bodies of `main(Object)`, whose verdicts are decided at
    // merge points.
    for case in 0..768u64 {
        let mut rng = Rng::new(0xF422 ^ case.wrapping_mul(0x9E37));
        let nops = 1 + rng.below(23) as usize;
        let typed = case >= 512;
        let (ops, handler) = if typed {
            gen_typed(&mut rng)
        } else {
            ((0..nops).map(|_| gen_op(&mut rng, 24)).collect(), None)
        };
        let (param, arg) = if typed {
            (TypeDesc::Class("Object".to_string()), Value::Null)
        } else {
            (TypeDesc::Int, Value::Int(3))
        };

        let ns = table.create_namespace(format!("fuzz{case}"), Some(base));
        // Fixed 8-entry constant pool covering every Const variant the
        // generated ops index into.
        let mut b = ClassBuilder::new("Fuzz");
        b.pool(Const::Str("int".to_string())); // 0
        b.pool(Const::Class("Object".to_string())); // 1
        b.pool(Const::Field {
            class: "Target".to_string(),
            name: "x".to_string(),
        }); // 2
        b.pool(Const::Field {
            class: "Target".to_string(),
            name: "obj".to_string(),
        }); // 3
        b.pool(Const::Field {
            class: "Target".to_string(),
            name: "counter".to_string(),
        }); // 4
        b.pool(Const::Method {
            class: "Target".to_string(),
            name: "poke".to_string(),
        }); // 5
        b.pool(Const::Method {
            class: "Target".to_string(),
            name: "make".to_string(),
        }); // 6
        b.pool(Const::Class("Target".to_string())); // 7
        let mut main = MethodBuilder::of_static("main")
            .param(param)
            .locals(3)
            .ops(ops);
        if let Some((start, end, target)) = handler {
            main = main.handler(start, end, target, 1);
        }
        let def = b.method(main.build()).build();

        let loaded = table.load_class(ns, def.into_arc());
        match &loaded {
            Ok(_) => digest.fold("ok"),
            Err(VmError::Verify(e)) => digest.fold((e.pc, e.op, &e.msg)),
            Err(other) => digest.fold(other.to_string()),
        }

        // Whatever the verifier decided, the heap-flow analyzer must accept
        // the table without panicking. Rejected classes are rolled back, so
        // additionally force a *verifier-rejected* random body into an
        // already-loaded method and analyze that: the analyzer trusts no
        // invariant the verifier establishes — it bails per-method instead.
        let analysis = kaffeos_analyze::analyze(&table);
        for bits in elide_bits(&table, &analysis) {
            digest.fold(bits);
        }
        {
            let target = table.lookup(base, "Target").unwrap();
            let victim = table.find_method(target, "make").unwrap();
            let mangled: Arc<[Op]> = (0..nops).map(|_| gen_op(&mut rng, 24)).collect();
            let saved = std::mem::replace(&mut code_mut(&mut table, victim).ops, mangled);
            let analysis = kaffeos_analyze::analyze(&table);
            // Either the mangled body analyzed cleanly or the method bailed;
            // in both cases its sites stay well-formed.
            let bits = elide_bits(&table, &analysis).swap_remove(victim.0 as usize);
            digest.fold((analysis.is_bailed(victim), bits));
            code_mut(&mut table, victim).ops = saved;
        }

        match loaded {
            Err(_) => {
                // Rejected: that's the common, safe outcome.
            }
            Ok(cidx) => {
                // Accepted: must run cleanly under a fuel cap.
                let midx = table.find_method(cidx, "main").unwrap();
                run_split(&table, ns, midx, arg, case);
            }
        }
    }
    let accepted = table.classes.len() - base_classes().len();
    assert!(accepted > 0, "no fuzzed class reached the analysis");
    let whole = kaffeos_analyze::analyze(&table);
    digest.fold((&whole.lints, whole.verdict_summary()));
    assert_eq!(
        digest.0, VERDICT_DIGEST,
        "verdicts or facts changed: {:#018x}",
        digest.0
    );
}

/// The compare-and-branch family: every case loads into its own namespace
/// over the base classes; every accepted one runs through the fuel-split
/// oracle, so each fused compare-and-branch micro is checked against its
/// plain ops.
#[test]
fn compare_and_branch_cases_split_alike() {
    let mut table = ClassTable::new(IntrinsicRegistry::new());
    let base = table.create_namespace("base", None);
    for def in base_classes() {
        table.load_class(base, def.into_arc()).unwrap();
    }
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut accepted = 0;
    for case in 0..256u64 {
        let mut rng = Rng::new(0xC3A9 ^ case.wrapping_mul(0x9E37));
        let main = MethodBuilder::of_static("main")
            .param(TypeDesc::Int)
            .returns(TypeDesc::Int)
            .locals(3)
            .ops(gen_cmp(&mut rng))
            .build();
        let def = ClassBuilder::new("Cmp").method(main).build();
        let ns = table.create_namespace(format!("cmp{case}"), Some(base));
        match table.load_class(ns, def.into_arc()) {
            Ok(cidx) => {
                accepted += 1;
                let midx = table.find_method(cidx, "main").unwrap();
                let arg = Value::Int(rng.below(7) as i64 - 3);
                digest.fold(run_split(&table, ns, midx, arg, case));
            }
            Err(VmError::Verify(e)) => digest.fold((e.pc, e.op, &e.msg)),
            Err(other) => digest.fold(other.to_string()),
        }
    }
    assert!(accepted >= 128, "only {accepted} of 256 cases verified");
    assert_eq!(
        digest.0, CMP_DIGEST,
        "compare-and-branch verdicts, stops or charges changed: {:#018x}",
        digest.0
    );
}
