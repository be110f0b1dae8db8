//! Bytecode verification.
//!
//! Type safety is the memory-protection mechanism of KaffeOS ("Type safety
//! provides memory protection, so that a process cannot access other
//! processes' objects", §2). Untrusted class files must therefore be proven
//! type-safe before they execute. The verifier abstractly interprets each
//! method over a type lattice with a standard dataflow worklist: operand
//! stack heights and types must be consistent at every merge point, every
//! instruction must see correctly-typed operands, locals may not be read
//! before being written, and all jump targets must be in range.

use std::rc::Rc;

use crate::bytecode::{Op, TypeDesc};
use crate::classes::{ClassIdx, ClassTable, MethodIdx, RConst};

/// A verification failure: which method, where, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Class under verification.
    pub class: String,
    /// Offending method.
    pub method: String,
    /// Method descriptor, e.g. `put(int, str) -> int`.
    pub descriptor: String,
    /// Instruction index of the failure.
    pub pc: u32,
    /// The instruction at `pc`, when `pc` is in range.
    pub op: Option<Op>,
    /// Source line from the method's debug table, when present.
    pub line: Option<u32>,
    /// What went wrong.
    pub msg: String,
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}.{} at pc {}", self.class, self.descriptor, self.pc)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        if let Some(op) = self.op {
            write!(f, " [{op:?}]")?;
        }
        write!(f, ": {}", self.msg)
    }
}

/// Renders a human-readable method descriptor from a signature.
pub fn method_descriptor(name: &str, params: &[TypeDesc], ret: &Option<TypeDesc>) -> String {
    let mut s = String::new();
    s.push_str(name);
    s.push('(');
    for (i, p) in params.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&type_desc_str(p));
    }
    s.push(')');
    if let Some(r) = ret {
        s.push_str(" -> ");
        s.push_str(&type_desc_str(r));
    }
    s
}

fn type_desc_str(ty: &TypeDesc) -> String {
    match ty {
        TypeDesc::Int => "int".to_string(),
        TypeDesc::Float => "float".to_string(),
        TypeDesc::Str => "str".to_string(),
        TypeDesc::Class(name) => name.clone(),
        TypeDesc::Array(elem) => format!("{}[]", type_desc_str(elem)),
    }
}

/// Verifier type lattice.
#[derive(Debug, Clone, PartialEq)]
enum VType {
    /// Local slot never written on some path.
    Uninit,
    Int,
    Float,
    /// The null literal: subtype of every reference type.
    Null,
    Str,
    Obj(ClassIdx),
    Arr(Rc<VType>),
    /// Join of incompatible types; may be stored/popped but never used.
    Conflict,
}

impl VType {
    fn is_reference(&self) -> bool {
        matches!(
            self,
            VType::Null | VType::Str | VType::Obj(_) | VType::Arr(_)
        )
    }
}

/// Abstract machine state at one pc.
#[derive(Debug, Clone, Default, PartialEq)]
struct AbsState {
    locals: Vec<VType>,
    stack: Vec<VType>,
}

impl AbsState {
    /// Overwrites `self` with `src` field by field, reusing both buffers
    /// (the derived `clone_from` would allocate a fresh state).
    fn copy_from(&mut self, src: &AbsState) {
        self.locals.clone_from(&src.locals);
        self.stack.clone_from(&src.stack);
    }
}

/// Most local-variable states one method may make the verifier record:
/// `(ops + 1) × max_locals`, at 16 bytes each. 2^20 slots (16 MiB) is
/// 264× the largest method among the shipped guests (208 ops × 19
/// locals); DESIGN §3.3.
const MAX_STATE_SLOTS: u64 = 1 << 20;

struct Verifier<'a> {
    table: &'a ClassTable,
    class: ClassIdx,
    ns: u32,
    method_name: String,
    code: &'a crate::bytecode::Code,
    ret: Option<VType>,
    /// Recorded state per pc, `ops.len() + 1` slots: the last is the
    /// fall-off-the-end pc.
    states: Vec<Option<AbsState>>,
    worklist: Vec<u32>,
}

/// Verifies every method of a freshly linked class. The error is boxed:
/// it carries the full diagnostic context (descriptor, op, line) and only
/// exists on the cold rejection path.
pub fn verify_class(table: &ClassTable, class: ClassIdx) -> Result<(), Box<VerifyError>> {
    let lc = table.class(class);
    for &midx in &lc.methods.clone() {
        verify_method(table, class, midx)?;
    }
    Ok(())
}

fn verify_method(
    table: &ClassTable,
    class: ClassIdx,
    midx: MethodIdx,
) -> Result<(), Box<VerifyError>> {
    let m = table.method(midx);
    let lc = table.class(class);
    let ns = lc.namespace;

    let err = |pc: u32, msg: String| {
        Box::new(VerifyError {
            class: lc.name.clone(),
            method: m.name.clone(),
            descriptor: method_descriptor(&m.name, &m.params, &m.ret),
            pc,
            op: m.code.ops.get(pc as usize).copied(),
            line: m.code.line_for(pc),
            msg,
        })
    };

    // The verifier records one state per pc, each as wide as the frame:
    // bound that product before allocating any of it.
    let slots = (m.code.ops.len() as u64 + 1) * m.code.max_locals as u64;
    if slots > MAX_STATE_SLOTS {
        return Err(err(
            0,
            format!(
                "{} ops x {} locals need {slots} state slots, over the bound of {MAX_STATE_SLOTS}",
                m.code.ops.len(),
                m.code.max_locals
            ),
        ));
    }

    // Entry state: receiver + parameters occupy the first locals.
    let mut locals = Vec::with_capacity(m.code.max_locals as usize);
    if !m.is_static {
        locals.push(VType::Obj(class));
    }
    for p in &m.params {
        locals.push(vtype_of(table, ns, p).map_err(|msg| err(0, msg))?);
    }
    if locals.len() > m.code.max_locals as usize {
        return Err(err(0, "max_locals smaller than argument count".to_string()));
    }
    locals.resize(m.code.max_locals as usize, VType::Uninit);

    let ret = match &m.ret {
        Some(ty) => Some(vtype_of(table, ns, ty).map_err(|msg| err(0, msg))?),
        None => None,
    };

    let mut v = Verifier {
        table,
        class,
        ns,
        method_name: m.name.clone(),
        code: &m.code,
        ret,
        states: vec![None; m.code.ops.len() + 1],
        worklist: Vec::new(),
    };
    // One scratch state for every visit, plus one for handler entries.
    let mut state = AbsState {
        locals,
        stack: Vec::new(),
    };
    let mut handler = AbsState::default();
    v.merge_into(0, &state).map_err(|msg| err(0, msg))?;
    // Process in ascending-pc order so the *first* failure in program
    // order is reported deterministically, independent of merge order.
    while let Some(pc) = v.pop_min() {
        v.flow_from(pc, &mut state, &mut handler)
            .map_err(|(at, msg)| err(at, msg))?;
    }
    Ok(())
}

/// Least upper bound for merge points.
fn join(table: &ClassTable, a: &VType, b: &VType) -> VType {
    if a == b {
        return a.clone();
    }
    match (a, b) {
        (VType::Null, t) | (t, VType::Null) if t.is_reference() => t.clone(),
        (VType::Obj(x), VType::Obj(y)) => {
            // Walk x's superclass chain for the nearest common ancestor.
            let mut cursor = Some(*x);
            while let Some(cur) = cursor {
                if table.is_subclass(*y, cur) {
                    return VType::Obj(cur);
                }
                cursor = table.class(cur).super_idx;
            }
            VType::Conflict
        }
        _ => VType::Conflict,
    }
}

/// Resolves a signature type descriptor to a lattice type.
fn vtype_of(table: &ClassTable, ns: u32, ty: &TypeDesc) -> Result<VType, String> {
    Ok(match ty {
        TypeDesc::Int => VType::Int,
        TypeDesc::Float => VType::Float,
        TypeDesc::Str => VType::Str,
        TypeDesc::Class(name) => VType::Obj(
            table
                .lookup(ns, name)
                .ok_or_else(|| format!("unknown class {name} in signature"))?,
        ),
        TypeDesc::Array(elem) => VType::Arr(Rc::new(vtype_of(table, ns, elem)?)),
    })
}

impl<'a> Verifier<'a> {
    /// Pops the lowest queued pc (sorted worklist order).
    fn pop_min(&mut self) -> Option<u32> {
        let (i, _) = self
            .worklist
            .iter()
            .enumerate()
            .min_by_key(|&(_, &pc)| pc)?;
        Some(self.worklist.swap_remove(i))
    }

    /// `a` may be used where `b` is expected.
    fn assignable(&self, a: &VType, b: &VType) -> bool {
        match (a, b) {
            (VType::Int, VType::Int) | (VType::Float, VType::Float) => true,
            (VType::Str, VType::Str) => true,
            (VType::Null, t) => t.is_reference(),
            (VType::Obj(x), VType::Obj(y)) => self.table.is_subclass(*x, *y),
            // Array types are invariant, but like strings they upcast to
            // the root class (Java's arrays-are-Objects).
            (VType::Arr(x), VType::Arr(y)) => x == y,
            (VType::Arr(_) | VType::Str, VType::Obj(c)) => self.table.class(*c).super_idx.is_none(),
            _ => false,
        }
    }

    /// Joins `state` into the recorded state at `pc` in place, queueing
    /// `pc` when the state is new or widened. Only a new state is cloned.
    fn merge_into(&mut self, pc: u32, state: &AbsState) -> Result<(), String> {
        let table = self.table;
        let Some(slot) = self.states.get_mut(pc as usize) else {
            return Err(format!("jump target {pc} out of range"));
        };
        match slot {
            None => {
                *slot = Some(state.clone());
                self.worklist.push(pc);
            }
            Some(existing) => {
                if existing.stack.len() != state.stack.len() {
                    return Err(format!(
                        "stack height mismatch at {pc}: {} vs {}",
                        existing.stack.len(),
                        state.stack.len()
                    ));
                }
                let mut changed = false;
                for (a, b) in existing.locals.iter_mut().zip(&state.locals) {
                    if a == b {
                        continue;
                    }
                    let j = if *a == VType::Uninit || *b == VType::Uninit {
                        VType::Uninit
                    } else {
                        join(table, a, b)
                    };
                    if *a != j {
                        *a = j;
                        changed = true;
                    }
                }
                for (a, b) in existing.stack.iter_mut().zip(&state.stack) {
                    if a != b {
                        let j = join(table, a, b);
                        if *a != j {
                            *a = j;
                            changed = true;
                        }
                    }
                }
                if changed {
                    self.worklist.push(pc);
                }
            }
        }
        Ok(())
    }

    /// Processes one instruction: copies the recorded state at `pc` into
    /// the scratch `state`, applies the transfer function, and merges the
    /// result into the successors. `handler` is scratch for the state an
    /// exception handler observes.
    fn flow_from(
        &mut self,
        pc: u32,
        state: &mut AbsState,
        handler: &mut AbsState,
    ) -> Result<(), (u32, String)> {
        let recorded = self.states.get(pc as usize).and_then(Option::as_ref);
        state.copy_from(recorded.ok_or_else(|| (pc, "no state queued here".to_string()))?);
        let Some(op) = self.code.ops.get(pc as usize).copied() else {
            // Fall off the end: implicit void return.
            if self.ret.is_some() {
                return Err((pc, "missing return value".to_string()));
            }
            return Ok(());
        };
        // Exception handlers covering this pc observe the locals here with
        // a one-element stack holding the exception.
        let code = self.code;
        for h in code.handlers.iter() {
            if pc >= h.start && pc < h.end {
                let hcls = self.class_const(h.class).map_err(|msg| (pc, msg))?;
                handler.locals.clone_from(&state.locals);
                handler.stack.clear();
                handler.stack.push(VType::Obj(hcls));
                self.merge_into(h.target, handler).map_err(|msg| (pc, msg))?;
            }
        }
        match self.transfer(pc, op, state).map_err(|msg| (pc, msg))? {
            Flow::Fall => self.merge_into(pc + 1, state),
            Flow::JumpTo(t) => self.merge_into(t, state),
            Flow::BranchTo(t) => self
                .merge_into(t, state)
                .and_then(|()| self.merge_into(pc + 1, state)),
            Flow::Stop => Ok(()),
        }
        .map_err(|msg| (pc, msg))
    }

    fn class_const(&self, idx: u16) -> Result<ClassIdx, String> {
        match self.table.class(self.class).rpool.get(idx as usize) {
            Some(RConst::Class(c)) => Ok(*c),
            other => Err(format!("pool {idx} is not a class ref: {other:?}")),
        }
    }

    fn pop(&self, state: &mut AbsState) -> Result<VType, String> {
        state
            .stack
            .pop()
            .ok_or_else(|| "stack underflow".to_string())
    }

    fn pop_expect(&self, state: &mut AbsState, want: &VType) -> Result<(), String> {
        let got = self.pop(state)?;
        if self.assignable(&got, want) {
            Ok(())
        } else {
            Err(format!("expected {want:?}, found {got:?}"))
        }
    }

    fn pop_reference(&self, state: &mut AbsState) -> Result<VType, String> {
        let got = self.pop(state)?;
        if got.is_reference() {
            Ok(got)
        } else {
            Err(format!("expected a reference, found {got:?}"))
        }
    }

    fn transfer(&self, pc: u32, op: Op, state: &mut AbsState) -> Result<Flow, String> {
        use VType::*;
        let push = |state: &mut AbsState, t: VType| state.stack.push(t);
        match op {
            Op::ConstNull => push(state, Null),
            Op::ConstInt(_) => push(state, Int),
            Op::ConstFloat(_) => push(state, Float),
            Op::ConstStr(idx) => {
                match self.table.class(self.class).rpool.get(idx as usize) {
                    Some(RConst::Str(_)) => {}
                    other => return Err(format!("ConstStr pool {idx}: {other:?}")),
                }
                push(state, Str);
            }
            Op::Load(slot) => {
                let t = state
                    .locals
                    .get(slot as usize)
                    .ok_or_else(|| format!("local {slot} out of range"))?
                    .clone();
                if t == Uninit {
                    return Err(format!("local {slot} read before write"));
                }
                if t == Conflict {
                    return Err(format!("local {slot} has conflicting types"));
                }
                push(state, t);
            }
            Op::Store(slot) => {
                let t = self.pop(state)?;
                let slot = slot as usize;
                if slot >= state.locals.len() {
                    return Err(format!("local {slot} out of range"));
                }
                state.locals[slot] = t;
            }
            Op::Pop => {
                self.pop(state)?;
            }
            Op::Dup => {
                let t = state
                    .stack
                    .last()
                    .cloned()
                    .ok_or_else(|| "dup on empty stack".to_string())?;
                push(state, t);
            }
            Op::Swap => {
                let n = state.stack.len();
                if n < 2 {
                    return Err("swap needs two operands".to_string());
                }
                state.stack.swap(n - 1, n - 2);
            }
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Rem
            | Op::Shl
            | Op::Shr
            | Op::And
            | Op::Or
            | Op::Xor => {
                self.pop_expect(state, &Int)?;
                self.pop_expect(state, &Int)?;
                push(state, Int);
            }
            Op::Neg => {
                self.pop_expect(state, &Int)?;
                push(state, Int);
            }
            Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => {
                self.pop_expect(state, &Float)?;
                self.pop_expect(state, &Float)?;
                push(state, Float);
            }
            Op::FNeg => {
                self.pop_expect(state, &Float)?;
                push(state, Float);
            }
            Op::I2F => {
                self.pop_expect(state, &Int)?;
                push(state, Float);
            }
            Op::F2I => {
                self.pop_expect(state, &Float)?;
                push(state, Int);
            }
            Op::CmpEq | Op::CmpNe | Op::CmpLt | Op::CmpLe | Op::CmpGt | Op::CmpGe => {
                self.pop_expect(state, &Int)?;
                self.pop_expect(state, &Int)?;
                push(state, Int);
            }
            Op::FCmpEq | Op::FCmpLt | Op::FCmpLe | Op::FCmpGt | Op::FCmpGe => {
                self.pop_expect(state, &Float)?;
                self.pop_expect(state, &Float)?;
                push(state, Int);
            }
            Op::RefEq | Op::RefNe => {
                self.pop_reference(state)?;
                self.pop_reference(state)?;
                push(state, Int);
            }
            Op::Jump(t) => return Ok(Flow::JumpTo(t)),
            Op::JumpIfTrue(t) | Op::JumpIfFalse(t) => {
                let c = self.pop(state)?;
                if c != Int && !c.is_reference() {
                    return Err(format!("branch condition must be int/ref, found {c:?}"));
                }
                return Ok(Flow::BranchTo(t));
            }
            Op::Return => {
                if self.ret.is_some() {
                    return Err("void return from value-returning method".to_string());
                }
                return Ok(Flow::Stop);
            }
            Op::ReturnVal => {
                let want = self
                    .ret
                    .clone()
                    .ok_or_else(|| "value return from void method".to_string())?;
                self.pop_expect(state, &want)?;
                return Ok(Flow::Stop);
            }
            Op::New(idx) => {
                let c = self.class_const(idx)?;
                push(state, Obj(c));
            }
            Op::GetField(idx) => {
                let (class, ty) = self.instance_field(idx)?;
                self.pop_expect(state, &Obj(class))?;
                let t = vtype_of(self.table, self.ns, &ty)?;
                push(state, t);
            }
            Op::PutField(idx) => {
                let (class, ty) = self.instance_field(idx)?;
                let want = vtype_of(self.table, self.ns, &ty)?;
                self.pop_expect(state, &want)?;
                self.pop_expect(state, &Obj(class))?;
            }
            Op::GetStatic(idx) => {
                let ty = self.static_field(idx)?;
                let t = vtype_of(self.table, self.ns, &ty)?;
                push(state, t);
            }
            Op::PutStatic(idx) => {
                let ty = self.static_field(idx)?;
                let want = vtype_of(self.table, self.ns, &ty)?;
                self.pop_expect(state, &want)?;
            }
            Op::NullCheck => {
                self.pop_reference(state)?;
            }
            Op::InstanceOf(idx) => {
                self.class_const(idx)?;
                self.pop_reference(state)?;
                push(state, Int);
            }
            Op::CheckCast(idx) => {
                let c = self.class_const(idx)?;
                self.pop_reference(state)?;
                push(state, Obj(c));
            }
            Op::NewArray(idx) => {
                self.pop_expect(state, &Int)?;
                let elem = match self.table.class(self.class).rpool.get(idx as usize) {
                    Some(RConst::Class(c)) => Obj(*c),
                    Some(RConst::Str(s)) => self.decode_elem_desc(s)?,
                    other => return Err(format!("NewArray pool {idx}: {other:?}")),
                };
                push(state, Arr(Rc::new(elem)));
            }
            Op::ALoad => {
                self.pop_expect(state, &Int)?;
                let arr = self.pop(state)?;
                match arr {
                    Arr(elem) => push(state, (*elem).clone()),
                    Null => return Err("array load on statically-null array".to_string()),
                    other => return Err(format!("array load on {other:?}")),
                }
            }
            Op::AStore => {
                let val = self.pop(state)?;
                self.pop_expect(state, &Int)?;
                let arr = self.pop(state)?;
                match arr {
                    Arr(elem) => {
                        if !self.assignable(&val, &elem) {
                            return Err(format!("storing {val:?} into array of {elem:?}"));
                        }
                    }
                    other => return Err(format!("array store on {other:?}")),
                }
            }
            Op::ArrayLen => {
                let arr = self.pop(state)?;
                if !matches!(arr, Arr(_)) {
                    return Err(format!("array length of {arr:?}"));
                }
                push(state, Int);
            }
            Op::CallStatic(idx) => {
                let midx = match self.table.class(self.class).rpool.get(idx as usize) {
                    Some(RConst::DirectMethod(m)) => *m,
                    other => return Err(format!("CallStatic pool {idx}: {other:?}")),
                };
                let m = self.table.method(midx);
                if !m.is_static {
                    return Err(format!("CallStatic on instance method {}", m.name));
                }
                self.check_call(state, None, &m.params.clone(), &m.ret.clone())?;
            }
            Op::CallVirtual(idx) | Op::CallSpecial(idx) => {
                let (cidx, vslot) = match self.table.class(self.class).rpool.get(idx as usize) {
                    Some(RConst::VirtualMethod { class, vslot, .. }) => (*class, *vslot),
                    other => return Err(format!("virtual call pool {idx}: {other:?}")),
                };
                let midx = self.table.class(cidx).vtable[vslot as usize];
                let m = self.table.method(midx);
                self.check_call(state, Some(cidx), &m.params.clone(), &m.ret.clone())?;
            }
            Op::Syscall(idx) => {
                let id = match self.table.class(self.class).rpool.get(idx as usize) {
                    Some(RConst::Intrinsic { id, .. }) => *id,
                    other => return Err(format!("Syscall pool {idx}: {other:?}")),
                };
                let def = self
                    .table
                    .intrinsics()
                    .def(id)
                    .ok_or_else(|| format!("unknown intrinsic {id}"))?;
                self.check_call(state, None, &def.params.clone(), &def.ret.clone())?;
            }
            Op::Throw => {
                let t = self.pop(state)?;
                if !matches!(t, Obj(_) | Null) {
                    return Err(format!("throw of non-object {t:?}"));
                }
                return Ok(Flow::Stop);
            }
            Op::StrConcat => {
                // Concatenation renders any operand.
                self.pop(state)?;
                self.pop(state)?;
                push(state, Str);
            }
            Op::StrLen => {
                self.pop_expect(state, &Str)?;
                push(state, Int);
            }
            Op::StrCharAt => {
                self.pop_expect(state, &Int)?;
                self.pop_expect(state, &Str)?;
                push(state, Int);
            }
            Op::StrEq => {
                self.pop_expect(state, &Str)?;
                self.pop_expect(state, &Str)?;
                push(state, Int);
            }
            Op::Intern => {
                self.pop_expect(state, &Str)?;
                push(state, Str);
            }
            Op::ToStr => {
                self.pop(state)?;
                push(state, Str);
            }
            Op::Substr => {
                self.pop_expect(state, &Int)?;
                self.pop_expect(state, &Int)?;
                self.pop_expect(state, &Str)?;
                push(state, Str);
            }
            Op::ParseInt => {
                self.pop_expect(state, &Str)?;
                push(state, Int);
            }
            Op::MonitorEnter | Op::MonitorExit => {
                self.pop_reference(state)?;
            }
        }
        let _ = pc;
        Ok(Flow::Fall)
    }

    /// Decodes a `NewArray` element descriptor: `"int"`, `"float"`,
    /// `"str"`, `"C:Name"` (class element), with `"["` prefixes for nested
    /// array elements (e.g. `"[int"` is the element type of an `int[][]`).
    fn decode_elem_desc(&self, desc: &str) -> Result<VType, String> {
        if let Some(inner) = desc.strip_prefix('[') {
            return Ok(VType::Arr(Rc::new(self.decode_elem_desc(inner)?)));
        }
        if let Some(name) = desc.strip_prefix("C:") {
            let c = self
                .table
                .lookup(self.ns, name)
                .ok_or_else(|| format!("unknown array element class {name}"))?;
            return Ok(VType::Obj(c));
        }
        match desc {
            "int" => Ok(VType::Int),
            "float" => Ok(VType::Float),
            "str" => Ok(VType::Str),
            other => Err(format!("bad array element descriptor {other:?}")),
        }
    }

    fn instance_field(&self, idx: u16) -> Result<(ClassIdx, TypeDesc), String> {
        match self.table.class(self.class).rpool.get(idx as usize) {
            Some(RConst::InstanceField { class, ty, .. }) => Ok((*class, ty.clone())),
            other => Err(format!("pool {idx} is not an instance field: {other:?}")),
        }
    }

    fn static_field(&self, idx: u16) -> Result<TypeDesc, String> {
        match self.table.class(self.class).rpool.get(idx as usize) {
            Some(RConst::StaticField { ty, .. }) => Ok(ty.clone()),
            other => Err(format!("pool {idx} is not a static field: {other:?}")),
        }
    }

    fn check_call(
        &self,
        state: &mut AbsState,
        receiver: Option<ClassIdx>,
        params: &[TypeDesc],
        ret: &Option<TypeDesc>,
    ) -> Result<(), String> {
        for p in params.iter().rev() {
            let want = vtype_of(self.table, self.ns, p)?;
            self.pop_expect(state, &want)?;
        }
        if let Some(r) = receiver {
            self.pop_expect(state, &VType::Obj(r))?;
        }
        if let Some(r) = ret {
            let t = vtype_of(self.table, self.ns, r)?;
            state.stack.push(t);
        }
        let _ = &self.method_name;
        Ok(())
    }
}

enum Flow {
    /// Fall through to pc+1.
    Fall,
    /// Unconditional transfer.
    JumpTo(u32),
    /// Conditional: merge into target, then fall through.
    BranchTo(u32),
    /// Return or throw: path ends.
    Stop,
}
