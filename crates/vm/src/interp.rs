//! Threads, frames and the runtime ops.
//!
//! One execution model, engine-parameterised: every instruction charges
//! modelled cycles (base cost × engine CPI), reference stores run the heap
//! write barrier, and **safe points** (taken on branches, calls, allocation
//! and throws) honour preemption fuel and deferred termination — user-mode
//! code can be killed at any safe point; a thread with `kernel_depth > 0`
//! has its kill deferred until it leaves the kernel (§2, Figure 1).
//!
//! Anything privileged exits as [`RunExit::Syscall`]; the kernel services
//! the request and resumes the thread.
//!
//! [`step`] runs a thread through the template executor (`jit.rs`), the
//! VM's one dispatch loop, which calls back into [`rt_op`] here for every
//! op that needs the runtime.
//!
//! # Host representation
//!
//! Each thread keeps **one contiguous value stack** (`Thread::values`);
//! frames are small plain-old-data records holding base offsets into it
//! (`[f0.locals, f0.stack, f1.locals, f1.stack, …]`). Calls overlay the
//! callee's leading locals onto the caller's pushed arguments in place, so
//! a call allocates nothing once the vectors reach their high-water mark —
//! the `Vec<Frame>`/`Vec<Value>` capacity reuse *is* the frame pool.
//!
//! The executor caches the top frame's state (pc, body, stack bases) in
//! locals and reloads it only when the frame changes; `frame.pc` is
//! written back before any exit or helper that can observe it (raise,
//! syscall, preemption, the profiler). All of this is host-side layout
//! only: iterating `values` front to back visits exactly the slots (and
//! order) the old per-frame vectors did, so GC root order, scan sizes, and
//! every virtual number are unchanged.

use std::fmt::Write;

use kaffeos_heap::{HeapError, HeapId, HeapSpace, ObjRef, Value};

use crate::bytecode::Op;
use crate::classes::{ClassIdx, ClassTable, MethodIdx, RConst};
use crate::engine::{OpCosts, BASE_COSTS};

/// Deepest call stack before `StackOverflowError`.
pub const MAX_FRAMES: usize = 256;

// The executor copies `Op`s into runtime ops and pushes/pops 16-byte
// `Value`s on nearly every instruction; these compile-time bounds keep
// future opcode or value variants from silently fattening both hot structs.
const _: () = assert!(core::mem::size_of::<Op>() <= 16, "Op grew past 16 bytes");
const _: () = assert!(
    core::mem::size_of::<Value>() <= 16,
    "Value grew past 16 bytes"
);

/// VM-raised exception kinds, materialised into guest objects (by class
/// name) when thrown so guest `catch` clauses work uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinEx {
    /// Member access through a null reference.
    NullPointer,
    /// Array/string index out of range, or a negative array length.
    IndexOutOfBounds,
    /// Division by zero, or an unparsable number.
    Arithmetic,
    /// Failed `CheckCast`.
    ClassCast,
    /// Illegal cross-heap write (§2 — "segmentation violations").
    SegViolation,
    /// Allocation failed even after collecting the process heap.
    OutOfMemory,
    /// Call stack exceeded [`MAX_FRAMES`].
    StackOverflow,
    /// Monitor misuse or an operation on a frozen heap.
    IllegalState,
}

impl BuiltinEx {
    /// Guest class name used for handler matching.
    pub fn class_name(self) -> &'static str {
        match self {
            BuiltinEx::NullPointer => "NullPointerException",
            BuiltinEx::IndexOutOfBounds => "IndexOutOfBoundsException",
            BuiltinEx::Arithmetic => "ArithmeticException",
            BuiltinEx::ClassCast => "ClassCastException",
            BuiltinEx::SegViolation => "SegmentationViolation",
            BuiltinEx::OutOfMemory => "OutOfMemoryError",
            BuiltinEx::StackOverflow => "StackOverflowError",
            BuiltinEx::IllegalState => "IllegalStateException",
        }
    }
}

/// An in-flight exception.
#[derive(Debug, Clone, PartialEq)]
pub enum VmException {
    /// A guest object thrown by `Throw` (or materialised from a builtin).
    Guest(ObjRef),
    /// A VM-raised condition not yet materialised.
    Builtin(BuiltinEx, String),
}

/// A dynamically observed barrier violation at a guest store site: which
/// method/instruction raised it and why. Recorded by the interpreter's
/// store handlers and drained by the kernel — the static analyzer's
/// soundness tests cross-check every one of these against the static
/// verdict for the same site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegSite {
    /// Method whose store raised the violation.
    pub method: MethodIdx,
    /// Instruction index of the store.
    pub pc: u32,
    /// Which legality rule was violated.
    pub kind: kaffeos_heap::SegViolationKind,
}

/// One activation record: plain old data, pointing into the thread's
/// contiguous value stack. Locals live at
/// `values[locals_base..stack_base]`, the operand stack of the *top* frame
/// at `values[stack_base..]` (inner frames' operand remainders sit between
/// their `stack_base` and the next frame's `locals_base`).
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Executing method.
    pub method: MethodIdx,
    /// Its declaring class (for constant-pool access).
    pub class: ClassIdx,
    /// Next instruction index.
    pub pc: u32,
    /// First value-stack slot of this frame's locals.
    pub locals_base: u32,
    /// First value-stack slot of this frame's operand stack
    /// (`locals_base + max_locals`).
    pub stack_base: u32,
}

/// Scheduler-visible thread state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Waiting for the monitor of the given object.
    Blocked(ObjRef),
    /// Finished (returned, killed, or died on an exception).
    Done,
}

/// A green thread: frames plus accounting and termination state.
#[derive(Debug)]
pub struct Thread {
    /// VM-wide thread id (monitor ownership key).
    pub id: u32,
    /// Call stack, outermost first (offsets into `values`).
    pub frames: Vec<Frame>,
    /// The contiguous value stack all frames share: locals and operand
    /// stacks, outermost frame first. Scanning it front to back visits
    /// slots in exactly the order the per-frame representation did.
    pub values: Vec<Value>,
    /// Modelled cycles consumed since the last drain by the scheduler.
    pub cycles: u64,
    /// Of `cycles`, the share spent in allocation-triggered collections of
    /// the process heap (GC time is charged to the process whose heap is
    /// collected, §2 "Precise memory and CPU accounting").
    pub gc_cycles: u64,
    /// Set by the kernel to request termination; honoured at the next safe
    /// point while `kernel_depth == 0`.
    pub kill_requested: bool,
    /// Non-zero while the thread is inside the kernel; termination is
    /// deferred until it returns to zero (§2, "Safe termination").
    pub kernel_depth: u32,
    /// Scheduler-visible state.
    pub state: ThreadState,
    /// Exception injected by the kernel (e.g. an OOM discovered while
    /// servicing a syscall), raised before the next instruction.
    pub pending_exception: Option<VmException>,
    /// Monitors currently held, innermost last (released on kill/unwind).
    pub held_monitors: Vec<ObjRef>,
    /// Host-side instruction counter: bytecode ops executed since the last
    /// drain. Purely observational (throughput benchmarks); never feeds
    /// back into cycles, scheduling, or any other virtual quantity.
    pub ops: u64,
    /// Guest store sites that raised a barrier violation, in order.
    /// Observational (drained by the kernel for the analyzer's dynamic
    /// soundness oracle); never feeds back into execution.
    pub seg_sites: Vec<SegSite>,
}

impl Thread {
    /// Creates a thread entering `method` with the given arguments.
    pub fn new(id: u32, table: &ClassTable, method: MethodIdx, args: Vec<Value>) -> Self {
        let m = table.method(method);
        debug_assert_eq!(args.len(), m.arg_slots(), "bad arg count for thread entry");
        let mut values = args;
        values.resize(m.shape.max_locals as usize, Value::Null);
        let stack_base = values.len() as u32;
        Thread {
            id,
            frames: vec![Frame {
                method,
                class: m.class,
                pc: 0,
                locals_base: 0,
                stack_base,
            }],
            values,
            cycles: 0,
            gc_cycles: 0,
            kill_requested: false,
            kernel_depth: 0,
            state: ThreadState::Runnable,
            pending_exception: None,
            held_monitors: Vec::new(),
            ops: 0,
            seg_sites: Vec::new(),
        }
    }

    /// Pushes a syscall result after the kernel services a [`RunExit::Syscall`].
    pub fn resume_with(&mut self, result: Option<Value>) {
        if let (Some(v), Some(_)) = (result, self.frames.last()) {
            self.values.push(v);
        }
    }

    /// All references live on this thread's stacks (GC roots).
    pub fn stack_roots(&self) -> Vec<ObjRef> {
        let mut roots = Vec::with_capacity(self.values.len() + self.held_monitors.len());
        roots.extend(self.values.iter().filter_map(|v| v.as_ref()));
        roots.extend(self.held_monitors.iter().copied());
        roots
    }

    /// Drains the accumulated cycle count (scheduler accounting), taking
    /// the total *and* its GC share in one step. The two counters advance
    /// together on the allocation-triggered GC path, so draining them
    /// separately risks a caller taking `cycles` but leaving `gc_cycles`
    /// behind — which silently mis-splits the next quantum's exec/GC
    /// attribution. Returning both makes losing the split impossible.
    pub fn drain_cycles(&mut self) -> DrainedCycles {
        let total = core::mem::take(&mut self.cycles);
        let gc = core::mem::take(&mut self.gc_cycles);
        DrainedCycles {
            // Defensive: gc is accumulated strictly alongside total, so it
            // can never exceed it; clamp rather than let an exec share
            // underflow if that invariant is ever broken.
            total,
            gc: gc.min(total),
        }
    }

    /// The current call stack as `(raw method index, pc)` pairs, outermost
    /// first — the profiler's stack-walk hook. Raw indices keep the VM
    /// crate decoupled from the profile store; the kernel resolves them to
    /// qualified names (and interns them) lazily.
    pub fn sample_stack(&self) -> Vec<(u32, u32)> {
        self.frames.iter().map(|f| (f.method.0, f.pc)).collect()
    }

    /// Total stack slots (locals + operands) across all frames — the work
    /// a collector does scanning this thread, whether or not the slots
    /// hold references. With the contiguous representation this is simply
    /// the value stack's length (the same sum the per-frame layout gave).
    pub fn stack_scan_size(&self) -> u64 {
        self.values.len() as u64
    }
}

/// One atomic drain of a thread's cycle counters: the total consumed since
/// the last drain and, of that, the share spent in allocation-triggered
/// collections (`gc <= total` always).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainedCycles {
    /// Cycles consumed since the last drain.
    pub total: u64,
    /// Of `total`, cycles spent collecting the process heap.
    pub gc: u64,
}

impl DrainedCycles {
    /// The mutator (non-GC) share.
    pub fn exec(&self) -> u64 {
        self.total - self.gc
    }
}

/// Why `step` returned.
#[derive(Debug, Clone, PartialEq)]
pub enum RunExit {
    /// Fuel exhausted at a safe point; reschedule and call `step` again.
    Preempted,
    /// Outermost frame returned.
    Finished(Option<Value>),
    /// Guest invoked an intrinsic; service it and `resume_with` the result.
    Syscall {
        /// Intrinsic registry id.
        id: u16,
        /// Arguments, left-to-right.
        args: Vec<Value>,
    },
    /// An exception escaped the outermost frame.
    Unhandled(VmException),
    /// Termination honoured at a safe point.
    Killed,
    /// Blocked acquiring a monitor owned by another thread.
    Blocked(ObjRef),
    /// Internal error — unreachable for verified code.
    Fault(crate::VmError),
}

/// Everything the interpreter needs from its surroundings for one quantum.
pub struct ExecCtx<'a> {
    /// The heap space (allocation, barriers, GC).
    pub space: &'a mut HeapSpace,
    /// Loaded classes and methods.
    pub table: &'a ClassTable,
    /// Namespace for literal/exception class lookups.
    pub ns: u32,
    /// Allocation heap of the running process.
    pub heap: HeapId,
    /// True only when running trusted code in kernel mode (may create
    /// kernel→user references).
    pub trusted: bool,
    /// Per-process statics objects, keyed by class (lazily created here on
    /// first static access; they are GC roots the kernel must pass to `gc`).
    pub statics: &'a mut kaffeos_heap::FxHashMap<ClassIdx, ObjRef>,
    /// Per-process string intern table (§3.3).
    pub intern: &'a mut kaffeos_heap::FxHashMap<String, ObjRef>,
    /// The `String` class in this namespace (for string allocation tags).
    pub string_class: ClassIdx,
    /// VM-wide monitor table: object → (owner thread, recursion depth).
    pub monitors: &'a mut kaffeos_heap::FxHashMap<ObjRef, (u32, u32)>,
    /// Roots beyond this thread's own stacks (other threads of the same
    /// process, kernel pins) used when an allocation failure triggers a
    /// collection of the process heap.
    pub extra_roots: &'a [ObjRef],
    /// Stack slots behind `extra_roots` (scan effort for the other
    /// threads' stacks — charged per collection as GC crosstalk, §2).
    pub extra_scan_slots: u64,
    /// Fault injection: collect the process heap at *every* safe point.
    /// Harness-only (the kernel arms it from a `FaultPlan`); the forced
    /// collections are not charged to the guest so CPU accounting stays
    /// comparable with un-injected runs.
    pub gc_every_safepoint: bool,
}

/// Heap class tags for primitive arrays (distinct from any `ClassIdx`).
pub const INT_ARRAY_CLASS: kaffeos_heap::ClassId = kaffeos_heap::ClassId(u32::MAX - 1);
/// Heap class tag for `float[]`.
pub const FLOAT_ARRAY_CLASS: kaffeos_heap::ClassId = kaffeos_heap::ClassId(u32::MAX - 2);
/// Heap class tag for string and nested-array element arrays.
pub const REF_ARRAY_CLASS: kaffeos_heap::ClassId = kaffeos_heap::ClassId(u32::MAX - 3);

const COSTS: OpCosts = BASE_COSTS;

/// Outcome of a runtime op or frame-changing helper.
pub(crate) enum StepFlow {
    /// The op retired in the current frame; run the next one.
    Next,
    Exit(RunExit),
    Raise(VmException),
}

/// Runs `thread` for up to `fuel` modelled cycles.
pub fn step(thread: &mut Thread, ctx: &mut ExecCtx<'_>, fuel: u64) -> RunExit {
    debug_assert!(matches!(thread.state, ThreadState::Runnable));
    let start_cycles = thread.cycles;

    // Kernel-injected exception takes effect first.
    if let Some(ex) = thread.pending_exception.take() {
        if let Some(exit) = raise(thread, ctx, ex) {
            return exit;
        }
    }

    // The injected variant re-runs fault hooks at every safe point; the
    // other hoists the (quantum-invariant) checks out of the loop.
    let exit = if ctx.gc_every_safepoint {
        crate::jit::execute::<true>(thread, ctx, fuel, start_cycles)
    } else {
        crate::jit::execute::<false>(thread, ctx, fuel, start_cycles)
    };
    match &exit {
        RunExit::Finished(_) | RunExit::Unhandled(_) => thread.state = ThreadState::Done,
        RunExit::Blocked(obj) => thread.state = ThreadState::Blocked(*obj),
        _ => {}
    }
    exit
}

macro_rules! pop {
    ($thread:expr, $stack_base:expr) => {{
        debug_assert!(
            $thread.values.len() > $stack_base,
            "operand stack underflow (verifier bug)"
        );
        match $thread.values.pop() {
            Some(v) => v,
            None => Value::Null,
        }
    }};
}

/// Honours a termination request: releases monitors, drops all frames.
pub(crate) fn honour_kill(thread: &mut Thread, ctx: &mut ExecCtx<'_>) -> RunExit {
    release_all_monitors(thread, ctx);
    thread.frames.clear();
    thread.values.clear();
    thread.state = ThreadState::Done;
    RunExit::Killed
}

/// Fault-injection hook: one forced collection of the process heap, traced.
pub(crate) fn forced_gc(thread: &mut Thread, ctx: &mut ExecCtx<'_>) -> Result<(), HeapError> {
    let mut roots = thread.stack_roots();
    roots.extend(ctx.statics.values().copied());
    roots.extend(ctx.intern.values().copied());
    roots.extend_from_slice(ctx.extra_roots);
    ctx.space.obs().trace.with(|t| {
        t.record(kaffeos_trace::Payload::FaultInjected {
            kind: kaffeos_trace::InjectionKind::ForcedGc,
        })
    });
    ctx.space.gc(ctx.heap, &roots).map(|_| ())
}

/// The runtime ops — everything that allocates, throws, touches statics,
/// strings or monitors, or leaves for the kernel. Calls and returns are not
/// among them: they are template ops the executor runs itself. This is the
/// only implementation: the lowering turns each of them into a bare
/// `TOp::Rt`, which the executor runs here. The caller has advanced the
/// top frame's `pc` past `op` and written it back, so a raise, syscall
/// resume or profiler sample sees the frame as of after the op; fault
/// injection's per-op hooks live in the caller.
///
/// Inlined into the executor: as an out-of-line call it costs ~6% of
/// `spec-alloc` guest throughput, whose programs live in these arms.
#[inline(always)]
pub(crate) fn rt_op(thread: &mut Thread, ctx: &mut ExecCtx<'_>, op: Op) -> StepFlow {
    let table = ctx.table;
    let engine = table.engine();
    let Some(&top) = thread.frames.last() else {
        return StepFlow::Exit(RunExit::Finished(None));
    };
    let method_idx = top.method;
    let class = table.class(top.class);
    let stack_base = top.stack_base as usize;
    // Site of `op`, for allocation/store attribution and the analyzer's
    // per-pc verdicts.
    let at = top.pc.saturating_sub(1);

    macro_rules! throw {
        ($ex:expr) => {
            return StepFlow::Raise($ex)
        };
    }
    macro_rules! fault {
        ($($msg:tt)*) => {
            return StepFlow::Exit(RunExit::Fault(crate::VmError::BadBytecode(format!($($msg)*))))
        };
    }

    match op {
        // ----- constants ------------------------------------------------------
        Op::ConstStr(idx) => {
            thread.cycles += engine.scaled(COSTS.string);
            let RConst::Str(s) = &class.rpool[idx as usize] else {
                fault!("ConstStr on non-Str pool entry {idx}");
            };
            match intern_string(thread, ctx, s) {
                Ok(obj) => thread.values.push(Value::Ref(obj)),
                Err(ex) => throw!(ex),
            }
        }

        // ----- objects -----------------------------------------------------------
        Op::New(idx) => {
            let RConst::Class(cidx) = class.rpool[idx as usize] else {
                fault!("New on non-Class pool entry {idx}");
            };
            // The class's link-time facts: its charge and its typed zeros.
            let template = &table.class(cidx).link.template;
            thread.cycles += template.new_cycles;
            let alloc = with_gc_retry(thread, ctx, &[], |ctx| {
                // Arm inside the closure so a GC retry re-arms; the
                // plane consumes the site only on a successful alloc.
                ctx.space
                    .obs()
                    .heap
                    .with(|h| h.arm_alloc(method_idx.0, at, || table.qualified_name(method_idx)));
                ctx.space
                    .alloc_fields_from(ctx.heap, cidx.heap_class(), &template.instance)
            });
            match alloc {
                Ok(obj) => thread.values.push(Value::Ref(obj)),
                Err(e) => throw!(heap_exception(e)),
            }
        }
        Op::GetStatic(idx) => {
            thread.cycles += engine.scaled(COSTS.field);
            let RConst::StaticField {
                class: cidx, slot, ..
            } = class.rpool[idx as usize]
            else {
                fault!("GetStatic on bad pool entry {idx}");
            };
            let statics = match statics_object(thread, ctx, cidx, &[]) {
                Ok(obj) => obj,
                Err(ex) => throw!(ex),
            };
            match ctx.space.load(statics, slot as usize) {
                Ok(v) => thread.values.push(v),
                Err(e) => throw!(heap_exception(e)),
            }
        }
        Op::PutStatic(idx) => {
            thread.cycles += engine.scaled(COSTS.field);
            let RConst::StaticField {
                class: cidx,
                slot,
                ref ty,
            } = class.rpool[idx as usize]
            else {
                fault!("PutStatic on bad pool entry {idx}");
            };
            let is_ref = ty.is_reference();
            let v = pop!(thread, stack_base);
            // The popped value is off the stack: pin it across the statics
            // object's first allocation, whose retry may collect.
            let pinned = v.as_ref();
            let statics = match statics_object(thread, ctx, cidx, pinned.as_slice()) {
                Ok(obj) => obj,
                Err(ex) => throw!(ex),
            };
            let result = if is_ref {
                store_ref_checked(thread, ctx, method_idx, at, statics, slot as usize, v)
            } else {
                ctx.space.store_prim(statics, slot as usize, v)
            };
            if let Err(e) = result {
                throw!(heap_exception(e));
            }
        }
        Op::InstanceOf(idx) => {
            thread.cycles += engine.scaled(COSTS.field);
            let RConst::Class(target) = class.rpool[idx as usize] else {
                fault!("InstanceOf on bad pool entry {idx}");
            };
            let v = pop!(thread, stack_base);
            let r = value_instance_of(ctx, v, target);
            thread.values.push(Value::Int(r as i64));
        }
        Op::CheckCast(idx) => {
            thread.cycles += engine.scaled(COSTS.field);
            let RConst::Class(target) = class.rpool[idx as usize] else {
                fault!("CheckCast on bad pool entry {idx}");
            };
            debug_assert!(
                thread.values.len() > stack_base,
                "CheckCast on empty operand stack"
            );
            let v = *thread.values.last().unwrap_or(&Value::Null);
            if !matches!(v, Value::Null) && !value_instance_of(ctx, v, target) {
                throw!(VmException::Builtin(
                    BuiltinEx::ClassCast,
                    format!("cannot cast to {}", table.class(target).name()),
                ));
            }
        }

        // ----- arrays -------------------------------------------------------------
        Op::NewArray(idx) => {
            thread.cycles += engine.scaled(COSTS.alloc);
            let len = pop!(thread, stack_base).as_int();
            if len < 0 {
                throw!(VmException::Builtin(
                    BuiltinEx::IndexOutOfBounds,
                    format!("negative array length {len}"),
                ));
            }
            let (tag, elem_bytes, fill) = match class.rpool[idx as usize] {
                RConst::Class(cidx) => (cidx.heap_class(), 4, Value::Null),
                RConst::Str(ref s) if &**s == "int" => (INT_ARRAY_CLASS, 4, Value::Int(0)),
                RConst::Str(ref s) if &**s == "float" => {
                    (FLOAT_ARRAY_CLASS, 8, Value::Float(0.0))
                }
                // "str" and "["-prefixed nested-array descriptors:
                // element values are references, 4 bytes each under
                // the 32-bit model.
                RConst::Str(ref s) if &**s == "str" || s.starts_with('[') => {
                    (REF_ARRAY_CLASS, 4, Value::Null)
                }
                _ => fault!("NewArray on bad pool entry {idx}"),
            };
            thread.cycles += engine.scaled(COSTS.simple) * (len as u64 / 8).max(1);
            let alloc = with_gc_retry(thread, ctx, &[], |ctx| {
                ctx.space
                    .obs()
                    .heap
                    .with(|h| h.arm_alloc(method_idx.0, at, || table.qualified_name(method_idx)));
                ctx.space
                    .alloc_array(ctx.heap, tag, elem_bytes, len as usize, fill)
            });
            match alloc {
                Ok(obj) => thread.values.push(Value::Ref(obj)),
                Err(e) => throw!(heap_exception(e)),
            }
        }

        // ----- kernel calls ----------------------------------------------------------
        Op::Syscall(idx) => {
            thread.cycles += engine.scaled(COSTS.call);
            let RConst::Intrinsic { id, nargs, .. } = class.rpool[idx as usize] else {
                fault!("Syscall on bad pool entry {idx}");
            };
            let split = thread
                .values
                .len()
                .saturating_sub(nargs as usize)
                .max(stack_base);
            let args = thread.values.split_off(split);
            return StepFlow::Exit(RunExit::Syscall { id, args });
        }

        // ----- exceptions ---------------------------------------------------------------
        Op::Throw => {
            let Value::Ref(ex) = pop!(thread, stack_base) else {
                throw!(npe("throw of null"));
            };
            throw!(VmException::Guest(ex));
        }

        // ----- strings --------------------------------------------------------------------
        Op::StrConcat => {
            let b = pop!(thread, stack_base);
            let a = pop!(thread, stack_base);
            let joined = render(ctx, &[a, b]);
            thread.cycles +=
                engine.scaled(COSTS.string + COSTS.string_per_char * joined.len() as u64);
            match alloc_guest_string(thread, ctx, method_idx, at, joined) {
                Ok(obj) => thread.values.push(Value::Ref(obj)),
                Err(e) => throw!(heap_exception(e)),
            }
        }
        Op::StrLen => {
            thread.cycles += engine.scaled(COSTS.simple);
            let Value::Ref(s) = pop!(thread, stack_base) else {
                throw!(npe("length of null string"));
            };
            match ctx.space.str_len(s) {
                Ok(n) => thread.values.push(Value::Int(n as i64)),
                Err(e) => throw!(heap_exception(e)),
            }
        }
        Op::StrCharAt => {
            thread.cycles += engine.scaled(COSTS.field);
            let index = pop!(thread, stack_base).as_int();
            let Value::Ref(s) = pop!(thread, stack_base) else {
                throw!(npe("charAt on null string"));
            };
            // A negative index maps past any end.
            let i = usize::try_from(index).unwrap_or(usize::MAX);
            let ch = match ctx.space.str_char_at(s, i) {
                Ok(ch) => ch,
                Err(e) => throw!(heap_exception(e)),
            };
            match ch {
                Some(c) => thread.values.push(Value::Int(c as i64)),
                None => throw!(VmException::Builtin(
                    BuiltinEx::IndexOutOfBounds,
                    format!("string index {index}"),
                )),
            }
        }
        Op::StrEq => {
            let b = pop!(thread, stack_base);
            let a = pop!(thread, stack_base);
            let r = match (a, b) {
                (Value::Ref(x), Value::Ref(y)) => {
                    let sx = ctx.space.str_value(x).ok();
                    let sy = ctx.space.str_value(y).ok();
                    thread.cycles += engine.scaled(
                        COSTS.string
                            + COSTS.string_per_char
                                * sx.map(|s| s.len()).unwrap_or(0) as u64,
                    );
                    match (sx, sy) {
                        (Some(sx), Some(sy)) => sx == sy,
                        _ => false,
                    }
                }
                (Value::Null, Value::Null) => true,
                _ => false,
            };
            thread.values.push(Value::Int(r as i64));
        }
        Op::Intern => {
            thread.cycles += engine.scaled(COSTS.string);
            let Value::Ref(s) = pop!(thread, stack_base) else {
                throw!(npe("intern of null"));
            };
            let text = match ctx.space.str_value(s) {
                Ok(v) => v.to_string(),
                Err(e) => throw!(heap_exception(e)),
            };
            match intern_string(thread, ctx, &text) {
                Ok(obj) => thread.values.push(Value::Ref(obj)),
                Err(ex) => throw!(ex),
            }
        }
        Op::ToStr => {
            let v = pop!(thread, stack_base);
            let text = render(ctx, &[v]);
            thread.cycles +=
                engine.scaled(COSTS.string + COSTS.string_per_char * text.len() as u64);
            match alloc_guest_string(thread, ctx, method_idx, at, text) {
                Ok(obj) => thread.values.push(Value::Ref(obj)),
                Err(e) => throw!(heap_exception(e)),
            }
        }
        Op::Substr => {
            thread.cycles += engine.scaled(COSTS.string);
            let end = pop!(thread, stack_base).as_int();
            let start = pop!(thread, stack_base).as_int();
            let Value::Ref(s) = pop!(thread, stack_base) else {
                throw!(npe("substring of null"));
            };
            let n = match ctx.space.str_len(s) {
                Ok(n) => n,
                Err(e) => throw!(heap_exception(e)),
            };
            // `s` is a live string (`str_len` above), so only the range
            // can fail.
            let sub = match (usize::try_from(start), usize::try_from(end)) {
                (Ok(a), Ok(b)) => ctx.space.str_slice(s, a, b).ok().flatten(),
                _ => None,
            };
            let Some(sub) = sub.map(str::to_owned) else {
                throw!(VmException::Builtin(
                    BuiltinEx::IndexOutOfBounds,
                    format!("substring [{start}, {end}) of length {n}"),
                ));
            };
            thread.cycles += engine.scaled(COSTS.string_per_char * sub.len() as u64);
            match alloc_guest_string(thread, ctx, method_idx, at, sub) {
                Ok(obj) => thread.values.push(Value::Ref(obj)),
                Err(e) => throw!(heap_exception(e)),
            }
        }
        Op::ParseInt => {
            thread.cycles += engine.scaled(COSTS.string);
            let Value::Ref(s) = pop!(thread, stack_base) else {
                throw!(npe("parseInt of null"));
            };
            let text = match ctx.space.str_value(s) {
                Ok(v) => v.trim().to_string(),
                Err(e) => throw!(heap_exception(e)),
            };
            match text.parse::<i64>() {
                Ok(v) => thread.values.push(Value::Int(v)),
                Err(_) => throw!(VmException::Builtin(
                    BuiltinEx::Arithmetic,
                    format!("not a number: {text:?}"),
                )),
            }
        }

        // ----- monitors ------------------------------------------------------
        Op::MonitorEnter => {
            thread.cycles += engine.scaled(COSTS.monitor) + engine.lock_extra;
            let Value::Ref(obj) = pop!(thread, stack_base) else {
                throw!(npe("monitorenter on null"));
            };
            match ctx.monitors.get_mut(&obj) {
                None => {
                    ctx.monitors.insert(obj, (thread.id, 1));
                    thread.held_monitors.push(obj);
                }
                Some((owner, depth)) if *owner == thread.id => *depth += 1,
                Some(_) => {
                    // Rewind pc so the acquire retries when
                    // rescheduled.
                    thread.values.push(Value::Ref(obj));
                    if let Some(f) = thread.frames.last_mut() {
                        f.pc = at;
                    }
                    return StepFlow::Exit(RunExit::Blocked(obj));
                }
            }
        }
        Op::MonitorExit => {
            thread.cycles += engine.scaled(COSTS.monitor) + engine.lock_extra;
            let Value::Ref(obj) = pop!(thread, stack_base) else {
                throw!(npe("monitorexit on null"));
            };
            match ctx.monitors.get_mut(&obj) {
                Some((owner, depth)) if *owner == thread.id => {
                    *depth -= 1;
                    if *depth == 0 {
                        ctx.monitors.remove(&obj);
                        if let Some(pos) =
                            thread.held_monitors.iter().rposition(|&m| m == obj)
                        {
                            thread.held_monitors.remove(pos);
                        }
                    }
                }
                _ => throw!(VmException::Builtin(
                    BuiltinEx::IllegalState,
                    "monitorexit without ownership".to_string(),
                )),
            }
        }

        // Block ops never reach here: the lowering keeps them in blocks.
        _ => fault!("{op:?} is not a runtime op"),
    }
    StepFlow::Next
}

/// The write barrier every guest reference store takes (§2): stores `v`
/// into slot `index` of `obj` through [`HeapSpace::store_ref`] and charges
/// its modelled cycles. The receiver and the value stay pinned across the
/// GC retry, and the heap census is armed with the store site `(method,
/// pc)` so a cross-heap edge the store creates is attributed to it. A
/// segmentation violation is recorded as a [`SegSite`] before it is
/// returned. `PutStatic` and the two store micros all run this one
/// sequence; it stays inline because an out-of-line call here costs
/// measurably on allocation-heavy guests.
#[inline(always)]
pub(crate) fn store_ref_checked(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    method: MethodIdx,
    pc: u32,
    obj: ObjRef,
    index: usize,
    v: Value,
) -> Result<(), HeapError> {
    // Fixed-size pin buffer: no per-store heap allocation.
    let mut pinned = [obj; 2];
    let mut n = 1;
    if let Some(r) = v.as_ref() {
        pinned[1] = r;
        n = 2;
    }
    let result = with_gc_retry(thread, ctx, &pinned[..n], |ctx| {
        ctx.space.obs().heap.with(|h| h.arm_store(method.0, pc));
        ctx.space.store_ref(obj, index, v, ctx.trusted)
    });
    match result {
        Ok(barrier_cycles) => {
            thread.cycles += barrier_cycles;
            Ok(())
        }
        Err(e) => {
            if let HeapError::SegViolation(kind) = e {
                thread.seg_sites.push(SegSite { method, pc, kind });
            }
            Err(e)
        }
    }
}

/// Runs a heap operation; on `OutOfMemory`, collects the process heap (the
/// way Kaffe's allocator collects on failure) and retries once. GC roots:
/// this thread's stacks, the statics and intern tables, kernel-supplied
/// extra roots, and `pinned` (references popped off the operand stack that
/// the in-flight instruction still needs).
pub(crate) fn with_gc_retry<T>(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    pinned: &[ObjRef],
    mut op: impl FnMut(&mut ExecCtx<'_>) -> Result<T, HeapError>,
) -> Result<T, HeapError> {
    match op(ctx) {
        Err(HeapError::OutOfMemory(_)) => {
            let mut roots = thread.stack_roots();
            roots.extend(ctx.statics.values().copied());
            roots.extend(ctx.intern.values().copied());
            roots.extend_from_slice(ctx.extra_roots);
            roots.extend_from_slice(pinned);
            match ctx.space.gc(ctx.heap, &roots) {
                Ok(report) => {
                    // Stack scanning is charged per slot examined — this
                    // thread's own frames plus the other threads the kernel
                    // pre-scanned (GC crosstalk, §2).
                    let scan = (thread.stack_scan_size() + ctx.extra_scan_slots)
                        * crate::engine::GC_STACK_SCAN_PER_SLOT;
                    thread.cycles += report.cycles + scan;
                    thread.gc_cycles += report.cycles + scan;
                }
                Err(e) => return Err(e),
            }
            op(ctx)
        }
        other => other,
    }
}

pub(crate) fn npe(msg: &str) -> VmException {
    VmException::Builtin(BuiltinEx::NullPointer, msg.to_string())
}

/// Loads element `index` of `arr` for the array-load micros.
#[inline]
pub(crate) fn load_elem(ctx: &ExecCtx<'_>, arr: ObjRef, index: i64) -> Result<Value, VmException> {
    ctx.space
        .load(arr, elem_index(index))
        .map_err(|e| elem_exception(e, index))
}

/// Stores `v` into element `index` of `arr` for the array-store micro.
/// A primitive takes one heap call with one object lookup, inlined into
/// the executor; a reference goes through [`store_elem_ref`].
#[inline(always)]
pub(crate) fn store_elem(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    method: MethodIdx,
    pc: u32,
    arr: ObjRef,
    index: i64,
    v: Value,
) -> Result<(), VmException> {
    let at = elem_index(index);
    let result = if v.is_reference() {
        store_elem_ref(thread, ctx, method, pc, arr, at, v)
    } else {
        ctx.space.store_prim(arr, at, v)
    };
    result.map_err(|e| elem_exception(e, index))
}

/// Stores reference `v` into element `at` of `arr` through the write
/// barrier, once the index is known to be in bounds (so an out-of-bounds
/// store runs no barrier).
#[inline(never)]
fn store_elem_ref(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    method: MethodIdx,
    pc: u32,
    arr: ObjRef,
    at: usize,
    v: Value,
) -> Result<(), HeapError> {
    let len = ctx.space.slot_count(arr)?;
    if at >= len {
        return Err(HeapError::IndexOutOfBounds {
            obj: arr,
            index: at,
            len,
        });
    }
    store_ref_checked(thread, ctx, method, pc, arr, at, v)
}

/// A guest array index as a heap index; a negative one maps past every
/// array's end.
#[inline]
fn elem_index(index: i64) -> usize {
    usize::try_from(index).unwrap_or(usize::MAX)
}

/// Maps a heap error of an element access at guest `index` onto the guest
/// exception model: out of bounds is the guest's `IndexOutOfBounds`, with
/// the signed index in its message.
fn elem_exception(e: HeapError, index: i64) -> VmException {
    match e {
        HeapError::IndexOutOfBounds { len, .. } => VmException::Builtin(
            BuiltinEx::IndexOutOfBounds,
            format!("index {index} out of bounds for length {len}"),
        ),
        other => heap_exception(other),
    }
}

/// Maps a heap error onto the guest-visible exception model.
pub(crate) fn heap_exception(e: HeapError) -> VmException {
    match e {
        HeapError::SegViolation(kind) => {
            VmException::Builtin(BuiltinEx::SegViolation, kind.message().to_string())
        }
        HeapError::OutOfMemory(le) => VmException::Builtin(BuiltinEx::OutOfMemory, le.to_string()),
        // No heap could hold it, so it is an out-of-memory like Java's
        // "requested array size exceeds VM limit"; no collection is tried.
        e @ HeapError::ArrayTooLong { .. } => {
            VmException::Builtin(BuiltinEx::OutOfMemory, e.to_string())
        }
        // Frozen-heap allocation and friends surface as illegal state.
        other => VmException::Builtin(BuiltinEx::IllegalState, other.to_string()),
    }
}

pub(crate) fn value_instance_of(ctx: &ExecCtx<'_>, v: Value, target: ClassIdx) -> bool {
    match v {
        Value::Ref(obj) => match ctx.space.get(obj) {
            Ok(o) => match &o.data {
                // Arrays and strings: exact-tag classes only.
                kaffeos_heap::ObjData::Fields(_) | kaffeos_heap::ObjData::Str { .. } => {
                    let id = o.class;
                    if id == INT_ARRAY_CLASS || id == FLOAT_ARRAY_CLASS || id == REF_ARRAY_CLASS {
                        return false;
                    }
                    ctx.table.is_subclass(ctx.table.from_heap_class(id), target)
                }
                kaffeos_heap::ObjData::Refs { .. }
                | kaffeos_heap::ObjData::Ints { .. }
                | kaffeos_heap::ObjData::Floats { .. }
                | kaffeos_heap::ObjData::Zeros { .. } => false,
            },
            Err(_) => false,
        },
        _ => false,
    }
}

/// Renders `values` end to end into one buffer, for string concatenation
/// and `ToStr`. The buffer is sized up front for the string operands.
pub(crate) fn render(ctx: &ExecCtx<'_>, values: &[Value]) -> String {
    let size = |v: &Value| match *v {
        Value::Ref(obj) => ctx.space.str_value(obj).map_or(0, str::len),
        _ => 0,
    };
    let mut out = String::with_capacity(values.iter().map(size).sum());
    for &v in values {
        // Writing into a `String` cannot fail.
        let _ = match v {
            Value::Null => out.write_str("null"),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(f) => {
                if f == f.trunc() && f.is_finite() && f.abs() < 1e15 {
                    write!(out, "{f:.1}")
                } else {
                    write!(out, "{f}")
                }
            }
            Value::Ref(obj) => match ctx.space.get(obj) {
                Ok(o) => match &o.data {
                    kaffeos_heap::ObjData::Str { text, .. } => out.write_str(text),
                    data @ (kaffeos_heap::ObjData::Refs { .. }
                    | kaffeos_heap::ObjData::Ints { .. }
                    | kaffeos_heap::ObjData::Floats { .. }
                    | kaffeos_heap::ObjData::Zeros { .. }) => {
                        write!(out, "array[{}]", data.len())
                    }
                    kaffeos_heap::ObjData::Fields(_) => {
                        let id = o.class;
                        if id == INT_ARRAY_CLASS || id == FLOAT_ARRAY_CLASS || id == REF_ARRAY_CLASS
                        {
                            out.write_str("array")
                        } else {
                            write!(
                                out,
                                "{}@{}",
                                ctx.table.class(ctx.table.from_heap_class(id)).name(),
                                obj.index()
                            )
                        }
                    }
                },
                Err(_) => out.write_str("<stale>"),
            },
        };
    }
    out
}

/// Allocates a string object holding `text` for the op at `at` of
/// `method`. The buffer itself becomes the payload; an allocation retried
/// after a collection still has it.
fn alloc_guest_string(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    method: MethodIdx,
    at: u32,
    mut text: String,
) -> Result<ObjRef, HeapError> {
    let table = ctx.table;
    let string_tag = ctx.string_class.heap_class();
    with_gc_retry(thread, ctx, &[], |ctx| {
        ctx.space
            .obs()
            .heap
            .with(|h| h.arm_alloc(method.0, at, || table.qualified_name(method)));
        ctx.space.alloc_string(ctx.heap, string_tag, &mut text)
    })
}

/// Returns (allocating lazily) the statics object for `class` in the
/// current process. `pinned` are references the caller holds off the
/// stack; they stay roots if the allocation's retry collects.
pub(crate) fn statics_object(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    class: ClassIdx,
    pinned: &[ObjRef],
) -> Result<ObjRef, VmException> {
    if let Some(&obj) = ctx.statics.get(&class) {
        return Ok(obj);
    }
    let table = ctx.table;
    let template = &table.class(class).link.template.statics;
    thread.cycles += table.engine().scaled(COSTS.alloc);
    let obj = with_gc_retry(thread, ctx, pinned, |ctx| {
        ctx.space
            .alloc_fields_from(ctx.heap, class.heap_class(), template)
    })
    .map_err(heap_exception)?;
    ctx.statics.insert(class, obj);
    Ok(obj)
}

/// Interns `text` in the process intern table (§3.3: interning is
/// per-process, so `==` on literals only holds within one process).
pub(crate) fn intern_string(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    text: &str,
) -> Result<ObjRef, VmException> {
    if let Some(&obj) = ctx.intern.get(text) {
        // A previously interned string may have been collected if nothing
        // else referenced it and the kernel pruned the table; the kernel
        // prunes stale entries, so a hit is live.
        return Ok(obj);
    }
    thread.cycles += ctx
        .table
        .engine()
        .scaled(COSTS.string + COSTS.string_per_char * text.len() as u64);
    let string_tag = ctx.string_class.heap_class();
    let obj = with_gc_retry(thread, ctx, &[], |ctx| {
        ctx.space.alloc_str(ctx.heap, string_tag, text)
    })
    .map_err(heap_exception)?;
    ctx.intern.insert(text.to_string(), obj);
    Ok(obj)
}

/// Exception dispatch: walks frames top-down for a matching handler.
/// Returns `Some(exit)` if the exception escaped (thread is done).
pub(crate) fn raise(
    thread: &mut Thread,
    ctx: &mut ExecCtx<'_>,
    ex: VmException,
) -> Option<RunExit> {
    // Kaffe99's slow dispatch materialises a full stack trace on every
    // throw — real work the fast dispatch (Kaffe00/KaffeOS) avoids.
    let engine = ctx.table.engine();
    if engine.slow_throw {
        let trace: Vec<String> = thread
            .frames
            .iter()
            .map(|f| {
                let m = ctx.table.decl(f.method);
                format!("{}.{}:{}", ctx.table.class(f.class).name(), m.name, f.pc)
            })
            .collect();
        std::hint::black_box(&trace);
    }

    // Materialise builtin exceptions into guest objects so handlers match
    // uniformly; if the namespace lacks the class (bare guests), the
    // exception is uncatchable.
    let (obj, class_name): (Option<ObjRef>, String) = match &ex {
        VmException::Guest(obj) => {
            let cidx = match ctx.space.class_of(*obj) {
                Ok(id) => ctx.table.from_heap_class(id),
                Err(_) => return Some(RunExit::Unhandled(ex)),
            };
            (Some(*obj), ctx.table.class(cidx).name().to_string())
        }
        VmException::Builtin(kind, msg) => {
            let name = kind.class_name().to_string();
            match ctx.table.lookup(ctx.ns, &name) {
                Some(cidx) => {
                    let zeros = &ctx.table.class(cidx).link.template.instance;
                    // Exception object (a copy of its class's typed-zero
                    // template, as `new` makes) + message; if even this
                    // allocation fails the exception becomes uncatchable
                    // (matching a JVM's behaviour when OOM handling itself
                    // OOMs).
                    let alloc = ctx
                        .space
                        .alloc_fields_from(ctx.heap, cidx.heap_class(), zeros)
                        .and_then(|obj| {
                            if !zeros.is_empty() {
                                let m = ctx.space.alloc_str(
                                    ctx.heap,
                                    ctx.string_class.heap_class(),
                                    msg.as_str(),
                                )?;
                                ctx.space.store_ref(obj, 0, Value::Ref(m), ctx.trusted)?;
                            }
                            Ok(obj)
                        });
                    match alloc {
                        Ok(obj) => (Some(obj), name),
                        Err(_) => (None, name),
                    }
                }
                None => (None, name),
            }
        }
    };

    let mut frames_examined = 0usize;
    while let Some(frame) = thread.frames.last() {
        frames_examined += 1;
        let class = ctx.table.class(frame.class);
        let method = ctx.table.decl(frame.method);
        // pc was advanced past the faulting instruction.
        let at = frame.pc.saturating_sub(1);
        let handler = method.code.handlers.iter().find(|h| {
            if at < h.start || at >= h.end {
                return false;
            }
            let RConst::Class(hcls) = class.rpool[h.class as usize] else {
                return false;
            };
            match obj {
                Some(obj) => {
                    let ocls = match ctx.space.class_of(obj) {
                        Ok(id) => ctx.table.from_heap_class(id),
                        Err(_) => return false,
                    };
                    ctx.table.is_subclass(ocls, hcls)
                }
                // Unmaterialised builtin: match by name chain.
                None => {
                    ctx.table.class(hcls).name() == class_name
                        || class_name_inherits(ctx, &class_name, hcls)
                }
            }
        });
        if let Some(h) = handler.copied() {
            thread.cycles += engine.throw_cost(frames_examined);
            if let Some(frame) = thread.frames.last_mut() {
                // Clear this frame's operand stack, then deliver the
                // exception.
                thread.values.truncate(frame.stack_base as usize);
                thread
                    .values
                    .push(obj.map(Value::Ref).unwrap_or(Value::Null));
                frame.pc = h.target;
            }
            return None;
        }
        // Leaving the frame: release monitors is the guest's duty via
        // finally blocks; kill-style unwinds release them in `step`.
        if let Some(dead) = thread.frames.pop() {
            thread.values.truncate(dead.locals_base as usize);
        }
    }
    thread.cycles += engine.throw_cost(frames_examined);
    // Report the materialised guest object when there is one, so callers
    // observe a uniform exception model.
    Some(RunExit::Unhandled(match obj {
        Some(o) => VmException::Guest(o),
        None => ex,
    }))
}

/// True if the builtin class `name` (when loaded in this namespace) is a
/// subclass of `handler`.
fn class_name_inherits(ctx: &ExecCtx<'_>, name: &str, handler: ClassIdx) -> bool {
    match ctx.table.lookup(ctx.ns, name) {
        Some(cidx) => ctx.table.is_subclass(cidx, handler),
        None => false,
    }
}

/// Releases every monitor the thread holds (termination path).
fn release_all_monitors(thread: &mut Thread, ctx: &mut ExecCtx<'_>) {
    for obj in thread.held_monitors.drain(..) {
        ctx.monitors.remove(&obj);
    }
}
