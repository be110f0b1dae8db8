//! Static heap-flow analysis over verified bytecode — `kaffeos-analyze`.
//!
//! KaffeOS enforces heap isolation with *dynamic* write barriers: every
//! reference store checks the Figure-2 legality matrix at runtime and
//! rejects illegal cross-heap edges as segmentation violations (§2, §4.3).
//! This crate adds the *static* half of that story: an interprocedural
//! abstract interpretation over the same verified `Op` stream that
//! classifies every value by the **heap region** it may live on and every
//! reference-store site by whether it can possibly cross a heap boundary.
//!
//! Four products fall out. All of them are lint facts for
//! `kaffeos-lint` and the soundness tests: nothing at runtime reads them,
//! and every reference store takes the dynamic barrier whatever its
//! verdict.
//!
//! 1. **Store verdicts.** A store proven `Local → Local` (both the
//!    receiver and the stored value live on the running process's own
//!    allocation heap, or are null) is same-heap into an unfrozen object
//!    under every execution: its verdict is [`Verdict::Elide`], meaning
//!    its legality checks can never fire. [`Analysis::elision_counts`]
//!    reports how many sites qualify.
//! 2. **Cross-heap lints.** Sites that definitely or possibly violate the
//!    matrix — writes into frozen shared objects, stores whose operands
//!    escape local reasoning — plus unreachable code and
//!    allocation-in-loop patterns, each mapped back to the Cup source
//!    line via the method debug tables.
//! 3. **Hierarchy facts (CHA).** A class-hierarchy walk over the loaded
//!    vtables computes, per `CallVirtual` site, the set of reachable
//!    override targets. Virtual-call results join the summaries of every
//!    reachable override (replacing the old blanket `Top`), which keeps
//!    stores of those results provably `Local`.
//! 4. **Escape facts.** [`analyze`] runs a per-method escape pass that
//!    classifies every allocation site as never-leaves-frame /
//!    never-leaves-process / may-cross, and builds a static lock-order
//!    graph powering the `deadlock-candidate` and
//!    `lock-held-across-syscall` lints.
//!
//! # The region lattice
//!
//! ```text
//!                Top
//!                 |
//!              MayCross
//!            /    |      \
//!        Local KernelConst SharedFrozen
//!            \    |      /
//!             (bottom)
//! ```
//!
//! `Local` — null, a primitive, or an object allocated on the running
//! process's own heap (all guest allocation sites: `New`, `NewArray`,
//! string ops, interning; per-process statics objects; procfs reply
//! strings). `KernelConst` — a kernel-pinned constant (reserved; no guest
//! generator today). `SharedFrozen` — an object on a frozen shared heap
//! (`shm.get`). `MayCross` — one of the above, statically unknown (method
//! parameters, most fields, unknown intrinsics). `Top` — anything,
//! including values returned through virtual dispatch the hierarchy walk
//! could not resolve.
//!
//! Joining two *distinct* definite regions yields `MayCross`; joining
//! anything with `Top` yields `Top`.
//!
//! # Soundness
//!
//! The analysis is context-insensitive and conservative: parameters and
//! exception objects enter as `MayCross`, virtual-call results as the
//! join over every CHA-reachable override's summary (`Top` when the
//! hierarchy walk bails), and any method whose bytecode cannot be
//! followed (unverified input) is abandoned with no store sites. Field
//! summaries are global monotone joins over every store site in the
//! program, keyed by the *declaring* class of the field slot, so reads
//! through a subclass or superclass receiver observe the same summary. The
//! dynamic oracle closes the loop: the fault-sweep soundness test asserts
//! every runtime segmentation violation lands on a site this crate did not
//! classify as [`Verdict::Elide`].

use std::collections::{BTreeMap, HashMap};

use kaffeos_vm::{ClassIdx, ClassTable, MethodIdx, Op, RConst, TypeDesc};

/// Abstract heap region of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Null, a primitive, or an object on the running process's own heap.
    Local,
    /// A kernel-pinned constant (reserved: no guest-reachable generator).
    KernelConst,
    /// An object on a frozen shared heap.
    SharedFrozen,
    /// Unknown mix of the definite regions.
    MayCross,
    /// Anything at all (virtual dispatch results).
    Top,
}

impl Region {
    /// Least upper bound.
    pub fn join(self, other: Region) -> Region {
        use Region::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Top, _) | (_, Top) => Top,
            _ => MayCross,
        }
    }

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Region::Local => "local",
            Region::KernelConst => "kernel-const",
            Region::SharedFrozen => "shared-frozen",
            Region::MayCross => "may-cross",
            Region::Top => "top",
        }
    }
}

/// Static classification of one reference-store site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Proven `Local → Local`: same-heap, unfrozen — the barrier's checks
    /// can never fire here.
    Elide,
    /// Proven legal but cross-heap (needs its entry/exit items): the
    /// barrier must run.
    LegalCross,
    /// Cannot be proven either way: the barrier polices it at runtime.
    Unknown,
    /// Receiver is definitely frozen-shared: every ref store here is a
    /// `FrozenSharedField` violation.
    FrozenWrite,
}

/// One analyzed reference-store site (`PutField` / `PutStatic` / `AStore`
/// with a reference operand).
#[derive(Debug, Clone, Copy)]
pub struct StoreSite {
    /// Containing method.
    pub method: MethodIdx,
    /// Instruction index of the store.
    pub pc: u32,
    /// Region of the object stored *into*.
    pub recv: Region,
    /// Region of the value stored.
    pub val: Region,
    /// Static verdict.
    pub verdict: Verdict,
}

/// Lint categories emitted by the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A store whose operands escape local reasoning badly enough that an
    /// illegal cross-heap edge cannot be ruled out.
    SegViolationCandidate,
    /// A reference store whose receiver is definitely on a frozen shared
    /// heap — guaranteed `FrozenSharedField` violation if executed.
    WriteAfterFreeze,
    /// Instructions no execution can reach.
    UnreachableCode,
    /// A loop that allocates on every iteration but contains no call or
    /// syscall — it can burn its memlimit without ever interacting with
    /// the kernel.
    AllocInLoopNoSafepoint,
    /// A monitor acquisition participating in a cycle of the static
    /// lock-order graph: some execution may acquire the same two lock
    /// classes in opposite orders.
    DeadlockCandidate,
    /// A syscall issued while at least one monitor is statically held —
    /// the kernel may block the thread (or kill the process) with the
    /// lock pinned.
    LockHeldAcrossSyscall,
}

impl LintKind {
    /// Short stable label (the allowlist key prefix).
    pub fn label(self) -> &'static str {
        match self {
            LintKind::SegViolationCandidate => "seg-violation-candidate",
            LintKind::WriteAfterFreeze => "write-after-freeze",
            LintKind::UnreachableCode => "unreachable-code",
            LintKind::AllocInLoopNoSafepoint => "alloc-in-loop-no-safepoint",
            LintKind::DeadlockCandidate => "deadlock-candidate",
            LintKind::LockHeldAcrossSyscall => "lock-held-across-syscall",
        }
    }
}

/// Escape verdict for one allocation site (`New` / `NewArray`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscapeClass {
    /// No reference to the object ever leaves the allocating frame:
    /// monitor ops on it are elidable and it provably dies young.
    FrameLocal,
    /// References escape the frame, but only into objects proven to live
    /// on the allocating process's own heap (or its statics).
    ProcessLocal,
    /// A reference may cross a process boundary (call argument, return,
    /// throw, syscall, store into a non-local receiver, or lost track).
    MayCross,
}

impl EscapeClass {
    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EscapeClass::FrameLocal => "frame-local",
            EscapeClass::ProcessLocal => "process-local",
            EscapeClass::MayCross => "may-cross",
        }
    }
}

/// One diagnostic, mapped back to the Cup source when debug line tables
/// are present.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Category.
    pub kind: LintKind,
    /// Declaring class name.
    pub class: String,
    /// Method name.
    pub method: String,
    /// Instruction index.
    pub pc: u32,
    /// Source line, when the method has a debug table.
    pub line: Option<u32>,
    /// Human-readable detail.
    pub msg: String,
}

impl Lint {
    /// Stable allowlist key: category plus qualified method. Deliberately
    /// excludes pc/line so innocuous edits don't churn the allowlist.
    pub fn key(&self) -> String {
        format!("{} {}.{}", self.kind.label(), self.class, self.method)
    }
}

impl core::fmt::Display for Lint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: {}.{} at pc {}",
            self.kind.label(),
            self.class,
            self.method,
            self.pc
        )?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        write!(f, ": {}", self.msg)
    }
}

/// Abstract machine state at one pc: a region per local and stack slot.
#[derive(Debug, Clone, Default, PartialEq)]
struct AbsState {
    locals: Vec<Region>,
    stack: Vec<Region>,
}

impl AbsState {
    /// Overwrites `self` with `src` field by field, reusing the buffers
    /// (the derived `clone_from` would allocate a fresh state).
    fn copy_from(&mut self, src: &AbsState) {
        self.locals.clone_from(&src.locals);
        self.stack.clone_from(&src.stack);
    }
}

/// One method's per-pc states, indexed by pc, with `ops.len() + 1` slots
/// (the last is the fall-off-the-end pc); `None` marks a pc no path
/// reaches.
type States<S> = Vec<Option<S>>;

/// The state recorded at `pc`, if some path reaches it.
fn state_at<S>(states: &[Option<S>], pc: u32) -> Option<&S> {
    states.get(pc as usize)?.as_ref()
}

/// Abstract escape state at one pc. A slot holds `Some(site)` when it
/// provably refers to the object born at that allocation site on *every*
/// path; `held` is the sorted set of lock identities statically held here.
#[derive(Debug, Clone, Default, PartialEq)]
struct EscState {
    locals: Vec<Option<u16>>,
    stack: Vec<Option<u16>>,
    held: Vec<u16>,
}

impl EscState {
    /// Overwrites `self` with `src` field by field, reusing the buffers.
    fn copy_from(&mut self, src: &EscState) {
        self.locals.clone_from(&src.locals);
        self.stack.clone_from(&src.stack);
        self.held.clone_from(&src.held);
    }

    /// Overwrites `self` with the state an exception handler observes when
    /// `at` throws: its locals and held locks, with the thrown object
    /// (untracked) as the only stack entry.
    fn enter_handler(&mut self, at: &EscState) {
        self.locals.clone_from(&at.locals);
        self.stack.clear();
        self.stack.push(None);
        self.held.clone_from(&at.held);
    }
}

/// Can this op raise a guest exception (and therefore enter an exception
/// handler)? Conservative: only provably-total ops return `false`. Used
/// to avoid propagating escape state into handlers from pcs that cannot
/// reach them, which would merge away tracked sites for nothing.
fn may_throw(op: &Op) -> bool {
    !matches!(
        op,
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
            | Op::Neg
            | Op::Shl
            | Op::Shr
            | Op::And
            | Op::Or
            | Op::Xor
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
            | Op::Return
            | Op::ReturnVal
    )
}

/// Analysis results plus the interprocedural summaries they were computed
/// from. Built by [`analyze`].
#[derive(Debug, Default)]
pub struct Analysis {
    /// Return-region summary per method (`None` = no return observed:
    /// the method never completes normally, or is not yet analyzed).
    summaries: Vec<Option<Region>>,
    /// Instance-field summaries keyed by (declaring class, slot): the join
    /// of every value ever stored into that slot, program-wide.
    fields: HashMap<(u32, u16), Region>,
    /// Static-field summaries keyed by (class, slot).
    statics: HashMap<(u32, u16), Region>,
    /// Join of every reference ever stored into any array element.
    array_elems: Option<Region>,
    /// Every reference-store site, keyed by (method, pc): ordered, so one
    /// method's sites are a range.
    sites: BTreeMap<(u32, u32), StoreSite>,
    /// Diagnostics for every analyzed method, sorted.
    pub lints: Vec<Lint>,
    /// Methods whose bytecode could not be followed (unverified input);
    /// they get no sites.
    bailed: Vec<u32>,
    /// Set during a fixpoint pass when any global summary moved.
    changed: bool,
    /// CHA reachable-target cache, keyed by (static class, vslot).
    cha: HashMap<(u32, u16), ChaTargets>,
    /// Reachable `CallVirtual` site counts: (monomorphic, polymorphic).
    virt_sites: (usize, usize),
    /// Escape verdict per allocation site, keyed by (method, pc). Filled
    /// by [`analyze`] only, like the lock-order graph below.
    alloc_escape: HashMap<(u32, u32), EscapeClass>,
    /// Interned lock identities (allocation-site class names) for the
    /// static lock-order graph.
    lock_names: Vec<String>,
    /// Lock-order edges: (held identity, acquired identity, method, pc).
    lock_edges: Vec<(u16, u16, u32, u32)>,
    /// Region-pass interpretations (`run_method` calls), fixpoint passes
    /// and escape-pass calls (`escape_method`) so far.
    #[cfg(test)]
    counts: (usize, usize, usize),
}

/// CHA result for one (static class, vslot) pair.
#[derive(Debug, Clone)]
struct ChaTargets {
    /// Sorted, deduped reachable override targets over loaded subclasses.
    targets: Vec<MethodIdx>,
    /// False when the hierarchy walk bailed (cyclic/mangled superclass
    /// chain): the site must be treated as fully polymorphic.
    complete: bool,
}

/// Runs the whole-program analysis over every method currently loaded:
/// the region fixpoint, store sites and CHA, then the escape pass over
/// every followable method, the lock-order graph and its lints.
pub fn analyze(table: &ClassTable) -> Analysis {
    let mut a = Analysis::default();
    a.run(table);
    for i in 0..table.methods.len() as u32 {
        if !a.is_bailed(MethodIdx(i)) {
            a.escape_method(table, MethodIdx(i));
        }
    }
    a.deadlock_lints(table);
    a.sort_lints();
    a
}

impl Analysis {
    /// The region and hierarchy passes: the fixpoint over every method,
    /// then store sites and virtual-site counts collected from its last
    /// pass, whose states were computed against the final summaries (that
    /// pass changed none).
    fn run(&mut self, table: &ClassTable) {
        self.summaries.resize(table.methods.len(), None);
        for (i, states) in self.fixpoint(table).into_iter().enumerate() {
            let midx = MethodIdx(i as u32);
            match states {
                None => self.bailed.push(i as u32),
                Some(states) => {
                    self.collect_method(table, midx, &states);
                    self.collect_virtual_sites(table, midx, &states);
                }
            }
        }
    }

    /// Fixpoint over the call graph. Each pass re-analyzes every method,
    /// joining return regions and field stores into the global summaries;
    /// stop when a pass changes nothing. The lattice is finite and all
    /// updates are joins, so this terminates. Returns the last pass's
    /// states per method (`None` for a method that bailed): that pass moved
    /// no summary, so they are the states at the fixpoint.
    fn fixpoint(&mut self, table: &ClassTable) -> Vec<Option<States<AbsState>>> {
        loop {
            #[cfg(test)]
            {
                self.counts.1 += 1;
            }
            self.changed = false;
            let pass: Vec<_> = (0..table.methods.len() as u32)
                .map(|i| self.run_method(table, MethodIdx(i)))
                .collect();
            if !self.changed {
                return pass;
            }
        }
    }

    /// Sorts the diagnostics by class, method, pc and kind.
    fn sort_lints(&mut self) {
        self.lints.sort_by(|a, b| {
            (&a.class, &a.method, a.pc, a.kind.label())
                .cmp(&(&b.class, &b.method, b.pc, b.kind.label()))
        });
    }

    /// Static verdict for a store site, if the analysis saw one there.
    pub fn site(&self, method: MethodIdx, pc: u32) -> Option<&StoreSite> {
        self.sites.get(&(method.0, pc))
    }

    /// All analyzed store sites (unordered).
    pub fn sites(&self) -> impl Iterator<Item = &StoreSite> {
        self.sites.values()
    }

    /// Whether the method's bytecode could not be followed.
    pub fn is_bailed(&self, method: MethodIdx) -> bool {
        self.bailed.contains(&method.0)
    }

    /// (elidable, total) reference-store sites across the whole program.
    pub fn elision_counts(&self) -> (usize, usize) {
        let elided = self
            .sites
            .values()
            .filter(|s| s.verdict == Verdict::Elide)
            .count();
        (elided, self.sites.len())
    }

    /// Reachable `CallVirtual` sites: (monomorphic, polymorphic).
    pub fn devirt_counts(&self) -> (usize, usize) {
        self.virt_sites
    }

    /// Escape verdict for the allocation site at `(method, pc)`.
    pub fn escape_class(&self, method: MethodIdx, pc: u32) -> Option<EscapeClass> {
        self.alloc_escape.get(&(method.0, pc)).copied()
    }

    /// Reachable allocation sites by escape verdict:
    /// (frame-local, process-local, may-cross).
    pub fn escape_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for &c in self.alloc_escape.values() {
            match c {
                EscapeClass::FrameLocal => counts.0 += 1,
                EscapeClass::ProcessLocal => counts.1 += 1,
                EscapeClass::MayCross => counts.2 += 1,
            }
        }
        counts
    }

    /// One-line deterministic digest of every verdict family — printed by
    /// `kaffeos-lint` and byte-compared across runs in CI.
    pub fn verdict_summary(&self) -> String {
        let (elided, stores) = self.elision_counts();
        let (mono, poly) = self.devirt_counts();
        let (frame, process, cross) = self.escape_counts();
        format!(
            "verdicts: stores {elided}/{stores} elidable; virtual sites {mono} monomorphic, \
             {poly} polymorphic; alloc sites {frame} frame-local, {process} process-local, \
             {cross} may-cross"
        )
    }

    // ---- intra-method pass -------------------------------------------------

    /// Abstractly interprets one method: a verifier-shaped worklist over
    /// `AbsState`s. Returns the per-pc states, or `None` when the bytecode
    /// cannot be followed (ill-typed input — never panics).
    fn run_method(&mut self, table: &ClassTable, midx: MethodIdx) -> Option<States<AbsState>> {
        #[cfg(test)]
        {
            self.counts.0 += 1;
        }
        let m = table.methods.get(midx.0 as usize)?;
        let code = &table.decl(midx).code;

        let mut locals = Vec::with_capacity(code.max_locals as usize);
        // Receiver and parameters arrive from arbitrary call sites.
        for _ in 0..m.arg_slots() {
            locals.push(Region::MayCross);
        }
        if locals.len() > code.max_locals as usize {
            return None;
        }
        locals.resize(code.max_locals as usize, Region::Local);

        let mut states = vec![None; code.ops.len() + 1];
        let mut worklist: Vec<u32> = Vec::new();
        // One scratch state for every visit, plus one for handler entries.
        let mut state = AbsState {
            locals,
            stack: Vec::new(),
        };
        let mut handler = AbsState::default();
        merge_into(&mut states, &mut worklist, 0, &state)?;

        while let Some(pc) = worklist.pop() {
            state.copy_from(state_at(&states, pc)?);
            let Some(&op) = code.ops.get(pc as usize) else {
                continue; // fall off the end: implicit return
            };
            // Exception handlers observe the locals here with the thrown
            // object (arbitrary provenance) as the only stack entry.
            for h in code.handlers.iter() {
                if pc >= h.start && pc < h.end {
                    handler.locals.clone_from(&state.locals);
                    handler.stack.clear();
                    handler.stack.push(Region::MayCross);
                    merge_into(&mut states, &mut worklist, h.target, &handler)?;
                }
            }
            let class = table.classes.get(m.class.0 as usize)?;
            match self.transfer(table, midx, op, &class.rpool, &mut state)? {
                Flow::Fall => merge_into(&mut states, &mut worklist, pc + 1, &state)?,
                Flow::JumpTo(t) => merge_into(&mut states, &mut worklist, t, &state)?,
                Flow::BranchTo(t) => {
                    merge_into(&mut states, &mut worklist, t, &state)?;
                    merge_into(&mut states, &mut worklist, pc + 1, &state)?;
                }
                Flow::Stop => {}
            }
        }
        Some(states)
    }

    /// Transfer function for one op. Updates the global summaries (joins
    /// only) and records every move with [`Analysis::raised`].
    fn transfer(
        &mut self,
        table: &ClassTable,
        midx: MethodIdx,
        op: Op,
        rpool: &[RConst],
        state: &mut AbsState,
    ) -> Option<Flow> {
        use Region::*;
        let pop = |state: &mut AbsState| state.stack.pop();
        match op {
            // Constants and every guest allocation site are Local.
            Op::ConstNull | Op::ConstInt(_) | Op::ConstFloat(_) => state.stack.push(Local),
            Op::ConstStr(_) => state.stack.push(Local),
            Op::Load(slot) => {
                let r = *state.locals.get(slot as usize)?;
                state.stack.push(r);
            }
            Op::Store(slot) => {
                let r = pop(state)?;
                *state.locals.get_mut(slot as usize)? = r;
            }
            Op::Pop => {
                pop(state)?;
            }
            Op::Dup => {
                let r = *state.stack.last()?;
                state.stack.push(r);
            }
            Op::Swap => {
                let n = state.stack.len();
                if n < 2 {
                    return None;
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
            | Op::Xor
            | Op::FAdd
            | Op::FSub
            | Op::FMul
            | Op::FDiv
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
            | Op::StrEq
            | Op::StrCharAt => {
                pop(state)?;
                pop(state)?;
                state.stack.push(Local);
            }
            Op::Neg | Op::FNeg | Op::I2F | Op::F2I | Op::StrLen | Op::ParseInt | Op::ArrayLen => {
                pop(state)?;
                state.stack.push(Local);
            }
            Op::StrConcat => {
                pop(state)?;
                pop(state)?;
                state.stack.push(Local);
            }
            Op::Intern | Op::ToStr => {
                pop(state)?;
                state.stack.push(Local);
            }
            Op::Substr => {
                pop(state)?;
                pop(state)?;
                pop(state)?;
                state.stack.push(Local);
            }
            Op::Jump(t) => return Some(Flow::JumpTo(t)),
            Op::JumpIfTrue(t) | Op::JumpIfFalse(t) => {
                pop(state)?;
                return Some(Flow::BranchTo(t));
            }
            Op::Return => return Some(Flow::Stop),
            Op::ReturnVal => {
                let r = pop(state)?;
                table.methods.get(midx.0 as usize)?;
                if table.decl(midx).ret.as_ref().is_some_and(TypeDesc::is_reference) {
                    self.join_summary(midx, r);
                }
                return Some(Flow::Stop);
            }
            Op::New(_) | Op::NewArray(_) => {
                if matches!(op, Op::NewArray(_)) {
                    pop(state)?; // length
                }
                state.stack.push(Local);
            }
            Op::GetField(idx) => {
                let RConst::InstanceField { class, slot, ty } = rpool.get(idx as usize)? else {
                    return None;
                };
                pop(state)?; // receiver
                let r = if ty.is_reference() {
                    let key = (declaring_class(table, *class, *slot)?.0, *slot);
                    self.fields.get(&key).copied().unwrap_or(Local)
                } else {
                    Local
                };
                state.stack.push(r);
            }
            Op::PutField(idx) => {
                let RConst::InstanceField { class, slot, ty } = rpool.get(idx as usize)? else {
                    return None;
                };
                let val = pop(state)?;
                pop(state)?; // receiver (site verdicts read it from the pre-state)
                if ty.is_reference() {
                    let key = (declaring_class(table, *class, *slot)?.0, *slot);
                    self.join_field(key, val);
                }
            }
            Op::GetStatic(idx) => {
                let RConst::StaticField { class, slot, ty } = rpool.get(idx as usize)? else {
                    return None;
                };
                let r = if ty.is_reference() {
                    self.statics.get(&(class.0, *slot)).copied().unwrap_or(Local)
                } else {
                    Local
                };
                state.stack.push(r);
            }
            Op::PutStatic(idx) => {
                let RConst::StaticField { class, slot, ty } = rpool.get(idx as usize)? else {
                    return None;
                };
                let val = pop(state)?;
                if ty.is_reference() {
                    let key = (class.0, *slot);
                    let cur = self.statics.get(&key).copied().unwrap_or(Local);
                    let next = cur.join(val);
                    if next != cur {
                        self.statics.insert(key, next);
                        self.changed = true;
                    }
                }
            }
            Op::NullCheck | Op::MonitorEnter | Op::MonitorExit => {
                pop(state)?;
            }
            Op::InstanceOf(_) => {
                pop(state)?;
                state.stack.push(Local);
            }
            Op::CheckCast(_) => {
                // A cast returns the same object: the region flows through.
                let r = pop(state)?;
                state.stack.push(r);
            }
            Op::ALoad => {
                pop(state)?; // index
                pop(state)?; // array
                state.stack.push(self.array_elems.unwrap_or(Local));
            }
            Op::AStore => {
                let val = pop(state)?;
                pop(state)?; // index
                pop(state)?; // array (site verdicts read it from the pre-state)
                // Element type is not tracked; joining primitive stores in
                // is harmless (their regions are never consulted).
                let next = self.array_elems.unwrap_or(Local).join(val);
                if self.array_elems != Some(next) {
                    self.array_elems = Some(next);
                    self.changed = true;
                }
            }
            Op::CallStatic(idx) => {
                let RConst::DirectMethod(target) = rpool.get(idx as usize)? else {
                    return None;
                };
                let target = *target;
                let m = table.methods.get(target.0 as usize)?;
                let (nargs, ret) = (m.arg_slots(), table.decl(target).ret.clone());
                for _ in 0..nargs {
                    pop(state)?;
                }
                if let Some(ret) = ret {
                    state.stack.push(self.call_region(&ret, Some(target)));
                }
            }
            Op::CallSpecial(idx) => {
                // `CallSpecial` dispatches through the *static* class's own
                // vtable slot (constructor/`super` semantics): the target is
                // fixed at link time, so its summary applies.
                let RConst::VirtualMethod { class, vslot, nargs, .. } = rpool.get(idx as usize)?
                else {
                    return None;
                };
                let target = *table
                    .classes
                    .get(class.0 as usize)?
                    .vtable
                    .get(*vslot as usize)?;
                table.methods.get(target.0 as usize)?;
                let ret = table.decl(target).ret.clone();
                for _ in 0..*nargs {
                    pop(state)?;
                }
                if let Some(ret) = ret {
                    state.stack.push(self.call_region(&ret, Some(target)));
                }
            }
            Op::CallVirtual(idx) => {
                // Virtual dispatch sharpened by CHA: the result is the join
                // over every reachable override's summary, exact for the
                // loaded hierarchy. Only a bailed hierarchy walk falls back
                // to `Top`.
                let RConst::VirtualMethod { class, vslot, nargs, .. } = rpool.get(idx as usize)?
                else {
                    return None;
                };
                let target = *table
                    .classes
                    .get(class.0 as usize)?
                    .vtable
                    .get(*vslot as usize)?;
                let (class, vslot) = (*class, *vslot);
                table.methods.get(target.0 as usize)?;
                let ret = table.decl(target).ret.clone();
                for _ in 0..*nargs {
                    pop(state)?;
                }
                if let Some(ret) = ret {
                    let r = if ret.is_reference() {
                        self.virtual_result(table, class, vslot, &ret)
                    } else {
                        Local
                    };
                    state.stack.push(r);
                }
            }
            Op::Syscall(idx) => {
                let RConst::Intrinsic { id, .. } = rpool.get(idx as usize)? else {
                    return None;
                };
                let def = table.intrinsics().def(*id)?;
                let (name, nparams, ret) = (def.name.clone(), def.params.len(), def.ret.clone());
                for _ in 0..nparams {
                    pop(state)?;
                }
                if let Some(ret) = ret {
                    state.stack.push(intrinsic_region(&name, &ret));
                }
            }
            Op::Throw => {
                pop(state)?;
                return Some(Flow::Stop);
            }
        }
        Some(Flow::Fall)
    }

    /// Region pushed for a direct call's result.
    fn call_region(&self, ret: &TypeDesc, target: Option<MethodIdx>) -> Region {
        if !ret.is_reference() {
            return Region::Local;
        }
        match target.and_then(|t| self.summaries.get(t.0 as usize).copied().flatten()) {
            Some(r) => r,
            // No return observed yet: the callee never completes normally
            // (or the fixpoint has not reached it) — no value can flow, so
            // the optimistic bottom is sound and later passes refine it.
            None => Region::Local,
        }
    }

    // ---- class-hierarchy analysis ------------------------------------------

    /// Region of a `CallVirtual` reference result: the join over every
    /// CHA-reachable override's summary, `Top` when the walk bailed.
    fn virtual_result(
        &mut self,
        table: &ClassTable,
        class: ClassIdx,
        vslot: u16,
        ret: &TypeDesc,
    ) -> Region {
        let ts = self.cha_targets(table, class, vslot);
        if !ts.complete || ts.targets.is_empty() {
            return Region::Top;
        }
        let targets = ts.targets.clone();
        let mut r = Region::Local; // optimistic bottom, as for direct calls
        for t in targets {
            r = r.join(self.call_region(ret, Some(t)));
        }
        r
    }

    /// Reachable override targets for a `CallVirtual` through `(class,
    /// vslot)`: the vtable entries of every loaded class at-or-below
    /// `class`.
    fn cha_targets(&mut self, table: &ClassTable, class: ClassIdx, vslot: u16) -> &ChaTargets {
        self.cha.entry((class.0, vslot)).or_insert_with(|| {
            let mut targets = Vec::new();
            let mut complete = true;
            for lc in &table.classes {
                match bounded_is_subclass(table, lc.idx, class) {
                    Some(true) => {
                        if let Some(&t) = lc.vtable.get(vslot as usize) {
                            targets.push(t);
                        }
                    }
                    Some(false) => {}
                    // Mangled/cyclic superclass chain: give up on the whole
                    // site rather than risk an unsound target set.
                    None => complete = false,
                }
            }
            targets.sort_unstable_by_key(|t| t.0);
            targets.dedup();
            ChaTargets { targets, complete }
        })
    }

    /// Counts reachable `CallVirtual` sites, monomorphic and polymorphic.
    fn collect_virtual_sites(
        &mut self,
        table: &ClassTable,
        midx: MethodIdx,
        states: &[Option<AbsState>],
    ) {
        let Some(m) = table.methods.get(midx.0 as usize) else {
            return;
        };
        let Some(class) = table.classes.get(m.class.0 as usize) else {
            return;
        };
        for (pc, op) in table.decl(midx).code.ops.iter().enumerate() {
            let Op::CallVirtual(idx) = *op else { continue };
            if state_at(states, pc as u32).is_none() {
                continue; // unreachable: never dispatched
            }
            let Some(RConst::VirtualMethod { class: sclass, vslot, .. }) =
                class.rpool.get(idx as usize)
            else {
                continue;
            };
            let ts = self.cha_targets(table, *sclass, *vslot);
            if ts.complete && ts.targets.len() == 1 {
                self.virt_sites.0 += 1;
            } else {
                self.virt_sites.1 += 1;
            }
        }
    }

    fn join_summary(&mut self, midx: MethodIdx, r: Region) {
        let slot = &mut self.summaries[midx.0 as usize];
        let next = match *slot {
            Some(cur) => cur.join(r),
            None => r,
        };
        if *slot != Some(next) {
            *slot = Some(next);
            self.changed = true;
        }
    }

    fn join_field(&mut self, key: (u32, u16), r: Region) {
        let cur = self.fields.get(&key).copied().unwrap_or(Region::Local);
        let next = cur.join(r);
        if next != cur {
            self.fields.insert(key, next);
            self.changed = true;
        }
    }

    // ---- collection --------------------------------------------------------

    /// Derives store-site verdicts, unreachable-code and loop lints for
    /// one method from its fixpoint states.
    fn collect_method(
        &mut self,
        table: &ClassTable,
        midx: MethodIdx,
        states: &[Option<AbsState>],
    ) {
        let Some(m) = table.methods.get(midx.0 as usize) else {
            return;
        };
        let decl = table.decl(midx);
        let code = &decl.code;
        let class_name = table
            .classes
            .get(m.class.0 as usize)
            .map(|c| c.name().to_string())
            .unwrap_or_default();

        let lint = |kind: LintKind, pc: u32, msg: String| Lint {
            kind,
            class: class_name.clone(),
            method: decl.name.clone(),
            pc,
            line: code.line_for(pc),
            msg,
        };

        // Store sites: classify from the state *before* each store op.
        for (pc, op) in code.ops.iter().enumerate() {
            let pc32 = pc as u32;
            let Some(state) = state_at(states, pc32) else {
                continue;
            };
            let site = match *op {
                Op::PutField(idx) => {
                    let Some(RConst::InstanceField { ty, .. }) = table
                        .classes
                        .get(m.class.0 as usize)
                        .and_then(|c| c.rpool.get(idx as usize))
                    else {
                        continue;
                    };
                    if !ty.is_reference() {
                        continue;
                    }
                    // Stack: [... recv val]
                    let n = state.stack.len();
                    if n < 2 {
                        continue;
                    }
                    Some((state.stack[n - 2], state.stack[n - 1]))
                }
                Op::PutStatic(idx) => {
                    let Some(RConst::StaticField { ty, .. }) = table
                        .classes
                        .get(m.class.0 as usize)
                        .and_then(|c| c.rpool.get(idx as usize))
                    else {
                        continue;
                    };
                    if !ty.is_reference() {
                        continue;
                    }
                    let n = state.stack.len();
                    if n < 1 {
                        continue;
                    }
                    Some((Region::Local, state.stack[n - 1]))
                }
                Op::AStore => {
                    // Stack: [... arr idx val]. Element type is unknown
                    // statically; a primitive-element store is classified
                    // too, harmlessly: a prim store takes no barrier, so a
                    // Local/Local verdict there claims nothing.
                    let n = state.stack.len();
                    if n < 3 {
                        continue;
                    }
                    Some((state.stack[n - 3], state.stack[n - 1]))
                }
                _ => None,
            };
            if let Some((recv, val)) = site {
                let verdict = classify(recv, val);
                self.sites.insert(
                    (midx.0, pc32),
                    StoreSite {
                        method: midx,
                        pc: pc32,
                        recv,
                        val,
                        verdict,
                    },
                );
                match verdict {
                    Verdict::FrozenWrite => self.lints.push(lint(
                        LintKind::WriteAfterFreeze,
                        pc32,
                        format!(
                            "reference store into frozen shared object ({} <- {})",
                            recv.label(),
                            val.label()
                        ),
                    )),
                    Verdict::Unknown
                        if recv == Region::Top
                            || (recv == Region::MayCross && val == Region::SharedFrozen) =>
                    {
                        self.lints.push(lint(
                            LintKind::SegViolationCandidate,
                            pc32,
                            format!(
                                "store cannot be proven legal ({} <- {})",
                                recv.label(),
                                val.label()
                            ),
                        ));
                    }
                    _ => {}
                }
            }
        }

        // Unreachable code: reachable-state gaps. The compiler's implicit
        // trailing Return on void methods is exempt (it is dead exactly
        // when every path already returned or loops forever).
        let mut run_start: Option<u32> = None;
        for pc in 0..code.ops.len() as u32 {
            let implicit_tail = pc as usize == code.ops.len() - 1
                && matches!(code.ops[pc as usize], Op::Return);
            let dead = state_at(states, pc).is_none() && !implicit_tail;
            match (dead, run_start) {
                (true, None) => run_start = Some(pc),
                (false, Some(start)) => {
                    self.lints.push(lint(
                        LintKind::UnreachableCode,
                        start,
                        format!("instructions {start}..{pc} are unreachable"),
                    ));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(start) = run_start {
            let end = code.ops.len() as u32;
            self.lints.push(lint(
                LintKind::UnreachableCode,
                start,
                format!("instructions {start}..{end} are unreachable"),
            ));
        }

        // Allocation-in-loop: a reachable back edge whose body allocates
        // but never calls out (no call, no syscall — so no foreign safe
        // points and no kernel interaction while the memlimit drains).
        let mut flagged: Option<u32> = None;
        for (pc, op) in code.ops.iter().enumerate() {
            let target = match *op {
                Op::Jump(t) | Op::JumpIfTrue(t) | Op::JumpIfFalse(t) => t,
                _ => continue,
            };
            if target as usize > pc || state_at(states, pc as u32).is_none() {
                continue;
            }
            let body = &code.ops[target as usize..=pc];
            let allocates = body
                .iter()
                .position(|o| matches!(o, Op::New(_) | Op::NewArray(_)));
            let calls_out = body.iter().any(|o| {
                matches!(
                    o,
                    Op::CallStatic(_) | Op::CallVirtual(_) | Op::CallSpecial(_) | Op::Syscall(_)
                )
            });
            if let (Some(at), false) = (allocates, calls_out) {
                let alloc_pc = target + at as u32;
                if flagged != Some(alloc_pc) {
                    flagged = Some(alloc_pc);
                    self.lints.push(lint(
                        LintKind::AllocInLoopNoSafepoint,
                        alloc_pc,
                        format!("loop {}..{} allocates but never calls out", target, pc),
                    ));
                }
            }
        }
    }

    // ---- escape pass -------------------------------------------------------

    /// Intra-method escape analysis: classifies every allocation site and
    /// records lock-order edges / syscall-under-lock lints. A method whose
    /// bytecode cannot be followed simply contributes no facts (the region
    /// pass has already decided bail status).
    fn escape_method(&mut self, table: &ClassTable, midx: MethodIdx) {
        #[cfg(test)]
        {
            self.counts.2 += 1;
        }
        let Some(m) = table.methods.get(midx.0 as usize) else {
            return;
        };
        let code = &table.decl(midx).code;
        let interesting = code.ops.iter().any(|o| {
            matches!(
                o,
                Op::New(_) | Op::NewArray(_) | Op::MonitorEnter | Op::MonitorExit
            )
        });
        if !interesting {
            return;
        }
        let Some(class) = table.classes.get(m.class.0 as usize) else {
            return;
        };

        // Allocation sites, in pc order. Each gets a lock/heapprof identity:
        // the allocated class name (arrays share one bucket).
        let mut site_pc: Vec<u32> = Vec::new();
        let mut site_name: Vec<String> = Vec::new();
        for (pc, op) in code.ops.iter().enumerate() {
            match *op {
                Op::New(idx) => {
                    let name = match class.rpool.get(idx as usize) {
                        Some(RConst::Class(c)) => table
                            .classes
                            .get(c.0 as usize)
                            .map(|lc| lc.name().to_string())
                            .unwrap_or_else(|| "?".to_string()),
                        _ => "?".to_string(),
                    };
                    site_pc.push(pc as u32);
                    site_name.push(name);
                }
                Op::NewArray(_) => {
                    site_pc.push(pc as u32);
                    site_name.push("array".to_string());
                }
                _ => {}
            }
        }
        let mut esc = vec![EscapeClass::FrameLocal; site_pc.len()];
        let Some(states) = self.escape_fixpoint(table, midx, &site_pc, &site_name, &mut esc)
        else {
            return;
        };
        self.escape_collect(table, midx, &site_pc, &site_name, &mut esc, &states);
    }

    /// Worklist fixpoint for the escape domain. Returns the per-pc states,
    /// `None` when the bytecode cannot be followed. Merge losses escalate
    /// the dropped site to `MayCross` via `esc` as they happen.
    #[allow(clippy::too_many_lines)]
    fn escape_fixpoint(
        &mut self,
        table: &ClassTable,
        midx: MethodIdx,
        site_pc: &[u32],
        site_name: &[String],
        esc: &mut [EscapeClass],
    ) -> Option<States<EscState>> {
        let m = table.methods.get(midx.0 as usize)?;
        let code = &table.decl(midx).code;
        let rpool = &table.classes.get(m.class.0 as usize)?.rpool;
        let site_of = |pc: u32| site_pc.binary_search(&pc).ok().map(|i| i as u16);

        let mut states = vec![None; code.ops.len() + 1];
        let mut worklist: Vec<u32> = Vec::new();
        // One scratch state for every visit, plus one for handler entries.
        let mut state = EscState {
            locals: vec![None; code.max_locals as usize],
            stack: Vec::new(),
            held: Vec::new(),
        };
        let mut handler = EscState::default();
        esc_merge_into(&mut states, &mut worklist, 0, &state, esc)?;

        while let Some(pc) = worklist.pop() {
            state.copy_from(state_at(&states, pc)?);
            let Some(&op) = code.ops.get(pc as usize) else {
                continue;
            };
            for h in code.handlers.iter() {
                if pc >= h.start && pc < h.end && may_throw(&op) {
                    handler.enter_handler(&state);
                    esc_merge_into(&mut states, &mut worklist, h.target, &handler, esc)?;
                }
            }
            let pop = |state: &mut EscState| state.stack.pop();
            let mut flow = Flow::Fall;
            match op {
                Op::ConstNull | Op::ConstInt(_) | Op::ConstFloat(_) | Op::ConstStr(_) => {
                    state.stack.push(None)
                }
                Op::Load(slot) => {
                    let v = *state.locals.get(slot as usize)?;
                    state.stack.push(v);
                }
                Op::Store(slot) => {
                    let v = pop(&mut state)?;
                    *state.locals.get_mut(slot as usize)? = v;
                }
                Op::Pop => {
                    pop(&mut state)?;
                }
                Op::Dup => {
                    let v = *state.stack.last()?;
                    state.stack.push(v);
                }
                Op::Swap => {
                    let n = state.stack.len();
                    if n < 2 {
                        return None;
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
                | Op::Xor
                | Op::FAdd
                | Op::FSub
                | Op::FMul
                | Op::FDiv
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
                | Op::StrEq
                | Op::StrCharAt
                | Op::StrConcat
                | Op::ALoad => {
                    pop(&mut state)?;
                    pop(&mut state)?;
                    state.stack.push(None);
                }
                Op::Neg
                | Op::FNeg
                | Op::I2F
                | Op::F2I
                | Op::StrLen
                | Op::ParseInt
                | Op::ArrayLen
                | Op::Intern
                | Op::ToStr
                | Op::GetField(_)
                | Op::InstanceOf(_) => {
                    pop(&mut state)?;
                    state.stack.push(None);
                }
                Op::Substr => {
                    pop(&mut state)?;
                    pop(&mut state)?;
                    pop(&mut state)?;
                    state.stack.push(None);
                }
                Op::Jump(t) => flow = Flow::JumpTo(t),
                Op::JumpIfTrue(t) | Op::JumpIfFalse(t) => {
                    pop(&mut state)?;
                    flow = Flow::BranchTo(t);
                }
                Op::Return => flow = Flow::Stop,
                Op::ReturnVal => {
                    if let Some(s) = pop(&mut state)? {
                        esc[s as usize] = esc[s as usize].max(EscapeClass::MayCross);
                    }
                    flow = Flow::Stop;
                }
                Op::New(_) | Op::NewArray(_) => {
                    if matches!(op, Op::NewArray(_)) {
                        pop(&mut state)?;
                    }
                    state.stack.push(Some(site_of(pc)?));
                }
                Op::PutField(idx) => {
                    let RConst::InstanceField { .. } = rpool.get(idx as usize)? else {
                        return None;
                    };
                    let val = pop(&mut state)?;
                    pop(&mut state)?; // receiver (read from final states later)
                    if let Some(s) = val {
                        // Classified precisely in the collection walk; the
                        // fixpoint only needs the conservative floor.
                        esc[s as usize] = esc[s as usize].max(EscapeClass::ProcessLocal);
                    }
                }
                Op::GetStatic(_) => state.stack.push(None),
                Op::PutStatic(idx) => {
                    let RConst::StaticField { .. } = rpool.get(idx as usize)? else {
                        return None;
                    };
                    if let Some(s) = pop(&mut state)? {
                        esc[s as usize] = esc[s as usize].max(EscapeClass::ProcessLocal);
                    }
                }
                Op::NullCheck => {
                    pop(&mut state)?;
                }
                Op::MonitorEnter => {
                    let id = self.lock_identity(pop(&mut state)?, site_name);
                    if let Err(at) = state.held.binary_search(&id) {
                        state.held.insert(at, id);
                    }
                }
                Op::MonitorExit => {
                    let id = self.lock_identity(pop(&mut state)?, site_name);
                    if let Ok(at) = state.held.binary_search(&id) {
                        state.held.remove(at);
                    }
                }
                Op::CheckCast(_) => {
                    let v = pop(&mut state)?;
                    state.stack.push(v);
                }
                Op::AStore => {
                    let val = pop(&mut state)?;
                    pop(&mut state)?; // index
                    pop(&mut state)?; // array (read from final states later)
                    if let Some(s) = val {
                        esc[s as usize] = esc[s as usize].max(EscapeClass::ProcessLocal);
                    }
                }
                Op::CallStatic(idx) => {
                    let RConst::DirectMethod(target) = rpool.get(idx as usize)? else {
                        return None;
                    };
                    let tm = table.methods.get(target.0 as usize)?;
                    let (nargs, ret) = (tm.arg_slots(), table.decl(*target).ret.is_some());
                    for _ in 0..nargs {
                        if let Some(s) = pop(&mut state)? {
                            esc[s as usize] = esc[s as usize].max(EscapeClass::MayCross);
                        }
                    }
                    if ret {
                        state.stack.push(None);
                    }
                }
                Op::CallSpecial(idx) | Op::CallVirtual(idx) => {
                    let RConst::VirtualMethod { class, vslot, nargs, .. } =
                        rpool.get(idx as usize)?
                    else {
                        return None;
                    };
                    let target = *table
                        .classes
                        .get(class.0 as usize)?
                        .vtable
                        .get(*vslot as usize)?;
                    table.methods.get(target.0 as usize)?;
                    let ret = table.decl(target).ret.is_some();
                    for _ in 0..*nargs {
                        if let Some(s) = pop(&mut state)? {
                            esc[s as usize] = esc[s as usize].max(EscapeClass::MayCross);
                        }
                    }
                    if ret {
                        state.stack.push(None);
                    }
                }
                Op::Syscall(idx) => {
                    let RConst::Intrinsic { id, .. } = rpool.get(idx as usize)? else {
                        return None;
                    };
                    let def = table.intrinsics().def(*id)?;
                    let (nparams, ret) = (def.params.len(), def.ret.is_some());
                    for _ in 0..nparams {
                        if let Some(s) = pop(&mut state)? {
                            esc[s as usize] = esc[s as usize].max(EscapeClass::MayCross);
                        }
                    }
                    if ret {
                        state.stack.push(None);
                    }
                }
                Op::Throw => {
                    if let Some(s) = pop(&mut state)? {
                        esc[s as usize] = esc[s as usize].max(EscapeClass::MayCross);
                    }
                    flow = Flow::Stop;
                }
            }
            match flow {
                Flow::Fall => esc_merge_into(&mut states, &mut worklist, pc + 1, &state, esc)?,
                Flow::JumpTo(t) => esc_merge_into(&mut states, &mut worklist, t, &state, esc)?,
                Flow::BranchTo(t) => {
                    esc_merge_into(&mut states, &mut worklist, t, &state, esc)?;
                    esc_merge_into(&mut states, &mut worklist, pc + 1, &state, esc)?;
                }
                Flow::Stop => {}
            }
        }
        Some(states)
    }

    /// Interned lock identity for a monitor receiver: the allocation-site
    /// class name when the receiver is a tracked fresh object, `"?"`
    /// otherwise.
    fn lock_identity(&mut self, recv: Option<u16>, site_name: &[String]) -> u16 {
        let name = match recv {
            Some(s) => site_name.get(s as usize).map_or("?", String::as_str),
            None => "?",
        };
        // The borrow of `site_name` ends before the intern-table update.
        let name = name.to_string();
        self.intern_lock_name(&name)
    }

    /// Walks the ops once against the final fixpoint states: derives the
    /// per-site escape verdicts, the lock-order edges, and the
    /// syscall-under-lock lints.
    fn escape_collect(
        &mut self,
        table: &ClassTable,
        midx: MethodIdx,
        site_pc: &[u32],
        site_name: &[String],
        esc: &mut [EscapeClass],
        states: &[Option<EscState>],
    ) {
        let Some(m) = table.methods.get(midx.0 as usize) else {
            return;
        };
        let Some(class) = table.classes.get(m.class.0 as usize) else {
            return;
        };
        let decl = table.decl(midx);
        let code = &decl.code;
        let (class_name, method_name) = (class.name().to_string(), decl.name.clone());

        // Escalate per-site verdicts using the store-site regions the region
        // pass derived.
        let mut lock_lints: Vec<(u32, String)> = Vec::new();
        for (pc, op) in code.ops.iter().enumerate() {
            let pc32 = pc as u32;
            let Some(state) = state_at(states, pc32) else {
                continue;
            };
            let n = state.stack.len();
            match *op {
                Op::MonitorEnter => {
                    let recv = n.checked_sub(1).and_then(|i| state.stack[i]);
                    // Lock-order edges from every already-held identity to
                    // the one being acquired (self-edges excluded: monitors
                    // are re-entrant, so same-class nesting is routine).
                    let entering = match recv {
                        Some(s) => site_name.get(s as usize).map_or("?", String::as_str),
                        None => "?",
                    };
                    let entering = self.intern_lock_name(entering);
                    for &h in &state.held {
                        if h != entering {
                            self.lock_edges.push((h, entering, midx.0, pc32));
                        }
                    }
                }
                Op::PutField(_) | Op::AStore => {
                    if let Some(&Some(v)) = state.stack.last() {
                        self.escalate_store(esc, v, midx, pc32);
                    }
                }
                Op::Syscall(idx) if !state.held.is_empty() => {
                    let name = match class.rpool.get(idx as usize) {
                        Some(RConst::Intrinsic { id, .. }) => table
                            .intrinsics()
                            .def(*id)
                            .map(|d| d.name.clone())
                            .unwrap_or_else(|| "?".to_string()),
                        _ => "?".to_string(),
                    };
                    let held: Vec<&str> = state
                        .held
                        .iter()
                        .map(|&h| self.lock_names.get(h as usize).map_or("?", String::as_str))
                        .collect();
                    lock_lints.push((
                        pc32,
                        format!("syscall {name} while holding [{}]", held.join(", ")),
                    ));
                }
                _ => {}
            }
        }

        for (i, &pc) in site_pc.iter().enumerate() {
            if state_at(states, pc).is_some() {
                self.alloc_escape.insert((midx.0, pc), esc[i]);
            }
        }
        for (pc, msg) in lock_lints {
            self.lints.push(Lint {
                kind: LintKind::LockHeldAcrossSyscall,
                class: class_name.clone(),
                method: method_name.clone(),
                pc,
                line: code.line_for(pc),
                msg,
            });
        }
    }

    /// Interns a lock identity by name (collection-walk variant of
    /// [`Analysis::lock_identity`]).
    fn intern_lock_name(&mut self, name: &str) -> u16 {
        match self.lock_names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.lock_names.push(name.to_string());
                (self.lock_names.len() - 1) as u16
            }
        }
    }

    /// Escalates a fresh site stored at `(midx, pc)`: stores into a
    /// proven-own-heap receiver keep the object process-local; anything
    /// else may cross.
    fn escalate_store(&mut self, esc: &mut [EscapeClass], s: u16, midx: MethodIdx, pc: u32) {
        let to = match self.sites.get(&(midx.0, pc)).map(|site| site.recv) {
            Some(Region::Local) => EscapeClass::ProcessLocal,
            _ => EscapeClass::MayCross,
        };
        esc[s as usize] = esc[s as usize].max(to);
    }

    /// Emits `deadlock-candidate` lints: one per lock-order edge that
    /// participates in a cycle of the global (cross-method) graph.
    fn deadlock_lints(&mut self, table: &ClassTable) {
        if self.lock_edges.is_empty() {
            return;
        }
        let n = self.lock_names.len();
        let mut adj = vec![Vec::new(); n];
        for &(from, to, _, _) in &self.lock_edges {
            if !adj[from as usize].contains(&to) {
                adj[from as usize].push(to);
            }
        }
        let reaches = |from: u16, to: u16| -> bool {
            let mut seen = vec![false; n];
            let mut stack = vec![from];
            while let Some(v) = stack.pop() {
                if v == to {
                    return true;
                }
                if std::mem::replace(&mut seen[v as usize], true) {
                    continue;
                }
                stack.extend(adj[v as usize].iter().copied());
            }
            false
        };
        let edges = self.lock_edges.clone();
        for (from, to, mid, pc) in edges {
            if !reaches(to, from) {
                continue;
            }
            let Some(m) = table.methods.get(mid as usize) else {
                continue;
            };
            let decl = table.decl(MethodIdx(mid));
            let class_name = table
                .classes
                .get(m.class.0 as usize)
                .map(|c| c.name().to_string())
                .unwrap_or_default();
            let (a, b) = (
                self.lock_names.get(from as usize).map_or("?", String::as_str),
                self.lock_names.get(to as usize).map_or("?", String::as_str),
            );
            self.lints.push(Lint {
                kind: LintKind::DeadlockCandidate,
                class: class_name,
                method: decl.name.clone(),
                pc,
                line: decl.code.line_for(pc),
                msg: format!("lock-order cycle: {a} -> {b}"),
            });
        }
    }
}

/// Figure-2 verdict for a reference store given operand regions.
fn classify(recv: Region, val: Region) -> Verdict {
    use Region::*;
    match (recv, val) {
        (SharedFrozen, _) => Verdict::FrozenWrite,
        (Local, Local) => Verdict::Elide,
        // Own-heap receiver, definitely-shared value: a legal user→shared
        // edge — but it needs its entry/exit items, so the barrier runs.
        (Local, SharedFrozen | KernelConst) => Verdict::LegalCross,
        _ => Verdict::Unknown,
    }
}

/// Region of an intrinsic's reference result.
fn intrinsic_region(name: &str, ret: &TypeDesc) -> Region {
    if !ret.is_reference() {
        return Region::Local;
    }
    match name {
        // `shm.get` hands out objects on a frozen shared heap.
        "shm.get" => Region::SharedFrozen,
        // procfs replies are strings materialised on the *caller's* heap.
        "proc.status" | "proc.meminfo" | "proc.profile" => Region::Local,
        _ => Region::MayCross,
    }
}

/// `a` is `b` or a subclass of `b` — with the superclass walk bounded by
/// the table size, so a mangled/cyclic hierarchy yields `None` (the CHA
/// pass then treats the site as fully polymorphic) instead of looping.
fn bounded_is_subclass(table: &ClassTable, a: ClassIdx, b: ClassIdx) -> Option<bool> {
    let mut cursor = Some(a);
    for _ in 0..=table.classes.len() {
        match cursor {
            None => return Some(false),
            Some(c) if c == b => return Some(true),
            Some(c) => cursor = table.classes.get(c.0 as usize)?.super_idx,
        }
    }
    None
}

/// Walks up the superclass chain to the class that declared `slot`, so
/// stores through a subclass receiver and reads through the superclass
/// share one field summary.
fn declaring_class(table: &ClassTable, mut c: ClassIdx, slot: u16) -> Option<ClassIdx> {
    // Bounded like `bounded_is_subclass`: a cyclic chain bails the method
    // rather than spinning.
    for _ in 0..=table.classes.len() {
        let lc = table.classes.get(c.0 as usize)?;
        let Some(s) = lc.super_idx else {
            return Some(c);
        };
        if (slot as usize) >= table.classes.get(s.0 as usize)?.link.instance_fields.len() {
            return Some(c);
        }
        c = s;
    }
    None
}

/// Joins `state` into the recorded state at `pc` in place, queueing `pc`
/// when the state is new or widened; only a new state is cloned. Returns
/// `None` on out-of-range targets (past the fall-off-the-end slot) or
/// merge-shape mismatches (ill-formed input — the method is abandoned).
fn merge_into(
    states: &mut [Option<AbsState>],
    worklist: &mut Vec<u32>,
    pc: u32,
    state: &AbsState,
) -> Option<()> {
    let slot = states.get_mut(pc as usize)?;
    match slot {
        None => {
            *slot = Some(state.clone());
            worklist.push(pc);
        }
        Some(existing) => {
            if existing.stack.len() != state.stack.len()
                || existing.locals.len() != state.locals.len()
            {
                return None;
            }
            let mut changed = false;
            for (a, b) in existing.locals.iter_mut().zip(&state.locals) {
                let j = a.join(*b);
                if *a != j {
                    *a = j;
                    changed = true;
                }
            }
            for (a, b) in existing.stack.iter_mut().zip(&state.stack) {
                let j = a.join(*b);
                if *a != j {
                    *a = j;
                    changed = true;
                }
            }
            if changed {
                worklist.push(pc);
            }
        }
    }
    Some(())
}

/// Escape-domain counterpart of [`merge_into`]. When two paths disagree
/// on a slot the merged slot drops to `None`, but the site whose identity
/// was lost is *killed* (escalated to `MayCross`) only when some tracked
/// occurrence of it **survives the merge** in another slot both paths
/// agree on: that alias would let later ops reason about an object the
/// merge no longer tracks in full. When every occurrence dies in the same
/// merge (the classic loop-head merge of a fresh loop-body allocation
/// against the pre-loop `None`s), dropping them silently is sound: no
/// reference to the old iteration's object remains tracked, and the next
/// iteration's object starts its own fresh tracking. `held` (lock
/// identities, for the lock lints — deliberately over-approximate) unions.
fn esc_merge_into(
    states: &mut [Option<EscState>],
    worklist: &mut Vec<u32>,
    pc: u32,
    state: &EscState,
    esc: &mut [EscapeClass],
) -> Option<()> {
    let slot = states.get_mut(pc as usize)?;
    match slot {
        None => {
            *slot = Some(state.clone());
            worklist.push(pc);
        }
        Some(existing) => {
            if existing.stack.len() != state.stack.len()
                || existing.locals.len() != state.locals.len()
            {
                return None;
            }
            let mut changed = false;
            let mut lost: Vec<u16> = Vec::new();
            let slots = existing
                .locals
                .iter_mut()
                .zip(&state.locals)
                .chain(existing.stack.iter_mut().zip(&state.stack));
            for (a, b) in slots {
                if *a != *b {
                    lost.extend(a.iter().chain(b.iter()));
                    if a.is_some() {
                        changed = true;
                    }
                    *a = None;
                }
            }
            // A lost site with a surviving tracked occurrence is killed;
            // one whose every occurrence died here is silently forgotten.
            for s in lost {
                if existing.locals.iter().chain(&existing.stack).any(|x| *x == Some(s)) {
                    esc[s as usize] = esc[s as usize].max(EscapeClass::MayCross);
                }
            }
            for &h in &state.held {
                if let Err(at) = existing.held.binary_search(&h) {
                    existing.held.insert(at, h);
                    changed = true;
                }
            }
            if changed {
                worklist.push(pc);
            }
        }
    }
    Some(())
}

enum Flow {
    Fall,
    JumpTo(u32),
    BranchTo(u32),
    Stop,
}

#[cfg(test)]
mod tests;
