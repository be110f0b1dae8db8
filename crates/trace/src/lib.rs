//! Deterministic structured event tracing for KaffeOS.
//!
//! The kernel's whole value proposition is *precise, attributable* resource
//! accounting (§3.2 of the paper: every allocation charged, GC time billed
//! to the heap's owner), but aggregates alone cannot show *when* a process
//! was charged, throttled, or killed. This crate is the observability plane:
//! a bounded, heap-untracked ring buffer of typed [`Event`]s stamped with
//! the virtual clock, emitted at every kernel edge — spawn/exit/kill/defer,
//! quantum and syscall boundaries, memlimit charge/credit, GC phases,
//! write-barrier violations, entry/exit-item churn, shared-heap lifecycle,
//! and fault-plan injections.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** Timestamps come from the virtual clock and every
//!   emission point is reached deterministically, so the same workload and
//!   fault seed produce a *byte-identical* trace — which turns the trace
//!   itself into a golden-file regression instrument.
//! * **Zero overhead when disabled.** Tracing is one [`Plane`] of the
//!   [`Obs`] handle: a disabled plane is a `None`, and [`Plane::with`]
//!   takes a closure so payloads (and their string allocations) are never
//!   even constructed. No emission point touches the cycle model, so the
//!   virtual clock is bit-identical with tracing on, off, or compiled away.
//!
//! The buffer lives in host memory outside the traced heap space: recording
//! an event never charges a memlimit, never allocates a heap object, and
//! never perturbs GC.
//!
//! Exporters: [`export_jsonl`] (one JSON object per line, the golden-trace
//! format) and [`export_chrome`] (Chrome `trace_event` JSON, loadable in
//! `chrome://tracing` / Perfetto). [`MetricsSnapshot`] offers the same
//! information as per-process counters, maintained incrementally so it
//! stays exact even after the ring has dropped old events.

pub mod heapprof;
pub mod hist;
pub mod profile;

pub use heapprof::{CensusCounts, CensusSite, HeapProfStore, PageEvent};
pub use hist::LogHistogram;
pub use profile::{PidTotals, ProfileStore, SampleKind};

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

/// Nanoseconds per modelled cycle at the paper machine's 500 MHz clock.
pub const NS_PER_CYCLE: u64 = 2;

/// Default ring capacity (events retained) when tracing is enabled.
pub const DEFAULT_CAPACITY: usize = 65_536;

// ---------------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------------

/// How a process ended, as recorded in an [`Payload::Exit`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// `main` returned (or `proc.exit` was called).
    Exited,
    /// Killed by `kill` / the termination sweep.
    Killed,
    /// Killed for exceeding its CPU budget.
    CpuLimitExceeded,
    /// Died of an uncaught guest exception.
    UncaughtException,
}

impl ExitKind {
    /// Stable lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            ExitKind::Exited => "exited",
            ExitKind::Killed => "killed",
            ExitKind::CpuLimitExceeded => "cpu_limit",
            ExitKind::UncaughtException => "uncaught",
        }
    }
}

/// Which fault-plan mechanism fired, for [`Payload::FaultInjected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// The armed allocation fault failed an allocation attempt.
    AllocOom,
    /// The termination sweep requested a kill of `victim`.
    KillSweep {
        /// Pid of the swept process.
        victim: u32,
    },
    /// The illegal cross-heap write probe fired.
    IllegalWrite,
    /// A forced collection at a safepoint (the GC storm).
    ForcedGc,
}

impl InjectionKind {
    /// Stable lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            InjectionKind::AllocOom => "alloc_oom",
            InjectionKind::KillSweep { .. } => "kill_sweep",
            InjectionKind::IllegalWrite => "illegal_write",
            InjectionKind::ForcedGc => "forced_gc",
        }
    }
}

/// Where the kernel degraded gracefully past an internal error. Replaces
/// the old stringly-typed `kernel_faults: Vec<String>` record so the
/// auditor and the trace share one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFaultKind {
    /// Process reaping (teardown bookkeeping).
    Reap,
    /// Crediting a shared-heap charge back failed.
    ShmCredit,
    /// Merging a dead heap into the kernel heap failed.
    HeapMerge,
    /// Removing a drained memlimit node failed.
    MemlimitRemove,
    /// Merging an orphaned shared heap failed.
    OrphanMerge,
    /// The kernel heap's own collection failed.
    KernelGc,
    /// Shared-heap creation bookkeeping failed mid-flight.
    ShmCreate,
    /// The termination sweep's kill request failed.
    Sweep,
    /// The illegal-write probe hit an unexpected (non-barrier) error.
    Probe,
    /// Scheduler dispatch saw a pid with no process-table row.
    Dispatch,
}

impl KernelFaultKind {
    /// Stable lower-case label used by the exporters and `Display`.
    pub fn label(self) -> &'static str {
        match self {
            KernelFaultKind::Reap => "reap",
            KernelFaultKind::ShmCredit => "shm_credit",
            KernelFaultKind::HeapMerge => "heap_merge",
            KernelFaultKind::MemlimitRemove => "memlimit_remove",
            KernelFaultKind::OrphanMerge => "orphan_merge",
            KernelFaultKind::KernelGc => "kernel_gc",
            KernelFaultKind::ShmCreate => "shm_create",
            KernelFaultKind::Sweep => "sweep",
            KernelFaultKind::Probe => "probe",
            KernelFaultKind::Dispatch => "dispatch",
        }
    }
}

impl std::fmt::Display for KernelFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One internal error the kernel degraded past instead of panicking. The
/// kernel keeps these in an always-on side record (the auditor depends on
/// them even with tracing off) *and* emits them as trace events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelFault {
    /// Where the degradation happened.
    pub kind: KernelFaultKind,
    /// Human-readable description.
    pub detail: String,
}

/// The typed payload of one trace event. Numeric ids are raw indices
/// (heap/memlimit slot indices, pids, thread ids) so this crate stays at
/// the bottom of the dependency stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A process was spawned.
    Spawn {
        /// Pid of the new process.
        pid: u32,
        /// Image name it was spawned from.
        image: String,
    },
    /// A process was reaped.
    Exit {
        /// How it ended.
        kind: ExitKind,
        /// Its `wait`-visible exit code.
        code: i64,
    },
    /// `kill` was requested for a live process.
    KillRequested {
        /// The process being killed.
        target: u32,
    },
    /// A kill could not complete because a thread sits inside the kernel
    /// (`kernel_depth > 0`); it dies when it leaves kernel mode.
    KillDeferred {
        /// The process being killed.
        target: u32,
        /// Thread id of the deferred thread.
        thread: u32,
    },
    /// A scheduler quantum started.
    QuantumStart {
        /// Thread id receiving the quantum.
        thread: u32,
    },
    /// A scheduler quantum ended.
    QuantumEnd {
        /// Thread id that ran.
        thread: u32,
        /// Cycles the quantum consumed (mutator + GC share).
        cycles: u64,
        /// Of those, cycles spent in allocation-triggered collections.
        gc_cycles: u64,
    },
    /// A thread crossed into the kernel.
    SyscallEnter {
        /// Syscall number.
        sysno: u16,
        /// Registry name, e.g. `proc.spawn`.
        name: &'static str,
    },
    /// The kernel finished servicing the syscall (for parking syscalls this
    /// marks the park, not the eventual resume).
    SyscallLeave {
        /// Syscall number.
        sysno: u16,
        /// Registry name.
        name: &'static str,
    },
    /// Bytes were debited from a memlimit node.
    Charge {
        /// Node slot index.
        node: u32,
        /// Node generation (slots are reused).
        node_gen: u32,
        /// Bytes debited.
        bytes: u64,
    },
    /// Bytes were credited back to a memlimit node.
    Credit {
        /// Node slot index.
        node: u32,
        /// Node generation.
        node_gen: u32,
        /// Bytes credited.
        bytes: u64,
    },
    /// A collection of one heap began.
    GcBegin {
        /// Heap slot index.
        heap: u32,
    },
    /// A collection finished.
    GcEnd {
        /// Heap slot index.
        heap: u32,
        /// Bytes swept.
        bytes_freed: u64,
        /// Objects swept.
        objects_freed: u64,
        /// Modelled cycles the collection cost.
        cycles: u64,
    },
    /// A heap was merged into the kernel heap (process death, orphaned
    /// shared heap).
    HeapMerged {
        /// Heap slot index of the dying heap.
        heap: u32,
        /// Bytes moved onto the kernel heap.
        bytes: u64,
        /// Objects moved.
        objects: u64,
    },
    /// The write barrier rejected a store.
    BarrierViolation {
        /// Stable label of the violation kind (e.g. `user-to-user`).
        kind: &'static str,
    },
    /// An entry item was created (a remote heap now references this slot).
    EntryItemCreated {
        /// Heap holding the entry item.
        heap: u32,
        /// Local slot index of the referenced object.
        slot: u32,
    },
    /// An entry item's count reached zero and it was destroyed.
    EntryItemDropped {
        /// Heap that held the entry item.
        heap: u32,
        /// Local slot index.
        slot: u32,
    },
    /// An exit item was created (this heap now references a remote slot).
    ExitItemCreated {
        /// Heap holding the exit item.
        heap: u32,
        /// Remote slot index of the target.
        target: u32,
    },
    /// An exit item was swept or destroyed.
    ExitItemDropped {
        /// Heap that held the exit item.
        heap: u32,
        /// Remote slot index.
        target: u32,
    },
    /// A shared heap was populated and frozen.
    ShmFrozen {
        /// Registry name.
        name: String,
        /// Frozen size — the amount charged to every sharer.
        bytes: u64,
    },
    /// A process attached to (was charged for) a shared heap.
    ShmAttached {
        /// Registry name.
        name: String,
    },
    /// A process' shared-heap charge was credited back.
    ShmDetached {
        /// Registry name.
        name: String,
    },
    /// An orphaned shared heap was merged away by the kernel collector.
    ShmOrphaned {
        /// Registry name.
        name: String,
    },
    /// An armed fault-plan mechanism fired.
    FaultInjected {
        /// Which mechanism.
        kind: InjectionKind,
    },
    /// The kernel degraded past an internal error.
    KernelFault {
        /// Where.
        kind: KernelFaultKind,
        /// Description.
        detail: String,
    },
    /// Admission control admitted a tenant spawn (a free slot existed).
    TenantAdmitted {
        /// Tenant id.
        tenant: u32,
        /// Pid of the admitted process.
        child: u32,
    },
    /// Admission control queued a tenant spawn (tenant at its cap, queue
    /// had room); the ticket resolves to a pid when a slot frees.
    TenantQueued {
        /// Tenant id.
        tenant: u32,
        /// FIFO admission ticket.
        ticket: u64,
    },
    /// Admission control rejected a tenant spawn outright.
    TenantRejected {
        /// Tenant id.
        tenant: u32,
        /// Stable reason label (`at_cap`, `breaker_open`, `shed`,
        /// `spawn_failed`).
        reason: &'static str,
    },
    /// The restart engine scheduled a supervised respawn with backoff.
    RestartScheduled {
        /// Tenant id.
        tenant: u32,
        /// 1-based consecutive-failure attempt (drives the backoff step).
        attempt: u32,
        /// Virtual cycle the restart becomes due.
        due: u64,
    },
    /// A scheduled restart launched.
    RestartLaunched {
        /// Tenant id.
        tenant: u32,
        /// Pid of the respawned process.
        child: u32,
        /// The attempt that was due.
        attempt: u32,
    },
    /// A tenant's kill-storm circuit breaker opened (failure count hit the
    /// threshold within the window).
    BreakerOpened {
        /// Tenant id.
        tenant: u32,
        /// Virtual cycle the cooldown ends.
        until: u64,
    },
    /// A tenant's circuit breaker cooldown elapsed and it closed.
    BreakerClosed {
        /// Tenant id.
        tenant: u32,
    },
    /// Graceful degradation shed a tenant (global memlimit pressure
    /// crossed the high watermark; lowest priority goes first).
    TenantShed {
        /// Tenant id.
        tenant: u32,
    },
    /// Pressure fell below the low watermark; a shed tenant was restored.
    TenantRestored {
        /// Tenant id.
        tenant: u32,
    },
}

impl Payload {
    /// Stable snake-case event name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            Payload::Spawn { .. } => "spawn",
            Payload::Exit { .. } => "exit",
            Payload::KillRequested { .. } => "kill_requested",
            Payload::KillDeferred { .. } => "kill_deferred",
            Payload::QuantumStart { .. } => "quantum_start",
            Payload::QuantumEnd { .. } => "quantum_end",
            Payload::SyscallEnter { .. } => "syscall_enter",
            Payload::SyscallLeave { .. } => "syscall_leave",
            Payload::Charge { .. } => "charge",
            Payload::Credit { .. } => "credit",
            Payload::GcBegin { .. } => "gc_begin",
            Payload::GcEnd { .. } => "gc_end",
            Payload::HeapMerged { .. } => "heap_merged",
            Payload::BarrierViolation { .. } => "barrier_violation",
            Payload::EntryItemCreated { .. } => "entry_item_created",
            Payload::EntryItemDropped { .. } => "entry_item_dropped",
            Payload::ExitItemCreated { .. } => "exit_item_created",
            Payload::ExitItemDropped { .. } => "exit_item_dropped",
            Payload::ShmFrozen { .. } => "shm_frozen",
            Payload::ShmAttached { .. } => "shm_attached",
            Payload::ShmDetached { .. } => "shm_detached",
            Payload::ShmOrphaned { .. } => "shm_orphaned",
            Payload::FaultInjected { .. } => "fault_injected",
            Payload::KernelFault { .. } => "kernel_fault",
            Payload::TenantAdmitted { .. } => "tenant_admitted",
            Payload::TenantQueued { .. } => "tenant_queued",
            Payload::TenantRejected { .. } => "tenant_rejected",
            Payload::RestartScheduled { .. } => "restart_scheduled",
            Payload::RestartLaunched { .. } => "restart_launched",
            Payload::BreakerOpened { .. } => "breaker_opened",
            Payload::BreakerClosed { .. } => "breaker_closed",
            Payload::TenantShed { .. } => "tenant_shed",
            Payload::TenantRestored { .. } => "tenant_restored",
        }
    }
}

/// One recorded event: a monotonic sequence number (so ring-buffer drops
/// are visible), the virtual-clock timestamp in cycles, the process the
/// kernel attributed the event to (0 = the kernel itself), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic emission index (not reset when the ring drops events).
    pub seq: u64,
    /// Virtual clock in cycles at the last kernel edge before emission.
    pub at: u64,
    /// Attributed process (0 = kernel).
    pub pid: u32,
    /// What happened.
    pub payload: Payload,
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Per-process counters derived from the event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessMetrics {
    /// Scheduler quanta received.
    pub quanta: u64,
    /// Cycles consumed across those quanta.
    pub cycles: u64,
    /// Of those quantum cycles, the share spent in allocation-triggered
    /// collections (mirrors the kernel's exec/GC CPU split).
    pub quantum_gc_cycles: u64,
    /// Syscalls entered.
    pub syscalls: u64,
    /// Collections attributed to this process.
    pub gc_runs: u64,
    /// Bytes those collections swept.
    pub gc_bytes_freed: u64,
    /// Cycles those collections cost.
    pub gc_cycles: u64,
    /// Memlimit debits attributed to this process.
    pub charges: u64,
    /// Bytes debited.
    pub bytes_charged: u64,
    /// Memlimit credits attributed to this process.
    pub credits: u64,
    /// Bytes credited back.
    pub bytes_credited: u64,
    /// Kill requests targeting this process.
    pub kills_requested: u64,
    /// Whether an exit event was recorded.
    pub exited: bool,
}

/// Aggregate counters maintained incrementally as events are recorded, so
/// they stay exact even after the bounded ring has dropped old events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Events recorded (including any since dropped from the ring).
    pub events_recorded: u64,
    /// Events dropped from the ring (capacity overflow).
    pub events_dropped: u64,
    /// Per-process counters, keyed by pid (0 = kernel).
    pub per_process: BTreeMap<u32, ProcessMetrics>,
    /// Net outstanding bytes per memlimit node, keyed by (slot index,
    /// generation): Σ charges − Σ credits at that node. At a quiescent op
    /// boundary this equals the node's `current` — the cross-check the
    /// metrics/audit reconciliation test locks down. Zeroed entries are
    /// removed, so a fully drained tree leaves the map empty.
    pub net_bytes_by_node: BTreeMap<(u32, u32), i64>,
    /// Write-barrier rejections observed.
    pub barrier_violations: u64,
    /// Fault-plan injections observed.
    pub faults_injected: u64,
    /// Kernel degradations observed.
    pub kernel_faults: u64,
}

impl MetricsSnapshot {
    fn proc_mut(&mut self, pid: u32) -> &mut ProcessMetrics {
        self.per_process.entry(pid).or_default()
    }

    fn apply(&mut self, pid: u32, payload: &Payload) {
        self.events_recorded += 1;
        match payload {
            Payload::QuantumStart { .. } => self.proc_mut(pid).quanta += 1,
            Payload::QuantumEnd {
                cycles, gc_cycles, ..
            } => {
                let p = self.proc_mut(pid);
                p.cycles += cycles;
                p.quantum_gc_cycles += gc_cycles;
            }
            Payload::SyscallEnter { .. } => self.proc_mut(pid).syscalls += 1,
            Payload::GcEnd {
                bytes_freed,
                cycles,
                ..
            } => {
                let p = self.proc_mut(pid);
                p.gc_runs += 1;
                p.gc_bytes_freed += bytes_freed;
                p.gc_cycles += cycles;
            }
            Payload::Charge {
                node,
                node_gen,
                bytes,
            } => {
                let p = self.proc_mut(pid);
                p.charges += 1;
                p.bytes_charged += bytes;
                let key = (*node, *node_gen);
                let net = self.net_bytes_by_node.entry(key).or_insert(0);
                *net += *bytes as i64;
                if *net == 0 {
                    self.net_bytes_by_node.remove(&key);
                }
            }
            Payload::Credit {
                node,
                node_gen,
                bytes,
            } => {
                let p = self.proc_mut(pid);
                p.credits += 1;
                p.bytes_credited += bytes;
                let key = (*node, *node_gen);
                let net = self.net_bytes_by_node.entry(key).or_insert(0);
                *net -= *bytes as i64;
                if *net == 0 {
                    self.net_bytes_by_node.remove(&key);
                }
            }
            Payload::KillRequested { target } => self.proc_mut(*target).kills_requested += 1,
            Payload::Exit { .. } => self.proc_mut(pid).exited = true,
            Payload::BarrierViolation { .. } => self.barrier_violations += 1,
            Payload::FaultInjected { .. } => self.faults_injected += 1,
            Payload::KernelFault { .. } => self.kernel_faults += 1,
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// The bounded event ring plus the incremental metrics and the attribution
/// context (virtual clock, current pid) the kernel keeps synchronized at
/// its edges.
#[derive(Debug)]
pub struct TraceBuffer {
    capacity: usize,
    events: VecDeque<Event>,
    seq: u64,
    now: u64,
    ctx_pid: u32,
    metrics: MetricsSnapshot,
}

impl TraceBuffer {
    /// An empty buffer retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            seq: 0,
            now: 0,
            ctx_pid: 0,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Records one event, stamping it with the current clock/pid context.
    /// Metrics are updated before any ring drop, so they remain exact.
    pub fn record(&mut self, payload: Payload) {
        self.metrics.apply(self.ctx_pid, &payload);
        self.events.push_back(Event {
            seq: self.seq,
            at: self.now,
            pid: self.ctx_pid,
            payload,
        });
        self.seq += 1;
        if self.events.len() > self.capacity {
            self.events.pop_front();
            self.metrics.events_dropped += 1;
        }
    }

    /// Updates the virtual-clock stamp applied to subsequent events.
    pub fn set_clock(&mut self, now: u64) {
        self.now = now;
    }

    /// Updates the pid (0 = kernel) and clock stamped on subsequent events.
    pub fn set_context(&mut self, pid: u32, now: u64) {
        self.ctx_pid = pid;
        self.now = now;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// The incrementally maintained metrics.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// The retained events as JSON lines (see [`export_jsonl`]).
    pub fn jsonl(&self) -> String {
        export_jsonl(self.events.iter())
    }

    /// The retained events in Chrome `trace_event` format (see
    /// [`export_chrome`]).
    pub fn chrome(&self) -> String {
        export_chrome(self.events.iter())
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(DEFAULT_CAPACITY)
    }
}

// ---------------------------------------------------------------------------
// The observability handle
// ---------------------------------------------------------------------------

/// One observability plane: a shared store, or the disabled no-op. The
/// kernel is single-threaded (a green-thread scheduler), so `Rc<RefCell<..>>`
/// is the whole synchronization story; every layer that records holds a
/// clone of the same plane.
///
/// The contract every plane shares: a disabled plane is a `None`, so
/// recording costs one `Option` test; [`Plane::with`] closures never run
/// when it is off, so payloads are never built; and no recording point has
/// a cycle model, so a plane on or off leaves every virtual number
/// bit-identical.
#[derive(Debug)]
pub struct Plane<S>(Option<Rc<RefCell<S>>>);

impl<S> Default for Plane<S> {
    fn default() -> Self {
        Plane(None)
    }
}

impl<S> Clone for Plane<S> {
    fn clone(&self) -> Self {
        Plane(self.0.clone())
    }
}

impl<S: Default> Plane<S> {
    /// A plane recording into a fresh store if `on`, else the disabled one.
    pub fn new(on: bool) -> Self {
        Plane(on.then(|| Rc::new(RefCell::new(S::default()))))
    }
}

impl<S> Plane<S> {
    /// True if the plane is recording.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` against the store — only when on.
    #[inline]
    pub fn with(&self, f: impl FnOnce(&mut S)) {
        if let Some(store) = &self.0 {
            f(&mut store.borrow_mut());
        }
    }

    /// Reads the store for an export; a disabled plane yields `T::default()`
    /// (empty output).
    pub fn read<T: Default>(&self, f: impl FnOnce(&S) -> T) -> T {
        self.0
            .as_ref()
            .map(|store| f(&store.borrow()))
            .unwrap_or_default()
    }
}

/// Every observability plane behind one handle: the event trace, the
/// virtual-time CPU profile, and the heap profile. Cloning shares the
/// stores.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Structured kernel events ([`TraceBuffer`]).
    pub trace: Plane<TraceBuffer>,
    /// Weighted stack samples and latency histograms ([`ProfileStore`]).
    pub profile: Plane<ProfileStore>,
    /// Allocation sites, survival, the GC/page timeline and the edge census
    /// ([`HeapProfStore`]).
    pub heap: Plane<HeapProfStore>,
}

impl Obs {
    /// A handle with each plane on or off.
    pub fn new(trace: bool, profile: bool, heap: bool) -> Self {
        Obs {
            trace: Plane::new(trace),
            profile: Plane::new(profile),
            heap: Plane::new(heap),
        }
    }

    /// Stamps the pid and virtual clock that the trace and heap planes
    /// attribute subsequent records to.
    pub fn stamp(&self, pid: u32, clock: u64) {
        self.trace.with(|t| t.set_context(pid, clock));
        self.heap.with(|h| h.set_context(pid, clock));
    }

    /// Labels `pid` (typically `image#pid`) in the profile and heap exports.
    pub fn label(&self, pid: u32, label: &str) {
        self.profile.with(|p| p.set_label(pid, label));
        self.heap.with(|h| h.set_label(pid, label));
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal (quotes + escapes) onto `out`.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends the payload-specific `"key":value` pairs (each preceded by a
/// comma) shared by both exporters.
fn push_payload_fields(out: &mut String, payload: &Payload) {
    match payload {
        Payload::Spawn { pid, image } => {
            let _ = write!(out, ",\"child\":{pid},\"image\":");
            push_json_str(out, image);
        }
        Payload::Exit { kind, code } => {
            let _ = write!(out, ",\"kind\":\"{}\",\"code\":{code}", kind.label());
        }
        Payload::KillRequested { target } => {
            let _ = write!(out, ",\"target\":{target}");
        }
        Payload::KillDeferred { target, thread } => {
            let _ = write!(out, ",\"target\":{target},\"thread\":{thread}");
        }
        Payload::QuantumStart { thread } => {
            let _ = write!(out, ",\"thread\":{thread}");
        }
        Payload::QuantumEnd {
            thread,
            cycles,
            gc_cycles,
        } => {
            let _ = write!(
                out,
                ",\"thread\":{thread},\"cycles\":{cycles},\"gc_cycles\":{gc_cycles}"
            );
        }
        Payload::SyscallEnter { sysno, name } | Payload::SyscallLeave { sysno, name } => {
            let _ = write!(out, ",\"sysno\":{sysno},\"name\":\"{name}\"");
        }
        Payload::Charge {
            node,
            node_gen,
            bytes,
        }
        | Payload::Credit {
            node,
            node_gen,
            bytes,
        } => {
            let _ = write!(out, ",\"node\":{node},\"node_gen\":{node_gen},\"bytes\":{bytes}");
        }
        Payload::GcBegin { heap } => {
            let _ = write!(out, ",\"heap\":{heap}");
        }
        Payload::GcEnd {
            heap,
            bytes_freed,
            objects_freed,
            cycles,
        } => {
            let _ = write!(
                out,
                ",\"heap\":{heap},\"bytes_freed\":{bytes_freed},\"objects_freed\":{objects_freed},\"cycles\":{cycles}"
            );
        }
        Payload::HeapMerged {
            heap,
            bytes,
            objects,
        } => {
            let _ = write!(out, ",\"heap\":{heap},\"bytes\":{bytes},\"objects\":{objects}");
        }
        Payload::BarrierViolation { kind } => {
            let _ = write!(out, ",\"kind\":\"{kind}\"");
        }
        Payload::EntryItemCreated { heap, slot } | Payload::EntryItemDropped { heap, slot } => {
            let _ = write!(out, ",\"heap\":{heap},\"slot\":{slot}");
        }
        Payload::ExitItemCreated { heap, target } | Payload::ExitItemDropped { heap, target } => {
            let _ = write!(out, ",\"heap\":{heap},\"target\":{target}");
        }
        Payload::ShmFrozen { name, bytes } => {
            out.push_str(",\"name\":");
            push_json_str(out, name);
            let _ = write!(out, ",\"bytes\":{bytes}");
        }
        Payload::ShmAttached { name }
        | Payload::ShmDetached { name }
        | Payload::ShmOrphaned { name } => {
            out.push_str(",\"name\":");
            push_json_str(out, name);
        }
        Payload::FaultInjected { kind } => {
            let _ = write!(out, ",\"kind\":\"{}\"", kind.label());
            if let InjectionKind::KillSweep { victim } = kind {
                let _ = write!(out, ",\"victim\":{victim}");
            }
        }
        Payload::KernelFault { kind, detail } => {
            let _ = write!(out, ",\"kind\":\"{}\",\"detail\":", kind.label());
            push_json_str(out, detail);
        }
        Payload::TenantAdmitted { tenant, child } => {
            let _ = write!(out, ",\"tenant\":{tenant},\"child\":{child}");
        }
        Payload::RestartLaunched {
            tenant,
            child,
            attempt,
        } => {
            let _ = write!(
                out,
                ",\"tenant\":{tenant},\"child\":{child},\"attempt\":{attempt}"
            );
        }
        Payload::TenantQueued { tenant, ticket } => {
            let _ = write!(out, ",\"tenant\":{tenant},\"ticket\":{ticket}");
        }
        Payload::TenantRejected { tenant, reason } => {
            let _ = write!(out, ",\"tenant\":{tenant},\"reason\":\"{reason}\"");
        }
        Payload::RestartScheduled {
            tenant,
            attempt,
            due,
        } => {
            let _ = write!(out, ",\"tenant\":{tenant},\"attempt\":{attempt},\"due\":{due}");
        }
        Payload::BreakerOpened { tenant, until } => {
            let _ = write!(out, ",\"tenant\":{tenant},\"until\":{until}");
        }
        Payload::BreakerClosed { tenant }
        | Payload::TenantShed { tenant }
        | Payload::TenantRestored { tenant } => {
            let _ = write!(out, ",\"tenant\":{tenant}");
        }
    }
}

/// Exports events as JSON lines: one self-contained object per event, in
/// emission order. This is the golden-trace format — deterministic runs
/// produce byte-identical output.
pub fn export_jsonl<'a>(events: impl Iterator<Item = &'a Event>) -> String {
    let mut out = String::new();
    for e in events {
        let _ = write!(
            out,
            "{{\"seq\":{},\"t\":{},\"pid\":{},\"ev\":\"{}\"",
            e.seq,
            e.at,
            e.pid,
            e.payload.name()
        );
        push_payload_fields(&mut out, &e.payload);
        out.push_str("}\n");
    }
    out
}

/// Microseconds (with nanosecond decimals) from a cycle count, formatted
/// with integer arithmetic so the output is platform-independent.
fn push_ts_micros(out: &mut String, cycles: u64) {
    let ns = cycles.saturating_mul(NS_PER_CYCLE);
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Exports events in Chrome `trace_event` format (the JSON-object flavour
/// with a `traceEvents` array), loadable in `chrome://tracing` / Perfetto.
///
/// GC runs, quanta, and syscalls become `B`/`E` duration pairs — the end
/// event's timestamp is advanced by its recorded cycle cost, so slice
/// widths show modelled time. Everything else is an instant (`ph:"i"`).
/// Chrome `pid` is the KaffeOS pid; quantum slices carry the thread id as
/// `tid`.
pub fn export_chrome<'a>(events: impl Iterator<Item = &'a Event>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for e in events {
        let (ph, name, tid, end_cycles): (&str, &str, u32, u64) = match &e.payload {
            Payload::QuantumStart { thread } => ("B", "quantum", *thread, 0),
            Payload::QuantumEnd { thread, cycles, .. } => ("E", "quantum", *thread, *cycles),
            Payload::SyscallEnter { name, .. } => ("B", name, 0, 0),
            Payload::SyscallLeave { name, .. } => ("E", name, 0, 0),
            Payload::GcBegin { .. } => ("B", "gc", 0, 0),
            Payload::GcEnd { cycles, .. } => ("E", "gc", 0, *cycles),
            other => ("i", other.name(), 0, 0),
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        out.push_str(name);
        let _ = write!(out, "\",\"ph\":\"{ph}\",\"pid\":{},\"tid\":{tid},\"ts\":", e.pid);
        push_ts_micros(&mut out, e.at.saturating_add(end_cycles));
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"args\":{{\"seq\":{}", e.seq);
        push_payload_fields(&mut out, &e.payload);
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_runs_no_closures_and_yields_nothing() {
        let plane: Plane<TraceBuffer> = Plane::new(false);
        let mut ran = false;
        plane.with(|_| ran = true);
        assert!(!ran, "a disabled plane must not run its closure");
        assert!(!plane.is_on());
        assert_eq!(plane.read(TraceBuffer::jsonl), "");
        assert_eq!(
            plane.read(|t| t.metrics().clone()),
            MetricsSnapshot::default()
        );
        // A clone shares the store; the default plane is the disabled one.
        let on: Plane<TraceBuffer> = Plane::new(true);
        on.clone().with(|t| t.record(Payload::GcBegin { heap: 1 }));
        assert_eq!(on.read(|t| t.events().count()), 1);
        assert!(!Obs::default().heap.is_on());
    }

    #[test]
    fn ring_drops_oldest_but_metrics_stay_exact() {
        let mut t = TraceBuffer::new(4);
        t.set_context(5, 0);
        t.record(Payload::Spawn {
            pid: 5,
            image: "churn".to_string(),
        });
        for i in 0..10u64 {
            t.set_clock(i);
            t.record(Payload::QuantumStart { thread: 1 });
            t.record(Payload::Charge {
                node: 1,
                node_gen: 0,
                bytes: 8,
            });
        }
        t.record(Payload::Exit {
            kind: ExitKind::Exited,
            code: 0,
        });
        let events: Vec<&Event> = t.events().collect();
        assert_eq!(events.len(), 4, "ring holds exactly its capacity");
        assert_eq!(events[0].seq, 18, "oldest events are dropped first");
        let m = t.metrics();
        assert_eq!(m.events_recorded, 22);
        assert_eq!(m.events_dropped, 18);
        // Exactness under overflow: the counters cover the dropped events.
        let pm = &m.per_process[&5];
        assert_eq!(pm.quanta, 10);
        assert_eq!(pm.charges, 10, "charges beyond the retained window count");
        assert!(pm.exited);
        assert_eq!(m.net_bytes_by_node[&(1, 0)], 80);
    }

    #[test]
    fn charge_credit_nets_to_zero_and_clears_the_node() {
        let mut t = TraceBuffer::new(16);
        t.set_context(3, 0);
        t.record(Payload::Charge {
            node: 1,
            node_gen: 0,
            bytes: 100,
        });
        assert_eq!(t.metrics().net_bytes_by_node.get(&(1, 0)), Some(&100));
        t.record(Payload::Credit {
            node: 1,
            node_gen: 0,
            bytes: 100,
        });
        let m = t.metrics();
        assert!(m.net_bytes_by_node.is_empty(), "drained nodes are removed");
        assert_eq!(m.per_process.get(&3).unwrap().bytes_charged, 100);
        assert_eq!(m.per_process.get(&3).unwrap().bytes_credited, 100);
    }

    #[test]
    fn jsonl_escapes_and_is_line_per_event() {
        let mut t = TraceBuffer::new(16);
        t.record(Payload::ShmFrozen {
            name: "a\"b\\c\n".to_string(),
            bytes: 7,
        });
        let text = t.jsonl();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"a\\\"b\\\\c\\n\""), "{text}");
    }

    #[test]
    fn chrome_export_pairs_durations_and_stamps_micros() {
        let mut t = TraceBuffer::new(16);
        t.set_clock(1000); // 2000 ns = 2.000 µs
        t.record(Payload::GcBegin { heap: 2 });
        t.record(Payload::GcEnd {
            heap: 2,
            bytes_freed: 64,
            objects_freed: 1,
            cycles: 500, // end ts = 1500 cycles = 3.000 µs
        });
        let text = t.chrome();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":2.000"), "{text}");
        assert!(text.contains("\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":3.000"), "{text}");
    }
}
