//! The KaffeOS kernel: process table, scheduler, syscall dispatch, GC
//! policy, and the termination protocol.
//!
//! The kernel is the trusted half of Figure 1. Guest code runs in user mode
//! and can be terminated at any safe point; kernel services (everything in
//! this module) run atomically with respect to the green-thread scheduler,
//! so kernel data structures are never left inconsistent by a termination —
//! the deferred-termination rule falls out of the quantum structure, and
//! threads additionally carry a `kernel_depth` that defers kills while set.
//!
//! `KaffeOs` is one struct; its methods live along the kernel's seams:
//! `domain` (images, spawn, kill and reap), `sched` (the run loop,
//! quanta, exit dispatch, wake-ups, CPU limits, kernel GC), `syscall`
//! (dispatch, `sys.gc`, shared heaps, the network), `tenancy`
//! (admission, restarts, shedding), `audit` (fault injection and the
//! invariant audit) and `procfs` (read-only renderers).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use kaffeos_heap::{BarrierKind, BarrierStats, FxHashMap, HeapSpace, ObjRef, ProcTag, SpaceConfig};
use kaffeos_memlimit::Kind;
use kaffeos_trace::Obs;
use kaffeos_vm::{ClassDef, ClassTable, Engine};

pub(crate) use image::BootImage;

use crate::faults::FaultPlan;
use crate::process::{CpuAccount, Domain, ExitStatus, Pid, ProcState, Process};
use crate::shm::ShmRegistry;
use crate::stdlib;
use crate::tenant::{OverloadPolicy, TenantId, TenantLaunch, TenantState};

mod audit;
mod domain;
mod image;
mod procfs;
mod sched;
mod syscall;
mod tenancy;

/// Index of the monolithic domain: boot creates it before any spawn.
const MONO_DOMAIN: usize = 0;

/// Kernel configuration.
#[derive(Debug, Clone)]
pub struct KaffeOsConfig {
    /// Write-barrier implementation (§4.1). `BarrierKind::None` disables
    /// isolation and is only meaningful together with `monolithic`.
    pub barrier: BarrierKind,
    /// Execution engine / cycle model (Figure 3 platforms).
    pub engine: Engine,
    /// Root memlimit for all user processes, bytes.
    pub user_budget: u64,
    /// Default per-process memory limit, bytes.
    pub default_process_limit: u64,
    /// Scheduler time slice in cycles.
    pub time_slice: u64,
    /// Run all guests on one heap with no per-process limits — the
    /// "commercial JVM without processes" baseline (IBM/n in Figure 4).
    pub monolithic: bool,
    /// Kernel GC cycle period in clock cycles (orphan check + kernel heap
    /// collection, §2).
    pub kernel_gc_period: u64,
    /// Record structured trace events at every kernel edge, retaining the
    /// newest [`kaffeos_trace::DEFAULT_CAPACITY`]. Off by default, like
    /// every plane of [`kaffeos_trace::Obs`]: when off nothing runs, and no
    /// plane has a cycle model, so the virtual clock is bit-identical
    /// either way.
    pub trace: bool,
    /// Record weighted stack samples at virtual-time edges (quantum ends,
    /// syscall dispatch, GC) plus latency histograms. Off by default.
    pub profile: bool,
    /// Ignored: every guest reference store takes the checked barrier, and
    /// the kernel never runs the analyzer. The field remains only because
    /// the `e2e` benchmark still sets it; the next change to the benchmark
    /// deletes those two uses, and then this field.
    pub elide: bool,
    /// Heap observability plane: allocation-site profiling with survival
    /// stats, the GC/page timeline, and the live cross-heap edge census.
    /// Off by default.
    pub heapprof: bool,
}

impl Default for KaffeOsConfig {
    fn default() -> Self {
        KaffeOsConfig {
            barrier: BarrierKind::NoHeapPointer,
            engine: Engine::KAFFEOS,
            user_budget: 256 << 20,
            default_process_limit: 16 << 20,
            time_slice: 50_000,
            monolithic: false,
            kernel_gc_period: 50_000_000,
            trace: false,
            profile: false,
            elide: false,
            heapprof: false,
        }
    }
}

impl KaffeOsConfig {
    /// The full KaffeOS configuration with a given barrier variant.
    pub fn kaffeos(barrier: BarrierKind) -> Self {
        KaffeOsConfig {
            barrier,
            ..Default::default()
        }
    }

    /// A monolithic baseline VM with the given engine (no barriers, no
    /// per-process heaps or limits) capped at `heap_limit` bytes.
    pub fn monolithic(engine: Engine, heap_limit: u64) -> Self {
        KaffeOsConfig {
            barrier: BarrierKind::None,
            engine,
            user_budget: heap_limit,
            default_process_limit: heap_limit,
            monolithic: true,
            ..Default::default()
        }
    }
}

/// Kernel errors (not guest-visible exceptions).
#[derive(Debug)]
pub enum KernelError {
    /// An image failed to compile at registration time.
    Compile(kaffeos_cupc::CompileError),
    /// Class loading/verification failed.
    Vm(kaffeos_vm::VmError),
    /// Spawn of an unregistered image.
    UnknownImage(String),
    /// Operation on a pid that was never spawned.
    UnknownPid(Pid),
    /// The image has no usable `main` entry point.
    BadEntry(String),
    /// An image was registered twice under one name.
    DuplicateImage(String),
    /// The machine budget cannot cover the request (e.g. a hard
    /// reservation at spawn).
    OutOfMemory,
    /// A heap operation the kernel performs on a process' behalf failed.
    Heap(kaffeos_heap::HeapError),
    /// A kernel bookkeeping step that must not fail did fail. Surfaced as
    /// a typed error instead of a panic so an injected fault can never
    /// take down more than the process it targeted.
    Internal(&'static str),
    /// Admission control rejected a spawn: the tenant is at its
    /// concurrent-process cap and its admission queue is full (or it has
    /// none).
    AdmissionRejected {
        /// The rejecting tenant.
        tenant: TenantId,
        /// Its live process count at rejection.
        live: u32,
        /// Its concurrent-process cap.
        cap: u32,
    },
    /// Admission control rejected a spawn: the tenant's kill-storm
    /// circuit breaker is open.
    AdmissionBreakerOpen {
        /// The rejecting tenant.
        tenant: TenantId,
        /// Virtual cycle the breaker's cooldown ends.
        until: u64,
    },
    /// Admission control rejected a spawn: the tenant is shed under
    /// global memory pressure (graceful degradation).
    AdmissionShed {
        /// The shed tenant.
        tenant: TenantId,
    },
    /// Operation on a tenant id that was never created.
    UnknownTenant(TenantId),
}

impl core::fmt::Display for KernelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelError::Compile(e) => write!(f, "compile error: {e}"),
            KernelError::Vm(e) => write!(f, "vm error: {e}"),
            KernelError::UnknownImage(n) => write!(f, "unknown image {n}"),
            KernelError::UnknownPid(p) => write!(f, "unknown pid {p:?}"),
            KernelError::BadEntry(e) => write!(f, "bad entry point {e}"),
            KernelError::DuplicateImage(n) => write!(f, "duplicate image {n}"),
            KernelError::OutOfMemory => write!(f, "out of memory"),
            KernelError::Heap(e) => write!(f, "heap error: {e}"),
            KernelError::Internal(msg) => write!(f, "internal kernel invariant broken: {msg}"),
            KernelError::AdmissionRejected { tenant, live, cap } => write!(
                f,
                "admission rejected: tenant {} at cap ({live}/{cap}, queue full)",
                tenant.0
            ),
            KernelError::AdmissionBreakerOpen { tenant, until } => write!(
                f,
                "admission rejected: tenant {} circuit breaker open until cycle {until}",
                tenant.0
            ),
            KernelError::AdmissionShed { tenant } => write!(
                f,
                "admission rejected: tenant {} shed under memory pressure",
                tenant.0
            ),
            KernelError::UnknownTenant(t) => write!(f, "unknown tenant {}", t.0),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<kaffeos_heap::HeapError> for KernelError {
    fn from(e: kaffeos_heap::HeapError) -> Self {
        KernelError::Heap(e)
    }
}

impl From<kaffeos_cupc::CompileError> for KernelError {
    fn from(e: kaffeos_cupc::CompileError) -> Self {
        KernelError::Compile(e)
    }
}

impl From<kaffeos_vm::VmError> for KernelError {
    fn from(e: kaffeos_vm::VmError) -> Self {
        KernelError::Vm(e)
    }
}

/// Per-process view in a [`RunReport`].
#[derive(Debug, Clone)]
pub struct ProcessReport {
    /// Process id.
    pub pid: Pid,
    /// Exit status, or `None` if still live.
    pub status: Option<ExitStatus>,
    /// CPU account (exec / GC / kernel cycles).
    pub cpu: CpuAccount,
}

/// Result of a [`KaffeOs::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Global virtual clock at the end of the run, in cycles.
    pub clock: u64,
    /// `clock` converted at the modelled 500 MHz.
    pub virtual_seconds: f64,
    /// One report per process ever spawned, in pid order.
    pub processes: Vec<ProcessReport>,
    /// Write-barrier counters (Table 1).
    pub barrier: BarrierStats,
    /// Kernel CPU (kernel-heap GC, orphan merging).
    pub kernel_cpu: CpuAccount,
    /// True if runnable work remained but every thread was parked.
    pub deadlocked: bool,
    /// Scheduler quanta executed.
    pub quanta: u64,
}

/// The KaffeOS virtual machine: kernel + scheduler + heaps + classes.
pub struct KaffeOs {
    pub(crate) space: HeapSpace,
    pub(crate) table: ClassTable,
    config: KaffeOsConfig,
    shared_ns: u32,
    /// Namespace used to type-check images at registration time.
    template_ns: u32,
    string_class: kaffeos_vm::ClassIdx,
    monitors: FxHashMap<ObjRef, (u32, u32)>,
    procs: Vec<Process>,
    /// Indices into `procs` of the processes not yet reaped, ascending:
    /// the scheduler's scans walk these, not every process ever spawned.
    live: Vec<usize>,
    run_queue: VecDeque<(Pid, usize)>,
    clock: u64,
    quanta: u64,
    programs: HashMap<String, Arc<Vec<Arc<ClassDef>>>>,
    reloaded_defs: Vec<Arc<ClassDef>>,
    shm: ShmRegistry,
    kernel_cpu: CpuAccount,
    next_thread_id: u32,
    last_kernel_gc: u64,
    /// Protection domains in creation order; a process names its own by
    /// index. A released domain stays behind with no members.
    domains: Vec<Domain>,
    /// Processes reaped so far.
    reaped: usize,
    /// Number of classes in the shared namespace (for the §3.2 ratio).
    shared_class_count: usize,
    /// Installed fault-injection schedule, if any.
    faults: Option<FaultPlan>,
    /// Internal errors the kernel degraded past instead of panicking.
    /// Non-empty means an invariant record is suspect; `audit` reports it.
    /// Always recorded (independently of tracing) because the auditor
    /// depends on it; with tracing on each is also emitted as an event.
    kernel_faults: Vec<kaffeos_trace::KernelFault>,
    /// Host-side total of bytecode instructions executed across all
    /// quanta. Observational only (throughput benchmarks); never feeds
    /// back into the clock, scheduling, or accounting.
    ops_executed: u64,
    /// Distinct store sites that raised a segmentation violation at
    /// runtime, in first-seen order, drained from guest threads at each
    /// quantum boundary. The oracle the soundness tests check static
    /// verdicts against. A site that violates again adds nothing, so a
    /// guest catching violations in a loop cannot grow it.
    seg_sites: Vec<kaffeos_vm::SegSite>,
    /// The members of `seg_sites`, for the first-seen check.
    seg_seen: HashSet<kaffeos_vm::SegSite>,
    /// Tenant table, indexed by [`TenantId`] (dense, creation order).
    tenants: Vec<TenantState>,
    /// Machine-wide graceful-degradation watermarks, if installed.
    overload: Option<OverloadPolicy>,
    /// Launches the tenant engine performed on its own (queued admissions
    /// and restarts), awaiting `drain_tenant_launches`.
    tenant_launches: Vec<TenantLaunch>,
}

impl KaffeOs {
    /// Boots a VM: heap space and a clone of the engine's boot image (the
    /// shared namespace and the standard library, built once per host
    /// process).
    pub fn new(config: KaffeOsConfig) -> Self {
        let mut space = HeapSpace::new(SpaceConfig {
            barrier: config.barrier,
            user_budget: config.user_budget,
        });
        space.set_obs(Obs::new(config.trace, config.profile, config.heapprof));
        let image = BootImage::get(config.engine).expect("standard library must boot");

        let mut os = KaffeOs {
            space,
            table: image.table.clone(),
            config,
            shared_ns: image.shared_ns,
            template_ns: image.template_ns,
            string_class: image.string_class,
            monitors: FxHashMap::default(),
            procs: Vec::new(),
            live: Vec::new(),
            run_queue: VecDeque::new(),
            clock: 0,
            quanta: 0,
            programs: HashMap::new(),
            reloaded_defs: image.reloaded_defs.clone(),
            shm: ShmRegistry::new(),
            kernel_cpu: CpuAccount::default(),
            next_thread_id: 1,
            last_kernel_gc: 0,
            domains: Vec::new(),
            reaped: 0,
            shared_class_count: image.shared_class_count,
            faults: None,
            kernel_faults: Vec::new(),
            ops_executed: 0,
            seg_sites: Vec::new(),
            seg_seen: HashSet::new(),
            tenants: Vec::new(),
            overload: None,
            tenant_launches: Vec::new(),
        };
        if os.config.monolithic {
            // The monolithic baseline (IBM/n) is one domain that every guest
            // joins: a "mono" memlimit over the whole user budget, its heap
            // and namespace, and one copy of Console/Random shared by all
            // guests (that sharing is exactly the unsafety). The kernel's
            // hold keeps it from ever being released.
            let mono = os
                .create_domain(ProcTag(u32::MAX), Kind::Soft, os.config.user_budget, "mono")
                .expect("monolithic domain");
            os.bind_classes(mono, &os.reloaded_defs.clone())
                .expect("reloaded stdlib must load");
        }
        os
    }

    /// The active configuration.
    pub fn config(&self) -> &KaffeOsConfig {
        &self.config
    }

    /// Runs the static heap-flow analyzer over everything currently
    /// loaded and returns the full results: per-site verdicts and the
    /// lint report (`kaffeos-lint` and the soundness tests read this).
    pub fn analysis(&self) -> kaffeos_analyze::Analysis {
        kaffeos_analyze::analyze(&self.table)
    }

    /// Distinct reference-store sites that raised a segmentation violation
    /// at runtime, each once, in the order each first fired. Only *guest*
    /// stores appear here — kernel-level injected writes bypass guest
    /// bytecode entirely.
    pub fn seg_violation_sites(&self) -> &[kaffeos_vm::SegSite] {
        &self.seg_sites
    }

    /// The global class table (read-only): namespaces, and the class and
    /// method bindings of every load with the linked definitions they
    /// share.
    pub fn class_table(&self) -> &ClassTable {
        &self.table
    }

    // ---- accessors ---------------------------------------------------------

    fn proc_index(&self, pid: Pid) -> Option<usize> {
        let idx = pid.0.checked_sub(1)? as usize;
        (idx < self.procs.len()).then_some(idx)
    }

    /// Process state.
    pub fn status(&self, pid: Pid) -> Option<ExitStatus> {
        let idx = self.proc_index(pid)?;
        match &self.procs[idx].state {
            ProcState::Dead(status) => Some(status.clone()),
            _ => None,
        }
    }

    /// Lines printed by the process so far.
    pub fn stdout(&self, pid: Pid) -> &[String] {
        self.proc_index(pid)
            .map(|i| self.procs[i].stdout.as_slice())
            .unwrap_or(&[])
    }

    /// CPU account of a process.
    pub fn cpu(&self, pid: Pid) -> CpuAccount {
        self.proc_index(pid)
            .map(|i| self.procs[i].cpu)
            .unwrap_or_default()
    }

    /// Global virtual clock in cycles.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Host-side count of bytecode instructions executed so far. Purely
    /// observational — throughput benchmarks divide this by host wall time;
    /// it never influences the virtual clock or scheduling.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Direct heap-space access for tests and benches.
    pub fn space(&self) -> &HeapSpace {
        &self.space
    }

    /// Shared/reloaded class counts for the §3.2 sharing ratio.
    pub fn class_sharing_counts(&self) -> (usize, usize) {
        (self.shared_class_count, stdlib::RELOADED_CLASSES.len())
    }

    /// The shared-heap registry (read-only view).
    pub fn shm_registry(&self) -> &ShmRegistry {
        &self.shm
    }

    /// True if the process is still live.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.proc_index(pid)
            .map(|i| !matches!(self.procs[i].state, ProcState::Dead(_)))
            .unwrap_or(false)
    }

    // ---- observability (trace, profile and heap planes) --------------------

    /// The observability handle: the trace, profile and heap planes, each
    /// off unless configured. Every export is deterministic — the same
    /// workload and fault seed give byte-identical output — and reads empty
    /// from a plane that is off.
    pub fn obs(&self) -> &Obs {
        self.space.obs()
    }

    /// The memlimit node a process' domain charges, while the domain is
    /// held, for cross-checking trace charge/credit accounting against the
    /// tree.
    pub fn proc_memlimit(&self, pid: Pid) -> Option<kaffeos_memlimit::MemLimitId> {
        let p = &self.procs[self.proc_index(pid)?];
        self.held_domain(p).map(|d| d.memlimit)
    }

    /// The domain of the process at table row `idx`.
    fn domain_of(&self, idx: usize) -> &Domain {
        &self.domains[self.procs[idx].domain]
    }

    /// The domain `p` runs in, unless it was released (a released domain's
    /// heap, memlimit node and namespace are gone).
    fn held_domain(&self, p: &Process) -> Option<&Domain> {
        let d = &self.domains[p.domain];
        (d.members > 0).then_some(d)
    }

    /// Stamps the trace plane with the current clock and the attributed
    /// pid, then records the payload built by `f` (never called when off).
    fn emit_event(&self, pid: u32, f: impl FnOnce() -> kaffeos_trace::Payload) {
        self.space.obs().trace.with(|t| {
            t.set_context(pid, self.clock);
            t.record(f());
        });
    }
}
