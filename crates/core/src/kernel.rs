//! The KaffeOS kernel: process table, scheduler, syscall dispatch, GC
//! policy, and the termination protocol.
//!
//! The kernel is the trusted half of Figure 1. Guest code runs in user mode
//! and can be terminated at any safe point; kernel services (everything in
//! this file) run atomically with respect to the green-thread scheduler, so
//! kernel data structures are never left inconsistent by a termination —
//! the deferred-termination rule falls out of the quantum structure, and
//! threads additionally carry a `kernel_depth` that defers kills while set.

use std::collections::{HashMap, VecDeque};
use kaffeos_heap::FxHashMap;
use std::sync::Arc;

use kaffeos_heap::{
    costs, BarrierKind, BarrierStats, HeapId, HeapSpace, ObjRef, ProcTag, SpaceConfig, Value,
};
use kaffeos_memlimit::Kind;
use kaffeos_trace::{Obs, SampleKind};
use kaffeos_vm::{
    step, ClassDef, ClassTable, Engine, ExecCtx, MethodIdx, RunExit, Thread, ThreadState,
    VmException,
};

use crate::faults::{AuditReport, AuditViolation, FaultPlan};
use crate::process::{CpuAccount, ExitStatus, ParkReason, Pid, ProcState, Process, SpawnOpts};
use crate::shm::{SharedHeap, ShmRegistry};
use crate::tenant::{
    Admission, OverloadPolicy, PendingRestart, QueuedSpawn, RestartRecord, TenantId, TenantLaunch,
    TenantPolicy, TenantState, TenantStats,
};
use crate::stdlib;
use crate::syscalls::{build_registry, sysno};

/// Fixed kernel-entry cost per syscall, in cycles.
const SYSCALL_BASE_CYCLES: u64 = 300;

/// Resolves a raw `(method index, pc)` stack walk into interned profiler
/// frame ids, outermost first; the leaf is refined by its pc bucket. An
/// empty walk (thread finished or killed at the boundary) becomes the
/// synthetic `(no stack)` frame.
fn resolve_frames(
    p: &mut kaffeos_trace::ProfileStore,
    table: &ClassTable,
    stack: &[(u32, u32)],
) -> Vec<u32> {
    let Some((&(leaf_method, leaf_pc), callers)) = stack.split_last() else {
        return vec![p.intern("(no stack)")];
    };
    let mut frames = Vec::with_capacity(stack.len());
    for &(m, _) in callers {
        frames.push(p.method_frame(m, || table.qualified_name(MethodIdx(m))));
    }
    frames.push(p.leaf_frame(leaf_method, leaf_pc, || {
        table.qualified_name(MethodIdx(leaf_method))
    }));
    frames
}
/// Upper bound on objects in one shared heap.
const SHM_MAX_OBJECTS: i64 = 1 << 20;

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
    /// Run the static heap-flow analyzer after every class-load batch and
    /// publish barrier-elision bitmaps: reference stores proven
    /// Local→Local skip the barrier's legality checks. Elision is
    /// host-wall-clock only — the virtual cycle model (and therefore every
    /// trace, profile, and Table-1 number) is bit-identical either way.
    /// Debug builds re-check elided stores against the real barrier.
    pub elide: bool,
    /// Heap observability plane: allocation-site profiling with survival
    /// stats, the GC/page timeline, and the live cross-heap edge census.
    /// Off by default.
    pub heapprof: bool,
    /// Template-JIT tier (threshold, shared code-cache capacity). The tier
    /// changes wall-clock speed only: the virtual cycle model, traces,
    /// profiles, and every golden number are bit-identical with it on or
    /// off. Defaults honour the `KAFFEOS_JIT` environment toggle.
    pub jit: kaffeos_vm::JitConfig,
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
            elide: true,
            heapprof: false,
            jit: kaffeos_vm::JitConfig::from_env(),
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
    run_queue: VecDeque<(Pid, usize)>,
    clock: u64,
    quanta: u64,
    programs: HashMap<String, Arc<Vec<Arc<ClassDef>>>>,
    reloaded_defs: Vec<Arc<ClassDef>>,
    shm: ShmRegistry,
    kernel_cpu: CpuAccount,
    next_thread_id: u32,
    last_kernel_gc: u64,
    /// Monolithic mode: the single heap, namespace, and shared tables.
    mono_heap: Option<HeapId>,
    mono_ns: u32,
    mono_statics: FxHashMap<kaffeos_vm::ClassIdx, ObjRef>,
    mono_intern: FxHashMap<String, ObjRef>,
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
    /// Kernel-owned static heap-flow analysis. Extended over the methods
    /// of every class-load batch (re-run in full only when the batch can
    /// change an old verdict), and the barrier-elision bitmaps it reports
    /// changed are republished; summaries only move up the lattice, so
    /// bitmaps monotonically shrink and the republish is always sound.
    analysis: kaffeos_analyze::Analysis,
    /// Store sites that raised a segmentation violation at runtime,
    /// drained from guest threads at each quantum boundary. The oracle the
    /// soundness tests check static verdicts against.
    seg_sites: Vec<kaffeos_vm::SegSite>,
    /// Tenant table, indexed by [`TenantId`] (dense, creation order).
    tenants: Vec<TenantState>,
    /// Machine-wide graceful-degradation watermarks, if installed.
    overload: Option<OverloadPolicy>,
    /// Launches the tenant engine performed on its own (queued admissions
    /// and restarts), awaiting `drain_tenant_launches`.
    tenant_launches: Vec<TenantLaunch>,
    /// Process-shared JIT code cache (the ShareJIT artifact): one compiled
    /// body per `(class bytes, ordinal, elision, resolution)` key, shared
    /// by every process whose method matches.
    jit_cache: kaffeos_vm::CodeCache,
}

impl KaffeOs {
    /// Boots a VM: heap space, shared namespace, standard library.
    pub fn new(config: KaffeOsConfig) -> Self {
        let mut space = HeapSpace::new(SpaceConfig {
            barrier: config.barrier,
            user_budget: config.user_budget,
        });
        space.set_obs(Obs::new(config.trace, config.profile, config.heapprof));
        let mut table = ClassTable::new(build_registry());
        let shared_ns = table.create_namespace("shared", None);
        let shared_class_count =
            stdlib::load_shared_stdlib(&mut table, shared_ns).expect("stdlib must load");
        // Template namespace: shared + reloaded classes, for compiling
        // images at registration time.
        let template_ns = table.create_namespace("template", Some(shared_ns));
        let reloaded_defs: Vec<Arc<ClassDef>> = stdlib::compile_reloaded(&table, template_ns)
            .expect("reloaded stdlib must compile")
            .into_iter()
            .map(|d| d.into_arc())
            .collect();
        for def in &reloaded_defs {
            table
                .load_class(template_ns, def.clone())
                .expect("reloaded stdlib must load");
        }
        let string_class = table.lookup(shared_ns, "String").expect("String loaded");

        let mono_heap = if config.monolithic {
            let root = space.root_memlimit();
            let ml = space
                .limits_mut()
                .create_child(root, Kind::Soft, config.user_budget, "mono")
                .expect("mono memlimit");
            Some(space.create_user_heap(ProcTag(u32::MAX), ml, "mono"))
        } else {
            None
        };
        let mono_ns = if config.monolithic {
            table.create_namespace("mono", Some(shared_ns))
        } else {
            template_ns
        };
        if config.monolithic {
            // Monolithic mode still gets Console/Random — once, shared by
            // all guests (that sharing is exactly the unsafety).
            let defs = stdlib::compile_reloaded(&table, mono_ns).expect("reloaded compile");
            for def in defs {
                table
                    .load_class(mono_ns, def.into_arc())
                    .expect("reloaded stdlib must load");
            }
        }

        let config_jit_cache_bytes = config.jit.cache_bytes;
        let mut os = KaffeOs {
            space,
            table,
            config,
            shared_ns,
            template_ns,
            string_class,
            monitors: FxHashMap::default(),
            procs: Vec::new(),
            run_queue: VecDeque::new(),
            clock: 0,
            quanta: 0,
            programs: HashMap::new(),
            reloaded_defs,
            shm: ShmRegistry::new(),
            kernel_cpu: CpuAccount::default(),
            next_thread_id: 1,
            last_kernel_gc: 0,
            mono_heap,
            mono_ns,
            mono_statics: FxHashMap::default(),
            mono_intern: FxHashMap::default(),
            shared_class_count,
            faults: None,
            kernel_faults: Vec::new(),
            ops_executed: 0,
            analysis: kaffeos_analyze::Analysis::default(),
            seg_sites: Vec::new(),
            tenants: Vec::new(),
            overload: None,
            tenant_launches: Vec::new(),
            jit_cache: kaffeos_vm::CodeCache::new(config_jit_cache_bytes),
        };
        os.republish_elision();
        os
    }

    /// The active configuration.
    pub fn config(&self) -> &KaffeOsConfig {
        &self.config
    }

    /// Brings the static analyzer (region and hierarchy passes) up to date
    /// with the loaded classes and republishes the barrier-elision bitmaps
    /// it reports changed. Must run after each class-load batch (loads
    /// happen between quanta, so there is no window where a stale bitmap
    /// executes). Usually only the batch's own methods change; a new
    /// override or a store that raises an old summary makes the analyzer
    /// re-run in full, which can only shrink bitmaps, never grow them.
    fn republish_elision(&mut self) {
        if !self.config.elide {
            return;
        }
        let changed = self.analysis.run(&self.table);
        let full = changed.start == 0;
        for i in changed {
            let midx = MethodIdx(i as u32);
            let elide = self.analysis.elision_bitmap(&self.table, midx);
            self.table.set_elision(midx, elide);
        }
        // Compiled bodies attach only to methods analyzed before this
        // batch, whose facts move only on a full pass.
        if full {
            self.invalidate_stale_bodies();
        }
    }

    /// Invalidates compiled bodies whose baked-in analysis facts no longer
    /// match the published ones (class reload / analyzer republish) — a
    /// changed elision bitmap or a changed class definition. The method
    /// re-tiers from a cold counter and compiles under its new cache key;
    /// other processes whose facts still match keep sharing the old body
    /// under the old key.
    fn invalidate_stale_bodies(&mut self) {
        for proc in &mut self.procs {
            if matches!(proc.state, ProcState::Dead(_)) {
                continue;
            }
            // `attached()` walks in method order, so the invalidation
            // sequence (and thus the cache's eviction clock) is
            // deterministic.
            let jit_cache = &mut self.jit_cache;
            let table = &self.table;
            let stale: Vec<(MethodIdx, kaffeos_vm::MethodKey)> = proc
                .jit
                .attached()
                .filter(|(midx, ab)| jit_cache.key_for(table, *midx) != ab.key)
                .map(|(midx, ab)| (midx, ab.key))
                .collect();
            for (midx, key) in stale {
                *proc.jit.slot_mut(midx) = kaffeos_vm::BodySlot::Cold;
                self.jit_cache.invalidate(&key);
                proc.jit.counters.remove(&midx);
            }
        }
    }

    /// Runs the static heap-flow analyzer over everything currently
    /// loaded and returns the full results: per-site verdicts and the
    /// lint report (`kaffeos-lint` and the soundness tests read this).
    pub fn analysis(&self) -> kaffeos_analyze::Analysis {
        kaffeos_analyze::analyze(&self.table)
    }

    /// Reference-store sites that raised a segmentation violation at
    /// runtime, in execution order. Only *guest* stores appear here —
    /// kernel-level injected writes bypass guest bytecode entirely.
    pub fn seg_violation_sites(&self) -> &[kaffeos_vm::SegSite] {
        &self.seg_sites
    }

    /// The global class table (read-only): loaded classes, methods, and
    /// the *published* elision bitmaps the interpreter actually consults.
    pub fn class_table(&self) -> &ClassTable {
        &self.table
    }

    /// Loads additional classes into the **shared namespace** (e.g. the
    /// shared message types processes communicate through).
    pub fn load_shared_source(&mut self, source: &str) -> Result<(), KernelError> {
        let defs = kaffeos_cupc::compile(source, &self.table, self.shared_ns)?;
        for def in defs {
            self.table.load_class(self.shared_ns, def.into_arc())?;
            self.shared_class_count += 1;
        }
        self.republish_elision();
        Ok(())
    }

    /// Registers a program image from Cup source. The image is compiled
    /// and type-checked once against the template namespace; every spawn
    /// reloads its classes into the new process' namespace.
    pub fn register_image(&mut self, name: &str, source: &str) -> Result<(), KernelError> {
        if self.programs.contains_key(name) {
            return Err(KernelError::DuplicateImage(name.to_string()));
        }
        let defs = kaffeos_cupc::compile(source, &self.table, self.template_ns)?;
        self.programs.insert(
            name.to_string(),
            Arc::new(defs.into_iter().map(|d| d.into_arc()).collect()),
        );
        Ok(())
    }

    /// Registers a pre-built image (tests and benches).
    pub fn register_image_defs(&mut self, name: &str, defs: Vec<ClassDef>) {
        self.programs.insert(
            name.to_string(),
            Arc::new(defs.into_iter().map(|d| d.into_arc()).collect()),
        );
    }

    /// Spawns a process from a registered image with default CPU policy;
    /// `limit` overrides the default per-process memory limit. See
    /// [`KaffeOs::spawn_with`] for the full resource policy surface.
    pub fn spawn(
        &mut self,
        image: &str,
        args: &str,
        limit: Option<u64>,
    ) -> Result<Pid, KernelError> {
        self.spawn_with(
            image,
            args,
            SpawnOpts {
                mem_limit: limit,
                ..SpawnOpts::default()
            },
        )
    }

    /// Spawns a process from a registered image, entering the image's
    /// `main(String)` (or `main()` / `main(int)`) with `args`, under the
    /// given resource policy: memory limit (soft or hard/reserved), CPU
    /// budget, and proportional CPU share.
    pub fn spawn_with(
        &mut self,
        image: &str,
        args: &str,
        opts: SpawnOpts,
    ) -> Result<Pid, KernelError> {
        let defs = self
            .programs
            .get(image)
            .cloned()
            .ok_or_else(|| KernelError::UnknownImage(image.to_string()))?;
        // Resolve the entry point before creating anything, so a bad image
        // leaves no heap, memlimit node or namespace behind: the image's
        // class that declares a static `main` (conventionally `Main`, but
        // images sharing a monolithic namespace need distinct entry class
        // names) with a supported parameter list.
        let entry = defs
            .iter()
            .find_map(|d| {
                let m = d.methods.iter().find(|m| m.name == "main" && m.is_static)?;
                Some((d.name.clone(), &m.params))
            })
            .ok_or_else(|| KernelError::BadEntry("image declares no static main".to_string()))
            .and_then(|(name, params)| main_arg(params).map(|_| name))?;
        let pid = Pid(self.procs.len() as u32 + 1);
        let label = format!("{image}#{}", pid.0);
        self.space.obs().label(pid.0, &label);

        let (heap, memlimit, ns) = if self.config.monolithic {
            // Load image classes once into the single namespace.
            if self.table.lookup(self.mono_ns, "Main").is_none() || !self.image_loaded_mono(&defs) {
                for def in defs.iter() {
                    // Ignore duplicate-class errors: a second spawn of the
                    // same image reuses the loaded classes.
                    match self.table.load_class(self.mono_ns, def.clone()) {
                        Ok(_) => {}
                        Err(kaffeos_vm::VmError::DuplicateClass(_)) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            let heap = self
                .mono_heap
                .ok_or(KernelError::Internal("monolithic heap missing at spawn"))?;
            (heap, None, self.mono_ns)
        } else {
            let root = self.space.root_memlimit();
            let bytes = opts.mem_limit.unwrap_or(self.config.default_process_limit);
            let kind = if opts.mem_hard {
                Kind::Hard
            } else {
                Kind::Soft
            };
            let ml = self
                .space
                .limits_mut()
                .create_child(root, kind, bytes, label.clone())
                .map_err(|_| KernelError::OutOfMemory)?;
            let heap = self
                .space
                .create_user_heap(ProcTag(pid.0), ml, label.clone());
            let ns = self
                .table
                .create_namespace(label.clone(), Some(self.shared_ns));
            (heap, Some(ml), ns)
        };
        let (midx, thread_args) = match self.enter_image(&defs, heap, ns, &entry, args) {
            Ok(entered) => entered,
            Err(e) => {
                if let Some(ml) = memlimit {
                    self.abandon_spawn(pid, heap, ml, ns);
                }
                return Err(e);
            }
        };

        let tid = self.next_thread_id;
        self.next_thread_id += 1;
        self.procs.push(Process {
            pid,
            name: label,
            image: image.to_string(),
            state: ProcState::Running,
            heap,
            memlimit,
            ns,
            statics: FxHashMap::default(),
            intern: FxHashMap::default(),
            threads: vec![Thread::new(tid, &self.table, midx, thread_args)],
            parked: HashMap::new(),
            cpu: CpuAccount::default(),
            stdout: Vec::new(),
            rng: 0x9E3779B97F4A7C15u64 ^ (pid.0 as u64) << 17,
            waiters: Vec::new(),
            charged_shm: Vec::new(),
            exit_code: None,
            cpu_limit: opts.cpu_limit,
            cpu_share: opts.cpu_share.max(1),
            cpu_overrun: false,
            net_bps: opts.net_bps,
            net_sent: 0,
            net_busy_until: 0,
            tenant: opts.tenant,
            spawn_args: args.to_string(),
            spawn_opts: opts,
            jit: kaffeos_vm::ProcJit::default(),
        });
        self.run_queue.push_back((pid, 0));
        self.emit_event(pid.0, || kaffeos_trace::Payload::Spawn {
            pid: pid.0,
            image: image.to_string(),
        });
        Ok(pid)
    }

    /// The fallible half of a spawn: loads the per-process copies of the
    /// reloaded library and the image into `ns` (monolithic spawns loaded
    /// theirs already), publishes their analysis facts, and resolves the
    /// entry method of class `entry` with its arguments on `heap`.
    fn enter_image(
        &mut self,
        defs: &[Arc<ClassDef>],
        heap: HeapId,
        ns: u32,
        entry: &str,
        args: &str,
    ) -> Result<(MethodIdx, Vec<Value>), KernelError> {
        if !self.config.monolithic {
            // Reloaded standard-library classes: per-process copies (§3.2).
            for def in self.reloaded_defs.clone() {
                self.table.load_class(ns, def)?;
            }
            for def in defs {
                self.table.load_class(ns, def.clone())?;
            }
        }
        // Analyze what the spawn loaded and publish its facts before
        // anything runs.
        self.republish_elision();

        let main_class = self
            .table
            .lookup(ns, entry)
            .ok_or_else(|| KernelError::BadEntry(format!("no class {entry}")))?;
        let midx = self
            .table
            .find_method(main_class, "main")
            .ok_or_else(|| KernelError::BadEntry(format!("no method {entry}.main")))?;
        let m = self.table.method(midx);
        if !m.is_static {
            return Err(KernelError::BadEntry(
                "Main.main must be static".to_string(),
            ));
        }
        let thread_args = match main_arg(&m.params)? {
            MainArg::None => vec![],
            MainArg::Str => {
                let s = self
                    .space
                    .alloc_str(heap, self.string_class.heap_class(), args)
                    .map_err(|_| KernelError::OutOfMemory)?;
                vec![Value::Ref(s)]
            }
            MainArg::Int => vec![Value::Int(args.trim().parse::<i64>().unwrap_or(0))],
        };
        Ok((midx, thread_args))
    }

    /// Releases what a failed per-process spawn created — its heap (merged
    /// into the kernel heap like a reaped one), memlimit node and
    /// namespace — so the pid's next spawn starts from a clean slate.
    fn abandon_spawn(
        &mut self,
        pid: Pid,
        heap: HeapId,
        ml: kaffeos_memlimit::MemLimitId,
        ns: u32,
    ) {
        match self.space.merge_into_kernel(heap) {
            Ok(report) => {
                self.kernel_cpu.gc += report.cycles;
                self.clock += report.cycles;
            }
            Err(e) => self.kernel_fault(
                kaffeos_trace::KernelFaultKind::HeapMerge,
                format!("failed spawn {pid:?}: heap merge failed: {e:?}"),
            ),
        }
        if let Err(e) = self.space.limits_mut().drain_and_remove(ml) {
            self.kernel_fault(
                kaffeos_trace::KernelFaultKind::MemlimitRemove,
                format!("failed spawn {pid:?}: memlimit not removable: {e:?}"),
            );
        }
        self.table.drop_namespace(ns);
    }

    fn image_loaded_mono(&self, defs: &Arc<Vec<Arc<ClassDef>>>) -> bool {
        defs.iter()
            .all(|d| self.table.lookup(self.mono_ns, &d.name).is_some())
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

    /// Virtual seconds at the modelled 500 MHz clock.
    pub fn virtual_seconds(&self) -> f64 {
        costs::cycles_to_seconds(self.clock)
    }

    /// Host-side count of bytecode instructions executed so far. Purely
    /// observational — throughput benchmarks divide this by host wall time;
    /// it never influences the virtual clock or scheduling.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Write-barrier counters (Table 1).
    pub fn barrier_stats(&self) -> BarrierStats {
        self.space.barrier_stats()
    }

    /// Resets barrier counters (between benchmark configurations).
    pub fn reset_barrier_stats(&mut self) {
        self.space.reset_barrier_stats();
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

    /// The memlimit node of a live process, for cross-checking trace
    /// charge/credit accounting against the tree.
    pub fn proc_memlimit(&self, pid: Pid) -> Option<kaffeos_memlimit::MemLimitId> {
        self.proc_index(pid).and_then(|i| self.procs[i].memlimit)
    }

    /// Stamps the trace plane with the current clock and the attributed
    /// pid, then records the payload built by `f` (never called when off).
    fn emit_event(&self, pid: u32, f: impl FnOnce() -> kaffeos_trace::Payload) {
        self.space.obs().trace.with(|t| {
            t.set_context(pid, self.clock);
            t.record(f());
        });
    }

    // ---- introspection (procfs and kaffeos-top) ----------------------------

    /// The `state` label and `(heap used, heap limit)` that `proc.status`
    /// and `kaffeos-top` both show for a process.
    fn proc_state_and_heap(&self, p: &Process) -> (String, u64, u64) {
        let state = match &p.state {
            ProcState::Running => "running".to_string(),
            ProcState::Dying => "dying".to_string(),
            ProcState::Dead(status) => format!("dead({})", status.wait_code()),
        };
        let heap_used = self.space.heap_bytes(p.heap).unwrap_or(0);
        let heap_limit = p
            .memlimit
            .map(|ml| self.space.limits().limit(ml))
            .unwrap_or(self.config.user_budget);
        (state, heap_used, heap_limit)
    }

    /// procfs-style status text for one process — the text `proc.status`
    /// serves to guests. Always available (profiling not required); empty
    /// for an unknown pid.
    pub fn proc_status_text(&self, pid: Pid) -> String {
        use std::fmt::Write as _;
        let Some(idx) = self.proc_index(pid) else {
            return String::new();
        };
        let p = &self.procs[idx];
        let (state, heap_used, heap_limit) = self.proc_state_and_heap(p);
        let mut out = String::new();
        let _ = writeln!(out, "pid:\t{}", p.pid.0);
        let _ = writeln!(out, "name:\t{}", p.name);
        let _ = writeln!(out, "image:\t{}", p.image);
        let _ = writeln!(out, "state:\t{state}");
        let _ = writeln!(out, "threads:\t{}", p.threads.len());
        let _ = writeln!(out, "cpu_exec:\t{}", p.cpu.exec);
        let _ = writeln!(out, "cpu_gc:\t{}", p.cpu.gc);
        let _ = writeln!(out, "cpu_kernel:\t{}", p.cpu.kernel);
        let _ = writeln!(out, "heap_used:\t{heap_used}");
        let _ = writeln!(out, "heap_limit:\t{heap_limit}");
        let _ = writeln!(out, "net_sent:\t{}", p.net_sent);
        let _ = writeln!(out, "jit_compiled:\t{}", p.jit.stats.compiled);
        let _ = writeln!(out, "jit_cache_hits:\t{}", p.jit.stats.hits);
        let _ = writeln!(out, "jit_shared_reuse:\t{}", p.jit.stats.reuse);
        let _ = writeln!(out, "jit_bytes:\t{}", p.jit.stats.bytes);
        out
    }

    /// Per-process JIT statistics (methods compiled, shared-cache hits and
    /// cross-process reuse, template bytes referenced). `None` for an
    /// unknown pid. Host observability only — never feeds virtual state.
    pub fn jit_stats(&self, pid: Pid) -> Option<kaffeos_vm::ProcJitStats> {
        self.proc_index(pid).map(|idx| self.procs[idx].jit.stats)
    }

    /// Cumulative counters of the process-shared code cache.
    pub fn jit_cache_stats(&self) -> kaffeos_vm::CacheStats {
        self.jit_cache.stats
    }

    /// `(bodies cached, bytes cached, byte capacity)` of the shared code
    /// cache.
    pub fn jit_cache_usage(&self) -> (usize, u64, u64) {
        (
            self.jit_cache.len(),
            self.jit_cache.bytes(),
            self.jit_cache.capacity(),
        )
    }

    /// Deterministic shared-cache registry snapshot in key order:
    /// `(key, refcount, body bytes, creator pid)`. Lifecycle tests compare
    /// this across replays; it never feeds virtual state.
    pub fn jit_cache_snapshot(&self) -> Vec<(kaffeos_vm::MethodKey, u32, u64, u32)> {
        self.jit_cache.snapshot()
    }

    /// The whole memlimit tree rendered as indented text — the text
    /// `proc.meminfo` serves to guests. Always available.
    pub fn meminfo_text(&self) -> String {
        self.space
            .limits()
            .render_tree(self.space.root_memlimit())
    }

    /// A `kaffeos-top` snapshot: one row per process with the CPU split,
    /// heap pressure against the memlimit, and — when the profiler is on —
    /// the hottest sampled leaf frame. Rows are in pid order, so the table
    /// is deterministic like everything else derived from virtual time.
    pub fn top_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:<14} {:<9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}  TOP-METHOD",
            "PID", "NAME", "STATE", "EXEC", "GC", "KERNEL", "HEAP", "LIMIT", "JIT"
        );
        for p in &self.procs {
            let (state, heap_used, heap_limit) = self.proc_state_and_heap(p);
            let top = self
                .space
                .obs()
                .profile
                .read(|prof| prof.top_leaves(p.pid.0, 1))
                .into_iter()
                .next()
                .map(|(frame, _)| frame)
                .unwrap_or_else(|| "-".to_string());
            // Compiled methods plus shared-body reuses: "3+2" reads as
            // "3 compiled here, 2 picked up warm from the shared cache".
            let jit = format!("{}+{}", p.jit.stats.compiled, p.jit.stats.reuse);
            let _ = writeln!(
                out,
                "{:>4} {:<14} {:<9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}  {top}",
                p.pid.0,
                p.name,
                state,
                p.cpu.exec,
                p.cpu.gc,
                p.cpu.kernel,
                heap_used,
                heap_limit,
                jit
            );
        }
        out
    }

    // ---- heap introspection (dumps, procfs) --------------------------------

    /// Display name for a heap-layer class tag: the loaded class's name,
    /// or the VM's array sentinels (`int[]`, `float[]`, `Object[]`). The
    /// heap plane's exports take it as their class resolver.
    pub fn class_tag_name(&self, tag: u32) -> String {
        let id = kaffeos_heap::ClassId(tag);
        if id == kaffeos_vm::INT_ARRAY_CLASS {
            return "int[]".to_string();
        }
        if id == kaffeos_vm::FLOAT_ARRAY_CLASS {
            return "float[]".to_string();
        }
        if id == kaffeos_vm::REF_ARRAY_CLASS {
            return "Object[]".to_string();
        }
        if (tag as usize) < self.table.classes.len() {
            self.table.class(self.table.from_heap_class(id)).name.clone()
        } else {
            format!("class#{tag}")
        }
    }

    /// Deterministic whole-space heap dump as JSON-lines: a `dumpmeta`
    /// header (virtual clock, quanta, process count), one `class` line per
    /// loaded class tag, then the heap/page/object/edge walk (see
    /// `kaffeos_heap`'s dump module). Always available — a pure function
    /// of the virtual state, byte-identical across runs of the same
    /// `(program, seed)`.
    pub fn heap_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"dumpmeta\",\"clock\":{},\"quanta\":{},\"procs\":{}}}",
            self.clock,
            self.quanta,
            self.procs.len()
        );
        for tag in 0..self.table.classes.len() as u32 {
            let _ = writeln!(
                out,
                "{{\"type\":\"class\",\"tag\":{tag},\"name\":\"{}\"}}",
                self.class_tag_name(tag)
            );
        }
        out.push_str(&self.space.dump_jsonl());
        out
    }

    /// Walked per-heap live-byte/object recounts (ground truth for
    /// reconciling dumps against accounting; always available).
    pub fn heap_recounts(&self) -> Vec<kaffeos_heap::HeapRecount> {
        self.space.recount_heaps()
    }

    /// procfs-style heap layout text for one process — the text
    /// `proc.heapinfo` serves to guests. Always available (the
    /// observability plane is not required); empty for an unknown pid.
    pub fn proc_heapinfo_text(&self, pid: Pid) -> String {
        use std::fmt::Write as _;
        let Some((mut out, snap)) = self.proc_heap_preamble(pid) else {
            return String::new();
        };
        let _ = writeln!(out, "heap:\t{}", snap.id.index());
        let _ = writeln!(out, "label:\t{}", snap.label);
        let _ = writeln!(out, "bytes_used:\t{}", snap.bytes_used);
        let _ = writeln!(out, "objects:\t{}", snap.objects);
        let _ = writeln!(out, "pages:\t{}", snap.pages);
        let _ = writeln!(out, "nursery_pages:\t{}", snap.nursery_pages);
        let _ = writeln!(out, "remset:\t{}", snap.remset_size);
        let _ = writeln!(out, "entry_items:\t{}", snap.entry_items);
        let _ = writeln!(out, "exit_items:\t{}", snap.exit_items);
        let _ = writeln!(out, "gc_count:\t{}", snap.gc_count);
        let _ = writeln!(out, "minor_gcs:\t{}", snap.minor_gcs);
        let _ = writeln!(out, "frozen:\t{}", snap.frozen);
        out
    }

    /// procfs-style heap statistics text for one process — the text
    /// `proc.heapstats` serves to guests: the accounting counters always,
    /// plus per-allocation-site rows when the observability plane is on.
    /// Empty for an unknown pid.
    pub fn proc_heapstats_text(&self, pid: Pid) -> String {
        use std::fmt::Write as _;
        let Some((mut out, snap)) = self.proc_heap_preamble(pid) else {
            return String::new();
        };
        let _ = writeln!(out, "bytes_used:\t{}", snap.bytes_used);
        let _ = writeln!(out, "objects:\t{}", snap.objects);
        let _ = writeln!(out, "gc_count:\t{}", snap.gc_count);
        let _ = writeln!(out, "minor_gcs:\t{}", snap.minor_gcs);
        let heap = &self.space.obs().heap;
        if heap.is_on() {
            // Per-site rows for this pid, in the store's sorted site order.
            let _ = writeln!(out, "sites:");
            for ((site_pid, leaf, class), s) in heap.read(|h| h.site_stats()) {
                if site_pid != pid.0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {leaf};{}\tallocs={} bytes={} died_young={} died_old={} tenured={}",
                    self.class_tag_name(class),
                    s.allocs,
                    s.bytes,
                    s.freed_minor,
                    s.freed_full,
                    s.tenured,
                );
            }
        }
        out
    }

    /// The `pid:` line both heap procfs files open with, and the heap
    /// snapshot behind them; `None` for an unknown pid or a dead heap.
    fn proc_heap_preamble(&self, pid: Pid) -> Option<(String, kaffeos_heap::HeapSnapshot)> {
        let p = &self.procs[self.proc_index(pid)?];
        let snap = self.space.snapshot(p.heap).ok()?;
        Some((format!("pid:\t{}\n", p.pid.0), snap))
    }

    // ---- fault injection and auditing (the chaos-kernel harness) -----------

    /// Records an internal error the kernel degraded past instead of
    /// panicking; [`KaffeOs::audit`] reports the first one.
    fn kernel_fault(&mut self, kind: kaffeos_trace::KernelFaultKind, detail: String) {
        self.space.obs().trace.with(|t| {
            t.set_clock(self.clock);
            t.record(kaffeos_trace::Payload::KernelFault {
                kind,
                detail: detail.clone(),
            });
        });
        self.kernel_faults
            .push(kaffeos_trace::KernelFault { kind, detail });
    }

    /// Internal errors recorded by graceful degradation this run.
    pub fn kernel_faults(&self) -> &[kaffeos_trace::KernelFault] {
        &self.kernel_faults
    }

    /// Installs a fault-injection schedule. The allocation fault (if armed)
    /// is armed on the heap space immediately; the sweep/GC/illegal-write
    /// mechanisms fire from the scheduler loop.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        if let Some(fault) = plan.alloc_fault {
            self.space.set_alloc_fault(fault);
        }
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any (counters reflect what has fired).
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Disarms fault injection (the plan's counters are returned).
    pub fn clear_faults(&mut self) -> Option<FaultPlan> {
        self.space.clear_alloc_fault();
        self.faults.take()
    }

    /// Fires the quantum-boundary fault mechanisms: the termination sweep
    /// and the illegal cross-heap write probe.
    fn apply_quantum_faults(&mut self) {
        let Some(mut plan) = self.faults.take() else {
            return;
        };
        if plan.kill_sweep {
            let live: Vec<Pid> = self
                .procs
                .iter()
                .filter(|p| !matches!(p.state, ProcState::Dead(_)))
                .map(|p| p.pid)
                .collect();
            if !live.is_empty() {
                let victim = live[(plan.next() % live.len() as u64) as usize];
                plan.kills_injected += 1;
                self.emit_event(0, || kaffeos_trace::Payload::FaultInjected {
                    kind: kaffeos_trace::InjectionKind::KillSweep { victim: victim.0 },
                });
                if let Err(e) = self.kill(victim) {
                    self.kernel_fault(
                        kaffeos_trace::KernelFaultKind::Sweep,
                        format!("fault sweep: kill({victim:?}) failed: {e}"),
                    );
                }
            }
        }
        if plan.illegal_writes && self.config.barrier.enforces() && !self.config.monolithic {
            self.inject_illegal_write(&mut plan);
        }
        self.faults = Some(plan);
    }

    /// Attempts one illegal user-to-user cross-heap reference store between
    /// two seeded-chosen live processes. The write barrier must reject it
    /// with a segmentation violation; an accepted write is an audit
    /// violation. The two probe objects are unreachable garbage afterwards
    /// and are reclaimed by ordinary collection.
    fn inject_illegal_write(&mut self, plan: &mut FaultPlan) {
        let live: Vec<HeapId> = self
            .procs
            .iter()
            .filter(|p| !matches!(p.state, ProcState::Dead(_)))
            .map(|p| p.heap)
            .collect();
        if live.len() < 2 {
            return;
        }
        let a = (plan.next() % live.len() as u64) as usize;
        let b = (a + 1 + (plan.next() % (live.len() as u64 - 1)) as usize) % live.len();
        let class = self.string_class.heap_class();
        // Either allocation may fail (the armed allocation fault or a full
        // memlimit) — a failed probe is simply skipped.
        let Ok(src) = self.space.alloc_fields(live[a], class, 1) else {
            return;
        };
        let Ok(dst) = self.space.alloc_fields(live[b], class, 1) else {
            return;
        };
        plan.illegal_writes_attempted += 1;
        self.emit_event(0, || kaffeos_trace::Payload::FaultInjected {
            kind: kaffeos_trace::InjectionKind::IllegalWrite,
        });
        match self.space.store_ref(src, 0, Value::Ref(dst), false) {
            Err(kaffeos_heap::HeapError::SegViolation(_)) => {}
            Ok(_) => {
                plan.illegal_writes_accepted += 1;
            }
            Err(e) => {
                // Any other rejection still contains the write, but means
                // the probe hit an unexpected path worth recording.
                self.kernel_fault(
                    kaffeos_trace::KernelFaultKind::Probe,
                    format!("illegal-write probe failed with a non-barrier error: {e:?}"),
                );
            }
        }
    }

    /// Re-derives every invariant the kernel's isolation and accounting
    /// story depends on, reporting the first violation:
    ///
    /// 1. the heap space's audit (entry/exit reference-count conservation,
    ///    page ownership, counter recounts, memlimit-tree conservation);
    /// 2. no internal error was degraded past during the run;
    /// 3. full reclamation: every dead process' heap is gone, its memlimit
    ///    removed, and no shared heap still charges it;
    /// 4. exact accounting: every live process' memlimit debit equals its
    ///    heap's accounted bytes plus its shared-heap charges;
    /// 5. shared-heap registry sanity: heaps alive and frozen, all sharers
    ///    live;
    /// 6. report conservation: pids map one-to-one onto process-table rows
    ///    so no [`RunReport`] row is lost or double-counted;
    /// 7. the barrier rejected every injected illegal write.
    pub fn audit(&self) -> Result<AuditReport, AuditViolation> {
        let space = self.space.audit()?;

        if let Some(fault) = self.kernel_faults.first() {
            return Err(AuditViolation::KernelFault {
                kind: fault.kind,
                detail: fault.detail.clone(),
            });
        }

        for (i, p) in self.procs.iter().enumerate() {
            if p.pid.0 as usize != i + 1 {
                return Err(AuditViolation::ReportConservation {
                    detail: format!("row {i} holds pid {:?}", p.pid),
                });
            }
            if matches!(p.state, ProcState::Dead(_)) {
                if !self.config.monolithic && self.space.heap_alive(p.heap) {
                    return Err(AuditViolation::DeadHeapSurvives { pid: p.pid });
                }
                if p.memlimit.is_some() {
                    return Err(AuditViolation::DeadMemlimitSurvives { pid: p.pid });
                }
                if let Some(name) = self.shm.charged_to(p.pid).into_iter().next() {
                    return Err(AuditViolation::DeadStillCharged { pid: p.pid, name });
                }
            } else if !self.config.monolithic {
                let Some(ml) = p.memlimit else {
                    return Err(AuditViolation::ReportConservation {
                        detail: format!("live process {:?} has no memlimit", p.pid),
                    });
                };
                let accounted = self.space.accounted_bytes(p.heap).unwrap_or(u64::MAX);
                let shm_charged: u64 = self
                    .shm
                    .charged_to(p.pid)
                    .iter()
                    .filter_map(|name| self.shm.get(name))
                    .map(|s| s.size)
                    .sum();
                let current = self.space.limits().current(ml);
                if accounted.saturating_add(shm_charged) != current {
                    return Err(AuditViolation::ProcessAccounting {
                        pid: p.pid,
                        current,
                        accounted,
                        shm_charged,
                    });
                }
            }
        }

        for (name, shm) in self.shm.iter() {
            if !self.space.heap_alive(shm.heap)
                || self.space.snapshot(shm.heap).map(|s| !s.frozen).unwrap_or(true)
            {
                return Err(AuditViolation::ShmHeapBroken { name: name.clone() });
            }
            for &sharer in &shm.sharers {
                if !self.is_alive(sharer) {
                    return Err(AuditViolation::ShmSharerDead {
                        name: name.clone(),
                        pid: sharer,
                    });
                }
            }
        }

        if let Some(plan) = &self.faults {
            if plan.illegal_writes_accepted > 0 {
                return Err(AuditViolation::IllegalWriteAccepted {
                    count: plan.illegal_writes_accepted,
                });
            }
        }

        // Code-cache conservation: every refcount in the shared cache must
        // equal the number of live attachments (dead processes detach at
        // reap), every attached key must still be resident (eviction only
        // claims refs == 0 entries; invalidation drops the attachment
        // first), and the cache's byte account must match its entries.
        {
            let mut attached: std::collections::BTreeMap<kaffeos_vm::MethodKey, u32> =
                std::collections::BTreeMap::new();
            for p in &self.procs {
                if matches!(p.state, ProcState::Dead(_)) {
                    if p.jit.attached().next().is_some() {
                        return Err(AuditViolation::CodeCache {
                            detail: format!("dead process {:?} still holds attachments", p.pid),
                        });
                    }
                    continue;
                }
                for key in p.jit.attached_keys() {
                    *attached.entry(key).or_insert(0) += 1;
                }
            }
            let mut cache_bytes = 0u64;
            let mut cached: std::collections::BTreeMap<kaffeos_vm::MethodKey, u32> =
                std::collections::BTreeMap::new();
            for (key, refs, bytes, _creator) in self.jit_cache.snapshot() {
                cached.insert(key, refs);
                cache_bytes += bytes;
            }
            for (key, n) in &attached {
                match cached.get(key) {
                    None => {
                        return Err(AuditViolation::CodeCache {
                            detail: format!("attached body {key:?} missing from cache"),
                        })
                    }
                    Some(refs) if refs != n => {
                        return Err(AuditViolation::CodeCache {
                            detail: format!(
                                "refcount drift on {key:?}: cache says {refs}, {n} attached"
                            ),
                        })
                    }
                    Some(_) => {}
                }
            }
            for (key, refs) in &cached {
                if *refs != attached.get(key).copied().unwrap_or(0) {
                    return Err(AuditViolation::CodeCache {
                        detail: format!("cache entry {key:?} has {refs} refs but no attachments"),
                    });
                }
            }
            if cache_bytes != self.jit_cache.bytes() {
                return Err(AuditViolation::CodeCache {
                    detail: format!(
                        "byte account drift: entries sum to {cache_bytes}, cache says {}",
                        self.jit_cache.bytes()
                    ),
                });
            }
        }

        let live = self
            .procs
            .iter()
            .filter(|p| !matches!(p.state, ProcState::Dead(_)))
            .count() as u64;
        Ok(AuditReport {
            space,
            processes: self.procs.len() as u64,
            live,
            dead: self.procs.len() as u64 - live,
            user_bytes_charged: self.space.limits().current(self.space.root_memlimit()),
            shared_heaps: self.shm.len() as u64,
            alloc_faults_fired: self.space.alloc_faults_fired(),
            kills_injected: self.faults.as_ref().map_or(0, |p| p.kills_injected),
            illegal_writes_attempted: self
                .faults
                .as_ref()
                .map_or(0, |p| p.illegal_writes_attempted),
        })
    }

    // ---- termination (§2, "Safe termination of processes") -----------------

    /// Requests termination of a process. User-mode threads die at their
    /// next safe point; threads inside the kernel (non-zero `kernel_depth`)
    /// die when they leave it; parked threads die immediately (they are at
    /// a safe point by construction).
    pub fn kill(&mut self, pid: Pid) -> Result<(), KernelError> {
        let idx = self.proc_index(pid).ok_or(KernelError::UnknownPid(pid))?;
        if matches!(self.procs[idx].state, ProcState::Dead(_)) {
            return Ok(());
        }
        self.emit_event(pid.0, || kaffeos_trace::Payload::KillRequested { target: pid.0 });
        self.procs[idx].state = ProcState::Dying;
        for t in &mut self.procs[idx].threads {
            t.kill_requested = true;
        }
        if self.space.obs().trace.is_on() {
            // Threads inside the kernel survive until they leave it: record
            // each deferral so traces show why a kill was not immediate.
            let deferred: Vec<u32> = self.procs[idx]
                .threads
                .iter()
                .filter(|t| t.kernel_depth > 0 && !matches!(t.state, ThreadState::Done))
                .map(|t| t.id)
                .collect();
            for thread in deferred {
                self.emit_event(pid.0, || kaffeos_trace::Payload::KillDeferred {
                    target: pid.0,
                    thread,
                });
            }
        }
        // Parked / monitor-blocked threads sit at a safe point between
        // quanta: finish them now unless they are in kernel mode.
        let parked: Vec<usize> = self.procs[idx]
            .threads
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                (matches!(t.state, ThreadState::Blocked(_))
                    || self.procs[idx].parked.contains_key(i))
                    && t.kernel_depth == 0
            })
            .map(|(i, _)| i)
            .collect();
        for i in parked {
            let t = &mut self.procs[idx].threads[i];
            for m in t.held_monitors.drain(..) {
                self.monitors.remove(&m);
            }
            t.frames.clear();
            t.values.clear();
            t.state = ThreadState::Done;
            self.procs[idx].parked.remove(&i);
        }
        if self.procs[idx].all_threads_done() {
            self.reap(pid, ExitStatus::Killed);
        }
        Ok(())
    }

    /// Reclaims a finished process: credits its shared-heap charges, merges
    /// its heap into the kernel heap (full reclamation, §2), removes its
    /// memlimit, and wakes waiters.
    fn reap(&mut self, pid: Pid, status: ExitStatus) {
        let Some(idx) = self.proc_index(pid) else {
            self.kernel_fault(
                kaffeos_trace::KernelFaultKind::Reap,
                format!("reap of unknown pid {pid:?}"),
            );
            return;
        };
        debug_assert!(!matches!(self.procs[idx].state, ProcState::Dead(_)));

        // Release any monitors still held by (now dead) threads.
        let held: Vec<ObjRef> = self.procs[idx]
            .threads
            .iter_mut()
            .flat_map(|t| t.held_monitors.drain(..).collect::<Vec<_>>())
            .collect();
        for m in held {
            self.monitors.remove(&m);
        }

        // Credit the shared-heap charges ("sharers do not have to be
        // charged asynchronously if another sharer exits").
        let charged = self.shm.charged_to(pid);
        for name in charged {
            if let Some(size) = self.shm.remove_sharer(&name, pid) {
                self.emit_event(pid.0, || kaffeos_trace::Payload::ShmDetached {
                    name: name.clone(),
                });
                if let Some(ml) = self.procs[idx].memlimit {
                    if let Err(e) = self.space.limits_mut().credit(ml, size) {
                        self.kernel_fault(
                            kaffeos_trace::KernelFaultKind::ShmCredit,
                            format!("reap {pid:?}: shm charge for {name} was not debited: {e:?}"),
                        );
                    }
                }
            }
        }

        if !self.config.monolithic {
            // Merge the heap; everything unreachable becomes kernel garbage
            // collected by the next kernel GC cycle.
            let heap = self.procs[idx].heap;
            // Per-tenant heap telemetry: snapshot the dying heap before the
            // merge erases it, so tenant reports can say what each tenant's
            // processes left behind and how much collection they ran.
            if let Some(tenant) = self.procs[idx].tenant {
                if let Ok(snap) = self.space.snapshot(heap) {
                    if let Some(st) = self.tenants.get_mut(tenant.0 as usize) {
                        st.stats.heap_bytes_reaped += snap.bytes_used;
                        st.stats.heap_objects_reaped += snap.objects;
                        st.stats.heap_gcs += snap.gc_count;
                        st.stats.heap_minor_gcs += snap.minor_gcs;
                    }
                }
            }
            // The merge records heap-layer events under the planes' stamp;
            // make sure they read the pre-merge kernel clock.
            self.space.obs().stamp(pid.0, self.clock);
            match self.space.merge_into_kernel(heap) {
                Ok(report) => {
                    self.kernel_cpu.gc += report.cycles;
                    self.clock += report.cycles;
                }
                Err(e) => {
                    self.kernel_fault(
                        kaffeos_trace::KernelFaultKind::HeapMerge,
                        format!("reap {pid:?}: heap merge failed: {e:?}"),
                    );
                }
            }
            // Credits from removing the memlimit happen after the merge
            // advanced the clock.
            self.space.obs().trace.with(|t| t.set_clock(self.clock));
            if let Some(ml) = self.procs[idx].memlimit {
                if let Err(e) = self.space.limits_mut().drain_and_remove(ml) {
                    self.kernel_fault(
                        kaffeos_trace::KernelFaultKind::MemlimitRemove,
                        format!("reap {pid:?}: memlimit not removable after merge: {e:?}"),
                    );
                }
            }
            self.procs[idx].memlimit = None;
        }

        // Class unloading: the dead process' namespace stops resolving
        // (shared classes are unaffected; monolithic mode shares one
        // namespace, which must outlive any single guest).
        if !self.config.monolithic {
            self.table.drop_namespace(self.procs[idx].ns);
        }
        self.procs[idx].statics.clear();
        self.procs[idx].intern.clear();
        self.procs[idx].parked.clear();
        // Detach compiled bodies from the shared cache. Entries stay
        // resident at refcount zero (warm cache — the ShareJIT payoff: a
        // respawned process re-attaches without recompiling); eviction only
        // reclaims them under byte pressure.
        for key in self.procs[idx].jit.attached_keys() {
            self.jit_cache.detach(&key);
        }
        self.procs[idx].jit.bodies.clear();
        self.procs[idx].jit.counters.clear();
        let status = if self.procs[idx].cpu_overrun && status == ExitStatus::Killed {
            ExitStatus::CpuLimitExceeded
        } else {
            status
        };
        self.procs[idx].state = ProcState::Dead(status.clone());

        // Wake waiters with the exit code.
        let waiters = std::mem::take(&mut self.procs[idx].waiters);
        let code = status.wait_code();
        self.emit_event(pid.0, || kaffeos_trace::Payload::Exit {
            kind: match &status {
                ExitStatus::Exited(_) => kaffeos_trace::ExitKind::Exited,
                ExitStatus::Killed => kaffeos_trace::ExitKind::Killed,
                ExitStatus::CpuLimitExceeded => kaffeos_trace::ExitKind::CpuLimitExceeded,
                ExitStatus::UncaughtException { .. } => kaffeos_trace::ExitKind::UncaughtException,
            },
            code,
        });
        for (wpid, wtidx) in waiters {
            if let Some(widx) = self.proc_index(wpid) {
                if matches!(self.procs[widx].state, ProcState::Dead(_)) {
                    continue;
                }
                self.procs[widx].parked.remove(&wtidx);
                let t = &mut self.procs[widx].threads[wtidx];
                t.kernel_depth = t.kernel_depth.saturating_sub(1);
                t.resume_with(Some(Value::Int(code)));
                self.run_queue.push_back((wpid, wtidx));
            }
        }

        // Tenant bookkeeping: free the admission slot, classify the exit,
        // and (for supervised tenants) schedule a backed-off restart.
        self.tenant_note_exit(idx, &status);
    }

    // ---- tenancy: admission, restarts, degradation (§4.2) -------------------

    /// Creates a tenant with the given policy and returns its id. Tenants
    /// are never destroyed; ids are dense and stable.
    pub fn create_tenant(&mut self, name: &str, policy: TenantPolicy) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(TenantState::new(id, name.to_string(), policy));
        id
    }

    /// Installs (or clears) the machine-wide graceful-degradation policy.
    pub fn set_overload_policy(&mut self, policy: Option<OverloadPolicy>) {
        self.overload = policy;
    }

    /// Spawns a process for a tenant through admission control: below the
    /// cap the spawn happens immediately; at the cap it queues FIFO if the
    /// queue has room; otherwise it is rejected with a typed error. A shed
    /// tenant or an open circuit breaker rejects outright.
    pub fn spawn_for_tenant(
        &mut self,
        tenant: TenantId,
        image: &str,
        args: &str,
        opts: SpawnOpts,
    ) -> Result<Admission, KernelError> {
        let ti = tenant.0 as usize;
        if ti >= self.tenants.len() {
            return Err(KernelError::UnknownTenant(tenant));
        }
        self.tenants[ti].stats.offered += 1;
        if self.tenants[ti].shed {
            self.tenants[ti].stats.rejected_shed += 1;
            self.emit_event(0, || kaffeos_trace::Payload::TenantRejected {
                tenant: tenant.0,
                reason: "shed",
            });
            return Err(KernelError::AdmissionShed { tenant });
        }
        if let Some(until) = self.tenants[ti].breaker_open_until {
            if self.clock < until {
                self.tenants[ti].stats.rejected_breaker += 1;
                self.emit_event(0, || kaffeos_trace::Payload::TenantRejected {
                    tenant: tenant.0,
                    reason: "breaker_open",
                });
                return Err(KernelError::AdmissionBreakerOpen { tenant, until });
            }
            self.tenants[ti].breaker_open_until = None;
            self.emit_event(0, || kaffeos_trace::Payload::BreakerClosed { tenant: tenant.0 });
        }
        let live = self.tenants[ti].live.len() as u32;
        let cap = self.tenants[ti].policy.max_procs;
        if live < cap {
            let mut opts = opts;
            opts.tenant = Some(tenant);
            let pid = self.spawn_with(image, args, opts)?;
            let st = &mut self.tenants[ti];
            st.live.push(pid);
            st.stats.admitted += 1;
            self.emit_event(pid.0, || kaffeos_trace::Payload::TenantAdmitted {
                tenant: tenant.0,
                child: pid.0,
            });
            return Ok(Admission::Admitted(pid));
        }
        let st = &mut self.tenants[ti];
        if st.queue.len() < st.policy.queue_capacity {
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push_back(QueuedSpawn {
                ticket,
                image: image.to_string(),
                args: args.to_string(),
                opts,
            });
            st.stats.queued += 1;
            self.emit_event(0, || kaffeos_trace::Payload::TenantQueued {
                tenant: tenant.0,
                ticket,
            });
            return Ok(Admission::Queued { ticket });
        }
        st.stats.rejected_cap += 1;
        self.emit_event(0, || kaffeos_trace::Payload::TenantRejected {
            tenant: tenant.0,
            reason: "at_cap",
        });
        Err(KernelError::AdmissionRejected { tenant, live, cap })
    }

    /// Reap-time tenant bookkeeping: frees the admission slot, feeds the
    /// circuit breaker, and schedules a supervised restart for failures.
    fn tenant_note_exit(&mut self, idx: usize, status: &ExitStatus) {
        let Some(tenant) = self.procs[idx].tenant else {
            return;
        };
        let ti = tenant.0 as usize;
        if ti >= self.tenants.len() {
            return;
        }
        let pid = self.procs[idx].pid;
        let cause = status.cause();
        let clock = self.clock;
        let st = &mut self.tenants[ti];
        st.live.retain(|&p| p != pid);
        st.stats.exits.note(cause);
        if !cause.is_failure() {
            st.consecutive_failures = 0;
            return;
        }
        let rp = st.policy.restart;
        if !st.shed && rp.breaker_threshold > 0 {
            // Kill-storm circuit breaker: count failures in a sliding
            // virtual-time window (sheds are policy, not storms — they
            // never feed the breaker).
            st.failure_times.push_back(clock);
            while st
                .failure_times
                .front()
                .is_some_and(|&f| clock.saturating_sub(f) > rp.breaker_window)
            {
                st.failure_times.pop_front();
            }
            if st.breaker_open_until.is_none()
                && st.failure_times.len() as u32 >= rp.breaker_threshold
            {
                let until = clock.saturating_add(rp.breaker_cooldown);
                st.breaker_open_until = Some(until);
                st.stats.breaker_opens += 1;
                st.failure_times.clear();
                self.emit_event(pid.0, || kaffeos_trace::Payload::BreakerOpened {
                    tenant: tenant.0,
                    until,
                });
            }
        }
        if rp.restart_on_failure {
            let image = self.procs[idx].image.clone();
            let args = self.procs[idx].spawn_args.clone();
            let opts = self.procs[idx].spawn_opts;
            self.tenant_schedule_restart(ti, image, args, opts);
        }
    }

    /// Schedules one supervised restart with the next backoff step, or
    /// abandons supervision past `max_restarts`.
    fn tenant_schedule_restart(&mut self, ti: usize, image: String, args: String, opts: SpawnOpts) {
        let clock = self.clock;
        let st = &mut self.tenants[ti];
        st.consecutive_failures += 1;
        let attempt = st.consecutive_failures;
        let rp = st.policy.restart;
        if attempt > rp.max_restarts {
            st.stats.restarts_abandoned += 1;
            return;
        }
        let due = clock.saturating_add(rp.backoff_delay(attempt));
        let log_index = st.restart_log.len();
        st.restart_log.push(RestartRecord {
            image: image.clone(),
            attempt,
            scheduled_at: clock,
            due,
            launched_at: None,
            pid: None,
        });
        st.pending_restarts.push_back(PendingRestart {
            image,
            args,
            opts,
            attempt,
            due,
            log_index,
        });
        let tid = st.id.0;
        self.emit_event(0, || kaffeos_trace::Payload::RestartScheduled {
            tenant: tid,
            attempt,
            due,
        });
    }

    /// One tenant-policy step, run between quanta: applies degradation
    /// watermarks, closes elapsed breakers, launches due restarts, and
    /// drains admission queues into freed slots — all in tenant-id / FIFO
    /// order, driven purely by the virtual clock.
    fn tenant_tick(&mut self) {
        if self.tenants.is_empty() {
            return;
        }
        self.apply_overload_shedding();
        for ti in 0..self.tenants.len() {
            if let Some(until) = self.tenants[ti].breaker_open_until {
                if self.clock >= until {
                    self.tenants[ti].breaker_open_until = None;
                    let tid = self.tenants[ti].id.0;
                    self.emit_event(0, || kaffeos_trace::Payload::BreakerClosed { tenant: tid });
                }
            }
            // Launch due restarts, oldest first.
            loop {
                let st = &self.tenants[ti];
                if st.shed || st.breaker_open_until.is_some() {
                    break;
                }
                let Some(pr) = st.pending_restarts.front() else {
                    break;
                };
                if pr.due > self.clock || st.live.len() as u32 >= st.policy.max_procs {
                    break;
                }
                let Some(pr) = self.tenants[ti].pending_restarts.pop_front() else {
                    break;
                };
                self.tenant_launch_restart(ti, pr);
            }
            // Drain queued admissions into free slots, ticket order.
            loop {
                let st = &self.tenants[ti];
                if st.shed
                    || st.breaker_open_until.is_some()
                    || st.queue.is_empty()
                    || st.live.len() as u32 >= st.policy.max_procs
                {
                    break;
                }
                let Some(q) = self.tenants[ti].queue.pop_front() else {
                    break;
                };
                let tenant = self.tenants[ti].id;
                let mut opts = q.opts;
                opts.tenant = Some(tenant);
                match self.spawn_with(&q.image, &q.args, opts) {
                    Ok(pid) => {
                        let at = self.clock;
                        let st = &mut self.tenants[ti];
                        st.live.push(pid);
                        st.stats.admitted += 1;
                        self.tenant_launches.push(TenantLaunch {
                            tenant,
                            ticket: Some(q.ticket),
                            pid,
                            at,
                        });
                        self.emit_event(pid.0, || kaffeos_trace::Payload::TenantAdmitted {
                            tenant: tenant.0,
                            child: pid.0,
                        });
                    }
                    Err(_) => {
                        // The spawn itself failed (e.g. an injected
                        // allocation fault): drop the request, count it.
                        self.tenants[ti].stats.spawn_failures += 1;
                        self.emit_event(0, || kaffeos_trace::Payload::TenantRejected {
                            tenant: tenant.0,
                            reason: "spawn_failed",
                        });
                    }
                }
            }
        }
    }

    /// Launches one due restart; a failed respawn re-enters the backoff
    /// ladder as one more consecutive failure.
    fn tenant_launch_restart(&mut self, ti: usize, pr: PendingRestart) {
        let tenant = self.tenants[ti].id;
        let mut opts = pr.opts;
        opts.tenant = Some(tenant);
        match self.spawn_with(&pr.image, &pr.args, opts) {
            Ok(pid) => {
                let at = self.clock;
                let st = &mut self.tenants[ti];
                st.live.push(pid);
                st.stats.restarts += 1;
                if let Some(rec) = st.restart_log.get_mut(pr.log_index) {
                    rec.launched_at = Some(at);
                    rec.pid = Some(pid);
                }
                self.tenant_launches.push(TenantLaunch {
                    tenant,
                    ticket: None,
                    pid,
                    at,
                });
                let attempt = pr.attempt;
                self.emit_event(pid.0, || kaffeos_trace::Payload::RestartLaunched {
                    tenant: tenant.0,
                    child: pid.0,
                    attempt,
                });
            }
            Err(_) => {
                self.tenant_schedule_restart(ti, pr.image, pr.args, pr.opts);
            }
        }
    }

    /// Graceful degradation: past the high watermark, shed the lowest-
    /// priority unshed tenant (ties break toward the younger id) — kill
    /// its processes, hold its restarts, reject its admissions. One shed
    /// per tick, and never while a previous shed is still draining, so
    /// pressure relief is observed before the next victim is chosen.
    /// Below the low watermark, restore every shed tenant.
    fn apply_overload_shedding(&mut self) {
        let Some(pol) = self.overload else {
            return;
        };
        let used = self.space.limits().current(self.space.root_memlimit());
        if used >= pol.shed_high_bytes {
            let draining = self.tenants.iter().any(|st| st.shed && !st.live.is_empty());
            if draining {
                return;
            }
            let victim = (0..self.tenants.len())
                .filter(|&ti| !self.tenants[ti].shed)
                .min_by_key(|&ti| (self.tenants[ti].policy.priority, std::cmp::Reverse(ti)));
            let Some(ti) = victim else {
                return;
            };
            self.tenants[ti].shed = true;
            self.tenants[ti].stats.sheds += 1;
            let tid = self.tenants[ti].id.0;
            self.emit_event(0, || kaffeos_trace::Payload::TenantShed { tenant: tid });
            for pid in self.tenants[ti].live.clone() {
                let _ = self.kill(pid);
            }
        } else if used <= pol.shed_low_bytes {
            for ti in 0..self.tenants.len() {
                if self.tenants[ti].shed {
                    self.tenants[ti].shed = false;
                    let tid = self.tenants[ti].id.0;
                    self.emit_event(0, || kaffeos_trace::Payload::TenantRestored { tenant: tid });
                }
            }
        }
    }

    /// Earliest virtual cycle at which the tenant engine has timed work
    /// (a pending restart coming due, a breaker cooldown ending with work
    /// waiting behind it), for the scheduler's idle fast-forward. `None`
    /// when no tenants exist, so untenanted kernels behave bit-identically
    /// to before the engine existed.
    fn next_tenant_wake(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        for st in &self.tenants {
            if st.shed {
                // Nothing clock-driven unsheds a tenant; skip it.
                continue;
            }
            let gate = st.breaker_open_until.unwrap_or(0);
            for pr in &st.pending_restarts {
                let t = pr.due.max(gate);
                // A restart already due but held by the process cap is not
                // clock-driven — a future exit unblocks it, not time.
                if t > self.clock {
                    best = Some(best.map_or(t, |b: u64| b.min(t)));
                }
            }
            if !st.queue.is_empty() && gate > self.clock {
                // Queued admissions blocked only by the breaker launch at
                // cooldown end.
                best = Some(best.map_or(gate, |b: u64| b.min(gate)));
            }
        }
        best
    }

    /// The name a tenant was created with.
    pub fn tenant_name(&self, tenant: TenantId) -> Option<&str> {
        self.tenants.get(tenant.0 as usize).map(|st| st.name.as_str())
    }

    /// Tenant stats, or `None` for an unknown tenant.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<&TenantStats> {
        self.tenants.get(tenant.0 as usize).map(|st| &st.stats)
    }

    /// Every scheduled restart of a tenant, in scheduling order (empty
    /// for unknown tenants).
    pub fn tenant_restart_log(&self, tenant: TenantId) -> &[RestartRecord] {
        self.tenants
            .get(tenant.0 as usize)
            .map(|st| st.restart_log.as_slice())
            .unwrap_or(&[])
    }

    /// Live pids currently accounted to a tenant, in admission order.
    pub fn tenant_live_pids(&self, tenant: TenantId) -> Vec<Pid> {
        self.tenants
            .get(tenant.0 as usize)
            .map(|st| st.live.clone())
            .unwrap_or_default()
    }

    /// Depth of a tenant's admission queue.
    pub fn tenant_queue_len(&self, tenant: TenantId) -> usize {
        self.tenants
            .get(tenant.0 as usize)
            .map(|st| st.queue.len())
            .unwrap_or(0)
    }

    /// The tenant a process is accounted to, if any.
    pub fn tenant_of(&self, pid: Pid) -> Option<TenantId> {
        self.proc_index(pid).and_then(|i| self.procs[i].tenant)
    }

    /// `Some(until)` while a tenant's circuit breaker is open.
    pub fn tenant_breaker_open_until(&self, tenant: TenantId) -> Option<u64> {
        self.tenants
            .get(tenant.0 as usize)
            .and_then(|st| st.breaker_open_until)
    }

    /// True while a tenant is shed under graceful degradation.
    pub fn tenant_is_shed(&self, tenant: TenantId) -> bool {
        self.tenants
            .get(tenant.0 as usize)
            .is_some_and(|st| st.shed)
    }

    /// Drains the launches the tenant engine performed on its own (queued
    /// admissions resolving, supervised restarts), in launch order.
    pub fn drain_tenant_launches(&mut self) -> Vec<TenantLaunch> {
        std::mem::take(&mut self.tenant_launches)
    }

    /// Advances the idle virtual clock to `t` (no-op if already past):
    /// the embedder's analogue of the scheduler's own idle fast-forward,
    /// for open-loop drivers that inject work at future arrival times.
    pub fn advance_clock_to(&mut self, t: u64) {
        self.clock = self.clock.max(t);
    }

    // ---- garbage collection -------------------------------------------------

    /// Collects one process' heap, charging the cycles to that process
    /// (§2: GC time is attributed to the process whose heap is collected).
    pub fn gc_process(&mut self, pid: Pid) -> Result<kaffeos_heap::GcReport, KernelError> {
        let idx = self.proc_index(pid).ok_or(KernelError::UnknownPid(pid))?;
        let roots = self.procs[idx].all_roots();
        let heap = self.procs[idx].heap;
        let scan: u64 = self.procs[idx]
            .threads
            .iter()
            .map(|t| t.stack_scan_size())
            .sum::<u64>()
            * costs::GC_STACK_SCAN_PER_SLOT;
        // Heap-layer GC events carry the planes' stamp.
        self.space.obs().stamp(pid.0, self.clock);
        let report = self.space.gc(heap, &roots)?;
        self.procs[idx].cpu.gc += report.cycles + scan;
        self.clock += report.cycles + scan;
        self.space.obs().trace.with(|t| t.set_clock(self.clock));
        // Kernel-initiated collections (the `sys.gc` path, embedder calls)
        // have no single running thread to walk; the whole pause lands
        // under the synthetic `[gc]` frame. Together with the quantum
        // boundary's GC share this covers every `cpu.gc` increment, so the
        // profiler's per-pid GC totals reconcile exactly.
        self.space.obs().profile.with(|p| {
            let frame = p.intern("[gc]");
            p.add_sample(pid.0, vec![frame], report.cycles + scan, SampleKind::Gc);
        });
        // Sharer release: if this process no longer holds exit items into a
        // charged shared heap, credit it (§2: "After the process garbage
        // collects the last exit item to a shared heap, that shared heap's
        // memory is credited to the sharer's budget").
        let charged = self.shm.charged_to(pid);
        for name in charged {
            let Some(shm_heap) = self.shm.get(&name).map(|s| s.heap) else {
                continue;
            };
            let still_referencing = self
                .space
                .exit_item_count(heap)
                .map(|_| self.heap_references_heap(heap, shm_heap))
                .unwrap_or(false);
            if !still_referencing {
                if let Some(size) = self.shm.remove_sharer(&name, pid) {
                    self.emit_event(pid.0, || kaffeos_trace::Payload::ShmDetached {
                        name: name.clone(),
                    });
                    if let Some(ml) = self.procs[idx].memlimit {
                        self.space
                            .limits_mut()
                            .credit(ml, size)
                            .map_err(|_| KernelError::Internal("shm charge was not debited"))?;
                    }
                }
            }
        }
        Ok(report)
    }

    /// **Minor** (nursery-only) collection of one process' heap: scans the
    /// heap's nursery pages plus its remembered set, promoting survivors —
    /// a cheap way for an embedder to trim allocation churn between full
    /// collections.
    ///
    /// Host-plane only, deliberately asymmetric to [`gc_process`]: no
    /// modelled cycles are charged, the virtual clock does not advance, and
    /// no trace events or profile samples are recorded (beyond the real
    /// memlimit credits for reclaimed bytes). The modelled kernel never
    /// calls this itself — the scheduler's GC points remain full
    /// collections — so Figure 3/4 and Table 1 outputs are unaffected by
    /// whether an embedder uses it.
    ///
    /// [`gc_process`]: KaffeOs::gc_process
    pub fn minor_gc_process(&mut self, pid: Pid) -> Result<kaffeos_heap::MinorGcReport, KernelError> {
        let idx = self.proc_index(pid).ok_or(KernelError::UnknownPid(pid))?;
        let roots = self.procs[idx].all_roots();
        let heap = self.procs[idx].heap;
        // Heap plane only: the memlimit credits this records on the trace
        // keep the trace's current stamp.
        self.space
            .obs()
            .heap
            .with(|h| h.set_context(pid.0, self.clock));
        Ok(self.space.gc_minor(heap, &roots)?)
    }

    fn heap_references_heap(&self, from: HeapId, to: HeapId) -> bool {
        // An exit item in `from` whose target lives on `to`.
        self.space.heap_exits_into(from, to)
    }

    /// One kernel GC cycle: merge orphaned shared heaps, then collect the
    /// kernel heap. Charged to the system, not to any process.
    pub fn kernel_gc(&mut self) -> kaffeos_heap::GcReport {
        // "The kernel garbage collector checks for orphaned shared heaps at
        // the beginning of each GC cycle and merges them into the kernel
        // heap" (§2).
        for name in self.shm.orphans() {
            if let Some(shm) = self.shm.remove(&name) {
                self.emit_event(0, || kaffeos_trace::Payload::ShmOrphaned {
                    name: name.clone(),
                });
                if self.space.heap_alive(shm.heap) {
                    self.space.obs().stamp(0, self.clock);
                    match self.space.merge_into_kernel(shm.heap) {
                        Ok(report) => {
                            self.kernel_cpu.gc += report.cycles;
                            self.clock += report.cycles;
                        }
                        Err(e) => {
                            self.kernel_fault(
                                kaffeos_trace::KernelFaultKind::OrphanMerge,
                                format!(
                                    "kernel_gc: orphan shared-heap merge of {name} failed: {e:?}"
                                ),
                            );
                        }
                    }
                }
            }
        }
        // Kernel heap roots: live shared-heap objects pinned by the
        // registry are on *shared* heaps, not the kernel heap, so the
        // kernel heap is collected with no external roots.
        let kernel = self.space.kernel_heap();
        self.space.obs().stamp(0, self.clock);
        let report = match self.space.gc(kernel, &[]) {
            Ok(report) => report,
            Err(e) => {
                self.kernel_fault(
                    kaffeos_trace::KernelFaultKind::KernelGc,
                    format!("kernel_gc: kernel heap collection failed: {e:?}"),
                );
                kaffeos_heap::GcReport {
                    heap: kernel,
                    charged_to: ProcTag(0),
                    cycles: 0,
                    objects_freed: 0,
                    bytes_freed: 0,
                    objects_live: 0,
                    exit_items_freed: 0,
                    roots: 0,
                }
            }
        };
        self.kernel_cpu.gc += report.cycles;
        self.clock += report.cycles;
        self.last_kernel_gc = self.clock;
        report
    }

    // ---- the scheduler --------------------------------------------------------

    /// Runs until every process has exited, the run queue drains, or the
    /// clock passes `deadline` cycles (if given). Returns the run report.
    pub fn run(&mut self, deadline: Option<u64>) -> RunReport {
        self.run_inner(deadline, false)
    }

    /// Like [`KaffeOs::run`], but also returns as soon as any process
    /// exits — exact observation of crash events for restart policies.
    pub fn run_until_exit(&mut self, deadline: Option<u64>) -> RunReport {
        self.run_inner(deadline, true)
    }

    fn run_inner(&mut self, deadline: Option<u64>, stop_on_exit: bool) -> RunReport {
        let mut deadlocked = false;
        let dead_at_entry = self
            .procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::Dead(_)))
            .count();
        loop {
            if stop_on_exit {
                let dead_now = self
                    .procs
                    .iter()
                    .filter(|p| matches!(p.state, ProcState::Dead(_)))
                    .count();
                if dead_now > dead_at_entry {
                    break;
                }
            }
            if let Some(deadline) = deadline {
                if self.clock >= deadline {
                    break;
                }
            }
            // Tenant policy step: shedding watermarks, breaker cooldowns,
            // due restarts, queued admissions. Exact no-op without tenants.
            self.tenant_tick();
            self.wake_unblocked();
            let Some((pid, tidx)) = self.run_queue.pop_front() else {
                // Nothing runnable. If the only sleepers are timed events
                // (paced sends, pending tenant restarts), fast-forward the
                // virtual clock to the earliest wake-up — waiting costs
                // wall time but no CPU.
                let wake = match (self.next_timed_wake(), self.next_tenant_wake()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if let Some(t) = wake {
                    if let Some(deadline) = deadline {
                        if t >= deadline {
                            self.clock = deadline;
                            break;
                        }
                    }
                    self.clock = self.clock.max(t);
                    continue;
                }
                // Otherwise: threads parked with no way to wake is a
                // deadlock.
                deadlocked = self.procs.iter().any(|p| {
                    !matches!(p.state, ProcState::Dead(_))
                        && p.threads.iter().enumerate().any(|(i, t)| {
                            matches!(t.state, ThreadState::Blocked(_)) || p.parked.contains_key(&i)
                        })
                });
                break;
            };
            let Some(idx) = self.proc_index(pid) else {
                continue;
            };
            if matches!(self.procs[idx].state, ProcState::Dead(_)) {
                continue;
            }
            if self.procs[idx].threads[tidx].state == ThreadState::Done {
                continue;
            }
            if self.clock.saturating_sub(self.last_kernel_gc) >= self.config.kernel_gc_period {
                self.kernel_gc();
            }
            self.quanta += 1;
            let exit = self.run_quantum(idx, tidx);
            self.dispatch_exit(pid, tidx, exit);
            self.enforce_cpu_limit(pid);
            self.apply_quantum_faults();
        }
        self.report(deadlocked)
    }

    /// Promotes monitor-blocked threads whose monitor became free, and
    /// timed parks (paced `net.send`s) whose wake time has passed.
    fn wake_unblocked(&mut self) {
        for idx in 0..self.procs.len() {
            if matches!(self.procs[idx].state, ProcState::Dead(_)) {
                continue;
            }
            let pid = self.procs[idx].pid;
            for tidx in 0..self.procs[idx].threads.len() {
                if let ThreadState::Blocked(obj) = self.procs[idx].threads[tidx].state {
                    let free = !self.monitors.contains_key(&obj);
                    if free {
                        self.procs[idx].threads[tidx].state = ThreadState::Runnable;
                        self.run_queue.push_back((pid, tidx));
                    }
                }
            }
            let mut due: Vec<(usize, i64)> = self.procs[idx]
                .parked
                .iter()
                .filter_map(|(&tidx, reason)| match reason {
                    ParkReason::Until(t, result) if *t <= self.clock => {
                        Some((tidx, *result))
                    }
                    _ => None,
                })
                .collect();
            // `parked` is a HashMap; sort so wake order (and therefore the
            // run queue and every trace) is deterministic.
            due.sort_unstable_by_key(|&(tidx, _)| tidx);
            for (tidx, result) in due {
                self.procs[idx].parked.remove(&tidx);
                self.procs[idx].threads[tidx].resume_with(Some(Value::Int(result)));
                self.run_queue.push_back((pid, tidx));
            }
        }
    }

    /// Earliest timed-park wake-up across live processes, if any.
    fn next_timed_wake(&self) -> Option<u64> {
        self.procs
            .iter()
            .filter(|p| !matches!(p.state, ProcState::Dead(_)))
            .flat_map(|p| p.parked.values())
            .filter_map(|r| match r {
                ParkReason::Until(t, _) => Some(*t),
                _ => None,
            })
            .min()
    }

    /// Executes one time slice of one thread.
    fn run_quantum(&mut self, idx: usize, tidx: usize) -> RunExit {
        let pid_u32 = self.procs[idx].pid.0;
        let thread_id = self.procs[idx].threads[tidx].id;
        // Stamps the planes with the quantum-start clock: trace and heap
        // records emitted while the guest runs (allocs, barrier census, GC
        // retries) carry it, as the kernel clock only advances when the
        // quantum's cycles are drained below.
        self.space.obs().stamp(pid_u32, self.clock);
        self.space
            .obs()
            .trace
            .with(|t| t.record(kaffeos_trace::Payload::QuantumStart { thread: thread_id }));
        // Extra GC roots: other threads of the heap-sharing group. In
        // KaffeOS mode that is the process' other threads; in monolithic
        // mode every thread of every process shares the heap (that very
        // scan is part of what isolation buys you).
        let (extra, extra_scan_slots): (Vec<ObjRef>, u64) = if self.config.monolithic {
            let roots = self
                .procs
                .iter()
                .flat_map(|p| p.threads.iter().flat_map(|t| t.stack_roots()))
                .collect();
            let slots = self
                .procs
                .iter()
                .flat_map(|p| p.threads.iter().map(|t| t.stack_scan_size()))
                .sum();
            (roots, slots)
        } else {
            let roots = self.procs[idx]
                .threads
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != tidx)
                .flat_map(|(_, t)| t.stack_roots())
                .collect();
            let slots = self.procs[idx]
                .threads
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != tidx)
                .map(|(_, t)| t.stack_scan_size())
                .sum();
            (roots, slots)
        };
        let engine = self.config.engine;
        // Weighted round-robin: a process' quantum is proportional to its
        // CPU share, giving coarse proportional CPU scheduling.
        let time_slice = self.config.time_slice * self.procs[idx].cpu_share as u64 / 100;
        let heap = self.procs[idx].heap;
        let ns = self.procs[idx].ns;
        let monolithic = self.config.monolithic;

        let jit_enabled = self.config.jit.enabled;
        let jit_threshold = self.config.jit.threshold;
        let proc = &mut self.procs[idx];
        let threads = &mut proc.threads;
        let (statics, intern) = if monolithic {
            (&mut self.mono_statics, &mut self.mono_intern)
        } else {
            (&mut proc.statics, &mut proc.intern)
        };
        let thread = &mut threads[tidx];
        // The JIT runtime borrows the per-process state and the shared
        // cache together; `None` keeps the tier fully out of the loop.
        let jit = jit_enabled.then_some(kaffeos_vm::JitRt {
            proc: &mut proc.jit,
            cache: &mut self.jit_cache,
            threshold: jit_threshold,
            pid: pid_u32,
        });
        let mut ctx = ExecCtx {
            space: &mut self.space,
            table: &self.table,
            ns,
            heap,
            trusted: false,
            engine,
            statics,
            intern,
            string_class: self.string_class,
            monitors: &mut self.monitors,
            extra_roots: &extra,
            extra_scan_slots,
            gc_every_safepoint: self
                .faults
                .as_ref()
                .is_some_and(|plan| plan.gc_every_safepoint),
            jit,
        };
        let granted = time_slice.max(1);
        let exit = step(thread, &mut ctx, granted);
        let drained = thread.drain_cycles();
        self.ops_executed += core::mem::take(&mut thread.ops);
        self.seg_sites.append(&mut thread.seg_sites);
        // Stack walk for the profiler, taken at the quantum boundary —
        // exactly where the drained cycles stopped accruing. Gated so a
        // disabled profiler allocates nothing.
        let sampled_stack = self
            .space
            .obs()
            .profile
            .is_on()
            .then(|| thread.sample_stack());
        let proc = &mut self.procs[idx];
        proc.cpu.exec += drained.exec();
        proc.cpu.gc += drained.gc;
        self.clock += drained.total;
        // QuantumEnd keeps the quantum-*start* stamp still on the trace
        // plane; the Chrome exporter computes the end as `at + cycles`
        // (stamping the advanced clock would double-count the quantum).
        self.space.obs().trace.with(|t| {
            t.record(kaffeos_trace::Payload::QuantumEnd {
                thread: thread_id,
                cycles: drained.total,
                gc_cycles: drained.gc,
            });
            t.set_clock(self.clock);
        });
        if let Some(stack) = sampled_stack {
            let table = &self.table;
            self.space.obs().profile.with(|p| {
                let frames = resolve_frames(p, table, &stack);
                p.record_quantum_jitter(granted.abs_diff(drained.total));
                if drained.gc > 0 {
                    // The GC share gets its own sample under a synthetic
                    // leaf, so flamegraphs separate mutator time from the
                    // collections the same stack triggered.
                    let gc_leaf = p.intern("[gc]");
                    let mut gc_frames = frames.clone();
                    gc_frames.push(gc_leaf);
                    p.add_sample(pid_u32, gc_frames, drained.gc, SampleKind::Gc);
                }
                p.add_sample(pid_u32, frames, drained.exec(), SampleKind::Exec);
            });
        }
        exit
    }

    /// Enforces the per-process CPU budget; returns true if the process
    /// was terminated for exceeding it.
    fn enforce_cpu_limit(&mut self, pid: Pid) -> bool {
        let Some(idx) = self.proc_index(pid) else {
            return false;
        };
        let Some(limit) = self.procs[idx].cpu_limit else {
            return false;
        };
        if matches!(self.procs[idx].state, ProcState::Dead(_))
            || self.procs[idx].cpu.total() <= limit
        {
            return false;
        }
        // Over budget: the kernel kills the process like any other kill,
        // but records the reason.
        let _ = self.kill(pid);
        // `kill` may have completed the reap with status Killed if every
        // thread was parked; rewrite the status in that case, otherwise
        // remember the reason for the eventual reap.
        let Some(idx) = self.proc_index(pid) else {
            return true;
        };
        match &self.procs[idx].state {
            ProcState::Dead(ExitStatus::Killed) => {
                self.procs[idx].state = ProcState::Dead(ExitStatus::CpuLimitExceeded);
            }
            ProcState::Dead(_) => {}
            _ => {
                self.procs[idx].cpu_overrun = true;
            }
        }
        true
    }

    /// Routes a quantum's exit back into kernel state.
    fn dispatch_exit(&mut self, pid: Pid, tidx: usize, exit: RunExit) {
        let Some(idx) = self.proc_index(pid) else {
            self.kernel_fault(
                kaffeos_trace::KernelFaultKind::Dispatch,
                format!("dispatch_exit for unknown pid {pid:?}"),
            );
            return;
        };
        match exit {
            RunExit::Preempted => {
                self.run_queue.push_back((pid, tidx));
            }
            RunExit::Blocked(_) => {
                // Thread parked on a monitor; woken by wake_unblocked.
            }
            RunExit::Finished(value) => {
                if self.procs[idx].all_threads_done() {
                    let code = self.procs[idx].exit_code.unwrap_or(match value {
                        Some(Value::Int(v)) => v,
                        _ => 0,
                    });
                    self.reap(pid, ExitStatus::Exited(code));
                }
            }
            RunExit::Killed => {
                if self.procs[idx].all_threads_done() {
                    let status = match self.procs[idx].exit_code {
                        Some(code) => ExitStatus::Exited(code),
                        None => ExitStatus::Killed,
                    };
                    self.reap(pid, status);
                }
            }
            RunExit::Unhandled(ex) => {
                let (class, message) = self.describe_exception(&ex);
                if self.procs[idx].all_threads_done() {
                    self.reap(pid, ExitStatus::UncaughtException { class, message });
                } else {
                    self.procs[idx]
                        .stdout
                        .push(format!("[thread died: {class}: {message}]"));
                }
            }
            RunExit::Fault(e) => {
                // A VM fault is a kernel bug for verified code; kill the
                // process, never the system.
                self.procs[idx].stdout.push(format!("[vm fault: {e}]"));
                let _ = self.kill(pid);
            }
            RunExit::Syscall { id, args } => {
                let clock_at_entry = self.clock;
                self.kernel_cpu.kernel += SYSCALL_BASE_CYCLES;
                self.clock += SYSCALL_BASE_CYCLES;
                self.procs[idx].cpu.kernel += SYSCALL_BASE_CYCLES;
                // Kernel-mode sample: exactly the base cost billed to
                // `cpu.kernel` above, on the stack that made the call, under
                // a synthetic `[sys:name]` leaf. Clock advances *inside* the
                // syscall (GC, reaps) are charged elsewhere and sampled at
                // their own points, so per-pid kernel totals reconcile.
                self.space.obs().profile.with(|p| {
                    let stack = self.procs[idx].threads[tidx].sample_stack();
                    let mut frames = resolve_frames(p, &self.table, &stack);
                    frames.push(p.intern(sysno::sys_label(id)));
                    p.add_sample(pid.0, frames, SYSCALL_BASE_CYCLES, SampleKind::Kernel);
                });
                self.emit_event(pid.0, || kaffeos_trace::Payload::SyscallEnter {
                    sysno: id,
                    name: sysno::name(id),
                });
                let outcome = self.syscall(pid, tidx, id, args);
                self.emit_event(pid.0, || kaffeos_trace::Payload::SyscallLeave {
                    sysno: id,
                    name: sysno::name(id),
                });
                // Latency = every cycle the virtual clock moved while the
                // kernel serviced the call (base cost + GC + teardown...).
                let latency = self.clock - clock_at_entry;
                self.space
                    .obs()
                    .profile
                    .with(|p| p.record_syscall_latency(sysno::name(id), latency));
                match outcome {
                    SyscallOutcome::Resume(value) => {
                        let Some(idx) = self.proc_index(pid) else {
                            return;
                        };
                        self.procs[idx].threads[tidx].resume_with(value);
                        self.run_queue.push_back((pid, tidx));
                    }
                    SyscallOutcome::Raise(ex) => {
                        let Some(idx) = self.proc_index(pid) else {
                            return;
                        };
                        self.procs[idx].threads[tidx].pending_exception = Some(ex);
                        self.run_queue.push_back((pid, tidx));
                    }
                    SyscallOutcome::Parked => {}
                    SyscallOutcome::Reschedule => {
                        self.run_queue.push_back((pid, tidx));
                    }
                }
            }
        }
    }

    fn describe_exception(&self, ex: &VmException) -> (String, String) {
        match ex {
            VmException::Guest(obj) => {
                let class = self
                    .space
                    .class_of(*obj)
                    .ok()
                    .map(|id| {
                        self.table
                            .class(self.table.from_heap_class(id))
                            .name
                            .clone()
                    })
                    .unwrap_or_else(|| "<stale>".to_string());
                let message = self
                    .space
                    .load(*obj, 0)
                    .ok()
                    .and_then(|v| v.as_ref())
                    .and_then(|m| self.space.str_value(m).ok().map(|s| s.to_string()))
                    .unwrap_or_default();
                (class, message)
            }
            VmException::Builtin(kind, msg) => (kind.class_name().to_string(), msg.clone()),
        }
    }

    // ---- syscall service -------------------------------------------------------

    fn syscall(&mut self, pid: Pid, tidx: usize, id: u16, args: Vec<Value>) -> SyscallOutcome {
        let Some(idx) = self.proc_index(pid) else {
            return SyscallOutcome::Resume(None);
        };
        match id {
            sysno::PRINT => {
                let text = self.arg_str(&args, 0).unwrap_or_default();
                self.procs[idx].stdout.push(text);
                SyscallOutcome::Resume(None)
            }
            sysno::CYCLES => {
                let total = self.procs[idx].cpu.total() as i64;
                SyscallOutcome::Resume(Some(Value::Int(total)))
            }
            sysno::CLOCK => SyscallOutcome::Resume(Some(Value::Int(self.clock as i64))),
            sysno::YIELD => SyscallOutcome::Resume(None),
            sysno::RAND => {
                let bound = self.arg_int(&args, 0);
                let v = self.procs[idx].next_rand(bound);
                SyscallOutcome::Resume(Some(Value::Int(v)))
            }
            sysno::HEAP_USED => {
                let used = self.space.heap_bytes(self.procs[idx].heap).unwrap_or(0) as i64;
                SyscallOutcome::Resume(Some(Value::Int(used)))
            }
            sysno::HEAP_LIMIT => {
                let limit = self.procs[idx]
                    .memlimit
                    .map(|ml| self.space.limits().limit(ml))
                    .unwrap_or(self.config.user_budget) as i64;
                SyscallOutcome::Resume(Some(Value::Int(limit)))
            }
            sysno::GC => {
                let _ = self.gc_process(pid);
                SyscallOutcome::Resume(None)
            }
            sysno::SELF_PID => SyscallOutcome::Resume(Some(Value::Int(pid.0 as i64))),
            sysno::SPAWN => {
                let image = self.arg_str(&args, 0).unwrap_or_default();
                let argstr = self.arg_str(&args, 1).unwrap_or_default();
                let limit = self.arg_int(&args, 2);
                let limit = (limit > 0).then_some(limit as u64);
                match self.spawn(&image, &argstr, limit) {
                    Ok(child) => SyscallOutcome::Resume(Some(Value::Int(child.0 as i64))),
                    Err(_) => SyscallOutcome::Resume(Some(Value::Int(-1))),
                }
            }
            sysno::KILL => {
                let target = Pid(self.arg_int(&args, 0) as u32);
                match self.kill(target) {
                    Ok(()) => SyscallOutcome::Resume(Some(Value::Int(0))),
                    Err(_) => SyscallOutcome::Resume(Some(Value::Int(-1))),
                }
            }
            sysno::WAIT => {
                let target = Pid(self.arg_int(&args, 0) as u32);
                let Some(target_idx) = self.proc_index(target) else {
                    return SyscallOutcome::Resume(Some(Value::Int(-3)));
                };
                if let ProcState::Dead(status) = &self.procs[target_idx].state {
                    return SyscallOutcome::Resume(Some(Value::Int(status.wait_code())));
                }
                // Park in the kernel: the thread is inside a kernel wait,
                // so a kill of *this* process is deferred until the wait
                // returns (kernel_depth), per §2.
                self.procs[target_idx].waiters.push((pid, tidx));
                let Some(idx) = self.proc_index(pid) else {
                    return SyscallOutcome::Resume(Some(Value::Int(-3)));
                };
                self.procs[idx]
                    .parked
                    .insert(tidx, ParkReason::WaitFor(target));
                self.procs[idx].threads[tidx].kernel_depth += 1;
                SyscallOutcome::Parked
            }
            sysno::EXIT => {
                let code = self.arg_int(&args, 0);
                self.procs[idx].exit_code = Some(code);
                // Kill our own threads; the calling thread dies at its next
                // safe point (immediately on resume).
                let _ = self.kill(pid);
                if self.is_alive(pid) {
                    SyscallOutcome::Reschedule
                } else {
                    SyscallOutcome::Parked
                }
            }
            sysno::THREAD => {
                let class = self.arg_str(&args, 0).unwrap_or_default();
                let method = self.arg_str(&args, 1).unwrap_or_default();
                let arg = self.arg_int(&args, 2);
                match self.spawn_thread(pid, &class, &method, arg) {
                    Ok(tid) => SyscallOutcome::Resume(Some(Value::Int(tid as i64))),
                    Err(msg) => SyscallOutcome::Raise(VmException::Builtin(
                        kaffeos_vm::BuiltinEx::IllegalState,
                        msg,
                    )),
                }
            }
            sysno::NET_SEND => {
                let bytes = self.arg_int(&args, 0).max(0) as u64;
                self.net_send(pid, tidx, bytes)
            }
            sysno::NET_SENT => {
                let total = self.procs[idx].net_sent as i64;
                SyscallOutcome::Resume(Some(Value::Int(total)))
            }
            sysno::SHM_CREATE => self.shm_create(pid, &args),
            sysno::SHM_LOOKUP => self.shm_lookup(pid, &args),
            sysno::SHM_GET => self.shm_get(pid, &args),
            // The procfs plane: kernel accounting state rendered to text
            // and returned as a guest string on the *caller's* heap — the
            // bytes are charged to whoever asked, like everything else.
            sysno::PROC_STATUS => {
                let target = Pid(self.arg_int(&args, 0) as u32);
                let text = self.proc_status_text(target);
                self.resume_str(pid, &text)
            }
            sysno::PROC_MEMINFO => {
                let text = self.meminfo_text();
                self.resume_str(pid, &text)
            }
            sysno::PROC_PROFILE => {
                let target = Pid(self.arg_int(&args, 0) as u32);
                let text = self.space.obs().profile.read(|p| p.summary(target.0));
                self.resume_str(pid, &text)
            }
            sysno::PROC_HEAPINFO => {
                let target = Pid(self.arg_int(&args, 0) as u32);
                let text = self.proc_heapinfo_text(target);
                self.resume_str(pid, &text)
            }
            sysno::PROC_HEAPSTATS => {
                let target = Pid(self.arg_int(&args, 0) as u32);
                let text = self.proc_heapstats_text(target);
                self.resume_str(pid, &text)
            }
            other => {
                debug_assert!(false, "unknown syscall {other}");
                SyscallOutcome::Resume(None)
            }
        }
    }

    /// Starts an in-process thread on `Class.method`, which must be static
    /// and take one `int` (or no) parameter.
    fn spawn_thread(
        &mut self,
        pid: Pid,
        class: &str,
        method: &str,
        arg: i64,
    ) -> Result<u32, String> {
        let idx = self
            .proc_index(pid)
            .ok_or_else(|| format!("proc.thread: unknown pid {pid:?}"))?;
        let ns = self.procs[idx].ns;
        let cidx = self
            .table
            .lookup(ns, class)
            .ok_or_else(|| format!("proc.thread: unknown class {class}"))?;
        let midx = self
            .table
            .find_method(cidx, method)
            .ok_or_else(|| format!("proc.thread: unknown method {class}.{method}"))?;
        let m = self.table.method(midx);
        if !m.is_static {
            return Err(format!("proc.thread: {class}.{method} must be static"));
        }
        let thread_args = match m.params.as_slice() {
            [] => vec![],
            [kaffeos_vm::TypeDesc::Int] => vec![Value::Int(arg)],
            other => {
                return Err(format!(
                    "proc.thread: unsupported signature {other:?} for {class}.{method}"
                ))
            }
        };
        let tid = self.next_thread_id;
        self.next_thread_id += 1;
        let tidx = self.procs[idx].threads.len();
        self.procs[idx]
            .threads
            .push(Thread::new(tid, &self.table, midx, thread_args));
        self.run_queue.push_back((pid, tidx));
        Ok(tid)
    }

    /// Services `net.send`: account the bytes and pace the sender against
    /// the process' modelled NIC. With a bandwidth cap, a send occupies the
    /// NIC for `bytes / bps` virtual seconds; the calling thread parks until
    /// the NIC drains (network time is not CPU time, so parked waiting
    /// costs no cycles — but it *is* wall time on the virtual clock).
    fn net_send(&mut self, pid: Pid, tidx: usize, bytes: u64) -> SyscallOutcome {
        let Some(idx) = self.proc_index(pid) else {
            return SyscallOutcome::Resume(None);
        };
        self.procs[idx].net_sent += bytes;
        let total = self.procs[idx].net_sent as i64;
        let Some(bps) = self.procs[idx].net_bps else {
            return SyscallOutcome::Resume(Some(Value::Int(total)));
        };
        let bps = bps.max(1);
        let drain_cycles = bytes.saturating_mul(costs::CLOCK_HZ) / bps;
        let busy_from = self.procs[idx].net_busy_until.max(self.clock);
        let busy_until = busy_from.saturating_add(drain_cycles);
        self.procs[idx].net_busy_until = busy_until;
        if busy_until <= self.clock {
            return SyscallOutcome::Resume(Some(Value::Int(total)));
        }
        // Park until the NIC drains; resumed (with the result pushed) by
        // wake_unblocked once the clock passes `busy_until`.
        self.procs[idx]
            .parked
            .insert(tidx, ParkReason::Until(busy_until, total));
        SyscallOutcome::Parked
    }

    /// Allocates `text` as a guest string on the caller's heap and resumes
    /// the syscall with it; allocation failure surfaces as the caller's own
    /// `OutOfMemoryError` (the reply is charged to the asking process).
    fn resume_str(&mut self, pid: Pid, text: &str) -> SyscallOutcome {
        let Some(idx) = self.proc_index(pid) else {
            return SyscallOutcome::Resume(None);
        };
        let heap = self.procs[idx].heap;
        match self
            .space
            .alloc_str(heap, self.string_class.heap_class(), text)
        {
            Ok(s) => SyscallOutcome::Resume(Some(Value::Ref(s))),
            Err(_) => SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::OutOfMemory,
                "procfs reply allocation failed".to_string(),
            )),
        }
    }

    fn arg_str(&self, args: &[Value], i: usize) -> Option<String> {
        match args.get(i) {
            Some(Value::Ref(r)) => self.space.str_value(*r).ok().map(|s| s.to_string()),
            _ => None,
        }
    }

    fn arg_int(&self, args: &[Value], i: usize) -> i64 {
        match args.get(i) {
            Some(Value::Int(v)) => *v,
            _ => 0,
        }
    }

    // ---- shared heaps (§2, "Direct sharing between processes") --------------

    fn shm_create(&mut self, pid: Pid, args: &[Value]) -> SyscallOutcome {
        let Some(idx) = self.proc_index(pid) else {
            return SyscallOutcome::Resume(None);
        };
        let Some(name) = self.arg_str(args, 0) else {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::NullPointer,
                "shm.create name".to_string(),
            ));
        };
        let Some(class_name) = self.arg_str(args, 1) else {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::NullPointer,
                "shm.create class".to_string(),
            ));
        };
        let count = self.arg_int(args, 2);
        if self.shm.contains(&name) || !(1..=SHM_MAX_OBJECTS).contains(&count) {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::IllegalState,
                format!("shm.create({name})"),
            ));
        }
        // Shared types come out of the central shared namespace (§3.1), so
        // every process agrees on them.
        let Some(class) = self.table.lookup(self.shared_ns, &class_name) else {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::IllegalState,
                format!("{class_name} is not a shared class"),
            ));
        };
        let Some(creator_ml) = self.procs[idx].memlimit else {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::IllegalState,
                "shared heaps are unavailable in monolithic mode".to_string(),
            ));
        };

        // While being created, the heap hangs off a soft memlimit child of
        // the creator's memlimit: separately accounted but bounded by the
        // creator's ability to pay (§2).
        let limit = self.space.limits().limit(creator_ml);
        let Ok(shm_ml) = self.space.limits_mut().create_child(
            creator_ml,
            Kind::Soft,
            limit,
            format!("shm:{name}"),
        ) else {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::OutOfMemory,
                "shm.create memlimit".to_string(),
            ));
        };
        let heap = self
            .space
            .create_shared_heap(ProcTag(pid.0), shm_ml, format!("shm:{name}"));

        // Populate: `count` instances of the shared class, fields zeroed.
        let nfields = self.table.class(class).instance_fields.len();
        let field_types: Vec<kaffeos_vm::TypeDesc> = self
            .table
            .class(class)
            .instance_fields
            .iter()
            .map(|f| f.ty.clone())
            .collect();
        let mut objects = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match self.space.alloc_fields(heap, class.heap_class(), nfields) {
                Ok(obj) => {
                    for (slot, ty) in field_types.iter().enumerate() {
                        let default = match ty {
                            kaffeos_vm::TypeDesc::Int => Value::Int(0),
                            kaffeos_vm::TypeDesc::Float => Value::Float(0.0),
                            _ => continue,
                        };
                        if let Err(e) = self.space.store_prim(obj, slot, default) {
                            self.kernel_fault(
                                kaffeos_trace::KernelFaultKind::ShmCreate,
                                format!("shm.create({name}): zeroing a fresh object failed: {e:?}"),
                            );
                        }
                    }
                    objects.push(obj);
                }
                Err(_) => {
                    // Creation failed: merge the half-built heap away and
                    // remove its memlimit.
                    let _ = self.space.merge_into_kernel(heap);
                    let _ = self.space.limits_mut().drain_and_remove(shm_ml);
                    return SyscallOutcome::Raise(VmException::Builtin(
                        kaffeos_vm::BuiltinEx::OutOfMemory,
                        format!("shm.create({name})"),
                    ));
                }
            }
        }

        // Freeze: size fixed for life, reference fields immutable. The
        // population charge is credited and the creator is charged the
        // full size like any other sharer.
        let size = match self.space.freeze_shared(heap) {
            Ok(size) => size,
            Err(e) => {
                self.kernel_fault(
                    kaffeos_trace::KernelFaultKind::ShmCreate,
                    format!("shm.create({name}): freeze failed: {e:?}"),
                );
                let _ = self.space.merge_into_kernel(heap);
                let _ = self.space.limits_mut().drain_and_remove(shm_ml);
                return SyscallOutcome::Raise(VmException::Builtin(
                    kaffeos_vm::BuiltinEx::IllegalState,
                    format!("shm.create({name}): freeze"),
                ));
            }
        };
        if let Err(e) = self.space.limits_mut().remove(shm_ml) {
            self.kernel_fault(
                kaffeos_trace::KernelFaultKind::ShmCreate,
                format!("shm.create({name}): population charge not fully credited at freeze: {e:?}"),
            );
        }
        if self.space.limits_mut().debit(creator_ml, size).is_err() {
            let _ = self.space.merge_into_kernel(heap);
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::OutOfMemory,
                format!("shm.create({name}): sharer charge"),
            ));
        }

        self.kernel_cpu.kernel += costs::ALLOC_BASE * count as u64;
        self.shm.insert(SharedHeap {
            name: name.clone(),
            heap,
            size,
            objects,
            sharers: vec![pid],
        });
        self.emit_event(pid.0, || kaffeos_trace::Payload::ShmFrozen {
            name: name.clone(),
            bytes: size,
        });
        self.emit_event(pid.0, || kaffeos_trace::Payload::ShmAttached { name: name.clone() });
        self.procs[idx].charged_shm.push(name);
        SyscallOutcome::Resume(Some(Value::Int(count)))
    }

    fn shm_lookup(&mut self, pid: Pid, args: &[Value]) -> SyscallOutcome {
        let Some(idx) = self.proc_index(pid) else {
            return SyscallOutcome::Resume(Some(Value::Int(-1)));
        };
        let Some(name) = self.arg_str(args, 0) else {
            return SyscallOutcome::Resume(Some(Value::Int(-1)));
        };
        let Some(shm) = self.shm.get(&name) else {
            return SyscallOutcome::Resume(Some(Value::Int(-1)));
        };
        let count = shm.objects.len() as i64;
        let size = shm.size;
        if shm.sharers.contains(&pid) {
            return SyscallOutcome::Resume(Some(Value::Int(count)));
        }
        // Charge the new sharer in full (§2: "If other processes look up
        // the shared heap, they are charged that amount").
        if let Some(ml) = self.procs[idx].memlimit {
            if self.space.limits_mut().debit(ml, size).is_err() {
                return SyscallOutcome::Raise(VmException::Builtin(
                    kaffeos_vm::BuiltinEx::OutOfMemory,
                    format!("shm.lookup({name}): sharer charge"),
                ));
            }
        }
        self.shm.add_sharer(&name, pid);
        self.emit_event(pid.0, || kaffeos_trace::Payload::ShmAttached { name: name.clone() });
        self.procs[idx].charged_shm.push(name);
        SyscallOutcome::Resume(Some(Value::Int(count)))
    }

    fn shm_get(&mut self, pid: Pid, args: &[Value]) -> SyscallOutcome {
        let Some(name) = self.arg_str(args, 0) else {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::NullPointer,
                "shm.get name".to_string(),
            ));
        };
        let index = self.arg_int(args, 1);
        let Some(shm) = self.shm.get(&name) else {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::IllegalState,
                format!("no shared heap {name}"),
            ));
        };
        if !shm.sharers.contains(&pid) {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::IllegalState,
                format!("shm.get({name}) before lookup"),
            ));
        }
        match shm.objects.get(index as usize) {
            Some(&obj) => SyscallOutcome::Resume(Some(Value::Ref(obj))),
            None => SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::IndexOutOfBounds,
                format!("shm.get({name}, {index})"),
            )),
        }
    }

    fn report(&self, deadlocked: bool) -> RunReport {
        RunReport {
            clock: self.clock,
            virtual_seconds: costs::cycles_to_seconds(self.clock),
            processes: self
                .procs
                .iter()
                .map(|p| ProcessReport {
                    pid: p.pid,
                    status: match &p.state {
                        ProcState::Dead(s) => Some(s.clone()),
                        _ => None,
                    },
                    cpu: p.cpu,
                })
                .collect(),
            barrier: self.space.barrier_stats(),
            kernel_cpu: self.kernel_cpu,
            deadlocked,
            quanta: self.quanta,
        }
    }
}

/// How an entry `main` receives the spawn's args string.
enum MainArg {
    /// `main()`: not at all.
    None,
    /// `main(String)`: as a string on the new process' heap.
    Str,
    /// `main(int)`: parsed (0 when it does not parse).
    Int,
}

/// The [`MainArg`] for a `main` parameter list; `BadEntry` for any other.
fn main_arg(params: &[kaffeos_vm::TypeDesc]) -> Result<MainArg, KernelError> {
    match params {
        [] => Ok(MainArg::None),
        [kaffeos_vm::TypeDesc::Str] => Ok(MainArg::Str),
        [kaffeos_vm::TypeDesc::Int] => Ok(MainArg::Int),
        other => Err(KernelError::BadEntry(format!(
            "unsupported Main.main signature {other:?}"
        ))),
    }
}

enum SyscallOutcome {
    /// Push an optional result and requeue the thread.
    Resume(Option<Value>),
    /// Inject a guest exception and requeue.
    Raise(VmException),
    /// Thread was parked kernel-side; something else will requeue it.
    Parked,
    /// No result to push; requeue.
    Reschedule,
}
