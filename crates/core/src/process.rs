//! The process abstraction: the unit of resource ownership and control.

use std::collections::HashMap;
use kaffeos_heap::FxHashMap;

use kaffeos_heap::{HeapId, ObjRef};
use kaffeos_memlimit::MemLimitId;
use kaffeos_vm::{ClassIdx, Thread};

/// Process identifier. Pid 0 is reserved for the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Per-spawn resource policy (§1: "CPU and memory limits can be placed on
/// the process, and the process can be killed if it is uncooperative").
#[derive(Debug, Clone, Copy)]
pub struct SpawnOpts {
    /// Memory limit in bytes (`None` = kernel default).
    pub mem_limit: Option<u64>,
    /// Reserve the limit up front (a *hard* memlimit, §2) instead of the
    /// default pass-through *soft* limit.
    pub mem_hard: bool,
    /// Kill the process once its total CPU account (exec + GC + kernel)
    /// passes this many cycles.
    pub cpu_limit: Option<u64>,
    /// Proportional CPU share (weighted round-robin); default 100.
    pub cpu_share: u32,
    /// Network bandwidth in bytes per (virtual) second; `None` = unmetered.
    /// The paper's named future-work resource (§2).
    pub net_bps: Option<u64>,
    /// The tenant this process is accounted to, if any. Set by
    /// `spawn_for_tenant`; spawns outside the admission controller leave
    /// it `None` and bypass every tenant policy.
    pub tenant: Option<crate::tenant::TenantId>,
}

impl Default for SpawnOpts {
    fn default() -> Self {
        SpawnOpts {
            mem_limit: None,
            mem_hard: false,
            cpu_limit: None,
            cpu_share: 100,
            net_bps: None,
            tenant: None,
        }
    }
}

/// Why a process stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitStatus {
    /// `proc.exit(code)` or main returned `code`.
    Exited(i64),
    /// Killed by the kernel or another process (`proc.kill`).
    Killed,
    /// Killed by the kernel for exceeding its CPU limit.
    CpuLimitExceeded,
    /// The last thread died on an exception it did not handle. The class
    /// name distinguishes `OutOfMemoryError` (the MemHog signature) from
    /// ordinary crashes.
    UncaughtException {
        /// Guest exception class name.
        class: String,
        /// Its message field, if set.
        message: String,
    },
}

impl ExitStatus {
    /// The integer a `proc.wait` returns for this status.
    pub fn wait_code(&self) -> i64 {
        match self {
            ExitStatus::Exited(code) => *code,
            ExitStatus::Killed => -1,
            ExitStatus::UncaughtException { .. } => -2,
            ExitStatus::CpuLimitExceeded => -4,
        }
    }

    /// True if the process died from an unhandled `OutOfMemoryError`.
    pub fn is_oom(&self) -> bool {
        matches!(self, ExitStatus::UncaughtException { class, .. } if class == "OutOfMemoryError")
    }

    /// Typed classification of this status for policy engines and
    /// reports: collapses the free-form exception payload into a stable,
    /// aggregatable cause.
    pub fn cause(&self) -> ExitCause {
        match self {
            ExitStatus::Exited(_) => ExitCause::Exited,
            ExitStatus::Killed => ExitCause::Killed,
            ExitStatus::CpuLimitExceeded => ExitCause::CpuLimit,
            ExitStatus::UncaughtException { .. } if self.is_oom() => ExitCause::Oom,
            ExitStatus::UncaughtException { .. } => ExitCause::Exception,
        }
    }
}

/// Stable, typed exit-cause taxonomy — what restart policies key on and
/// what SLO reports aggregate by (instead of ad-hoc reason strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExitCause {
    /// Clean exit (`proc.exit` or main returned).
    Exited,
    /// Killed by the kernel or another process.
    Killed,
    /// Killed for exceeding its CPU budget.
    CpuLimit,
    /// Died on an unhandled `OutOfMemoryError` (the MemHog signature).
    Oom,
    /// Died on any other unhandled exception.
    Exception,
}

impl ExitCause {
    /// Number of causes (array-index domain).
    pub const COUNT: usize = 5;

    /// Every cause, in rendering order.
    pub const ALL: [ExitCause; ExitCause::COUNT] = [
        ExitCause::Exited,
        ExitCause::Killed,
        ExitCause::CpuLimit,
        ExitCause::Oom,
        ExitCause::Exception,
    ];

    /// Stable snake-case label used in reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            ExitCause::Exited => "exited",
            ExitCause::Killed => "killed",
            ExitCause::CpuLimit => "cpu_limit",
            ExitCause::Oom => "oom",
            ExitCause::Exception => "exception",
        }
    }

    /// Dense array index.
    pub fn index(self) -> usize {
        match self {
            ExitCause::Exited => 0,
            ExitCause::Killed => 1,
            ExitCause::CpuLimit => 2,
            ExitCause::Oom => 3,
            ExitCause::Exception => 4,
        }
    }

    /// True for every cause except a clean exit — the causes a supervised
    /// restart policy reacts to.
    pub fn is_failure(self) -> bool {
        !matches!(self, ExitCause::Exited)
    }
}

/// Exit counts aggregated by [`ExitCause`]; the typed replacement for
/// stringly-keyed kill-reason tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseCounts([u64; ExitCause::COUNT]);

impl CauseCounts {
    /// Records one exit.
    pub fn note(&mut self, cause: ExitCause) {
        self.0[cause.index()] += 1;
    }

    /// Count recorded for one cause.
    pub fn get(&self, cause: ExitCause) -> u64 {
        self.0[cause.index()]
    }

    /// Total exits recorded.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Exits that were failures (everything but [`ExitCause::Exited`]).
    pub fn failures(&self) -> u64 {
        self.total() - self.get(ExitCause::Exited)
    }

    /// Deterministic `label=count` rendering, every cause in
    /// [`ExitCause::ALL`] order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for cause in ExitCause::ALL {
            if !out.is_empty() {
                out.push(' ');
            }
            let _ = write!(out, "{}={}", cause.label(), self.get(cause));
        }
        out
    }
}

/// CPU time accounting, all in modelled cycles (§2: "The memory and CPU
/// time spent on almost all activities can be attributed to the application
/// on whose behalf it was expended").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuAccount {
    /// Cycles executing guest code (including write barriers).
    pub exec: u64,
    /// Cycles collecting this process' heap (charged to the process, never
    /// to the system).
    pub gc: u64,
    /// Cycles spent in the kernel servicing this process' syscalls.
    pub kernel: u64,
}

impl CpuAccount {
    /// Total cycles attributed to the process.
    pub fn total(&self) -> u64 {
        self.exec + self.gc + self.kernel
    }
}

/// Scheduler-visible lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcState {
    /// Live and schedulable.
    Running,
    /// Termination requested; threads die at their next safe points, then
    /// reclamation runs.
    Dying,
    /// Reaped; memory merged and reclaimed.
    Dead(ExitStatus),
}

/// Why a thread is parked kernel-side (distinct from VM-level monitor
/// blocking, which the VM tracks itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkReason {
    /// `proc.wait(pid)`.
    WaitFor(Pid),
    /// `net.send` pacing: runnable once the virtual clock reaches the
    /// given cycle (the NIC finishes draining the send); the carried value
    /// is pushed as the syscall result on wake-up.
    Until(u64, i64),
}

/// A protection domain (§2–§3): the heap, memlimit node, class namespace,
/// statics and string intern table that processes run in. Every KaffeOS
/// process gets a domain of its own; the monolithic baseline is one domain
/// that every guest joins. The last member to leave releases the domain.
#[derive(Debug)]
pub(crate) struct Domain {
    /// The user heap every member allocates on.
    pub heap: HeapId,
    /// The memlimit node that the heap and the members' shared-heap
    /// charges debit (a child of the root).
    pub memlimit: MemLimitId,
    /// Class-loader namespace (delegates to the shared namespace).
    pub ns: u32,
    /// Statics objects of the namespace's classes (heap residents, GC
    /// roots).
    pub statics: FxHashMap<ClassIdx, ObjRef>,
    /// String intern table (§3.3).
    pub intern: FxHashMap<String, ObjRef>,
    /// Holders: the member processes, plus the kernel itself for the
    /// monolithic domain. Zero once released.
    pub members: u32,
}

/// A KaffeOS process.
///
/// In the paper the process object is allocated on the new process' own
/// heap and the kernel keeps only a small process-table entry; this Rust
/// struct *is* that kernel entry plus the handle state (we do not model
/// the process object as a guest object).
#[derive(Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// `image#pid` label (memlimit and heap labels match).
    pub name: String,
    /// The image this process was spawned from.
    pub image: String,
    /// Lifecycle state.
    pub state: ProcState,
    /// Index in the kernel's domain table of the domain the process runs
    /// in: its heap, memlimit node, namespace, statics and intern table.
    pub domain: usize,
    /// Threads; slots are never reused within a process.
    pub threads: Vec<Thread>,
    /// Kernel-side park reasons per thread index.
    pub parked: HashMap<usize, ParkReason>,
    /// CPU accounting (§2).
    pub cpu: CpuAccount,
    /// Lines written via `sys.print`.
    pub stdout: Vec<String>,
    /// Deterministic per-process RNG state (seeded from the pid).
    pub rng: u64,
    /// Threads of other processes waiting on our exit.
    pub waiters: Vec<(Pid, usize)>,
    /// Shared heaps this process is currently charged for.
    pub charged_shm: Vec<String>,
    /// Requested exit code (set by `proc.exit`, consumed at teardown).
    pub exit_code: Option<i64>,
    /// CPU budget in cycles; exceeded → [`ExitStatus::CpuLimitExceeded`].
    pub cpu_limit: Option<u64>,
    /// Proportional CPU share (weighted round-robin quanta).
    pub cpu_share: u32,
    /// Set when the CPU budget was exceeded, so the eventual reap records
    /// [`ExitStatus::CpuLimitExceeded`] rather than a plain kill.
    pub cpu_overrun: bool,
    /// Bandwidth cap in bytes per virtual second (`None` = unmetered).
    pub net_bps: Option<u64>,
    /// Total bytes transmitted.
    pub net_sent: u64,
    /// Virtual cycle at which the process' NIC drains its last send.
    pub net_busy_until: u64,
    /// The tenant accounted for this process (`None` = untenanted).
    pub tenant: Option<crate::tenant::TenantId>,
    /// The args string the process was spawned with, kept so the restart
    /// engine can respawn the same invocation.
    pub spawn_args: String,
    /// The resource policy the process was spawned with (respawns reuse
    /// it verbatim).
    pub spawn_opts: SpawnOpts,
    /// What the spawn's class loads lowered and linked (template bodies
    /// are the class table's; a process holds none).
    pub jit: kaffeos_vm::ProcJitStats,
}

impl Process {
    /// Deterministic pseudo-random integer in `[0, bound)` (or the raw
    /// state for `bound <= 0`), advancing the per-process LCG.
    pub fn next_rand(&mut self, bound: i64) -> i64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = (self.rng >> 33) as i64;
        if bound > 0 {
            v % bound
        } else {
            v
        }
    }

    /// True if every thread has finished.
    pub fn all_threads_done(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.state, kaffeos_vm::ThreadState::Done))
    }
}
