//! Deterministic fault injection and whole-kernel invariant auditing —
//! the "chaos kernel" harness.
//!
//! The paper's central claim is that KaffeOS keeps isolation, accounting,
//! and full reclamation *under adverse conditions*: allocation failures,
//! processes killed at arbitrary points, hostile cross-heap writes. This
//! module turns those adverse conditions into a reproducible experiment:
//!
//! * a [`FaultPlan`] installed on a [`crate::KaffeOs`] injects faults at
//!   well-defined points — the Nth heap allocation fails (one-shot or
//!   persistent), a seeded victim is killed at every quantum boundary
//!   ("termination sweep"), a GC runs at every safepoint, and illegal
//!   cross-heap writes are thrown at the write barrier — all driven by a
//!   `u64` seed and counters, never by wall-clock time or OS randomness,
//!   so every run replays exactly;
//! * an auditor ([`crate::KaffeOs::audit`]) re-derives every invariant the
//!   isolation story depends on — entry/exit-item reference-count
//!   conservation across heaps, memlimit-tree conservation, exact
//!   per-process memory accounting (heap bytes + entry/exit items +
//!   shared-heap charges equal the memlimit's debit), full reclamation
//!   after a kill, and run-report conservation — and reports the first
//!   violation as a typed [`AuditViolation`].
//!
//! Identical seeds produce byte-identical [`AuditReport`]s; the test suite
//! checks this by comparing `format!("{report:?}")` across replays.

use core::fmt;

use kaffeos_heap::{AllocFault, SpaceAuditReport, SpaceAuditViolation};

use crate::process::Pid;

/// One SplitMix64 step: the only randomness source the harness uses.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic fault-injection schedule, installed with
/// [`crate::KaffeOs::install_faults`].
///
/// Every armed mechanism fires at structurally defined points (allocation
/// indices, quantum boundaries, safepoints); victim selection draws from a
/// SplitMix64 stream seeded by [`FaultPlan::seed`]. The counters record
/// what actually fired so a run can be summarised and replay-compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed everything derives from.
    pub seed: u64,
    /// Fail the Nth allocation attempt in the heap space (one-shot or
    /// persistent); armed on the space at install time.
    pub alloc_fault: Option<AllocFault>,
    /// Termination sweep: request `kill()` of a seeded-chosen live process
    /// at every quantum boundary.
    pub kill_sweep: bool,
    /// Force a collection of the running process' heap at every safepoint.
    pub gc_every_safepoint: bool,
    /// At every quantum boundary, attempt an illegal user-to-user
    /// cross-heap reference store that the write barrier must reject.
    pub illegal_writes: bool,
    /// SplitMix64 state for victim selection.
    pub(crate) rng: u64,
    /// Kills the sweep has requested.
    pub kills_injected: u64,
    /// Illegal cross-heap writes attempted.
    pub illegal_writes_attempted: u64,
    /// Illegal writes the barrier rejected (must equal the attempts).
    pub illegal_writes_accepted: u64,
}

impl FaultPlan {
    /// A plan with nothing armed — a scaffold for tests that arm exactly
    /// one mechanism by hand.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            alloc_fault: None,
            kill_sweep: false,
            gc_every_safepoint: false,
            illegal_writes: false,
            rng: seed ^ 0xC4A5_5EED,
            kills_injected: 0,
            illegal_writes_attempted: 0,
            illegal_writes_accepted: 0,
        }
    }

    /// Derives a full plan from a seed: which mechanisms are armed, the
    /// faulted allocation index, and one-shot vs. persistent all come from
    /// seed bits, so `from_seed(s)` is a pure function of `s`.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        let r = splitmix(&mut s);
        let mut plan = FaultPlan::quiet(seed);
        plan.rng = splitmix(&mut s);
        if r & 0b0001 != 0 {
            plan.alloc_fault = Some(AllocFault {
                at: 1 + (splitmix(&mut s) % 512),
                persistent: r & 0b1_0000 != 0,
            });
        }
        plan.kill_sweep = r & 0b0010 != 0;
        plan.gc_every_safepoint = r & 0b0100 != 0;
        plan.illegal_writes = r & 0b1000 != 0;
        if plan.alloc_fault.is_none()
            && !plan.kill_sweep
            && !plan.gc_every_safepoint
            && !plan.illegal_writes
        {
            // Never derive a vacuous plan: default to the GC storm, the
            // mechanism that exercises the most bookkeeping.
            plan.gc_every_safepoint = true;
        }
        plan
    }

    /// Next draw from the plan's private stream.
    pub(crate) fn next(&mut self) -> u64 {
        splitmix(&mut self.rng)
    }
}

/// Deterministic summary of a clean kernel audit. Contains only counters
/// derived from kernel state, so identical states — e.g. two runs of the
/// same seeded [`FaultPlan`] — produce byte-identical `{:?}` renderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// The heap-space audit summary (heaps, objects, entry/exit items).
    pub space: SpaceAuditReport,
    /// Processes ever spawned.
    pub processes: u64,
    /// Processes still live.
    pub live: u64,
    /// Processes dead and fully reclaimed.
    pub dead: u64,
    /// Bytes currently debited from the user budget (root memlimit).
    pub user_bytes_charged: u64,
    /// Live shared heaps in the registry.
    pub shared_heaps: u64,
    /// Injected allocation faults that actually fired.
    pub alloc_faults_fired: u64,
    /// Kills the termination sweep requested.
    pub kills_injected: u64,
    /// Illegal cross-heap writes attempted against the barrier.
    pub illegal_writes_attempted: u64,
}

/// A broken kernel invariant found by [`crate::KaffeOs::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// The heap space's own audit failed (entry/exit conservation, page
    /// ownership, counter recounts, memlimit-tree conservation).
    Space(SpaceAuditViolation),
    /// The kernel degraded gracefully past an internal error during this
    /// run; the state survived but the invariant record is suspect.
    KernelFault {
        /// Which degradation path recorded the fault.
        kind: kaffeos_trace::KernelFaultKind,
        /// The first recorded fault.
        detail: String,
    },
    /// A dead process' heap is still alive — its memory was not fully
    /// reclaimed by the merge into the kernel heap.
    DeadHeapSurvives {
        /// The dead process.
        pid: Pid,
    },
    /// A dead process still owns a memlimit node.
    DeadMemlimitSurvives {
        /// The dead process.
        pid: Pid,
    },
    /// A dead process is still charged for a shared heap.
    DeadStillCharged {
        /// The dead process.
        pid: Pid,
        /// The shared heap still charging it.
        name: String,
    },
    /// A held domain's memlimit debit disagrees with what its heap and its
    /// live members' shared-heap charges actually account for.
    DomainAccounting {
        /// The domain's label (`image#pid`, or `mono`).
        domain: String,
        /// The memlimit's recorded debit.
        current: u64,
        /// Heap bytes + accounted entry/exit items.
        accounted: u64,
        /// Shared-heap sizes charged to the domain's live members.
        shm_charged: u64,
    },
    /// A shared heap names a sharer that is not a live process — its
    /// charge can never be credited back.
    ShmSharerDead {
        /// The shared heap.
        name: String,
        /// The stale sharer.
        pid: Pid,
    },
    /// A registered shared heap is gone or was never frozen.
    ShmHeapBroken {
        /// The shared heap.
        name: String,
    },
    /// The process table no longer maps pids one-to-one onto report rows
    /// (a `RunReport` would lose or double-count a process).
    ReportConservation {
        /// What broke.
        detail: String,
    },
    /// The write barrier accepted an injected illegal cross-heap write.
    IllegalWriteAccepted {
        /// How many were accepted.
        count: u64,
    },
    /// A dead process still holds compiled JIT bodies.
    DeadHoldsBodies {
        /// The process.
        pid: Pid,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::Space(e) => write!(f, "heap space: {e}"),
            AuditViolation::KernelFault { kind, detail } => {
                write!(f, "kernel degraded past an internal error [{kind}]: {detail}")
            }
            AuditViolation::DeadHeapSurvives { pid } => {
                write!(f, "dead process {pid:?} still has a live heap")
            }
            AuditViolation::DeadMemlimitSurvives { pid } => {
                write!(f, "dead process {pid:?} still owns a memlimit")
            }
            AuditViolation::DeadStillCharged { pid, name } => {
                write!(f, "dead process {pid:?} still charged for shared heap {name}")
            }
            AuditViolation::DomainAccounting {
                domain,
                current,
                accounted,
                shm_charged,
            } => write!(
                f,
                "domain {domain}: memlimit records {current} bytes but heap accounts \
                 {accounted} + {shm_charged} shared"
            ),
            AuditViolation::ShmSharerDead { name, pid } => {
                write!(f, "shared heap {name} lists dead sharer {pid:?}")
            }
            AuditViolation::ShmHeapBroken { name } => {
                write!(f, "shared heap {name} is dead or unfrozen")
            }
            AuditViolation::ReportConservation { detail } => {
                write!(f, "report conservation: {detail}")
            }
            AuditViolation::IllegalWriteAccepted { count } => {
                write!(f, "barrier accepted {count} illegal cross-heap writes")
            }
            AuditViolation::DeadHoldsBodies { pid } => {
                write!(f, "dead process {pid:?} still holds compiled bodies")
            }
        }
    }
}

impl std::error::Error for AuditViolation {}

impl From<SpaceAuditViolation> for AuditViolation {
    fn from(v: SpaceAuditViolation) -> Self {
        AuditViolation::Space(v)
    }
}
