//! Tenancy: admission control, supervised restarts, and graceful
//! degradation.
//!
//! The paper's servlet experiment (§4.2, Figure 4) casts KaffeOS as a
//! multi-tenant server: each customer's servlets run as processes whose
//! resource limits confine abuse, and "the system administrator restarts
//! whatever crashes". This module turns that administrator into kernel
//! policy:
//!
//! * an **admission controller** — each tenant declares a concurrent-
//!   process cap; spawns beyond the cap queue FIFO (bounded) or are
//!   rejected with a typed [`crate::KernelError`], and queued spawns
//!   launch deterministically, in ticket order, as slots free;
//! * a **restart engine** — a tenant can opt into restart-on-failure:
//!   every non-clean exit (kill, CPU overrun, OOM, uncaught exception)
//!   schedules a respawn after a capped exponential backoff *in virtual
//!   time*, so crash loops consume bounded restart work;
//! * a **kill-storm circuit breaker** — when failures cluster (the
//!   fault-plan termination sweep, a crash loop), the breaker opens:
//!   admissions are rejected and pending restarts held until a cooldown
//!   elapses, bounding supervision work under a storm;
//! * **graceful degradation** — an optional machine-wide
//!   [`OverloadPolicy`] watches the root memlimit; past the high
//!   watermark the kernel sheds the lowest-priority tenant (killing its
//!   processes, parking its restarts, rejecting its admissions) and
//!   restores shed tenants once pressure falls below the low watermark.
//!
//! Everything is driven by the virtual clock and iterated in tenant-id /
//! FIFO order — no wall time, no hash-map iteration — so a scenario's
//! per-tenant SLO report is a pure function of (scenario, seed).

use std::collections::VecDeque;

use crate::process::{CauseCounts, Pid, SpawnOpts};

/// Tenant identifier: a dense index into the kernel's tenant table, in
/// creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// Supervised-restart policy: what the paper's "administrator restarts
/// whatever crashes" becomes when the kernel does it, with backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Respawn processes of this tenant whose exits are failures (killed,
    /// CPU overrun, OOM, uncaught exception). Clean exits never restart.
    pub restart_on_failure: bool,
    /// Give up after this many *consecutive* failures (a clean exit
    /// resets the count). Bounds total respawn work in a crash loop.
    pub max_restarts: u32,
    /// First backoff delay, in virtual cycles; attempt `n` waits
    /// `min(backoff_base << (n-1), backoff_cap)`.
    pub backoff_base: u64,
    /// Backoff saturation, in virtual cycles.
    pub backoff_cap: u64,
    /// Failures within [`RestartPolicy::breaker_window`] that open the
    /// circuit breaker; 0 disables the breaker.
    pub breaker_threshold: u32,
    /// Sliding virtual-time window the threshold counts over, in cycles.
    pub breaker_window: u64,
    /// How long an opened breaker stays open, in cycles. While open,
    /// admissions are rejected and pending restarts are held.
    pub breaker_cooldown: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            restart_on_failure: false,
            max_restarts: 32,
            backoff_base: 1_000_000,       // 2 ms at the modelled 500 MHz
            backoff_cap: 64_000_000,       // 128 ms
            breaker_threshold: 4,
            breaker_window: 100_000_000,   // 200 ms
            breaker_cooldown: 200_000_000, // 400 ms
        }
    }
}

impl RestartPolicy {
    /// Backoff delay for the given 1-based attempt:
    /// `min(backoff_base << (attempt-1), backoff_cap)`, saturating.
    pub fn backoff_delay(&self, attempt: u32) -> u64 {
        if self.backoff_base == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1);
        // A shift that would drop bits has already passed the cap.
        if shift >= self.backoff_base.leading_zeros() {
            return self.backoff_cap;
        }
        (self.backoff_base << shift).min(self.backoff_cap)
    }
}

/// Per-tenant admission and scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Concurrent-process cap enforced at admission.
    pub max_procs: u32,
    /// Spawns beyond the cap queue FIFO up to this depth; 0 means
    /// queue-nothing (reject immediately at the cap).
    pub queue_capacity: usize,
    /// Degradation priority: under global memory pressure the *lowest*
    /// priority unshed tenant is shed first.
    pub priority: u32,
    /// Supervised-restart policy.
    pub restart: RestartPolicy,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            max_procs: 8,
            queue_capacity: 16,
            priority: 100,
            restart: RestartPolicy::default(),
        }
    }
}

/// Machine-wide graceful-degradation policy, installed with
/// `KaffeOs::set_overload_policy`. Watermarks are bytes debited from the
/// root memlimit (every live heap, entry/exit item, and shared-heap
/// charge counts — the same number `audit` reconciles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Shed the lowest-priority tenant when usage reaches this.
    pub shed_high_bytes: u64,
    /// Restore shed tenants when usage falls back to this (hysteresis:
    /// keep it below `shed_high_bytes`).
    pub shed_low_bytes: u64,
}

/// Outcome of an admission-controlled spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A slot was free; the process is spawned and runnable.
    Admitted(Pid),
    /// The tenant is at its cap; the spawn is queued under this ticket
    /// and will launch (FIFO) when a slot frees. The eventual launch is
    /// reported through `KaffeOs::drain_tenant_launches`.
    Queued {
        /// FIFO admission ticket, unique per tenant.
        ticket: u64,
    },
}

/// A launch the tenant engine performed on its own (a queued admission
/// whose slot freed, or a supervised restart), reported to the embedder
/// via `KaffeOs::drain_tenant_launches` so drivers can map tickets and
/// respawns to pids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLaunch {
    /// The tenant launched for.
    pub tenant: TenantId,
    /// The admission ticket this launch resolves (`None` for restarts).
    pub ticket: Option<u64>,
    /// The new process.
    pub pid: Pid,
    /// Virtual cycle of the launch.
    pub at: u64,
}

/// One scheduled supervised restart, recorded whether or not it has
/// launched yet — the exact-backoff audit trail the policy tests check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartRecord {
    /// Image being respawned.
    pub image: String,
    /// 1-based consecutive-failure attempt; the backoff delay is exactly
    /// `policy.restart.backoff_delay(attempt)`.
    pub attempt: u32,
    /// Virtual cycle the failure was observed and the restart scheduled.
    pub scheduled_at: u64,
    /// Virtual cycle the restart becomes due (`scheduled_at + backoff`).
    pub due: u64,
    /// Virtual cycle the respawn actually launched (`None` while pending
    /// or abandoned). May exceed `due` when the breaker or shedding held
    /// it, or when no slot was free.
    pub launched_at: Option<u64>,
    /// The respawned pid once launched.
    pub pid: Option<Pid>,
}

/// Per-tenant counters, all monotonic; exact, not sampled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// `spawn_for_tenant` calls.
    pub offered: u64,
    /// Spawns admitted (immediately or from the queue).
    pub admitted: u64,
    /// Spawns that waited in the admission queue.
    pub queued: u64,
    /// Spawns rejected at the cap with a full (or absent) queue.
    pub rejected_cap: u64,
    /// Spawns rejected while the circuit breaker was open.
    pub rejected_breaker: u64,
    /// Spawns rejected while the tenant was shed.
    pub rejected_shed: u64,
    /// Queued admissions dropped because the underlying spawn failed.
    pub spawn_failures: u64,
    /// Supervised restarts actually launched.
    pub restarts: u64,
    /// Restarts abandoned at `max_restarts`.
    pub restarts_abandoned: u64,
    /// Times the circuit breaker opened.
    pub breaker_opens: u64,
    /// Times this tenant was shed.
    pub sheds: u64,
    /// Exits of this tenant's processes, by typed cause.
    pub exits: CauseCounts,
    /// Live heap bytes this tenant's processes held at reap, summed —
    /// the residue its workloads leave for the kernel collector.
    pub heap_bytes_reaped: u64,
    /// Live objects at reap, summed over this tenant's processes.
    pub heap_objects_reaped: u64,
    /// Full collections run on this tenant's heaps (counted at reap).
    pub heap_gcs: u64,
}

/// A spawn parked in the admission queue.
#[derive(Debug, Clone)]
pub(crate) struct QueuedSpawn {
    pub ticket: u64,
    pub image: String,
    pub args: String,
    pub opts: SpawnOpts,
}

/// A supervised restart waiting for its due time (and a free slot).
#[derive(Debug, Clone)]
pub(crate) struct PendingRestart {
    pub image: String,
    pub args: String,
    pub opts: SpawnOpts,
    pub attempt: u32,
    pub due: u64,
    /// Index into [`TenantState::restart_log`] to stamp on launch.
    pub log_index: usize,
}

/// Kernel-side per-tenant state. All orderings are deterministic: `live`
/// keeps admission order, queues are FIFO, and the kernel iterates
/// tenants in id order.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub id: TenantId,
    pub policy: TenantPolicy,
    /// Live pids accounted to this tenant, in admission order.
    pub live: Vec<Pid>,
    /// Bounded FIFO admission queue.
    pub queue: VecDeque<QueuedSpawn>,
    /// Scheduled restarts, in scheduling order (due times are monotonic
    /// because backoff delays never shrink within a failure streak).
    pub pending_restarts: VecDeque<PendingRestart>,
    /// Consecutive failures; resets on a clean exit. Drives backoff.
    pub consecutive_failures: u32,
    /// Failure timestamps inside the breaker window.
    pub failure_times: VecDeque<u64>,
    /// `Some(until)` while the circuit breaker is open.
    pub breaker_open_until: Option<u64>,
    /// Shed under global memory pressure (graceful degradation).
    pub shed: bool,
    /// Next admission ticket.
    pub next_ticket: u64,
    /// Monotonic counters.
    pub stats: TenantStats,
    /// Every scheduled restart, in order.
    pub restart_log: Vec<RestartRecord>,
}

impl TenantState {
    pub(crate) fn new(id: TenantId, policy: TenantPolicy) -> Self {
        TenantState {
            id,
            policy,
            live: Vec::new(),
            queue: VecDeque::new(),
            pending_restarts: VecDeque::new(),
            consecutive_failures: 0,
            failure_times: VecDeque::new(),
            breaker_open_until: None,
            shed: false,
            next_ticket: 0,
            stats: TenantStats::default(),
            restart_log: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_saturates_at_cap() {
        let rp = RestartPolicy {
            backoff_base: 1_000,
            backoff_cap: 6_000,
            ..RestartPolicy::default()
        };
        assert_eq!(rp.backoff_delay(1), 1_000);
        assert_eq!(rp.backoff_delay(2), 2_000);
        assert_eq!(rp.backoff_delay(3), 4_000);
        assert_eq!(rp.backoff_delay(4), 6_000, "capped");
        assert_eq!(rp.backoff_delay(100), 6_000, "shift saturates safely");
    }

    #[test]
    fn backoff_attempt_zero_behaves_like_attempt_one() {
        let rp = RestartPolicy::default();
        assert_eq!(rp.backoff_delay(0), rp.backoff_delay(1));
    }
}
