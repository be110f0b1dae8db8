//! Tenancy (§4.2): admission control, supervised restarts, circuit
//! breakers and overload shedding.

use super::{KaffeOs, KernelError};
use crate::process::{ExitStatus, Pid, SpawnOpts};
use crate::tenant::{
    Admission, OverloadPolicy, PendingRestart, QueuedSpawn, RestartRecord, TenantId, TenantLaunch, TenantPolicy,
    TenantState, TenantStats,
};

impl KaffeOs {
    // ---- tenancy: admission, restarts, degradation (§4.2) -------------------

    /// Creates a tenant with the given policy and returns its id. Tenants
    /// are never destroyed; ids are dense and stable.
    pub fn create_tenant(&mut self, policy: TenantPolicy) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(TenantState::new(id, policy));
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
    pub(super) fn tenant_note_exit(&mut self, idx: usize, status: &ExitStatus) {
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
    pub(super) fn tenant_tick(&mut self) {
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
    pub(super) fn next_tenant_wake(&self) -> Option<u64> {
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

}
