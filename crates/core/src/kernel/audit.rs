//! The chaos-kernel harness: fault injection and the invariant audit.

use kaffeos_heap::{HeapId, Value};

use super::KaffeOs;
use crate::faults::{AuditReport, AuditViolation, FaultPlan};
use crate::process::{Pid, ProcState};

impl KaffeOs {
    // ---- fault injection and auditing (the chaos-kernel harness) -----------

    /// Records an internal error the kernel degraded past instead of
    /// panicking; [`KaffeOs::audit`] reports the first one.
    pub(super) fn kernel_fault(&mut self, kind: kaffeos_trace::KernelFaultKind, detail: String) {
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
    pub(super) fn apply_quantum_faults(&mut self) {
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
        if plan.illegal_writes && self.config.barrier.enforces() {
            self.inject_illegal_write(&mut plan);
        }
        self.faults = Some(plan);
    }

    /// Attempts one illegal user-to-user cross-heap reference store between
    /// the heaps of two seeded-chosen held domains (so never in the
    /// monolithic baseline, which has one). The write barrier must reject it
    /// with a segmentation violation; an accepted write is an audit
    /// violation. The two probe objects are unreachable garbage afterwards
    /// and are reclaimed by ordinary collection.
    fn inject_illegal_write(&mut self, plan: &mut FaultPlan) {
        let live: Vec<HeapId> = self
            .domains
            .iter()
            .filter(|d| d.members > 0)
            .map(|d| d.heap)
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
    /// 3. full reclamation: every dead process' released domain has no
    ///    heap and no memlimit node left, and no shared heap still charges
    ///    the process;
    /// 4. exact accounting: every held domain's memlimit debit (the
    ///    monolithic domain's included) equals its heap's accounted bytes
    ///    plus its live members' shared-heap charges;
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

        // Shared-heap charges of each domain's live members.
        let mut shm_charged = vec![0u64; self.domains.len()];
        for (i, p) in self.procs.iter().enumerate() {
            if p.pid.0 as usize != i + 1 {
                return Err(AuditViolation::ReportConservation {
                    detail: format!("row {i} holds pid {:?}", p.pid),
                });
            }
            let charged = self.shm.charged_to(p.pid);
            if !matches!(p.state, ProcState::Dead(_)) {
                shm_charged[p.domain] += charged
                    .iter()
                    .filter_map(|name| self.shm.get(name))
                    .map(|s| s.size)
                    .sum::<u64>();
                continue;
            }
            let d = &self.domains[p.domain];
            if d.members == 0 && self.space.heap_alive(d.heap) {
                return Err(AuditViolation::DeadHeapSurvives { pid: p.pid });
            }
            if d.members == 0 && self.space.limits().is_alive(d.memlimit) {
                return Err(AuditViolation::DeadMemlimitSurvives { pid: p.pid });
            }
            if let Some(name) = charged.into_iter().next() {
                return Err(AuditViolation::DeadStillCharged { pid: p.pid, name });
            }
        }
        for (d, shm_charged) in self.domains.iter().zip(shm_charged) {
            if d.members == 0 {
                continue;
            }
            let accounted = self.space.accounted_bytes(d.heap).unwrap_or(u64::MAX);
            let current = self.space.limits().current(d.memlimit);
            if accounted.saturating_add(shm_charged) != current {
                return Err(AuditViolation::DomainAccounting {
                    domain: self.table.namespaces[d.ns as usize].name.clone(),
                    current,
                    accounted,
                    shm_charged,
                });
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

        // Reap releases a process's tier table, so a dead process holds no
        // compiled body.
        for p in &self.procs {
            if matches!(p.state, ProcState::Dead(_))
                && p.jit
                    .bodies
                    .iter()
                    .any(|s| matches!(s, kaffeos_vm::BodySlot::Hot(_)))
            {
                return Err(AuditViolation::DeadHoldsBodies { pid: p.pid });
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

}
