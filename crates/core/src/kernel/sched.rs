//! The scheduler: the run loop, one quantum, exit dispatch, wake-ups,
//! CPU limits and the kernel GC cycle.

use kaffeos_heap::{costs, ObjRef, ProcTag, Value};
use kaffeos_trace::SampleKind;
use kaffeos_vm::{step, ClassTable, ExecCtx, MethodIdx, RunExit, ThreadState, VmException};

use super::syscall::SyscallOutcome;
use super::{KaffeOs, ProcessReport, RunReport};
use crate::process::{ExitStatus, ParkReason, Pid, ProcState};
use crate::syscalls::sysno;

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

impl KaffeOs {
    /// Advances the idle virtual clock to `t` (no-op if already past):
    /// the embedder's analogue of the scheduler's own idle fast-forward,
    /// for open-loop drivers that inject work at future arrival times.
    pub fn advance_clock_to(&mut self, t: u64) {
        self.clock = self.clock.max(t);
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
        // Give the pages the collection emptied back to the pool, so the
        // next process reuses them instead of growing the slot table. Host
        // plane only: the sweep keeps charging them as retired pages.
        if let Err(e) = self.space.release_empty_pages(kernel) {
            self.kernel_fault(
                kaffeos_trace::KernelFaultKind::KernelGc,
                format!("kernel_gc: kernel page release failed: {e:?}"),
            );
        }
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
        // Reaps are the only way a process dies.
        let reaped_at_entry = self.reaped;
        loop {
            if stop_on_exit && self.reaped > reaped_at_entry {
                break;
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
                deadlocked = self.live.iter().map(|&idx| &self.procs[idx]).any(|p| {
                    p.threads.iter().enumerate().any(|(i, t)| {
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
        // Nothing here reaps, so the live list is stable across the pass.
        for at in 0..self.live.len() {
            let idx = self.live[at];
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
        self.live
            .iter()
            .flat_map(|&idx| self.procs[idx].parked.values())
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
        // KaffeOS mode that is the process' other threads. The monolithic
        // baseline scans every thread of every process, the running one
        // included (that very scan is part of what isolation buys you);
        // Figure 3's baseline GC cycles are measured with it, so it stays.
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
        // Weighted round-robin: a process' quantum is proportional to its
        // CPU share, giving coarse proportional CPU scheduling.
        let time_slice = self.config.time_slice * self.procs[idx].cpu_share as u64 / 100;
        let domain = &mut self.domains[self.procs[idx].domain];
        let thread = &mut self.procs[idx].threads[tidx];
        let mut ctx = ExecCtx {
            space: &mut self.space,
            table: &self.table,
            ns: domain.ns,
            heap: domain.heap,
            trusted: false,
            statics: &mut domain.statics,
            intern: &mut domain.intern,
            string_class: self.string_class,
            monitors: &mut self.monitors,
            extra_roots: &extra,
            extra_scan_slots,
            gc_every_safepoint: self
                .faults
                .as_ref()
                .is_some_and(|plan| plan.gc_every_safepoint),
        };
        let granted = time_slice.max(1);
        let exit = step(thread, &mut ctx, granted);
        let drained = thread.drain_cycles();
        self.ops_executed += core::mem::take(&mut thread.ops);
        for site in thread.seg_sites.drain(..) {
            if self.seg_seen.insert(site) {
                self.seg_sites.push(site);
            }
        }
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
                            .name()
                            .to_string()
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
