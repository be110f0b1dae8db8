//! Syscall service: dispatch, `sys.gc`, threads, the paced network,
//! procfs replies and the shared-heap calls (§2, "Direct sharing between
//! processes").

use kaffeos_heap::{costs, HeapId, ProcTag, Value};
use kaffeos_memlimit::Kind;
use kaffeos_trace::SampleKind;
use kaffeos_vm::{Thread, VmException};

use super::{KaffeOs, KernelError};
use crate::process::{ParkReason, Pid, ProcState};
use crate::shm::SharedHeap;
use crate::syscalls::sysno;

/// Upper bound on objects in one shared heap.
const SHM_MAX_OBJECTS: i64 = 1 << 20;

impl KaffeOs {
    // ---- garbage collection -------------------------------------------------

    /// Services `sys.gc`: collects the heap of the caller's domain and
    /// charges the cycles to the caller (§2: GC time is attributed to the
    /// process whose heap is collected). The roots are the threads of every
    /// live member (in monolithic mode every guest's stack points into the
    /// one heap), then the domain's statics and intern table.
    fn gc_process(&mut self, pid: Pid) -> Result<kaffeos_heap::GcReport, KernelError> {
        let idx = self.proc_index(pid).ok_or(KernelError::UnknownPid(pid))?;
        let d = self.procs[idx].domain;
        let mut roots = Vec::new();
        let mut slots = 0u64;
        for p in self.live.iter().map(|&idx| &self.procs[idx]) {
            if p.domain != d {
                continue;
            }
            for t in &p.threads {
                roots.extend(t.stack_roots());
                slots += t.stack_scan_size();
            }
        }
        let domain = &self.domains[d];
        roots.extend(domain.statics.values().copied());
        roots.extend(domain.intern.values().copied());
        let (heap, memlimit) = (domain.heap, domain.memlimit);
        let scan = slots * costs::GC_STACK_SCAN_PER_SLOT;
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
                    self.space
                        .limits_mut()
                        .credit(memlimit, size)
                        .map_err(|_| KernelError::Internal("shm charge was not debited"))?;
                }
            }
        }
        Ok(report)
    }

    fn heap_references_heap(&self, from: HeapId, to: HeapId) -> bool {
        // An exit item in `from` whose target lives on `to`.
        self.space.heap_exits_into(from, to)
    }

    // ---- syscall service -------------------------------------------------------

    pub(super) fn syscall(&mut self, pid: Pid, tidx: usize, id: u16, args: Vec<Value>) -> SyscallOutcome {
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
                let used = self.space.heap_bytes(self.domain_of(idx).heap).unwrap_or(0) as i64;
                SyscallOutcome::Resume(Some(Value::Int(used)))
            }
            sysno::HEAP_LIMIT => {
                let limit = self.space.limits().limit(self.domain_of(idx).memlimit) as i64;
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
        let ns = self.domain_of(idx).ns;
        let cidx = self
            .table
            .lookup(ns, class)
            .ok_or_else(|| format!("proc.thread: unknown class {class}"))?;
        let midx = self
            .table
            .find_method(cidx, method)
            .ok_or_else(|| format!("proc.thread: unknown method {class}.{method}"))?;
        let m = self.table.decl(midx);
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
        let heap = self.domain_of(idx).heap;
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
        // The monolithic baseline runs every guest in one domain, so there
        // is no sharer to charge apart from the others: no shared heaps.
        if self.config.monolithic {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::IllegalState,
                "shared heaps are unavailable in monolithic mode".to_string(),
            ));
        }
        let creator_ml = self.domain_of(idx).memlimit;

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

        // Populate: `count` instances of the shared class, each a copy of
        // its typed-zero template.
        let link = self.table.class(class).link.clone();
        let mut objects = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match self
                .space
                .alloc_fields_from(heap, class.heap_class(), &link.template.instance)
            {
                Ok(obj) => objects.push(obj),
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
        let ml = self.domain_of(idx).memlimit;
        if self.space.limits_mut().debit(ml, size).is_err() {
            return SyscallOutcome::Raise(VmException::Builtin(
                kaffeos_vm::BuiltinEx::OutOfMemory,
                format!("shm.lookup({name}): sharer charge"),
            ));
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
}

pub(super) enum SyscallOutcome {
    /// Push an optional result and requeue the thread.
    Resume(Option<Value>),
    /// Inject a guest exception and requeue.
    Raise(VmException),
    /// Thread was parked kernel-side; something else will requeue it.
    Parked,
    /// No result to push; requeue.
    Reschedule,
}
