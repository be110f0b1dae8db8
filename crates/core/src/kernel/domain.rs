//! Protection domains and the process lifecycle: image registration,
//! class loading, spawn, domain creation and release, kill and reap.

use std::collections::HashMap;
use std::sync::Arc;

use kaffeos_heap::{ObjRef, ProcTag, Value};
use kaffeos_memlimit::Kind;
use kaffeos_vm::{ClassDef, MethodIdx, Thread, ThreadState};

use super::{KaffeOs, KernelError, MONO_DOMAIN};
use crate::process::{CpuAccount, Domain, ExitStatus, Pid, ProcState, Process, SpawnOpts};
use crate::tenant::TenantId;

impl KaffeOs {
    /// Loads additional classes into the **shared namespace** (e.g. the
    /// shared message types processes communicate through).
    pub fn load_shared_source(&mut self, source: &str) -> Result<(), KernelError> {
        let defs = kaffeos_cupc::compile(source, &self.table, self.shared_ns)?;
        for def in defs {
            self.table.load_class(self.shared_ns, def.into_arc())?;
            self.shared_class_count += 1;
        }
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

        // Monolithic mode: every guest joins the domain boot created.
        // KaffeOS gives each process a domain of its own.
        let domain = if self.config.monolithic {
            self.domains[MONO_DOMAIN].members += 1;
            MONO_DOMAIN
        } else {
            let bytes = opts.mem_limit.unwrap_or(self.config.default_process_limit);
            let kind = if opts.mem_hard {
                Kind::Hard
            } else {
                Kind::Soft
            };
            self.create_domain(ProcTag(pid.0), kind, bytes, &label)?
        };
        let lowered = self.table.lowering_totals();
        let (midx, thread_args) = match self.enter_image(domain, &defs, &entry, args) {
            Ok(entered) => entered,
            Err(e) => {
                self.leave_domain(domain, pid, None);
                return Err(e);
            }
        };

        let tid = self.next_thread_id;
        self.next_thread_id += 1;
        self.live.push(self.procs.len());
        self.procs.push(Process {
            pid,
            name: label,
            image: image.to_string(),
            state: ProcState::Running,
            domain,
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
            jit: self.table.lowering_totals().since(lowered),
        });
        self.run_queue.push_back((pid, 0));
        self.emit_event(pid.0, || kaffeos_trace::Payload::Spawn {
            pid: pid.0,
            image: image.to_string(),
        });
        Ok(pid)
    }

    /// The fallible half of a spawn: binds the reloaded library and the
    /// image in domain `d`, and resolves the entry method of class `entry`
    /// with its arguments on the domain's heap.
    fn enter_image(
        &mut self,
        d: usize,
        defs: &[Arc<ClassDef>],
        entry: &str,
        args: &str,
    ) -> Result<(MethodIdx, Vec<Value>), KernelError> {
        // Reloaded standard-library classes: per-domain copies (§3.2).
        self.bind_classes(d, &self.reloaded_defs.clone())?;
        self.bind_classes(d, defs)?;
        let (heap, ns) = (self.domains[d].heap, self.domains[d].ns);

        let main_class = self
            .table
            .lookup(ns, entry)
            .ok_or_else(|| KernelError::BadEntry(format!("no class {entry}")))?;
        let midx = self
            .table
            .find_method(main_class, "main")
            .ok_or_else(|| KernelError::BadEntry(format!("no method {entry}.main")))?;
        let m = self.table.decl(midx);
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

    /// Creates a domain held by one member, its creator: a memlimit node of
    /// `kind` and `bytes` under the root, a user heap owned by `owner` that
    /// charges it, and a namespace delegating to the shared one, all
    /// labelled `label`.
    pub(super) fn create_domain(
        &mut self,
        owner: ProcTag,
        kind: Kind,
        bytes: u64,
        label: &str,
    ) -> Result<usize, KernelError> {
        let root = self.space.root_memlimit();
        let memlimit = self
            .space
            .limits_mut()
            .create_child(root, kind, bytes, label)
            .map_err(|_| KernelError::OutOfMemory)?;
        let heap = self.space.create_user_heap(owner, memlimit, label);
        let ns = self.table.create_namespace(label, Some(self.shared_ns));
        self.domains.push(Domain {
            heap,
            memlimit,
            ns,
            statics: Default::default(),
            intern: Default::default(),
            members: 1,
        });
        Ok(self.domains.len() - 1)
    }

    /// Binds `defs` in domain `d`'s namespace. A domain loads each class
    /// once: where other members already run (the monolithic domain), a
    /// class the namespace binds already is reused.
    pub(super) fn bind_classes(
        &mut self,
        d: usize,
        defs: &[Arc<ClassDef>],
    ) -> Result<(), KernelError> {
        let (ns, joined) = (self.domains[d].ns, self.domains[d].members > 1);
        for def in defs {
            match self.table.load_class(ns, def.clone()) {
                Ok(_) => {}
                Err(kaffeos_vm::VmError::DuplicateClass(_)) if joined => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Drops one member from domain `d`. The last member out releases it:
    /// the heap merges into the kernel heap (everything unreachable becomes
    /// kernel garbage for the next kernel GC cycle), the memlimit node is
    /// drained and removed, and the namespace stops resolving (shared
    /// classes are unaffected). `tenant` is credited with what the heap
    /// held. The kernel's own hold keeps the monolithic domain alive.
    fn leave_domain(&mut self, d: usize, pid: Pid, tenant: Option<TenantId>) {
        let dom = &mut self.domains[d];
        dom.members -= 1;
        if dom.members > 0 {
            return;
        }
        let (heap, memlimit, ns) = (dom.heap, dom.memlimit, dom.ns);
        dom.statics = Default::default();
        dom.intern = Default::default();
        // Per-tenant heap telemetry: snapshot the dying heap before the
        // merge erases it, so tenant reports can say what each tenant's
        // processes left behind and how much collection they ran.
        if let Some(tenant) = tenant {
            if let Ok(snap) = self.space.snapshot(heap) {
                if let Some(st) = self.tenants.get_mut(tenant.0 as usize) {
                    st.stats.heap_bytes_reaped += snap.bytes_used;
                    st.stats.heap_objects_reaped += snap.objects;
                    st.stats.heap_gcs += snap.gc_count;
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
                    format!("{pid:?} left its domain: heap merge failed: {e:?}"),
                );
            }
        }
        // Credits from removing the memlimit happen after the merge
        // advanced the clock.
        self.space.obs().trace.with(|t| t.set_clock(self.clock));
        if let Err(e) = self.space.limits_mut().drain_and_remove(memlimit) {
            self.kernel_fault(
                kaffeos_trace::KernelFaultKind::MemlimitRemove,
                format!("{pid:?} left its domain: memlimit not removable after merge: {e:?}"),
            );
        }
        self.table.drop_namespace(ns);
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

    /// Reclaims a finished process: credits its shared-heap charges, leaves
    /// its domain (whose release merges the heap into the kernel heap and
    /// removes the memlimit: full reclamation, §2), and wakes waiters.
    pub(super) fn reap(&mut self, pid: Pid, status: ExitStatus) {
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
        let memlimit = self.domain_of(idx).memlimit;
        for name in charged {
            if let Some(size) = self.shm.remove_sharer(&name, pid) {
                self.emit_event(pid.0, || kaffeos_trace::Payload::ShmDetached {
                    name: name.clone(),
                });
                if let Err(e) = self.space.limits_mut().credit(memlimit, size) {
                    self.kernel_fault(
                        kaffeos_trace::KernelFaultKind::ShmCredit,
                        format!("reap {pid:?}: shm charge for {name} was not debited: {e:?}"),
                    );
                }
            }
        }

        let (domain, tenant) = (self.procs[idx].domain, self.procs[idx].tenant);
        self.leave_domain(domain, pid, tenant);
        self.procs[idx].parked.clear();
        let status = if self.procs[idx].cpu_overrun && status == ExitStatus::Killed {
            ExitStatus::CpuLimitExceeded
        } else {
            status
        };
        self.procs[idx].state = ProcState::Dead(status.clone());
        self.reaped += 1;
        if let Ok(at) = self.live.binary_search(&idx) {
            self.live.remove(at);
        }

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
