//! Introspection: the procfs texts guests read through `proc.*`
//! syscalls, the `kaffeos-top` table, heap dumps and the JIT counters —
//! read-only renderers over the kernel state.

use super::KaffeOs;
use crate::process::{Pid, ProcState, Process};

impl KaffeOs {
    // ---- introspection (procfs and kaffeos-top) ----------------------------

    /// The `state` label and `(heap used, heap limit)` that `proc.status`
    /// and `kaffeos-top` both show for a process.
    fn proc_state_and_heap(&self, p: &Process) -> (String, u64, u64) {
        let state = match &p.state {
            ProcState::Running => "running".to_string(),
            ProcState::Dying => "dying".to_string(),
            ProcState::Dead(status) => format!("dead({})", status.wait_code()),
        };
        let domain = self.held_domain(p);
        let heap_used = domain.map_or(0, |d| self.space.heap_bytes(d.heap).unwrap_or(0));
        let heap_limit = domain.map_or(self.config.user_budget, |d| {
            self.space.limits().limit(d.memlimit)
        });
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

    /// Tier-table storage (method slots plus counter buckets) that dead
    /// processes still hold.
    #[cfg(test)]
    pub(crate) fn dead_tier_storage(&self) -> usize {
        self.procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::Dead(_)))
            .map(|p| p.jit.bodies.capacity() + p.jit.counters.capacity())
            .sum()
    }

    /// `(bodies, bytes)` the JIT's compile-once memo holds: every body
    /// any process compiled, each counted once however many share it.
    pub fn jit_cache_usage(&self) -> (usize, u64) {
        self.jit_memo.usage()
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
            // "3 compiled here, 2 bodies another process compiled, taken
            // from the kernel's body memo".
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
        let _ = writeln!(out, "entry_items:\t{}", snap.entry_items);
        let _ = writeln!(out, "exit_items:\t{}", snap.exit_items);
        let _ = writeln!(out, "gc_count:\t{}", snap.gc_count);
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
                    "  {leaf};{}\tallocs={} bytes={} died={}",
                    self.class_tag_name(class),
                    s.allocs,
                    s.bytes,
                    s.freed,
                );
            }
        }
        out
    }

    /// The `pid:` line both heap procfs files open with, and the heap
    /// snapshot behind them; `None` for an unknown pid or a dead heap.
    fn proc_heap_preamble(&self, pid: Pid) -> Option<(String, kaffeos_heap::HeapSnapshot)> {
        let p = &self.procs[self.proc_index(pid)?];
        let snap = self.space.snapshot(self.held_domain(p)?.heap).ok()?;
        Some((format!("pid:\t{}\n", p.pid.0), snap))
    }

}
