//! The syscall surface: the user/kernel boundary of Figure 1.
//!
//! Guest code crosses into the kernel only through these intrinsics; the
//! kernel services each request atomically with respect to the green-thread
//! scheduler, so a thread inside a syscall can never be terminated while
//! kernel state is inconsistent (the paper's deferred-termination rule —
//! our syscalls are single-quantum, so the deferral window is the syscall
//! itself).

use kaffeos_vm::{IntrinsicRegistry, TypeDesc};

/// Syscall numbers, in registration order. `build_registry` registers in
/// exactly this order; a unit test pins the correspondence.
pub mod sysno {
    /// `sys.print(Str)` — append a line to the process stdout.
    pub const PRINT: u16 = 0;
    /// `sys.cycles() -> Int` — the process CPU account.
    pub const CYCLES: u16 = 1;
    /// `sys.clock() -> Int` — global virtual clock, cycles.
    pub const CLOCK: u16 = 2;
    /// `sys.yield()` — voluntarily end the quantum.
    pub const YIELD: u16 = 3;
    /// `sys.rand(Int) -> Int` — deterministic per-process PRNG.
    pub const RAND: u16 = 4;
    /// `sys.heap_used() -> Int` — bytes on the process heap.
    pub const HEAP_USED: u16 = 5;
    /// `sys.heap_limit() -> Int` — the process memlimit.
    pub const HEAP_LIMIT: u16 = 6;
    /// `sys.gc()` — collect the process heap now.
    pub const GC: u16 = 7;
    /// `proc.self_pid() -> Int`.
    pub const SELF_PID: u16 = 8;
    /// `proc.spawn(image, args, limit) -> Int` — pid or -1.
    pub const SPAWN: u16 = 9;
    /// `proc.kill(pid) -> Int` — request termination.
    pub const KILL: u16 = 10;
    /// `proc.wait(pid) -> Int` — block for the exit code.
    pub const WAIT: u16 = 11;
    /// `proc.exit(code)` — terminate the calling process.
    pub const EXIT: u16 = 12;
    /// `shm.create(name, class, count) -> Int` — build + freeze a shared heap.
    pub const SHM_CREATE: u16 = 13;
    /// `shm.lookup(name) -> Int` — attach (charged in full) or -1.
    pub const SHM_LOOKUP: u16 = 14;
    /// `shm.get(name, i) -> Object` — a shared object.
    pub const SHM_GET: u16 = 15;
    /// `proc.thread(class, method, arg) -> Int` — in-process green thread.
    pub const THREAD: u16 = 16;
    /// `net.send(Int bytes) -> Int` — transmit on the process' paced NIC;
    /// returns total bytes sent. The paper names network bandwidth as the
    /// next resource to manage (§2/§6); this is that extension.
    pub const NET_SEND: u16 = 17;
    /// `net.sent() -> Int` — total bytes this process has transmitted.
    pub const NET_SENT: u16 = 18;
    /// `proc.status(pid) -> Str` — procfs-style status text for a process
    /// (state, CPU split, heap use), or an empty string for an unknown pid.
    pub const PROC_STATUS: u16 = 19;
    /// `proc.meminfo() -> Str` — the whole memlimit tree, rendered.
    pub const PROC_MEMINFO: u16 = 20;
    /// `proc.profile(pid) -> Str` — the profiler's per-process summary
    /// (empty when profiling is disabled).
    pub const PROC_PROFILE: u16 = 21;
    /// `proc.heapinfo(pid) -> Str` — procfs-style heap layout text for one
    /// process (pages, entry/exit items, GC count). Always
    /// available; empty for an unknown pid.
    pub const PROC_HEAPINFO: u16 = 22;
    /// `proc.heapstats(pid) -> Str` — allocation/GC statistics for one
    /// process; includes per-site allocation rows when the heap
    /// observability plane is enabled. Empty for an unknown pid.
    pub const PROC_HEAPSTATS: u16 = 23;
    /// Number of registered syscalls.
    pub const COUNT: u16 = 24;

    /// Registry name of a syscall number, for trace events. Unknown ids
    /// (impossible through the registry) map to `"sys.unknown"`.
    pub fn name(id: u16) -> &'static str {
        match id {
            PRINT => "sys.print",
            CYCLES => "sys.cycles",
            CLOCK => "sys.clock",
            YIELD => "sys.yield",
            RAND => "sys.rand",
            HEAP_USED => "sys.heap_used",
            HEAP_LIMIT => "sys.heap_limit",
            GC => "sys.gc",
            SELF_PID => "proc.self_pid",
            SPAWN => "proc.spawn",
            KILL => "proc.kill",
            WAIT => "proc.wait",
            EXIT => "proc.exit",
            SHM_CREATE => "shm.create",
            SHM_LOOKUP => "shm.lookup",
            SHM_GET => "shm.get",
            THREAD => "proc.thread",
            NET_SEND => "net.send",
            NET_SENT => "net.sent",
            PROC_STATUS => "proc.status",
            PROC_MEMINFO => "proc.meminfo",
            PROC_PROFILE => "proc.profile",
            PROC_HEAPINFO => "proc.heapinfo",
            PROC_HEAPSTATS => "proc.heapstats",
            _ => "sys.unknown",
        }
    }

    /// Pre-formatted `[sys:name]` profiler leaf label for a syscall number.
    /// Static so the sampler's hot path hands the profile store a ready
    /// string instead of formatting one per sample.
    pub fn sys_label(id: u16) -> &'static str {
        match id {
            PRINT => "[sys:sys.print]",
            CYCLES => "[sys:sys.cycles]",
            CLOCK => "[sys:sys.clock]",
            YIELD => "[sys:sys.yield]",
            RAND => "[sys:sys.rand]",
            HEAP_USED => "[sys:sys.heap_used]",
            HEAP_LIMIT => "[sys:sys.heap_limit]",
            GC => "[sys:sys.gc]",
            SELF_PID => "[sys:proc.self_pid]",
            SPAWN => "[sys:proc.spawn]",
            KILL => "[sys:proc.kill]",
            WAIT => "[sys:proc.wait]",
            EXIT => "[sys:proc.exit]",
            SHM_CREATE => "[sys:shm.create]",
            SHM_LOOKUP => "[sys:shm.lookup]",
            SHM_GET => "[sys:shm.get]",
            THREAD => "[sys:proc.thread]",
            NET_SEND => "[sys:net.send]",
            NET_SENT => "[sys:net.sent]",
            PROC_STATUS => "[sys:proc.status]",
            PROC_MEMINFO => "[sys:proc.meminfo]",
            PROC_PROFILE => "[sys:proc.profile]",
            PROC_HEAPINFO => "[sys:proc.heapinfo]",
            PROC_HEAPSTATS => "[sys:proc.heapstats]",
            _ => "[sys:sys.unknown]",
        }
    }
}

/// Builds the intrinsic registry the class loader links against.
pub fn build_registry() -> IntrinsicRegistry {
    use TypeDesc::*;
    let mut r = IntrinsicRegistry::new();
    // sys.*
    r.register("sys.print", vec![Str], None);
    r.register("sys.cycles", vec![], Some(Int));
    r.register("sys.clock", vec![], Some(Int));
    r.register("sys.yield", vec![], None);
    r.register("sys.rand", vec![Int], Some(Int));
    r.register("sys.heap_used", vec![], Some(Int));
    r.register("sys.heap_limit", vec![], Some(Int));
    r.register("sys.gc", vec![], None);
    // proc.*
    r.register("proc.self_pid", vec![], Some(Int));
    r.register("proc.spawn", vec![Str, Str, Int], Some(Int));
    r.register("proc.kill", vec![Int], Some(Int));
    r.register("proc.wait", vec![Int], Some(Int));
    r.register("proc.exit", vec![Int], None);
    // shm.*
    r.register("shm.create", vec![Str, Str, Int], Some(Int));
    r.register("shm.lookup", vec![Str], Some(Int));
    r.register("shm.get", vec![Str, Int], Some(Class("Object".to_string())));
    // In-process green threads: run `Class.method(int)` concurrently with
    // the spawning thread, sharing the process heap, statics and namespace.
    r.register("proc.thread", vec![Str, Str, Int], Some(Int));
    // net.* — the paper's named future-work resource, modelled as a paced
    // per-process NIC in virtual time.
    r.register("net.send", vec![Int], Some(Int));
    r.register("net.sent", vec![], Some(Int));
    // The procfs-style introspection plane: kernel accounting state served
    // to guests as plain text, so in-VM tools (a `top`, a debugger) need no
    // privileged channel.
    r.register("proc.status", vec![Int], Some(Str));
    r.register("proc.meminfo", vec![], Some(Str));
    r.register("proc.profile", vec![Int], Some(Str));
    r.register("proc.heapinfo", vec![Int], Some(Str));
    r.register("proc.heapstats", vec![Int], Some(Str));
    debug_assert_eq!(r.len(), sysno::COUNT as usize);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_order_matches_sysno() {
        let r = build_registry();
        assert_eq!(r.by_name("sys.print"), Some(sysno::PRINT));
        assert_eq!(r.by_name("sys.cycles"), Some(sysno::CYCLES));
        assert_eq!(r.by_name("sys.clock"), Some(sysno::CLOCK));
        assert_eq!(r.by_name("sys.yield"), Some(sysno::YIELD));
        assert_eq!(r.by_name("sys.rand"), Some(sysno::RAND));
        assert_eq!(r.by_name("sys.heap_used"), Some(sysno::HEAP_USED));
        assert_eq!(r.by_name("sys.heap_limit"), Some(sysno::HEAP_LIMIT));
        assert_eq!(r.by_name("sys.gc"), Some(sysno::GC));
        assert_eq!(r.by_name("proc.self_pid"), Some(sysno::SELF_PID));
        assert_eq!(r.by_name("proc.spawn"), Some(sysno::SPAWN));
        assert_eq!(r.by_name("proc.kill"), Some(sysno::KILL));
        assert_eq!(r.by_name("proc.wait"), Some(sysno::WAIT));
        assert_eq!(r.by_name("proc.exit"), Some(sysno::EXIT));
        assert_eq!(r.by_name("shm.create"), Some(sysno::SHM_CREATE));
        assert_eq!(r.by_name("shm.lookup"), Some(sysno::SHM_LOOKUP));
        assert_eq!(r.by_name("shm.get"), Some(sysno::SHM_GET));
        assert_eq!(r.by_name("proc.thread"), Some(sysno::THREAD));
        assert_eq!(r.by_name("net.send"), Some(sysno::NET_SEND));
        assert_eq!(r.by_name("net.sent"), Some(sysno::NET_SENT));
        assert_eq!(r.by_name("proc.status"), Some(sysno::PROC_STATUS));
        assert_eq!(r.by_name("proc.meminfo"), Some(sysno::PROC_MEMINFO));
        assert_eq!(r.by_name("proc.profile"), Some(sysno::PROC_PROFILE));
        assert_eq!(r.by_name("proc.heapinfo"), Some(sysno::PROC_HEAPINFO));
        assert_eq!(r.by_name("proc.heapstats"), Some(sysno::PROC_HEAPSTATS));
        assert_eq!(r.len(), sysno::COUNT as usize);
    }

    #[test]
    fn sys_labels_match_names() {
        // The static label table is a cache of `[sys:{name}]`; keep the two
        // from drifting apart.
        for id in 0..=sysno::COUNT {
            assert_eq!(
                sysno::sys_label(id),
                format!("[sys:{}]", sysno::name(id)),
                "label cache out of sync for syscall {id}"
            );
        }
    }
}
