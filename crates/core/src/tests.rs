//! End-to-end kernel tests: the paper's central claims, exercised through
//! real guest programs.

use crate::{ExitStatus, KaffeOs, KaffeOsConfig, Pid};

fn os() -> KaffeOs {
    KaffeOs::new(KaffeOsConfig::default())
}

fn spawn_src(os: &mut KaffeOs, name: &str, src: &str, limit: Option<u64>) -> Pid {
    os.register_image(name, src).expect("image compiles");
    os.spawn(name, "", limit).expect("spawn")
}

mod lifecycle {
    use super::*;

    #[test]
    fn process_runs_prints_and_exits() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "hello",
            r#"class Main { static int main() { Sys.print("hi"); return 42; } }"#,
            None,
        );
        let report = os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(42)));
        assert_eq!(os.stdout(pid), ["hi".to_string()]);
        assert!(!report.deadlocked);
        assert!(report.clock > 0);
    }

    /// A failed spawn leaves nothing behind: an image without a static
    /// `main` or with an unsupported `main` signature is rejected before a
    /// heap, memlimit node or namespace exists, and an entry argument that
    /// does not fit the memlimit releases the heap and node it created.
    /// The next good spawn then gets a fresh heap of its own.
    #[test]
    fn failed_spawn_leaks_no_domain() {
        let mut os = os();
        os.register_image("nomain", "class Foo { int x; }").unwrap();
        os.register_image("twoargs", "class Main { static int main(int a, int b) { return a; } }")
            .unwrap();
        os.register_image("strarg", "class Main { static int main(String s) { return 1; } }")
            .unwrap();
        let heaps = os.space().recount_heaps().len();
        let meminfo = os.meminfo_text();
        let namespaces = os.class_table().namespaces.len();
        for image in ["nomain", "twoargs"] {
            let err = os.spawn(image, "", None).unwrap_err();
            assert!(matches!(err, crate::KernelError::BadEntry(_)), "{image}: {err:?}");
            assert_eq!(os.class_table().namespaces.len(), namespaces, "{image}");
        }
        let err = os.spawn("strarg", "an argument", Some(1)).unwrap_err();
        assert!(matches!(err, crate::KernelError::OutOfMemory), "{err:?}");
        assert_eq!(os.space().recount_heaps().len(), heaps);
        assert_eq!(os.meminfo_text(), meminfo);
        os.audit().expect("audit after failed spawns");

        let pid = os.spawn("strarg", "x", None).unwrap();
        assert_eq!(os.space().recount_heaps().len(), heaps + 1, "one fresh heap");
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(1)));
        os.audit().expect("audit after the good spawn");
    }

    #[test]
    fn entry_point_signatures() {
        let mut os = os();
        let p1 = spawn_src(
            &mut os,
            "noargs",
            "class Main { static int main() { return 1; } }",
            None,
        );
        os.register_image(
            "strargs",
            r#"class Main { static int main(String args) { return args.len(); } }"#,
        )
        .unwrap();
        let p2 = os.spawn("strargs", "hello", None).unwrap();
        os.register_image(
            "intargs",
            "class Main { static int main(int n) { return n * 2; } }",
        )
        .unwrap();
        let p3 = os.spawn("intargs", "21", None).unwrap();
        os.run(None);
        assert_eq!(os.status(p1), Some(ExitStatus::Exited(1)));
        assert_eq!(os.status(p2), Some(ExitStatus::Exited(5)));
        assert_eq!(os.status(p3), Some(ExitStatus::Exited(42)));
    }

    #[test]
    fn proc_exit_sets_code() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "exiter",
            r#"class Main { static int main() { Proc.exit(7); return 99; } }"#,
            None,
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(7)));
    }

    #[test]
    fn uncaught_exception_reported() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "crasher",
            "class Main { static int main() { return 1 / 0; } }",
            None,
        );
        os.run(None);
        match os.status(pid) {
            Some(ExitStatus::UncaughtException { class, .. }) => {
                assert_eq!(class, "ArithmeticException");
            }
            other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn round_robin_interleaves_processes() {
        let mut os = os();
        let src = r#"
            class Main {
                static int main() {
                    int acc = 0;
                    for (int i = 0; i < 200000; i = i + 1) { acc = acc + i; }
                    return 0;
                }
            }
        "#;
        let p1 = spawn_src(&mut os, "w1", src, None);
        os.register_image("w2", src).unwrap();
        let p2 = os.spawn("w2", "", None).unwrap();
        let report = os.run(None);
        assert!(report.quanta > 4, "both ran across multiple quanta");
        assert_eq!(os.status(p1), Some(ExitStatus::Exited(0)));
        assert_eq!(os.status(p2), Some(ExitStatus::Exited(0)));
        // Fairness: equal work → similar CPU.
        let c1 = os.cpu(p1).total() as f64;
        let c2 = os.cpu(p2).total() as f64;
        assert!((c1 / c2 - 1.0).abs() < 0.1, "cpu {c1} vs {c2}");
    }
}

mod resource_management {
    use super::*;

    #[test]
    fn memhog_is_killed_by_its_memlimit_without_harming_others() {
        let mut os = os();
        // MemHog: allocates and *retains* memory (the §4.2 servlet).
        let hog = spawn_src(
            &mut os,
            "memhog",
            r#"
            class Main {
                static int main() {
                    Vector keep = new Vector();
                    while (true) { keep.add(new int[1024]); }
                    return 0;
                }
            }
            "#,
            Some(1 << 20), // 1 MB
        );
        let good = spawn_src(
            &mut os,
            "good",
            r#"
            class Main {
                static int main() {
                    int acc = 0;
                    for (int i = 0; i < 100000; i = i + 1) { acc = acc + i; }
                    return 123;
                }
            }
            "#,
            Some(1 << 20),
        );
        os.run(None);
        assert!(
            os.status(hog).map(|s| s.is_oom()).unwrap_or(false),
            "memhog dies of OOM: {:?}",
            os.status(hog)
        );
        assert_eq!(
            os.status(good),
            Some(ExitStatus::Exited(123)),
            "well-behaved process is unaffected"
        );
    }

    #[test]
    fn garbage_is_collected_transparently_within_the_limit() {
        let mut os = os();
        // Allocates ~40 MB of garbage inside a 1 MB limit: the GC-on-
        // allocation-failure policy must absorb it.
        let pid = spawn_src(
            &mut os,
            "churn",
            r#"
            class Main {
                static int main() {
                    int acc = 0;
                    for (int i = 0; i < 10000; i = i + 1) {
                        int[] garbage = new int[1000];
                        garbage[0] = i;
                        acc = acc + garbage[0];
                    }
                    return acc / 10000;
                }
            }
            "#,
            Some(1 << 20),
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(4999)));
        assert!(os.cpu(pid).gc > 0, "GC cycles were charged to the process");
    }

    #[test]
    fn gc_cycles_charged_to_the_allocating_process() {
        let mut os = os();
        let churn = spawn_src(
            &mut os,
            "churn",
            r#"
            class Main {
                static int main() {
                    for (int i = 0; i < 5000; i = i + 1) {
                        int[] garbage = new int[1000];
                        garbage[0] = i;
                    }
                    return 0;
                }
            }
            "#,
            Some(1 << 20),
        );
        let idle = spawn_src(
            &mut os,
            "idle",
            r#"
            class Main {
                static int main() {
                    int acc = 0;
                    for (int i = 0; i < 50000; i = i + 1) { acc = acc + 1; }
                    return 0;
                }
            }
            "#,
            Some(1 << 20),
        );
        os.run(None);
        assert!(os.cpu(churn).gc > 0, "allocator pays for its collections");
        assert_eq!(os.cpu(idle).gc, 0, "non-allocating process pays nothing");
    }

    #[test]
    fn memory_fully_reclaimed_after_exit() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "allocator",
            r#"
            class Main {
                static int main() {
                    Vector keep = new Vector();
                    for (int i = 0; i < 100; i = i + 1) { keep.add(new int[256]); }
                    return 0;
                }
            }
            "#,
            Some(4 << 20),
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(0)));
        // The process heap was merged into the kernel heap at exit; a
        // kernel GC cycle then reclaims every byte it allocated.
        let kernel_heap = os.space.kernel_heap();
        let before = os.space.heap_bytes(kernel_heap).unwrap();
        assert!(
            before > 100 * 256 * 4,
            "merged objects are on the kernel heap"
        );
        os.kernel_gc();
        let after = os.space.heap_bytes(kernel_heap).unwrap();
        assert!(
            after < 1024,
            "kernel GC reclaims the terminated process' memory ({before} -> {after})"
        );
        // And the user-budget memlimit is fully drained.
        assert_eq!(os.space.limits().current(os.space.root_memlimit()), 0);
    }

    #[test]
    fn cpu_accounting_separates_processes() {
        let mut os = os();
        let busy = spawn_src(
            &mut os,
            "busy",
            r#"
            class Main {
                static int main() {
                    int acc = 0;
                    for (int i = 0; i < 300000; i = i + 1) { acc = acc + i; }
                    return 0;
                }
            }
            "#,
            None,
        );
        let brief = spawn_src(
            &mut os,
            "brief",
            "class Main { static int main() { return 0; } }",
            None,
        );
        os.run(None);
        assert!(
            os.cpu(busy).exec > 10 * os.cpu(brief).exec,
            "busy {:?} vs brief {:?}",
            os.cpu(busy),
            os.cpu(brief)
        );
    }

    #[test]
    fn sys_heap_introspection() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "introspect",
            r#"
            class Main {
                static int main() {
                    int[] keep = new int[1000];
                    keep[0] = 1;
                    if (Sys.heap_used() < 4000) { return -1; }
                    if (Sys.heap_limit() != 2097152) { return -2; }
                    return 0;
                }
            }
            "#,
            Some(2 << 20),
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(0)));
    }
}

mod termination {
    use super::*;

    #[test]
    fn kill_terminates_a_spinning_process() {
        let mut os = os();
        let spinner = spawn_src(
            &mut os,
            "spinner",
            "class Main { static int main() { while (true) { } return 0; } }",
            None,
        );
        // Let it run a while, then kill it.
        os.run(Some(2_000_000));
        assert!(os.is_alive(spinner), "spinner still spinning");
        os.kill(spinner).unwrap();
        os.run(None);
        assert_eq!(os.status(spinner), Some(ExitStatus::Killed));
        // Memory reclaimed.
        os.kernel_gc();
        assert_eq!(os.space.limits().current(os.space.root_memlimit()), 0);
    }

    #[test]
    fn guest_can_kill_another_process() {
        let mut os = os();
        let victim = spawn_src(
            &mut os,
            "victim",
            "class Main { static int main() { while (true) { } return 0; } }",
            None,
        );
        os.register_image(
            "killer",
            r#"
            class Main {
                static int main(int target) {
                    Proc.kill(target);
                    return Proc.wait(target);
                }
            }
            "#,
        )
        .unwrap();
        let killer = os.spawn("killer", &victim.0.to_string(), None).unwrap();
        os.run(None);
        assert_eq!(os.status(victim), Some(ExitStatus::Killed));
        // wait() on a killed process returns -1.
        assert_eq!(os.status(killer), Some(ExitStatus::Exited(-1)));
    }

    #[test]
    fn spawn_and_wait_from_guest() {
        let mut os = os();
        os.register_image("child", "class Main { static int main() { return 33; } }")
            .unwrap();
        os.register_image(
            "parent",
            r#"
            class Main {
                static int main() {
                    int pid = Proc.spawn("child", "", 0);
                    if (pid < 0) { return -1; }
                    return Proc.wait(pid);
                }
            }
            "#,
        )
        .unwrap();
        let parent = os.spawn("parent", "", None).unwrap();
        os.run(None);
        assert_eq!(os.status(parent), Some(ExitStatus::Exited(33)));
    }

    #[test]
    fn kill_releases_monitors_of_the_dead() {
        let mut os = os();
        // Holds a monitor forever.
        let holder = spawn_src(
            &mut os,
            "holder",
            r#"
            class Main {
                static int main() {
                    Object lock = new Object();
                    sync (lock) { while (true) { } }
                    return 0;
                }
            }
            "#,
            None,
        );
        os.run(Some(1_000_000));
        os.kill(holder).unwrap();
        let report = os.run(None);
        assert_eq!(os.status(holder), Some(ExitStatus::Killed));
        assert!(!report.deadlocked);
    }

    #[test]
    fn mutual_wait_deadlock_is_detected() {
        let mut os = os();
        os.register_image(
            "waiter",
            r#"
            class Main {
                static int main(int other) { return Proc.wait(other); }
            }
            "#,
        )
        .unwrap();
        // p1 waits for p2; p2 waits for p1.
        let p1 = os.spawn("waiter", "2", None).unwrap();
        let p2 = os.spawn("waiter", "1", None).unwrap();
        let report = os.run(None);
        assert!(report.deadlocked);
        assert!(os.is_alive(p1) && os.is_alive(p2));
    }

    #[test]
    fn kill_of_kernel_parked_thread_is_deferred_until_wakeup() {
        let mut os = os();
        // The waiter parks inside the kernel (proc.wait → kernel_depth 1).
        let sleeper = spawn_src(
            &mut os,
            "sleeper",
            "class Main { static int main() { while (true) { } return 0; } }",
            None,
        );
        os.register_image(
            "waiter",
            r#"class Main { static int main(int t) { return Proc.wait(t); } }"#,
        )
        .unwrap();
        let waiter = os.spawn("waiter", &sleeper.0.to_string(), None).unwrap();
        os.run(Some(1_000_000));
        // Kill the waiter while it is parked in the kernel: deferred.
        os.kill(waiter).unwrap();
        assert!(os.is_alive(waiter), "kill deferred while inside the kernel");
        // When the wait completes (sleeper dies), the waiter leaves the
        // kernel and the deferred kill lands.
        os.kill(sleeper).unwrap();
        os.run(None);
        assert_eq!(os.status(sleeper), Some(ExitStatus::Killed));
        assert_eq!(os.status(waiter), Some(ExitStatus::Killed));
    }
}

mod namespaces {
    use super::*;

    #[test]
    fn reloaded_console_statics_are_per_process() {
        let mut os = os();
        let src = r#"
            class Main {
                static int main() {
                    Console.println("a");
                    Console.println("b");
                    return Console.lineCount();
                }
            }
        "#;
        let p1 = spawn_src(&mut os, "c1", src, None);
        os.register_image("c2", src).unwrap();
        let p2 = os.spawn("c2", "", None).unwrap();
        os.run(None);
        // Each process sees only its own Console.lines (reloaded class,
        // §3.2); were Console shared, the second would see 4.
        assert_eq!(os.status(p1), Some(ExitStatus::Exited(2)));
        assert_eq!(os.status(p2), Some(ExitStatus::Exited(2)));
    }

    #[test]
    fn monolithic_mode_shares_statics_between_guests() {
        let mut os = KaffeOs::new(KaffeOsConfig::monolithic(crate::Engine::JIT_IBM, 64 << 20));
        let src = r#"
            class Main {
                static int main() {
                    Console.println("x");
                    return Console.lineCount();
                }
            }
        "#;
        let p1 = spawn_src(&mut os, "m1", src, None);
        let p2 = os.spawn("m1", "", None).unwrap();
        os.run(None);
        // No isolation: the second guest observes the first one's statics.
        let a = match os.status(p1) {
            Some(ExitStatus::Exited(v)) => v,
            other => panic!("{other:?}"),
        };
        let b = match os.status(p2) {
            Some(ExitStatus::Exited(v)) => v,
            other => panic!("{other:?}"),
        };
        // Each guest printed once; because Console is shared, at least one
        // of them observed the other's line too (exact split depends on
        // interleaving).
        assert!(a + b >= 3, "line counts accumulate across guests: {a}, {b}");
        assert!(a.max(b) == 2);
    }

    #[test]
    fn class_sharing_counts_reported() {
        let os = os();
        let (shared, reloaded) = os.class_sharing_counts();
        assert!(shared >= 15, "stdlib loads at least 15 shared classes");
        assert_eq!(reloaded, 2);
    }

    /// A reloaded class is the same class text bound again (§3.2): every
    /// spawn of one image binds its own `Main`, and every one of those
    /// binds the one ops allocation the image compiled.
    #[test]
    fn respawned_image_shares_one_code_allocation() {
        let mut os = os();
        os.register_image("one", "class Main { static int main() { return 3; } }")
            .unwrap();
        for _ in 0..1000 {
            let pid = os.spawn("one", "", None).unwrap();
            os.run(None);
            assert_eq!(os.status(pid), Some(ExitStatus::Exited(3)));
        }
        let table = os.class_table();
        let mains: Vec<_> = table
            .classes
            .iter()
            .filter(|c| c.name() == "Main")
            .map(|c| &table.decl(table.find_method(c.idx, "main").unwrap()).code)
            .collect();
        assert_eq!(mains.len(), 1000);
        let first = mains[0];
        assert!(
            mains
                .iter()
                .all(|c| std::sync::Arc::ptr_eq(&c.ops, &first.ops)),
            "every spawn's main shares the image's ops"
        );
    }
}

mod host_state {
    use super::*;

    /// A respawn adds no template body: 200 spawns of one image link the
    /// bodies the first spawn lowered, so the class table's memo stays as
    /// the first spawn left it.
    #[test]
    fn respawns_add_no_template_bodies() {
        let mut os = KaffeOs::new(KaffeOsConfig::default());
        os.register_image(
            "hot",
            "class Main { static int main() { int s = 0; int i = 0; \
             while (i < 500) { s = s + i; i = i + 1; } return s % 100; } }",
        )
        .unwrap();
        let mut after_first = None;
        for k in 0..200 {
            let pid = os.spawn("hot", "", None).unwrap();
            os.run(None);
            assert_eq!(os.status(pid), Some(ExitStatus::Exited(50)));
            let stats = os.jit_stats(pid).unwrap();
            assert_eq!(stats.compiled, (k == 0) as u64, "spawn {k}: {stats:?}");
            let usage = *after_first.get_or_insert(os.jit_cache_usage());
            assert_eq!(os.jit_cache_usage(), usage, "spawn {k}");
        }
    }

    /// The verifier bounds its per-pc states before allocating them. A
    /// straight-line `main` with 4 000 locals (8 000 ops × 4 000 locals of
    /// recorded state, which peaked at ~500 MB before the bound) fails
    /// `spawn` with a verify error; the audit stays clean and the kernel
    /// keeps serving. 70 000 locals do not compile at all.
    #[test]
    fn a_frame_too_wide_to_verify_fails_spawn() {
        use crate::KernelError;
        let wide = |n: usize| {
            let decls: String = (0..n).map(|i| format!("int v{i} = {i};\n")).collect();
            format!("class Main {{ static int main() {{\n{decls}return 0; }} }}")
        };
        let mut os = KaffeOs::new(KaffeOsConfig::default());
        match os.register_image("huge", &wide(70_000)) {
            Err(KernelError::Compile(e)) => assert!(e.msg.contains("too many local"), "{e}"),
            other => panic!("70 000 locals must not compile: {other:?}"),
        }
        os.register_image("wide", &wide(4_000)).unwrap();
        match os.spawn("wide", "", None) {
            Err(KernelError::Vm(kaffeos_vm::VmError::Verify(e))) => {
                assert!(e.msg.contains("state slots"), "{e}")
            }
            other => panic!("the wide frame must fail verification: {other:?}"),
        }
        os.audit().expect("audit after the refused spawn");
        os.register_image("ok", "class Main { static int main() { return 7; } }")
            .unwrap();
        let pid = os.spawn("ok", "", None).unwrap();
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(7)));
        os.audit().expect("audit after a later spawn");
    }

    /// The template lowering indexes template ops with `u16`, so the
    /// verifier refuses a method past `MAX_METHOD_OPS` before allocating:
    /// a straight-line `main` of 65 604 ops fails `spawn` with a verify
    /// error, the audit stays clean and the kernel keeps serving.
    #[test]
    fn a_method_too_long_to_lower_fails_spawn() {
        use crate::KernelError;
        // `x = x + 1;` is four ops: Load, ConstInt, Add, Store.
        let body = "x = x + 1;\n".repeat(16_400);
        let src = format!("class Main {{ static int main() {{ int x = 0;\n{body}return x; }} }}");
        let mut os = KaffeOs::new(KaffeOsConfig::default());
        os.register_image("long", &src).unwrap();
        match os.spawn("long", "", None) {
            Err(KernelError::Vm(kaffeos_vm::VmError::Verify(e))) => {
                assert!(e.msg.contains("template lowering"), "{e}")
            }
            other => panic!("the long method must fail verification: {other:?}"),
        }
        os.audit().expect("audit after the refused spawn");
        os.register_image("ok", "class Main { static int main() { return 7; } }")
            .unwrap();
        let pid = os.spawn("ok", "", None).unwrap();
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(7)));
    }
}

mod boot_image {
    use super::*;
    use crate::kernel::BootImage;
    use crate::Engine;
    use kaffeos_vm::{ClassTable, MethodIdx, ProcJitStats};
    use std::sync::Arc;

    /// Everything boot puts in a table: namespace, class and method
    /// counts, the link memo's readings, and the `Debug` rendering of the
    /// `shared` and `template` namespaces (ids 0 and 1, in boot order).
    fn shape(table: &ClassTable) -> (usize, usize, usize, (usize, u64), ProcJitStats, String) {
        (
            table.namespaces.len(),
            table.classes.len(),
            table.methods.len(),
            table.body_usage(),
            table.lowering_totals(),
            format!("{:?}", &table.namespaces[..2]),
        )
    }

    /// Every method of `image` has its ops allocation in `table` too: the
    /// table was cloned from the image, not compiled again.
    fn shares_code(table: &ClassTable, image: &ClassTable) -> bool {
        (0..image.methods.len() as u32)
            .map(MethodIdx)
            .all(|m| Arc::ptr_eq(&image.decl(m).code.ops, &table.decl(m).code.ops))
    }

    /// A kernel boots from a copy of the image, never the image itself:
    /// after kernel A loads a shared class, spawns and reaps a process and
    /// drops the boot namespaces, kernel B still boots to exactly what a
    /// from-scratch build gives, lowering nothing of its own.
    #[test]
    fn a_mutated_kernel_leaves_the_next_boot_pristine() {
        let fresh = BootImage::build(Engine::KAFFEOS).unwrap();
        let mut a = os();
        assert_eq!(shape(&a.table), shape(&fresh.table));
        a.load_shared_source("class Msg { int x; }").unwrap();
        let pid = spawn_src(&mut a, "one", "class Main { static int main() { return 3; } }", None);
        a.run(None);
        assert_eq!(a.status(pid), Some(ExitStatus::Exited(3)));
        a.table.drop_namespace(0);
        a.table.drop_namespace(1);
        assert_ne!(shape(&a.table), shape(&fresh.table));

        let b = os();
        assert_eq!(shape(&b.table), shape(&fresh.table));
        assert_eq!(b.class_sharing_counts().0, fresh.shared_class_count);
        assert_eq!(a.class_sharing_counts().0, fresh.shared_class_count + 1);
        let image = BootImage::get(Engine::KAFFEOS).unwrap();
        assert_eq!(b.table.lowering_totals(), image.table.lowering_totals());
        assert!(shares_code(&b.table, &image.table), "boot compiled again");
        assert!(!shares_code(&fresh.table, &image.table));
    }

    /// Template costs are pre-scaled per engine, so each engine boots from
    /// its own image: kernels alternating between two engines in one host
    /// process each keep their engine's virtual clock for the same guest.
    #[test]
    fn alternating_engines_keep_their_own_clocks() {
        let src = "class Main { static int main() { int s = 0; int i = 0; \
                   while (i < 300) { s = s + i; i = i + 1; } return s % 100; } }";
        let clock = |engine: Engine| {
            let mut os = KaffeOs::new(KaffeOsConfig {
                engine,
                ..Default::default()
            });
            let pid = spawn_src(&mut os, "sum", src, None);
            os.run(None);
            assert_eq!(os.status(pid), Some(ExitStatus::Exited(50)));
            os.clock()
        };
        let first = [clock(Engine::KAFFEOS), clock(Engine::KAFFE99)];
        assert_ne!(first[0], first[1]);
        for _ in 0..3 {
            assert_eq!([clock(Engine::KAFFEOS), clock(Engine::KAFFE99)], first);
        }
    }

    /// Concurrent first boots under one engine build its image once: every
    /// kernel shares one code allocation per method. Kaffe00 is booted by
    /// no other test in this crate, so these are its first boots.
    #[test]
    fn concurrent_first_boots_build_one_image() {
        let config = || KaffeOsConfig {
            engine: Engine::KAFFE00,
            ..Default::default()
        };
        // A kernel stays on its thread; its tables' ops allocations cross.
        let booted: Vec<Vec<Arc<[kaffeos_vm::Op]>>> = std::thread::scope(|s| {
            let boots: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let os = KaffeOs::new(config());
                        (0..os.table.methods.len() as u32)
                            .map(|m| os.table.decl(MethodIdx(m)).code.ops.clone())
                            .collect()
                    })
                })
                .collect();
            boots.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let image = BootImage::get(Engine::KAFFE00).unwrap();
        for ops in &booted {
            assert_eq!(ops.len(), image.table.methods.len());
            assert!(
                ops.iter()
                    .enumerate()
                    .all(|(m, o)| Arc::ptr_eq(&image.table.decl(MethodIdx(m as u32)).code.ops, o)),
                "a second image was built"
            );
        }
    }
}

mod shared_heaps {
    use super::*;

    /// A shared message type: primitive fields only stay mutable after
    /// freezing.
    const SHARED_TYPES: &str = r#"
        class Cell {
            int value;
            int flag;
        }
    "#;

    #[test]
    fn processes_communicate_through_a_shared_heap() {
        let mut os = os();
        os.load_shared_source(SHARED_TYPES).unwrap();
        os.register_image(
            "producer",
            r#"
            class Main {
                static int main() {
                    Shm.create("box", "Cell", 1);
                    Cell c = Shm.get("box", 0) as Cell;
                    c.value = 42;
                    c.flag = 1;
                    return 0;
                }
            }
            "#,
        )
        .unwrap();
        os.register_image(
            "consumer",
            r#"
            class Main {
                static int main() {
                    while (Shm.lookup("box") < 0) { Sys.yield(); }
                    Cell c = Shm.get("box", 0) as Cell;
                    while (c.flag == 0) { Sys.yield(); }
                    return c.value;
                }
            }
            "#,
        )
        .unwrap();
        let producer = os.spawn("producer", "", None).unwrap();
        let consumer = os.spawn("consumer", "", None).unwrap();
        os.run(None);
        assert_eq!(os.status(producer), Some(ExitStatus::Exited(0)));
        assert_eq!(
            os.status(consumer),
            Some(ExitStatus::Exited(42)),
            "value crossed processes through the shared heap"
        );
    }

    #[test]
    fn frozen_reference_fields_raise_segmentation_violations() {
        let mut os = os();
        os.load_shared_source("class Pair { int x; Pair other; }")
            .unwrap();
        let pid = spawn_src(
            &mut os,
            "violator",
            r#"
            class Main {
                static int main() {
                    Shm.create("pair", "Pair", 2);
                    Pair p = Shm.get("pair", 0) as Pair;
                    Pair q = Shm.get("pair", 1) as Pair;
                    p.x = 5; // primitive: fine
                    try {
                        p.other = q; // reference field of a frozen shared object
                        return -1;
                    } catch (SegmentationViolation e) {
                        return p.x;
                    }
                }
            }
            "#,
            None,
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(5)));
    }

    #[test]
    fn all_sharers_charged_in_full() {
        let mut os = os();
        os.load_shared_source(SHARED_TYPES).unwrap();
        os.register_image(
            "creator",
            r#"
            class Main {
                static int main() {
                    Shm.create("c", "Cell", 100);
                    Cell c = Shm.get("c", 0) as Cell;
                    while (c.flag == 0) { Sys.yield(); }
                    return 0;
                }
            }
            "#,
        )
        .unwrap();
        os.register_image(
            "sharer",
            r#"
            class Main {
                static int main() {
                    while (Shm.lookup("c") < 0) { Sys.yield(); }
                    Cell c = Shm.get("c", 0) as Cell;
                    c.flag = 1;
                    return 0;
                }
            }
            "#,
        )
        .unwrap();
        let creator = os.spawn("creator", "", Some(4 << 20)).unwrap();
        let sharer = os.spawn("sharer", "", Some(4 << 20)).unwrap();
        os.run(Some(50_000_000));
        let size = os.shm_registry().get("c").map(|s| s.size).unwrap_or(0);
        assert!(size >= 100 * 16, "heap holds 100 Cells");
        // While both are live sharers, both memlimits carry the full size.
        let _ = (creator, sharer);
    }

    #[test]
    fn sharer_without_budget_cannot_attach() {
        let mut os = os();
        os.load_shared_source(SHARED_TYPES).unwrap();
        os.register_image(
            "bigcreator",
            r#"
            class Main {
                static int main() {
                    Shm.create("big", "Cell", 5000);
                    while (true) { Sys.yield(); }
                    return 0;
                }
            }
            "#,
        )
        .unwrap();
        os.register_image(
            "poor",
            r#"
            class Main {
                static int main() {
                    while (true) {
                        try {
                            int n = Shm.lookup("big");
                            if (n > 0) { return -1; } // attached?!
                        } catch (OutOfMemoryError e) {
                            return 7; // correctly refused: cannot pay
                        }
                        Sys.yield();
                    }
                    return 0;
                }
            }
            "#,
        )
        .unwrap();
        let creator = os.spawn("bigcreator", "", Some(8 << 20)).unwrap();
        // 64 KB budget cannot cover a 5000-object shared heap (~80 KB+).
        let poor = os.spawn("poor", "", Some(64 << 10)).unwrap();
        os.run(Some(100_000_000));
        assert_eq!(os.status(poor), Some(ExitStatus::Exited(7)));
        os.kill(creator).unwrap();
    }

    #[test]
    fn orphaned_shared_heap_is_merged_and_reclaimed() {
        let mut os = os();
        os.load_shared_source(SHARED_TYPES).unwrap();
        let pid = spawn_src(
            &mut os,
            "creator",
            r#"
            class Main {
                static int main() {
                    Shm.create("tmp", "Cell", 10);
                    return 0;
                }
            }
            "#,
            None,
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(0)));
        // Creator died: the only sharer is gone; the kernel collector
        // merges the orphan at the start of its next cycle.
        assert_eq!(os.shm_registry().len(), 1, "still registered before GC");
        os.kernel_gc();
        assert_eq!(os.shm_registry().len(), 0, "orphan merged by kernel GC");
        os.kernel_gc();
        assert_eq!(
            os.space.limits().current(os.space.root_memlimit()),
            0,
            "every byte reclaimed"
        );
    }

    #[test]
    fn creator_exit_leaves_heap_alive_for_other_sharers() {
        let mut os = os();
        os.load_shared_source(SHARED_TYPES).unwrap();
        os.register_image(
            "creator",
            r#"
            class Main {
                static int main() {
                    Shm.create("ch", "Cell", 1);
                    Cell c = Shm.get("ch", 0) as Cell;
                    c.value = 55;
                    return 0; // dies immediately
                }
            }
            "#,
        )
        .unwrap();
        os.register_image(
            "reader",
            r#"
            class Main {
                static int main() {
                    while (Shm.lookup("ch") < 0) { Sys.yield(); }
                    Cell c = Shm.get("ch", 0) as Cell;
                    while (c.value == 0) { Sys.yield(); }
                    return c.value;
                }
            }
            "#,
        )
        .unwrap();
        let creator = os.spawn("creator", "", None).unwrap();
        let reader = os.spawn("reader", "", None).unwrap();
        os.run(None);
        assert_eq!(os.status(creator), Some(ExitStatus::Exited(0)));
        assert_eq!(
            os.status(reader),
            Some(ExitStatus::Exited(55)),
            "data survives the creator's exit while sharers remain"
        );
    }
}

mod monolithic {
    use super::*;

    #[test]
    fn memhog_exhausts_the_whole_vm() {
        // In a monolithic VM a MemHog's allocations are charged to the one
        // global heap; an innocent allocator can then OOM "in seemingly
        // random places" (§4.2).
        let mut os = KaffeOs::new(KaffeOsConfig::monolithic(
            crate::Engine::JIT_IBM,
            2 << 20, // 2 MB for everyone
        ));
        os.register_image(
            "hog",
            r#"
            class Main {
                static int main() {
                    Vector keep = new Vector();
                    while (true) { keep.add(new int[1024]); }
                    return 0;
                }
            }
            "#,
        )
        .unwrap();
        os.register_image(
            "innocent",
            r#"
            class Main {
                static int main() {
                    int acc = 0;
                    for (int i = 0; i < 200000; i = i + 1) {
                        String s = "x" + i;   // modest allocation
                        acc = acc + s.len();
                    }
                    return acc;
                }
            }
            "#,
        )
        .unwrap();
        let hog = os.spawn("hog", "", None).unwrap();
        let innocent = os.spawn("innocent", "", None).unwrap();
        os.run(None);
        let hog_oom = os.status(hog).map(|s| s.is_oom()).unwrap_or(false);
        let innocent_oom = os.status(innocent).map(|s| s.is_oom()).unwrap_or(false);
        assert!(
            hog_oom || innocent_oom,
            "someone must OOM: hog={:?} innocent={:?}",
            os.status(hog),
            os.status(innocent)
        );
        // The defining failure of the monolithic design: the hog's
        // allocations can take down the innocent guest.
        assert!(
            innocent_oom,
            "the innocent guest is hit by the hog's memory exhaustion: {:?}",
            os.status(innocent)
        );
    }

    #[test]
    fn kaffeos_isolates_the_same_pair() {
        // The same two programs under KaffeOS with per-process limits: the
        // hog dies alone.
        let mut os = KaffeOs::new(KaffeOsConfig {
            default_process_limit: 1 << 20,
            ..KaffeOsConfig::default()
        });
        os.register_image(
            "hog",
            r#"
            class Main {
                static int main() {
                    Vector keep = new Vector();
                    while (true) { keep.add(new int[1024]); }
                    return 0;
                }
            }
            "#,
        )
        .unwrap();
        os.register_image(
            "innocent",
            r#"
            class Main {
                static int main() {
                    int acc = 0;
                    for (int i = 0; i < 20000; i = i + 1) {
                        String s = "x" + i;
                        acc = acc + s.len();
                    }
                    return acc;
                }
            }
            "#,
        )
        .unwrap();
        let hog = os.spawn("hog", "", None).unwrap();
        let innocent = os.spawn("innocent", "", None).unwrap();
        os.run(None);
        assert!(os.status(hog).map(|s| s.is_oom()).unwrap_or(false));
        assert!(
            matches!(os.status(innocent), Some(ExitStatus::Exited(_))),
            "isolated: {:?}",
            os.status(innocent)
        );
    }

    /// `Sys.gc()` in a monolithic VM collects the one shared heap, so it
    /// must root every guest's stacks and the shared statics: one guest's
    /// static array and another guest's local array, held across a third
    /// guest's collections, both survive. The same three guests pass under
    /// KaffeOS, where each collection roots only its own domain.
    #[test]
    fn sys_gc_keeps_every_guests_live_objects() {
        for config in [
            KaffeOsConfig::monolithic(crate::Engine::JIT_IBM, 8 << 20),
            KaffeOsConfig::default(),
        ] {
            let mut os = KaffeOs::new(config);
            // Distinct entry classes: a monolithic namespace binds one `Main`.
            os.register_image(
                "keeper",
                r#"
                class Keeper {
                    static int[] keep;
                    static int main() {
                        Keeper.keep = new int[10];
                        Keeper.keep[5] = 42;
                        Sys.gc();
                        return Keeper.keep[5];
                    }
                }
                "#,
            )
            .unwrap();
            os.register_image(
                "holder",
                r#"
                class Holder {
                    static int main() {
                        int[] mine = new int[10];
                        mine[5] = 7;
                        for (int i = 0; i < 20; i = i + 1) { Sys.yield(); }
                        return mine[5];
                    }
                }
                "#,
            )
            .unwrap();
            os.register_image(
                "collector",
                r#"
                class Collector {
                    static int main() {
                        for (int i = 0; i < 20; i = i + 1) { Sys.gc(); }
                        return 0;
                    }
                }
                "#,
            )
            .unwrap();
            let keeper = os.spawn("keeper", "", None).unwrap();
            let holder = os.spawn("holder", "", None).unwrap();
            let collector = os.spawn("collector", "", None).unwrap();
            os.run(None);
            assert_eq!(os.status(keeper), Some(ExitStatus::Exited(42)));
            assert_eq!(os.status(holder), Some(ExitStatus::Exited(7)));
            assert_eq!(os.status(collector), Some(ExitStatus::Exited(0)));
            os.audit().expect("audit after the collections");
        }
    }
}

mod accounting_integrity {
    use super::*;

    #[test]
    fn barrier_stats_accumulate_in_kaffeos_mode() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "linker",
            r#"
            class Node { Node next; }
            class Main {
                static int main() {
                    Node head = null;
                    for (int i = 0; i < 100; i = i + 1) {
                        Node fresh = new Node();
                        fresh.next = head;
                        head = fresh;
                    }
                    return 0;
                }
            }
            "#,
            None,
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(0)));
        let stats = os.space().barrier_stats();
        assert!(
            stats.executed >= 100,
            "barriers counted: {}",
            stats.executed
        );
        assert!(stats.cycles >= stats.executed * 41);
        assert_eq!(stats.violations, 0);
    }

    #[test]
    fn virtual_clock_advances_deterministically() {
        let run = || {
            let mut os = os();
            let _ = spawn_src(
                &mut os,
                "det",
                r#"
                class Main {
                    static int main() {
                        int acc = 0;
                        for (int i = 0; i < 10000; i = i + 1) {
                            acc = acc + Sys.rand(100);
                        }
                        return acc % 1000;
                    }
                }
                "#,
                None,
            );
            let report = os.run(None);
            (report.clock, report.processes[0].status.clone())
        };
        let (c1, s1) = run();
        let (c2, s2) = run();
        assert_eq!(c1, c2, "identical runs produce identical clocks");
        assert_eq!(s1, s2);
    }
}

mod cpu_policy {
    use super::*;
    use crate::SpawnOpts;

    #[test]
    fn cpu_limit_kills_a_runaway_process() {
        let mut os = os();
        os.register_image(
            "spinner",
            "class Main { static int main() { while (true) { } return 0; } }",
        )
        .unwrap();
        let bounded = os
            .spawn_with(
                "spinner",
                "",
                SpawnOpts {
                    cpu_limit: Some(5_000_000),
                    ..SpawnOpts::default()
                },
            )
            .unwrap();
        let unbounded = os.spawn("spinner", "", None).unwrap();
        os.run(Some(40_000_000));
        assert_eq!(
            os.status(bounded),
            Some(ExitStatus::CpuLimitExceeded),
            "budgeted spinner is killed once over its CPU limit"
        );
        assert!(os.is_alive(unbounded), "unbudgeted spinner keeps running");
        assert!(
            os.cpu(bounded).total() >= 5_000_000,
            "the limit was actually consumed"
        );
        os.kill(unbounded).unwrap();
    }

    #[test]
    fn cpu_limited_process_that_finishes_in_budget_is_untouched() {
        let mut os = os();
        os.register_image("brief", "class Main { static int main() { return 11; } }")
            .unwrap();
        let pid = os
            .spawn_with(
                "brief",
                "",
                SpawnOpts {
                    cpu_limit: Some(50_000_000),
                    ..SpawnOpts::default()
                },
            )
            .unwrap();
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(11)));
    }

    #[test]
    fn cpu_shares_give_proportional_service() {
        let mut os = os();
        os.register_image(
            "spinner",
            "class Main { static int main() { while (true) { } return 0; } }",
        )
        .unwrap();
        let small = os
            .spawn_with(
                "spinner",
                "",
                SpawnOpts {
                    cpu_share: 100,
                    ..SpawnOpts::default()
                },
            )
            .unwrap();
        let large = os
            .spawn_with(
                "spinner",
                "",
                SpawnOpts {
                    cpu_share: 300,
                    ..SpawnOpts::default()
                },
            )
            .unwrap();
        os.run(Some(80_000_000));
        let ratio = os.cpu(large).total() as f64 / os.cpu(small).total() as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "3x share gets ~3x CPU, got {ratio:.2}"
        );
        os.kill(small).unwrap();
        os.kill(large).unwrap();
    }

    #[test]
    fn hard_memlimit_reserves_memory_up_front() {
        let mut os = os();
        os.register_image(
            "idle",
            "class Main { static int main() { while (true) { Sys.yield(); } return 0; } }",
        )
        .unwrap();
        let root = os.space().root_memlimit();
        let before = os.space().limits().current(root);
        let pid = os
            .spawn_with(
                "idle",
                "",
                SpawnOpts {
                    mem_limit: Some(32 << 20),
                    mem_hard: true,
                    ..SpawnOpts::default()
                },
            )
            .unwrap();
        let reserved = os.space().limits().current(root);
        assert!(
            reserved >= before + (32 << 20),
            "hard spawn reserves its full limit from the machine budget"
        );
        // The reservation is returned in full at termination.
        os.kill(pid).unwrap();
        os.run(Some(1_000_000));
        assert_eq!(os.space().limits().current(root), before);
    }

    #[test]
    fn hard_reservations_exclude_each_other() {
        // Two 160 MB hard processes cannot coexist in a 256 MB machine —
        // the second spawn must fail up front rather than fighting at
        // allocation time.
        let mut os = os();
        os.register_image(
            "idle",
            "class Main { static int main() { while (true) { Sys.yield(); } return 0; } }",
        )
        .unwrap();
        let opts = SpawnOpts {
            mem_limit: Some(160 << 20),
            mem_hard: true,
            ..SpawnOpts::default()
        };
        let first = os.spawn_with("idle", "", opts).unwrap();
        let second = os.spawn_with("idle", "", opts);
        assert!(second.is_err(), "reservation cannot be satisfied");
        os.kill(first).unwrap();
        // After the first dies, the reservation frees and a new hard
        // process fits.
        os.run(Some(1_000_000));
        os.spawn_with("idle", "", opts).unwrap();
    }
}

mod stdlib_coverage {
    use super::*;

    fn guest_int(src: &str) -> i64 {
        let mut os = os();
        let pid = spawn_src(&mut os, "t", src, None);
        os.run(None);
        match os.status(pid) {
            Some(ExitStatus::Exited(v)) => v,
            other => panic!("guest ended with {other:?}"),
        }
    }

    #[test]
    fn text_utilities() {
        let src = r#"
            class Main {
                static int main() {
                    int acc = 0;
                    if (Text.startsWith("KaffeOS", "Kaffe")) { acc = acc + 1; }
                    if (Text.endsWith("KaffeOS", "OS")) { acc = acc + 10; }
                    if (Text.indexOf("process model", "cess") == 3) { acc = acc + 100; }
                    if (!Text.contains("heap", "stack")) { acc = acc + 1000; }
                    if (Text.repeat("ab", 3).eq("ababab")) { acc = acc + 10000; }
                    if (Text.reverse("gc").eq("cg")) { acc = acc + 100000; }
                    return acc;
                }
            }
        "#;
        assert_eq!(guest_int(src), 111111);
    }

    #[test]
    fn stack_lifo_discipline() {
        let src = r#"
            class Num { int v; init(int v) { this.v = v; } }
            class Main {
                static int main() {
                    Stack s = new Stack();
                    for (int i = 1; i <= 20; i = i + 1) { s.push(new Num(i)); }
                    int acc = 0;
                    int weight = 1;
                    while (!s.isEmpty()) {
                        Num top = s.pop() as Num;
                        if (weight <= 4) { acc = acc * 100 + top.v; }
                        weight = weight + 1;
                    }
                    return acc; // 20, 19, 18, 17 in order
                }
            }
        "#;
        assert_eq!(guest_int(src), 20191817);
    }

    #[test]
    fn bitset_operations() {
        let src = r#"
            class Main {
                static int main() {
                    BitSet b = new BitSet(200);
                    for (int i = 0; i < 200; i = i + 3) { b.set(i); }
                    b.clear(0);
                    b.clear(99);
                    int acc = b.popcount();
                    if (b.get(3) && !b.get(4) && !b.get(0)) { acc = acc + 1000; }
                    return acc;
                }
            }
        "#;
        // multiples of 3 below 200: 67 set; clear(0) removes one; 99 is a
        // multiple of 3 → removes another → 65.
        assert_eq!(guest_int(src), 1065);
    }

    #[test]
    fn quicksort_and_binary_search() {
        let src = r#"
            class Main {
                static int main() {
                    Random.setSeed(77);
                    int[] a = new int[300];
                    for (int i = 0; i < a.len(); i = i + 1) { a[i] = Random.next(10000); }
                    Sort.quicksort(a);
                    if (!Sort.isSorted(a)) { return -1; }
                    int hits = 0;
                    for (int i = 0; i < a.len(); i = i + 7) {
                        if (Sort.binarySearch(a, a[i]) >= 0) { hits = hits + 1; }
                    }
                    if (Sort.binarySearch(a, -1) != -1) { return -2; }
                    return hits;
                }
            }
        "#;
        assert_eq!(guest_int(src), (300 + 6) / 7);
    }

    #[test]
    fn intmap_with_rehash() {
        let src = r#"
            class Val { int v; init(int v) { this.v = v; } }
            class Main {
                static int main() {
                    IntMap m = new IntMap();
                    for (int i = 0; i < 500; i = i + 1) {
                        m.put(i * 17, new Val(i));
                    }
                    if (m.count() != 500) { return -1; }
                    int acc = 0;
                    for (int i = 0; i < 500; i = i + 50) {
                        Val v = m.get(i * 17) as Val;
                        acc = acc + v.v;
                    }
                    if (m.has(3)) { return -2; }
                    m.put(17, new Val(9999));     // overwrite
                    Val over = m.get(17) as Val;
                    if (over.v != 9999) { return -3; }
                    return acc;
                }
            }
        "#;
        assert_eq!(guest_int(src), (0..500).step_by(50).sum::<i64>());
    }

    #[test]
    fn queue_ring_buffer_wraps() {
        let src = r#"
            class Num { int v; init(int v) { this.v = v; } }
            class Main {
                static int main() {
                    Queue q = new Queue();
                    int acc = 0;
                    // Interleave pushes and pops to force wraparound.
                    for (int round = 0; round < 50; round = round + 1) {
                        q.push(new Num(round));
                        q.push(new Num(round + 100));
                        Num head = q.pop() as Num;
                        acc = (acc + head.v) % 100003;
                    }
                    while (q.size() > 0) {
                        Num head = q.pop() as Num;
                        acc = (acc + head.v) % 100003;
                    }
                    return acc;
                }
            }
        "#;
        // FIFO over pushes [0,100,1,101,...]: total = sum(0..50) + sum(100..150)
        let expected: i64 = (0..50).sum::<i64>() + (100..150).sum::<i64>();
        assert_eq!(guest_int(src), expected % 100003);
    }

    #[test]
    fn math_sqrt_precision() {
        let src = r#"
            class Main {
                static int main() {
                    float x = Math.sqrt(2.0) * 10000.0;
                    int approx = x.toInt();
                    if (approx >= 14141 && approx <= 14143) { return 1; }
                    return approx;
                }
            }
        "#;
        assert_eq!(guest_int(src), 1);
    }

    #[test]
    fn stringmap_collisions_and_rehash() {
        let src = r#"
            class Val { int v; init(int v) { this.v = v; } }
            class Main {
                static int main() {
                    StringMap m = new StringMap();
                    for (int i = 0; i < 200; i = i + 1) {
                        m.put("key" + i, new Val(i * 3));
                    }
                    int acc = 0;
                    for (int i = 0; i < 200; i = i + 25) {
                        Val v = m.get("key" + i) as Val;
                        acc = acc + v.v;
                    }
                    if (m.get("missing") != null) { return -1; }
                    return acc;
                }
            }
        "#;
        let expected: i64 = (0..200).step_by(25).map(|i| i * 3).sum();
        assert_eq!(guest_int(src), expected);
    }
}

mod threads {
    use super::*;

    #[test]
    fn in_process_threads_share_statics() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "workers",
            r#"
            class Work {
                static int sum;
                static int done;
                static void run(int base) {
                    int acc = 0;
                    for (int i = 0; i < 1000; i = i + 1) { acc = acc + base; }
                    sync (Work.lock()) {
                        Work.sum = Work.sum + acc;
                        Work.done = Work.done + 1;
                    }
                }
                static Object lockObj;
                static Object lock() {
                    if (Work.lockObj == null) { Work.lockObj = new Object(); }
                    return Work.lockObj;
                }
            }
            class Main {
                static int main() {
                    Proc.thread("Work", "run", 1);
                    Proc.thread("Work", "run", 2);
                    Work.run(3);
                    while (Work.done < 3) { Sys.yield(); }
                    return Work.sum;
                }
            }
            "#,
            None,
        );
        os.run(None);
        assert_eq!(
            os.status(pid),
            Some(ExitStatus::Exited(1000 * (1 + 2 + 3))),
            "three threads accumulated into shared statics"
        );
    }

    #[test]
    fn kill_terminates_every_thread_of_the_process() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "hydra",
            r#"
            class Spin {
                static void forever(int n) { while (true) { } }
            }
            class Main {
                static int main() {
                    Proc.thread("Spin", "forever", 1);
                    Proc.thread("Spin", "forever", 2);
                    while (true) { }
                    return 0;
                }
            }
            "#,
            None,
        );
        os.run(Some(5_000_000));
        assert!(os.is_alive(pid));
        os.kill(pid).unwrap();
        os.run(Some(os.clock() + 5_000_000));
        assert_eq!(os.status(pid), Some(ExitStatus::Killed));
        // Everything reclaimed despite three live spinning threads.
        os.kernel_gc();
        assert_eq!(os.space().limits().current(os.space().root_memlimit()), 0);
    }

    #[test]
    fn thread_spawn_with_bad_target_raises() {
        let mut os = os();
        let pid = spawn_src(
            &mut os,
            "badthread",
            r#"
            class Main {
                static int main() {
                    try {
                        Proc.thread("NoSuchClass", "run", 0);
                        return -1;
                    } catch (IllegalStateException e) {
                        return 5;
                    }
                }
            }
            "#,
            None,
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(5)));
    }

    #[test]
    fn gc_crosstalk_threads_inflate_collection_cost() {
        // §2: "a process could create many threads in an effort to get the
        // system to scan them all" — the crosstalk the paper accepts. A
        // process with many deep-stacked threads pays more per collection.
        let make = |threads: i64| {
            let mut os = os();
            os.register_image(
                "deep",
                r#"
                class Deep {
                    static int running;
                    static void dive(int n) {
                        Deep.running = Deep.running + 1;
                        Deep.sink(150);
                    }
                    static void sink(int n) {
                        if (n > 0) { Deep.sink(n - 1); return; }
                        while (true) { Sys.yield(); }
                    }
                }
                class Main {
                    static int main(int threads) {
                        for (int i = 0; i < threads; i = i + 1) {
                            Proc.thread("Deep", "dive", i);
                        }
                        while (Deep.running < threads) { Sys.yield(); }
                        // Churn memory to force collections.
                        for (int i = 0; i < 4000; i = i + 1) {
                            int[] junk = new int[256];
                            junk[0] = i;
                        }
                        Proc.exit(0);
                        return 0;
                    }
                }
                "#,
            )
            .unwrap();
            let pid = os
                .spawn("deep", &threads.to_string(), Some(256 << 10))
                .unwrap();
            os.run(None);
            assert!(
                matches!(os.status(pid), Some(ExitStatus::Exited(0))),
                "{:?}",
                os.status(pid)
            );
            os.cpu(pid).gc
        };
        let lean = make(1);
        let heavy = make(24);
        assert!(
            heavy as f64 > lean as f64 * 1.8,
            "24 deep threads inflate GC cost: {heavy} vs {lean}"
        );
    }
}

mod cross_process_sync {
    use super::*;

    /// Two processes synchronise on the *same shared object* — the paper's
    /// "Processes exchange data by writing into and reading from the shared
    /// objects and by synchronizing on them in the usual way" (§2).
    #[test]
    fn monitors_work_across_processes_on_shared_objects() {
        let mut os = os();
        os.load_shared_source("class Counter { int hits; }").unwrap();
        let src = r#"
            class Main {
                static int main(int rounds) {
                    while (Shm.lookup("ctr") < 0) {
                        try { Shm.create("ctr", "Counter", 1); }
                        catch (Exception e) { }
                    }
                    Counter c = Shm.get("ctr", 0) as Counter;
                    for (int i = 0; i < rounds; i = i + 1) {
                        sync (c) {
                            int seen = c.hits;
                            // A deliberately non-atomic increment: only
                            // mutual exclusion makes the total come out.
                            c.hits = seen + 1;
                        }
                    }
                    return 0;
                }
            }
        "#;
        os.register_image("incr", src).unwrap();
        let a = os.spawn("incr", "400", None).unwrap();
        let b = os.spawn("incr", "400", None).unwrap();
        os.run(None);
        assert_eq!(os.status(a), Some(ExitStatus::Exited(0)));
        assert_eq!(os.status(b), Some(ExitStatus::Exited(0)));
        // Read the final counter value through a third process.
        os.register_image(
            "reader",
            r#"
            class Main {
                static int main() {
                    Shm.lookup("ctr");
                    Counter c = Shm.get("ctr", 0) as Counter;
                    return c.hits;
                }
            }
            "#,
        )
        .unwrap();
        let reader = os.spawn("reader", "", None).unwrap();
        os.run(None);
        assert_eq!(
            os.status(reader),
            Some(ExitStatus::Exited(800)),
            "mutual exclusion held across processes"
        );
    }

    /// Killing a process that holds a monitor on a shared object must not
    /// wedge the other sharers (§2 "Safe termination": user-level locks are
    /// released; only *kernel* locks defer termination).
    #[test]
    fn killing_a_lock_holder_releases_shared_monitors() {
        let mut os = os();
        os.load_shared_source("class Gate { int open; }").unwrap();
        os.register_image(
            "holder",
            r#"
            class Main {
                static int main() {
                    Shm.create("gate", "Gate", 1);
                    Gate g = Shm.get("gate", 0) as Gate;
                    sync (g) {
                        g.open = 1;
                        while (true) { } // hold the monitor forever
                    }
                    return 0;
                }
            }
            "#,
        )
        .unwrap();
        os.register_image(
            "waiter",
            r#"
            class Main {
                static int main() {
                    while (Shm.lookup("gate") < 0) { Sys.yield(); }
                    Gate g = Shm.get("gate", 0) as Gate;
                    while (g.open == 0) { Sys.yield(); }
                    sync (g) { return 77; }
                }
            }
            "#,
        )
        .unwrap();
        let holder = os.spawn("holder", "", None).unwrap();
        let waiter = os.spawn("waiter", "", None).unwrap();
        os.run(Some(20_000_000));
        assert!(os.is_alive(waiter), "waiter blocked on the held monitor");
        os.kill(holder).unwrap();
        let report = os.run(None);
        assert!(!report.deadlocked);
        assert_eq!(
            os.status(waiter),
            Some(ExitStatus::Exited(77)),
            "monitor released by the kill; waiter proceeded"
        );
    }

    #[test]
    fn shm_misuse_is_rejected_cleanly() {
        let mut os = os();
        os.load_shared_source("class Cell { int value; }").unwrap();
        let pid = spawn_src(
            &mut os,
            "misuser",
            r#"
            class Main {
                static int main() {
                    int acc = 0;
                    // get before lookup/create
                    try { Shm.get("nope", 0); } catch (IllegalStateException e) { acc = acc + 1; }
                    // create with an unknown shared class
                    try { Shm.create("x", "Ghost", 1); } catch (IllegalStateException e) { acc = acc + 10; }
                    // create with a bad count
                    try { Shm.create("y", "Cell", 0); } catch (IllegalStateException e) { acc = acc + 100; }
                    // double create
                    Shm.create("z", "Cell", 1);
                    try { Shm.create("z", "Cell", 1); } catch (IllegalStateException e) { acc = acc + 1000; }
                    // out-of-range get
                    try { Shm.get("z", 9); } catch (IndexOutOfBoundsException e) { acc = acc + 10000; }
                    return acc;
                }
            }
            "#,
            None,
        );
        os.run(None);
        assert_eq!(os.status(pid), Some(ExitStatus::Exited(11111)));
    }
}

mod network_bandwidth {
    use super::*;
    use crate::SpawnOpts;

    fn sender_src() -> &'static str {
        // Simpler: return sent byte count scaled down.
        r#"
        class Main {
            static int main(int chunks) {
                for (int i = 0; i < chunks; i = i + 1) {
                    Net.send(100000);
                }
                return Net.sent() / 1000;
            }
        }
        "#
    }

    #[test]
    fn bandwidth_cap_paces_virtual_time() {
        // 1 MB at 1 MB/s must take ~1 virtual second; the same transfer
        // unmetered completes in microseconds.
        let run = |bps: Option<u64>| {
            let mut os = os();
            os.register_image("sender", sender_src()).unwrap();
            let pid = os
                .spawn_with(
                    "sender",
                    "10",
                    SpawnOpts {
                        net_bps: bps,
                        ..SpawnOpts::default()
                    },
                )
                .unwrap();
            let report = os.run(None);
            assert_eq!(
                os.status(pid),
                Some(ExitStatus::Exited(1000)),
                "1 MB accounted"
            );
            report.virtual_seconds
        };
        let unmetered = run(None);
        let capped = run(Some(1 << 20));
        assert!(unmetered < 0.05, "unmetered transfer is fast: {unmetered}");
        assert!(
            (0.9..1.2).contains(&capped),
            "1 MB at 1 MB/s takes ~1 virtual second: {capped}"
        );
    }

    #[test]
    fn bandwidth_is_per_process() {
        // A throttled sender cannot slow an unthrottled neighbour.
        let mut os = os();
        os.register_image("sender", sender_src()).unwrap();
        let slow = os
            .spawn_with(
                "sender",
                "5",
                SpawnOpts {
                    net_bps: Some(256 << 10),
                    ..SpawnOpts::default()
                },
            )
            .unwrap();
        let fast = os.spawn("sender", "5", None).unwrap();
        os.run(None);
        assert_eq!(os.status(slow), Some(ExitStatus::Exited(500)));
        assert_eq!(os.status(fast), Some(ExitStatus::Exited(500)));
        // The slow sender waited on its NIC, not on the CPU: its CPU use
        // stays in the same ballpark as the fast one's.
        let ratio = os.cpu(slow).total() as f64 / os.cpu(fast).total() as f64;
        assert!(ratio < 2.0, "throttling is not busy-waiting: {ratio}");
    }

    #[test]
    fn killed_sender_releases_its_timed_park() {
        let mut os = os();
        os.register_image(
            "bigsender",
            r#"
            class Main {
                static int main() {
                    Net.send(100000000); // 100 MB at 1 MB/s = 100 s
                    return 1;
                }
            }
            "#,
        )
        .unwrap();
        let pid = os
            .spawn_with(
                "bigsender",
                "",
                SpawnOpts {
                    net_bps: Some(1 << 20),
                    ..SpawnOpts::default()
                },
            )
            .unwrap();
        os.run(Some(5_000_000));
        assert!(os.is_alive(pid), "parked mid-send");
        os.kill(pid).unwrap();
        let report = os.run(Some(os.clock() + 1_000_000));
        assert_eq!(os.status(pid), Some(ExitStatus::Killed));
        assert!(!report.deadlocked);
    }
}
