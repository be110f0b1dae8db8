//! Micro-benchmarks: the write barrier (§4.1's 25 vs 41 cycles story, but
//! in host wall time), allocation, per-heap GC, and exception dispatch.
//!
//! Plain `fn main()` harness (`harness = false`): each case is warmed up,
//! then timed over a fixed number of iterations with `std::time::Instant`.
//! Run with `cargo bench -p kaffeos-bench --bench micro`.

use kaffeos_bench::bench;
use kaffeos_heap::{BarrierKind, ClassId, HeapSpace, ProcTag, SpaceConfig, Value};
use kaffeos_memlimit::Kind;

const CLS: ClassId = ClassId(1);

fn user_heap(space: &mut HeapSpace) -> kaffeos_heap::HeapId {
    let root = space.root_memlimit();
    let ml = space
        .limits_mut()
        .create_child(root, Kind::Soft, 64 << 20, "bench")
        .unwrap();
    space.create_user_heap(ProcTag(1), ml, "bench")
}

/// Same-heap reference stores under each barrier implementation.
fn bench_write_barrier() {
    for kind in BarrierKind::ALL {
        let mut space = HeapSpace::new(SpaceConfig {
            barrier: kind,
            user_budget: 64 << 20,
        });
        let heap = user_heap(&mut space);
        let src = space.alloc_fields(heap, CLS, 4).unwrap();
        let dst = space.alloc_fields(heap, CLS, 1).unwrap();
        bench(&format!("write_barrier/{}", kind.label()), 100, 10_000, || {
            for slot in 0..4 {
                space.store_ref(src, slot, Value::Ref(dst), false).unwrap();
            }
        });
    }
}

/// Cross-heap stores: the barrier's entry/exit item maintenance path.
fn bench_cross_heap_store() {
    let mut space = HeapSpace::new(SpaceConfig::default());
    let heap = user_heap(&mut space);
    let kernel = space.kernel_heap();
    let kobj = space.alloc_fields(kernel, CLS, 1).unwrap();
    let uobj = space.alloc_fields(heap, CLS, 1).unwrap();
    bench("cross_heap_store_user_to_kernel", 100, 10_000, || {
        space.store_ref(uobj, 0, Value::Ref(kobj), false).unwrap();
        space.store_ref(uobj, 0, Value::Null, false).unwrap();
    });
}

/// Allocation fast path and one full collection.
fn bench_alloc_and_gc() {
    {
        let mut space = HeapSpace::new(SpaceConfig::default());
        let heap = user_heap(&mut space);
        bench("alloc_1000_objects", 5, 200, || {
            for _ in 0..1000 {
                space.alloc_fields(heap, CLS, 2).unwrap();
            }
            space.gc(heap, &[]).unwrap();
        });
    }

    {
        let mut space = HeapSpace::new(SpaceConfig::default());
        let heap = user_heap(&mut space);
        // 1000 live (list-linked), garbage re-created per iteration.
        let mut roots = Vec::new();
        let mut prev = None;
        for _ in 0..1000 {
            let obj = space.alloc_fields(heap, CLS, 1).unwrap();
            if let Some(p) = prev {
                space.store_ref(obj, 0, Value::Ref(p), false).unwrap();
            }
            prev = Some(obj);
        }
        roots.push(prev.unwrap());
        bench("gc_half_live_heap", 5, 200, || {
            for _ in 0..1000 {
                space.alloc_fields(heap, CLS, 1).unwrap();
            }
            space.gc(heap, &roots).unwrap();
        });
    }
}

/// Fast (Kaffe00/KaffeOS) vs slow (Kaffe99) exception dispatch — the jack
/// story, measured in host time: the slow path really materialises a stack
/// trace per throw.
fn bench_exception_dispatch() {
    use kaffeos::{Engine, ExitStatus, KaffeOs, KaffeOsConfig};
    let source = r#"
        class Main {
            static int main(int n) {
                int caught = 0;
                for (int i = 0; i < n; i = i + 1) {
                    try { throw new Exception("x"); }
                    catch (Exception e) { caught = caught + 1; }
                }
                return caught;
            }
        }
    "#;
    for (name, engine) in [
        ("fast_kaffeos", Engine::KAFFEOS),
        ("slow_kaffe99", Engine::KAFFE99),
    ] {
        bench(&format!("exception_dispatch/{name}"), 2, 20, || {
            let mut os = KaffeOs::new(KaffeOsConfig {
                engine,
                ..KaffeOsConfig::default()
            });
            os.register_image("thrower", source).unwrap();
            let pid = os.spawn("thrower", "500", None).unwrap();
            os.run(None);
            assert_eq!(os.status(pid), Some(ExitStatus::Exited(500)));
        });
    }
}

fn main() {
    println!("== kaffeos-bench micro ==");
    bench_write_barrier();
    bench_cross_heap_store();
    bench_alloc_and_gc();
    bench_exception_dispatch();
}
