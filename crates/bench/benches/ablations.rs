//! Ablations for the design choices DESIGN.md calls out:
//!
//! * **ipc_shared_vs_copy** — direct sharing through a shared heap vs
//!   copying data between process heaps (the SPIN-inspired reason KaffeOS
//!   keeps direct sharing at all).
//! * **separate_kernel_gc** — collecting a user heap independently of
//!   long-lived kernel data vs one combined heap ("the kernel heap is
//!   collected separately ... which approximates the behavior of a
//!   generational garbage collector", §4.1).
//! * **heap_pointer_padding** — the Fake Heap Pointer experiment: what the
//!   +4 bytes per object cost the collector.
//! * **memlimit_overhead** — debit/credit through soft chains of varying
//!   depth, and hard-limit reservations.
//!
//! Plain `fn main()` harness (`harness = false`): each case is warmed up,
//! then timed over a fixed number of iterations with `std::time::Instant`.
//! Run with `cargo bench -p kaffeos-bench --bench ablations`.

use kaffeos_bench::bench;
use kaffeos_heap::{BarrierKind, ClassId, HeapSpace, ProcTag, SpaceConfig, Value};
use kaffeos_memlimit::{Kind, MemLimitTree};

const CLS: ClassId = ClassId(1);

fn space_with(kind: BarrierKind) -> HeapSpace {
    HeapSpace::new(SpaceConfig {
        barrier: kind,
        user_budget: 256 << 20,
    })
}

fn user_heap(space: &mut HeapSpace, tag: u32) -> kaffeos_heap::HeapId {
    let root = space.root_memlimit();
    let ml = space
        .limits_mut()
        .create_child(root, Kind::Soft, 64 << 20, format!("p{tag}"))
        .unwrap();
    space.create_user_heap(ProcTag(tag), ml, format!("p{tag}"))
}

/// Direct sharing vs copying: move 64 integer "messages" from producer to
/// consumer either through mutable primitive fields of one shared object
/// batch, or by allocating a copy of each message in the consumer's heap.
fn bench_ipc_shared_vs_copy() {
    {
        let mut space = space_with(BarrierKind::NoHeapPointer);
        let producer_heap = user_heap(&mut space, 1);
        let _consumer_heap = user_heap(&mut space, 2);
        // Build a frozen shared heap of 64 one-field cells.
        let producer_ml = space.heap_memlimit(producer_heap).unwrap().unwrap();
        let shm_ml = space
            .limits_mut()
            .create_child(producer_ml, Kind::Soft, 1 << 20, "shm")
            .unwrap();
        let shm = space.create_shared_heap(ProcTag(1), shm_ml, "shm");
        let cells: Vec<_> = (0..64)
            .map(|_| space.alloc_fields(shm, CLS, 1).unwrap())
            .collect();
        for &cell in &cells {
            space.store_prim(cell, 0, Value::Int(0)).unwrap();
        }
        space.freeze_shared(shm).unwrap();
        space.limits_mut().remove(shm_ml).unwrap();
        bench("ipc/shared_heap_direct", 100, 5_000, || {
            // Producer writes, consumer reads — no allocation, no copies.
            for (i, &cell) in cells.iter().enumerate() {
                space.store_prim(cell, 0, Value::Int(i as i64)).unwrap();
            }
            let mut sum = 0i64;
            for &cell in &cells {
                sum += space.load(cell, 0).unwrap().as_int();
            }
            std::hint::black_box(sum);
        });
    }

    {
        let mut space = space_with(BarrierKind::NoHeapPointer);
        let producer_heap = user_heap(&mut space, 1);
        let consumer_heap = user_heap(&mut space, 2);
        let sources: Vec<_> = (0..64)
            .map(|i| {
                let obj = space.alloc_fields(producer_heap, CLS, 1).unwrap();
                space.store_prim(obj, 0, Value::Int(i as i64)).unwrap();
                obj
            })
            .collect();
        bench("ipc/copy_between_heaps", 100, 5_000, || {
            // Kernel-style copy: allocate a fresh object in the consumer
            // heap per message and copy the payload.
            let mut sum = 0i64;
            let mut copies = Vec::with_capacity(sources.len());
            for &src in &sources {
                let v = space.load(src, 0).unwrap();
                let copy = space.alloc_fields(consumer_heap, CLS, 1).unwrap();
                space.store_prim(copy, 0, v).unwrap();
                copies.push(copy);
                sum += v.as_int();
            }
            // The copies become garbage; collect them.
            space.gc(consumer_heap, &[]).unwrap();
            std::hint::black_box(sum);
        });
    }
}

/// Separate kernel/user heaps vs one combined heap: with 20k long-lived
/// "kernel" objects, collecting only the user heap skips scanning them —
/// the generational-ish effect the paper observed.
fn bench_separate_kernel_gc() {
    {
        let mut space = space_with(BarrierKind::NoHeapPointer);
        let user = user_heap(&mut space, 1);
        let kernel = space.kernel_heap();
        // Long-lived kernel population, kept alive by entry items from a
        // user-object anchor.
        let anchor = space.alloc_fields(user, CLS, 1).unwrap();
        let mut prev: Option<kaffeos_heap::ObjRef> = None;
        for _ in 0..20_000 {
            let obj = space.alloc_fields(kernel, CLS, 1).unwrap();
            if let Some(p) = prev {
                space.store_ref(obj, 0, Value::Ref(p), true).unwrap();
            }
            prev = Some(obj);
        }
        space
            .store_ref(anchor, 0, Value::Ref(prev.unwrap()), false)
            .unwrap();
        bench("separate_kernel_gc/split_heaps", 5, 200, || {
            for _ in 0..500 {
                space.alloc_fields(user, CLS, 1).unwrap();
            }
            // Only the small user heap is scanned.
            space.gc(user, &[anchor]).unwrap();
        });
    }

    {
        let mut space = space_with(BarrierKind::NoHeapPointer);
        let user = user_heap(&mut space, 1);
        let anchor = space.alloc_fields(user, CLS, 1).unwrap();
        let mut prev: Option<kaffeos_heap::ObjRef> = None;
        for _ in 0..20_000 {
            let obj = space.alloc_fields(user, CLS, 1).unwrap();
            if let Some(p) = prev {
                space.store_ref(obj, 0, Value::Ref(p), false).unwrap();
            }
            prev = Some(obj);
        }
        space
            .store_ref(anchor, 0, Value::Ref(prev.unwrap()), false)
            .unwrap();
        bench("separate_kernel_gc/combined_heap", 5, 200, || {
            for _ in 0..500 {
                space.alloc_fields(user, CLS, 1).unwrap();
            }
            // Every collection re-marks all 20k long-lived objects.
            space.gc(user, &[anchor]).unwrap();
        });
    }
}

/// The Fake Heap Pointer experiment: identical barrier, +4 bytes/object.
fn bench_heap_pointer_padding() {
    for kind in [BarrierKind::NoHeapPointer, BarrierKind::FakeHeapPointer] {
        let mut space = space_with(kind);
        let heap = user_heap(&mut space, 1);
        bench(
            &format!("heap_pointer_padding/{}", kind.label()),
            5,
            200,
            || {
                for _ in 0..2000 {
                    space.alloc_fields(heap, CLS, 3).unwrap();
                }
                space.gc(heap, &[]).unwrap();
            },
        );
    }
}

/// Memlimit debit/credit through soft chains and hard reservations.
fn bench_memlimit_overhead() {
    for depth in [1usize, 4, 8] {
        let mut tree = MemLimitTree::new();
        let mut node = tree.create_root(u64::MAX, "root");
        for i in 0..depth {
            node = tree
                .create_child(node, Kind::Soft, 1 << 40, format!("n{i}"))
                .unwrap();
        }
        bench(&format!("memlimit/soft_chain/{depth}"), 100, 5_000, || {
            for _ in 0..1000 {
                tree.debit(node, 64).unwrap();
                tree.credit(node, 64).unwrap();
            }
        });
    }
    {
        let mut tree = MemLimitTree::new();
        let root = tree.create_root(1 << 40, "root");
        bench("memlimit/hard_reservation_create_remove", 100, 5_000, || {
            for _ in 0..100 {
                let child = tree.create_child(root, Kind::Hard, 1 << 20, "h").unwrap();
                tree.remove(child).unwrap();
            }
        });
    }
}

fn main() {
    println!("== kaffeos-bench ablations ==");
    bench_ipc_shared_vs_copy();
    bench_separate_kernel_gc();
    bench_heap_pointer_padding();
    bench_memlimit_overhead();
}
