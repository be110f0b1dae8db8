use kaffeos_memlimit::Kind;

use crate::{
    BarrierKind, ClassId, HeapError, HeapSpace, SegViolationKind, SpaceConfig,
    Value,
};

const CLS: ClassId = ClassId(1);

fn space() -> HeapSpace {
    HeapSpace::new(SpaceConfig::default())
}

fn space_with(barrier: BarrierKind) -> HeapSpace {
    HeapSpace::new(SpaceConfig {
        barrier,
        ..SpaceConfig::default()
    })
}

/// Creates a user heap with its own soft memlimit of `limit` bytes.
fn user_heap(
    s: &mut HeapSpace,
    tag: u32,
    limit: u64,
) -> (crate::HeapId, kaffeos_memlimit::MemLimitId) {
    let root = s.root_memlimit();
    let ml = s
        .limits_mut()
        .create_child(root, Kind::Soft, limit, format!("p{tag}"))
        .unwrap();
    let h = s.create_user_heap(crate::ProcTag(tag), ml, format!("heap{tag}"));
    (h, ml)
}

mod alloc {
    use super::*;

    #[test]
    fn alloc_and_load_roundtrip() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let obj = s.alloc_fields(h, CLS, 3).unwrap();
        assert_eq!(s.load(obj, 0).unwrap(), Value::Null);
        s.store_prim(obj, 1, Value::Int(42)).unwrap();
        assert_eq!(s.load(obj, 1).unwrap(), Value::Int(42));
        s.store_prim(obj, 2, Value::Float(2.5)).unwrap();
        assert_eq!(s.load(obj, 2).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn accounted_bytes_match_size_model() {
        let mut s = space(); // NoHeapPointer: 8-byte header, no pad
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let _obj = s.alloc_fields(h, CLS, 3).unwrap();
        // 8 header + 3 * 8 fields = 32.
        assert_eq!(s.limits().current(ml), 32);
        assert_eq!(s.heap_bytes(h).unwrap(), 32);
    }

    #[test]
    fn heap_pointer_barrier_pads_objects() {
        for kind in [BarrierKind::HeapPointer, BarrierKind::FakeHeapPointer] {
            let mut s = space_with(kind);
            let (h, ml) = user_heap(&mut s, 1, 1 << 20);
            let _ = s.alloc_fields(h, CLS, 3).unwrap();
            assert_eq!(s.limits().current(ml), 36, "{kind:?} adds 4 bytes");
        }
    }

    #[test]
    fn array_and_string_sizes() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let _arr = s.alloc_array(h, CLS, 4, 10, Value::Int(0)).unwrap(); // 8 + 4 + 40 = 52
        assert_eq!(s.limits().current(ml), 52);
        let st = s.alloc_str(h, CLS, "hello").unwrap(); // 8 + 4 + 10 = 22
        assert_eq!(s.limits().current(ml), 52 + 22);
        assert_eq!(s.str_value(st).unwrap(), "hello");
    }

    #[test]
    fn memlimit_exhaustion_fails_alloc() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 100);
        // 8 + 10*8 = 88 fits; second one does not.
        s.alloc_fields(h, CLS, 10).unwrap();
        let err = s.alloc_fields(h, CLS, 10).unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory(_)));
    }

    #[test]
    fn kernel_heap_is_not_limit_governed() {
        let mut s = space();
        let k = s.kernel_heap();
        for _ in 0..100 {
            s.alloc_fields(k, CLS, 64).unwrap();
        }
        assert_eq!(s.limits().current(s.root_memlimit()), 0);
    }

    #[test]
    fn pages_are_owned_by_one_heap() {
        let mut s = space();
        let (h1, _) = user_heap(&mut s, 1, 1 << 20);
        let (h2, _) = user_heap(&mut s, 2, 1 << 20);
        let a = s.alloc_fields(h1, CLS, 1).unwrap();
        let b = s.alloc_fields(h2, CLS, 1).unwrap();
        // Objects of different heaps land on different pages even when both
        // heaps are near-empty.
        assert_ne!(a.index() / 256, b.index() / 256);
        assert_eq!(s.heap_of(a).unwrap(), h1);
        assert_eq!(s.heap_of(b).unwrap(), h2);
    }

    #[test]
    fn index_out_of_bounds_detected() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let obj = s.alloc_fields(h, CLS, 2).unwrap();
        assert!(matches!(
            s.load(obj, 5),
            Err(HeapError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            s.store_prim(obj, 5, Value::Int(1)),
            Err(HeapError::IndexOutOfBounds { .. })
        ));
    }
}

mod barrier {
    use super::*;

    #[test]
    fn same_heap_store_is_legal_and_counted() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let a = s.alloc_fields(h, CLS, 1).unwrap();
        let b = s.alloc_fields(h, CLS, 1).unwrap();
        let cycles = s.store_ref(a, 0, Value::Ref(b), false).unwrap();
        assert_eq!(cycles, 41, "NoHeapPointer costs 41 cycles");
        let stats = s.barrier_stats();
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.cycles, 41);
        assert_eq!(stats.cross_heap_created, 0);
    }

    #[test]
    fn null_store_executes_barrier() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let a = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(a, 0, Value::Null, false).unwrap();
        assert_eq!(s.barrier_stats().executed, 1);
    }

    #[test]
    fn user_to_user_store_is_segv() {
        let mut s = space();
        let (h1, _) = user_heap(&mut s, 1, 1 << 20);
        let (h2, _) = user_heap(&mut s, 2, 1 << 20);
        let a = s.alloc_fields(h1, CLS, 1).unwrap();
        let b = s.alloc_fields(h2, CLS, 1).unwrap();
        let err = s.store_ref(a, 0, Value::Ref(b), false).unwrap_err();
        assert_eq!(err, HeapError::SegViolation(SegViolationKind::UserToUser));
        assert_eq!(s.barrier_stats().violations, 1);
        // The store did not happen.
        assert_eq!(s.load(a, 0).unwrap(), Value::Null);
    }

    #[test]
    fn user_to_kernel_creates_entry_and_exit_items() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let k = s.kernel_heap();
        let kobj = s.alloc_fields(k, CLS, 1).unwrap();
        let uobj = s.alloc_fields(h, CLS, 1).unwrap();
        let before = s.limits().current(ml);
        s.store_ref(uobj, 0, Value::Ref(kobj), false).unwrap();
        assert_eq!(s.exit_item_count(h).unwrap(), 1);
        assert_eq!(s.entry_item_count(k).unwrap(), 1);
        // Exit item charged to the user heap (16 bytes); the kernel-side
        // entry item is unaccounted (kernel has no memlimit).
        assert_eq!(s.limits().current(ml), before + 16);
        assert_eq!(s.barrier_stats().cross_heap_created, 1);
    }

    #[test]
    fn duplicate_cross_refs_share_one_exit_item() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let k = s.kernel_heap();
        let kobj = s.alloc_fields(k, CLS, 1).unwrap();
        let u1 = s.alloc_fields(h, CLS, 1).unwrap();
        let u2 = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(u1, 0, Value::Ref(kobj), false).unwrap();
        s.store_ref(u2, 0, Value::Ref(kobj), false).unwrap();
        assert_eq!(s.exit_item_count(h).unwrap(), 1);
        assert_eq!(s.entry_item_count(k).unwrap(), 1);
    }

    #[test]
    fn kernel_to_user_requires_trust() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let k = s.kernel_heap();
        let kobj = s.alloc_fields(k, CLS, 1).unwrap();
        let uobj = s.alloc_fields(h, CLS, 1).unwrap();
        let err = s.store_ref(kobj, 0, Value::Ref(uobj), false).unwrap_err();
        assert_eq!(
            err,
            HeapError::SegViolation(SegViolationKind::UntrustedKernelWrite)
        );
        s.store_ref(kobj, 0, Value::Ref(uobj), true).unwrap();
        assert_eq!(s.entry_item_count(h).unwrap(), 1);
    }

    #[test]
    fn no_barrier_mode_checks_nothing_and_costs_nothing() {
        let mut s = space_with(BarrierKind::None);
        let (h1, _) = user_heap(&mut s, 1, 1 << 20);
        let (h2, _) = user_heap(&mut s, 2, 1 << 20);
        let a = s.alloc_fields(h1, CLS, 1).unwrap();
        let b = s.alloc_fields(h2, CLS, 1).unwrap();
        // Unsafe by design: the None configuration runs everything on one
        // logical heap and is only used for the baseline measurements.
        let cycles = s.store_ref(a, 0, Value::Ref(b), false).unwrap();
        assert_eq!(cycles, 0);
        assert_eq!(s.barrier_stats().executed, 1);
        assert_eq!(s.barrier_stats().cycles, 0);
    }

    #[test]
    fn heap_pointer_barrier_costs_25() {
        let mut s = space_with(BarrierKind::HeapPointer);
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let a = s.alloc_fields(h, CLS, 1).unwrap();
        let cycles = s.store_ref(a, 0, Value::Null, false).unwrap();
        assert_eq!(cycles, 25);
    }

    #[test]
    fn array_ref_stores_are_barriered() {
        let mut s = space();
        let (h1, _) = user_heap(&mut s, 1, 1 << 20);
        let (h2, _) = user_heap(&mut s, 2, 1 << 20);
        let arr = s.alloc_array(h1, CLS, 4, 4, Value::Null).unwrap();
        let foreign = s.alloc_fields(h2, CLS, 1).unwrap();
        let err = s.store_ref(arr, 0, Value::Ref(foreign), false).unwrap_err();
        assert!(matches!(err, HeapError::SegViolation(_)));
    }
}

/// Builds a frozen shared heap containing one object with one ref field
/// (pointing at a second shared object) and one primitive field.
fn build_shared(
    s: &mut HeapSpace,
    creator_ml: kaffeos_memlimit::MemLimitId,
) -> (crate::HeapId, crate::ObjRef, u64) {
    let shm_ml = s
        .limits_mut()
        .create_child(creator_ml, Kind::Soft, 1 << 16, "shm")
        .unwrap();
    let shm = s.create_shared_heap(crate::ProcTag(1), shm_ml, "shm");
    let a = s.alloc_fields(shm, CLS, 2).unwrap();
    let b = s.alloc_fields(shm, CLS, 1).unwrap();
    s.store_ref(a, 0, Value::Ref(b), false).unwrap();
    s.store_prim(a, 1, Value::Int(7)).unwrap();
    let size = s.freeze_shared(shm).unwrap();
    s.limits_mut().remove(shm_ml).unwrap();
    (shm, a, size)
}

mod shared {
    use super::*;

    #[test]
    fn creator_charged_during_population_credited_at_freeze() {
        let mut s = space();
        let (_h, ml) = user_heap(&mut s, 1, 1 << 20);
        let before = s.limits().current(ml);
        let (_shm, _a, size) = build_shared(&mut s, ml);
        assert!(size > 0);
        // Population charge returned at freeze; the kernel then charges each
        // sharer `size` directly (kernel-layer behaviour).
        assert_eq!(s.limits().current(ml), before);
    }

    #[test]
    fn frozen_ref_fields_immutable_primitives_mutable() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let (_shm, a, _) = build_shared(&mut s, ml);
        // Primitive field writes still work (§2: only primitive fields of
        // shared objects are mutable).
        s.store_prim(a, 1, Value::Int(99)).unwrap();
        assert_eq!(s.load(a, 1).unwrap(), Value::Int(99));
        // Reference reassignment fails, even to null.
        let err = s.store_ref(a, 0, Value::Null, false).unwrap_err();
        assert_eq!(
            err,
            HeapError::SegViolation(SegViolationKind::FrozenSharedField)
        );
        // And from user code pointing into its own heap, also fails.
        let mine = s.alloc_fields(h, CLS, 1).unwrap();
        let err = s.store_ref(a, 0, Value::Ref(mine), false).unwrap_err();
        assert_eq!(
            err,
            HeapError::SegViolation(SegViolationKind::FrozenSharedField)
        );
    }

    #[test]
    fn frozen_heap_rejects_allocation() {
        let mut s = space();
        let (_h, ml) = user_heap(&mut s, 1, 1 << 20);
        let (shm, _, _) = build_shared(&mut s, ml);
        assert!(matches!(
            s.alloc_fields(shm, CLS, 1),
            Err(HeapError::BadHeapState(_))
        ));
    }

    #[test]
    fn shared_to_user_store_is_segv_during_population() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let shm_ml = s
            .limits_mut()
            .create_child(ml, Kind::Soft, 1 << 16, "shm")
            .unwrap();
        let shm = s.create_shared_heap(crate::ProcTag(1), shm_ml, "shm");
        let shared_obj = s.alloc_fields(shm, CLS, 1).unwrap();
        let user_obj = s.alloc_fields(h, CLS, 1).unwrap();
        let err = s
            .store_ref(shared_obj, 0, Value::Ref(user_obj), false)
            .unwrap_err();
        assert_eq!(err, HeapError::SegViolation(SegViolationKind::SharedToUser));
    }

    #[test]
    fn user_heaps_reference_shared_heap_via_items() {
        let mut s = space();
        let (h1, ml1) = user_heap(&mut s, 1, 1 << 20);
        let (h2, _ml2) = user_heap(&mut s, 2, 1 << 20);
        let (shm, a, _) = build_shared(&mut s, ml1);
        let u1 = s.alloc_fields(h1, CLS, 1).unwrap();
        let u2 = s.alloc_fields(h2, CLS, 1).unwrap();
        s.store_ref(u1, 0, Value::Ref(a), false).unwrap();
        s.store_ref(u2, 0, Value::Ref(a), false).unwrap();
        assert_eq!(s.entry_item_count(shm).unwrap(), 1);
        assert_eq!(s.exit_item_count(h1).unwrap(), 1);
        assert_eq!(s.exit_item_count(h2).unwrap(), 1);
        assert!(s.orphaned_shared_heaps().is_empty());
    }

    #[test]
    fn shared_heap_becomes_orphaned_when_last_exit_item_dies() {
        let mut s = space();
        let (h1, ml1) = user_heap(&mut s, 1, 1 << 20);
        let (shm, a, _) = build_shared(&mut s, ml1);
        let u1 = s.alloc_fields(h1, CLS, 1).unwrap();
        s.store_ref(u1, 0, Value::Ref(a), false).unwrap();
        assert!(s.orphaned_shared_heaps().is_empty());
        // Drop the reference and collect h1 with no roots: u1 dies, its exit
        // item dies, the shared entry item's count reaches zero.
        let report = s.gc(h1, &[]).unwrap();
        assert_eq!(report.exit_items_freed, 1);
        assert_eq!(s.orphaned_shared_heaps(), vec![shm]);
    }
}

mod gc {
    use super::*;

    #[test]
    fn unreachable_objects_are_swept() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let keep = s.alloc_fields(h, CLS, 1).unwrap();
        let _garbage1 = s.alloc_fields(h, CLS, 8).unwrap();
        let _garbage2 = s.alloc_fields(h, CLS, 8).unwrap();
        let before = s.limits().current(ml);
        let report = s.gc(h, &[keep]).unwrap();
        assert_eq!(report.objects_freed, 2);
        assert_eq!(report.objects_live, 1);
        assert_eq!(report.bytes_freed, 2 * (8 + 64));
        assert_eq!(s.limits().current(ml), before - report.bytes_freed);
        // The survivor is still valid; the garbage is stale.
        assert!(s.get(keep).is_ok());
    }

    #[test]
    fn reachability_is_transitive() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let a = s.alloc_fields(h, CLS, 1).unwrap();
        let b = s.alloc_fields(h, CLS, 1).unwrap();
        let c = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(a, 0, Value::Ref(b), false).unwrap();
        s.store_ref(b, 0, Value::Ref(c), false).unwrap();
        let report = s.gc(h, &[a]).unwrap();
        assert_eq!(report.objects_live, 3);
        assert_eq!(report.objects_freed, 0);
    }

    #[test]
    fn cycles_within_a_heap_are_collected() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let a = s.alloc_fields(h, CLS, 1).unwrap();
        let b = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(a, 0, Value::Ref(b), false).unwrap();
        s.store_ref(b, 0, Value::Ref(a), false).unwrap();
        let report = s.gc(h, &[]).unwrap();
        assert_eq!(report.objects_freed, 2, "mark-sweep handles cycles");
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let a = s.alloc_fields(h, CLS, 1).unwrap();
        s.gc(h, &[]).unwrap();
        assert!(matches!(s.get(a), Err(HeapError::StaleRef(_))));
        let b = s.alloc_fields(h, CLS, 1).unwrap();
        // Slot may be reused, but the stale ref stays stale.
        if a.index() == b.index() {
            assert_ne!(a.generation(), b.generation());
        }
        assert!(s.get(b).is_ok());
        assert!(matches!(s.get(a), Err(HeapError::StaleRef(_))));
    }

    #[test]
    fn entry_items_keep_objects_alive() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let k = s.kernel_heap();
        let uobj = s.alloc_fields(h, CLS, 1).unwrap();
        let kobj = s.alloc_fields(k, CLS, 1).unwrap();
        // Kernel (trusted) points at the user object.
        s.store_ref(kobj, 0, Value::Ref(uobj), true).unwrap();
        // No local roots, but the entry item must keep uobj alive.
        let report = s.gc(h, &[]).unwrap();
        assert_eq!(report.objects_live, 1);
        assert!(s.get(uobj).is_ok());
    }

    #[test]
    fn exit_item_death_releases_remote_entry() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let k = s.kernel_heap();
        let kobj = s.alloc_fields(k, CLS, 1).unwrap();
        let uobj = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(uobj, 0, Value::Ref(kobj), false).unwrap();
        assert_eq!(s.entry_item_count(k).unwrap(), 1);
        // uobj dies; its exit item dies; the kernel entry item goes away.
        s.gc(h, &[]).unwrap();
        assert_eq!(s.exit_item_count(h).unwrap(), 0);
        assert_eq!(s.entry_item_count(k).unwrap(), 0);
        // Now the kernel object is collectable by a kernel GC.
        let report = s.gc(k, &[]).unwrap();
        assert!(report.objects_freed >= 1);
    }

    #[test]
    fn stack_root_into_other_heap_retains_target() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let (shm, a, _) = super::build_shared(&mut s, ml);
        // The process holds the shared object only on a thread stack.
        let report = s.gc(h, &[a]).unwrap();
        assert_eq!(report.roots, 1);
        // The GC materialised an exit item; the shared heap is not orphaned.
        assert_eq!(s.exit_item_count(h).unwrap(), 1);
        assert!(s.orphaned_shared_heaps().is_empty());
        let _ = shm;
        // Once the stack no longer references it, a further GC orphans it.
        s.gc(h, &[]).unwrap();
        assert_eq!(s.orphaned_shared_heaps(), vec![shm]);
    }

    #[test]
    fn independent_collection_does_not_touch_other_heaps() {
        let mut s = space();
        let (h1, _) = user_heap(&mut s, 1, 1 << 20);
        let (h2, _) = user_heap(&mut s, 2, 1 << 20);
        let survivor = s.alloc_fields(h2, CLS, 1).unwrap();
        let _garbage = s.alloc_fields(h2, CLS, 1).unwrap();
        // Collect h1 (empty) — h2's objects are untouched, even its garbage.
        s.gc(h1, &[]).unwrap();
        assert!(s.get(survivor).is_ok());
        assert_eq!(s.snapshot(h2).unwrap().objects, 2);
    }

    #[test]
    fn gc_cycles_charged_to_heap_owner() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 7, 1 << 20);
        let _ = s.alloc_fields(h, CLS, 1).unwrap();
        let report = s.gc(h, &[]).unwrap();
        assert_eq!(report.charged_to, crate::ProcTag(7));
        assert!(report.cycles > 0);
    }
}

mod merge {
    use super::*;

    #[test]
    fn merge_moves_objects_to_kernel_and_credits_memlimit() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let a = s.alloc_fields(h, CLS, 4).unwrap();
        let b = s.alloc_fields(h, CLS, 4).unwrap();
        s.store_ref(a, 0, Value::Ref(b), false).unwrap();
        assert!(s.limits().current(ml) > 0);
        let kernel_bytes_before = s.heap_bytes(s.kernel_heap()).unwrap();
        let report = s.merge_into_kernel(h).unwrap();
        assert_eq!(report.objects_moved, 2);
        assert_eq!(s.limits().current(ml), 0, "full reclamation of the charge");
        assert!(!s.heap_alive(h));
        // The objects still exist (on the kernel heap) until kernel GC.
        assert_eq!(s.heap_of(a).unwrap(), s.kernel_heap());
        assert_eq!(
            s.heap_bytes(s.kernel_heap()).unwrap(),
            kernel_bytes_before + report.bytes_moved
        );
        // Kernel GC with no roots reclaims them.
        let gc = s.gc(s.kernel_heap(), &[]).unwrap();
        assert!(gc.objects_freed >= 2);
    }

    #[test]
    fn user_kernel_cycle_collected_after_merge() {
        // §2: the only inter-heap cycles are user<->kernel; they are
        // collected when the user heap merges into the kernel heap.
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let k = s.kernel_heap();
        let uobj = s.alloc_fields(h, CLS, 1).unwrap();
        let kobj = s.alloc_fields(k, CLS, 1).unwrap();
        s.store_ref(uobj, 0, Value::Ref(kobj), false).unwrap();
        s.store_ref(kobj, 0, Value::Ref(uobj), true).unwrap();
        // Neither heap alone can collect the pair.
        s.gc(h, &[]).unwrap();
        assert!(s.get(uobj).is_ok(), "entry item pins the user side");
        s.gc(k, &[]).unwrap();
        assert!(s.get(kobj).is_ok(), "entry item pins the kernel side");
        // Merge; the cycle is now intra-heap garbage.
        let report = s.merge_into_kernel(h).unwrap();
        assert!(report.kernel_exits_collapsed >= 1);
        let gc = s.gc(k, &[]).unwrap();
        assert!(gc.objects_freed >= 2, "cycle reclaimed after merge");
        assert!(s.get(uobj).is_err());
        assert!(s.get(kobj).is_err());
    }

    #[test]
    fn merge_decrements_shared_entry_items() {
        let mut s = space();
        let (h1, ml1) = user_heap(&mut s, 1, 1 << 20);
        let (h2, ml2) = user_heap(&mut s, 2, 1 << 20);
        let (shm, a, _) = super::build_shared(&mut s, ml1);
        let u1 = s.alloc_fields(h1, CLS, 1).unwrap();
        let u2 = s.alloc_fields(h2, CLS, 1).unwrap();
        s.store_ref(u1, 0, Value::Ref(a), false).unwrap();
        s.store_ref(u2, 0, Value::Ref(a), false).unwrap();
        // Process 1 dies; its exit item is destroyed, but process 2 still
        // holds the shared heap.
        s.merge_into_kernel(h1).unwrap();
        assert!(!s.orphaned_shared_heaps().contains(&shm));
        // Process 2 dies too; the shared heap becomes orphaned.
        s.merge_into_kernel(h2).unwrap();
        assert!(s.orphaned_shared_heaps().contains(&shm));
        // The kernel merges the orphan and can then reclaim it.
        s.merge_into_kernel(shm).unwrap();
        let report = s.gc(s.kernel_heap(), &[]).unwrap();
        assert!(report.objects_freed >= 2);
        let _ = ml2;
    }

    #[test]
    fn merge_is_rejected_for_kernel_heap() {
        let mut s = space();
        let k = s.kernel_heap();
        assert!(matches!(
            s.merge_into_kernel(k),
            Err(HeapError::BadHeapState(_))
        ));
    }

    #[test]
    fn refs_remain_valid_across_merge() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let obj = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_prim(obj, 0, Value::Int(5)).unwrap();
        s.merge_into_kernel(h).unwrap();
        // The object is now a kernel object, value intact.
        assert_eq!(s.load(obj, 0).unwrap(), Value::Int(5));
        assert_eq!(s.heap_of(obj).unwrap(), s.kernel_heap());
    }
}

mod lifecycle_and_accounting {
    use super::*;

    #[test]
    fn heap_slots_are_reused_after_merge() {
        let mut s = space();
        let (h1, ml1) = user_heap(&mut s, 1, 1 << 20);
        let heaps_before = s.snapshot_all().len();
        s.merge_into_kernel(h1).unwrap();
        s.limits_mut().remove(ml1).unwrap();
        // A new heap reuses the dead registry slot with a fresh generation.
        let (h2, _) = user_heap(&mut s, 2, 1 << 20);
        assert_eq!(s.snapshot_all().len(), heaps_before);
        assert!(!s.heap_alive(h1));
        assert!(s.heap_alive(h2));
        assert_eq!(h1.index(), h2.index(), "registry slot reused");
        assert_ne!(h1, h2, "but the generation differs");
    }

    #[test]
    fn merged_pages_serve_kernel_allocations() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let _obj = s.alloc_fields(h, CLS, 1).unwrap();
        s.merge_into_kernel(h).unwrap();
        s.limits_mut().remove(ml).unwrap();
        let pages_before = s.snapshot(s.kernel_heap()).unwrap().pages;
        // The merged page's free slots now belong to the kernel: a kernel
        // allocation must not need a new page.
        let _k = s.alloc_fields(s.kernel_heap(), CLS, 1).unwrap();
        assert_eq!(s.snapshot(s.kernel_heap()).unwrap().pages, pages_before);
    }

    #[test]
    fn freeze_twice_and_freeze_user_heap_fail() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        assert!(matches!(
            s.freeze_shared(h),
            Err(HeapError::BadHeapState(_))
        ));
        let (shm, _, _) = build_shared(&mut s, ml);
        assert!(
            !s.heap_alive(shm) || s.freeze_shared(shm).is_err(),
            "double freeze rejected"
        );
    }

    #[test]
    fn snapshot_reports_items_and_gc_count() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let k = s.kernel_heap();
        let kobj = s.alloc_fields(k, CLS, 1).unwrap();
        let uobj = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(uobj, 0, Value::Ref(kobj), false).unwrap();
        let snap = s.snapshot(h).unwrap();
        assert_eq!(snap.exit_items, 1);
        assert_eq!(snap.gc_count, 0);
        s.gc(h, &[uobj]).unwrap();
        assert_eq!(s.snapshot(h).unwrap().gc_count, 1);
        let ksnap = s.snapshot(k).unwrap();
        assert_eq!(ksnap.entry_items, 1);
    }

    #[test]
    fn heap_exits_into_tracks_cross_heap_edges() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let (shm, a, _) = build_shared(&mut s, ml);
        let holder = s.alloc_fields(h, CLS, 1).unwrap();
        assert!(!s.heap_exits_into(h, shm));
        s.store_ref(holder, 0, Value::Ref(a), false).unwrap();
        assert!(s.heap_exits_into(h, shm));
        // Drop the reference; after GC the edge disappears.
        s.store_ref(holder, 0, Value::Null, false).unwrap();
        s.gc(h, &[holder]).unwrap();
        assert!(!s.heap_exits_into(h, shm));
    }

    #[test]
    fn barrier_stats_reset_between_runs() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let a = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(a, 0, Value::Null, false).unwrap();
        assert_eq!(s.barrier_stats().executed, 1);
        s.reset_barrier_stats();
        assert_eq!(s.barrier_stats().executed, 0);
        assert_eq!(s.barrier_stats().cycles, 0);
    }

    #[test]
    fn accounted_items_balance_across_many_gc_rounds() {
        // Repeatedly create and drop cross-heap references; after each GC
        // the memlimit exactly covers live objects + live items.
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let k = s.kernel_heap();
        let kobjs: Vec<_> = (0..8)
            .map(|_| s.alloc_fields(k, CLS, 1).unwrap())
            .collect();
        let holder = s.alloc_fields(h, CLS, 4).unwrap();
        for round in 0..20 {
            for slot in 0..4 {
                let target = kobjs[(round + slot) % kobjs.len()];
                s.store_ref(holder, slot, Value::Ref(target), false).unwrap();
            }
            s.gc(h, &[holder]).unwrap();
            let snap = s.snapshot(h).unwrap();
            let expected =
                snap.bytes_used + snap.exit_items as u64 * 16;
            assert_eq!(
                s.limits().current(ml),
                expected,
                "round {round}: memlimit covers objects + exit items exactly"
            );
        }
        // Clear and fully collect: only the holder remains.
        for slot in 0..4 {
            s.store_ref(holder, slot, Value::Null, false).unwrap();
        }
        s.gc(h, &[holder]).unwrap();
        assert_eq!(s.exit_item_count(h).unwrap(), 0);
        assert_eq!(s.entry_item_count(k).unwrap(), 0);
    }

    #[test]
    fn orphan_check_ignores_unfrozen_shared_heaps() {
        let mut s = space();
        let (_h, ml) = user_heap(&mut s, 1, 1 << 20);
        let shm_ml = s
            .limits_mut()
            .create_child(ml, kaffeos_memlimit::Kind::Soft, 1 << 16, "shm")
            .unwrap();
        let shm = s.create_shared_heap(crate::ProcTag(1), shm_ml, "shm");
        let _ = s.alloc_fields(shm, CLS, 1).unwrap();
        // Mid-population (unfrozen) heaps are not orphan candidates even
        // with zero entry items.
        assert!(!s.orphaned_shared_heaps().contains(&shm));
    }
}

mod gc_scratch {
    use super::*;
    use crate::{GcReport, ObjRef};

    /// Builds the same graph every time: a root-reachable chain, an
    /// intra-heap cycle of garbage, garbage leaves, and a cross-heap
    /// (user→kernel) reference whose holder dies — so marking, sweeping,
    /// and exit-item teardown all run. Returns one collection's report
    /// plus the refs allocated *after* it (slot-reuse order is the
    /// observable footprint of sweep order).
    fn scenario(s: &mut HeapSpace) -> (GcReport, Vec<ObjRef>) {
        let (h, _) = user_heap(s, 7, 1 << 20);
        let k = s.kernel_heap();
        let kobj = s.alloc_fields(k, CLS, 1).unwrap();
        let root = s.alloc_fields(h, CLS, 2).unwrap();
        let kept = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(root, 0, Value::Ref(kept), false).unwrap();
        // Garbage cycle.
        let g1 = s.alloc_fields(h, CLS, 1).unwrap();
        let g2 = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(g1, 0, Value::Ref(g2), false).unwrap();
        s.store_ref(g2, 0, Value::Ref(g1), false).unwrap();
        // Dying holder of a cross-heap ref: its exit item must be torn
        // down, releasing the kernel entry item.
        let holder = s.alloc_fields(h, CLS, 1).unwrap();
        s.store_ref(holder, 0, Value::Ref(kobj), false).unwrap();
        let _leaf = s.alloc_fields(h, CLS, 4).unwrap();

        let report = s.gc(h, &[root]).unwrap();
        assert_eq!(s.entry_item_count(k).unwrap(), 0, "entry item released");
        // Allocations after the collection reuse swept slots; their refs
        // encode the sweep (free-list) order.
        let after: Vec<ObjRef> = (0..4).map(|_| s.alloc_fields(h, CLS, 1).unwrap()).collect();
        (report, after)
    }

    #[test]
    fn warm_scratch_changes_no_observable() {
        // Cold scratch: fresh space, first-ever collection.
        let mut cold = space();
        let (cold_report, cold_after) = scenario(&mut cold);

        // Warm scratch: same space ran (and grew its buffers on) an
        // unrelated heap's collection first.
        let mut warm = space();
        let (hx, _) = user_heap(&mut warm, 99, 1 << 20);
        let junk = warm.alloc_fields(hx, CLS, 8).unwrap();
        let more = warm.alloc_fields(hx, CLS, 8).unwrap();
        warm.store_ref(junk, 0, Value::Ref(more), false).unwrap();
        warm.gc(hx, &[]).unwrap();
        let (warm_report, warm_after) = scenario(&mut warm);

        // Buffer reuse must be invisible: identical mark/sweep accounting
        // (cycles encode objects marked and fields traced, i.e. mark
        // order-independent totals), identical survivor/freed counts,
        // identical exit-item teardown.
        assert_eq!(cold_report.cycles, warm_report.cycles);
        assert_eq!(cold_report.objects_live, warm_report.objects_live);
        assert_eq!(cold_report.objects_freed, warm_report.objects_freed);
        assert_eq!(cold_report.bytes_freed, warm_report.bytes_freed);
        assert_eq!(cold_report.exit_items_freed, warm_report.exit_items_freed);
        assert_eq!(cold_report.roots, warm_report.roots);
        // Sweep order (slot free-list order) is unchanged: post-GC
        // allocations land on the same slots in the same order. The warm
        // space's heap sits on different absolute pages, so compare slot
        // offsets relative to the first reused slot.
        let rel = |refs: &[ObjRef]| -> Vec<i64> {
            let base = refs[0].index() as i64;
            refs.iter().map(|o| o.index() as i64 - base).collect()
        };
        assert_eq!(rel(&cold_after), rel(&warm_after), "sweep order changed");
    }

    #[test]
    fn steady_state_collections_are_identical() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let root = s.alloc_fields(h, CLS, 1).unwrap();
        let mut reports = Vec::new();
        for _ in 0..5 {
            // Same garbage shape each round.
            let g = s.alloc_fields(h, CLS, 3).unwrap();
            s.store_ref(root, 0, Value::Ref(g), false).unwrap();
            s.store_ref(root, 0, Value::Null, false).unwrap();
            reports.push(s.gc(h, &[root]).unwrap());
        }
        for r in &reports[1..] {
            assert_eq!(r, &reports[0], "steady-state GC must be reproducible");
        }
    }
}

/// Page release is host-only: the kernel gives merged pages back to the
/// free-page pool after each collection, and the sweep keeps charging them
/// as retired pages.
mod page_release {
    use super::*;
    use crate::{GcReport, ObjRef};

    /// Four process lives on one space. Each allocates three pages of
    /// objects, keeps some alive through its own collection, and is merged
    /// into the kernel, whose collection then frees everything. With
    /// `release`, each heap gives its empty pages back just before it is
    /// collected; the kernel's go to the pool, and from the third life on
    /// the user heap claims them back. Returns every collection's report
    /// and the final page-table size.
    fn lives(release: bool) -> (Vec<GcReport>, usize) {
        let mut s = space();
        let k = s.kernel_heap();
        let mut reports = Vec::new();
        let mut collect = |s: &mut HeapSpace, h, roots: &[ObjRef]| {
            if release {
                s.release_empty_pages(h).unwrap();
            }
            reports.push(s.gc(h, roots).unwrap());
            s.audit().unwrap();
        };
        for tag in 1..=4 {
            let (h, ml) = user_heap(&mut s, tag, 1 << 20);
            let objs: Vec<ObjRef> = (0..3 * 256 - 40)
                .map(|_| s.alloc_fields(h, CLS, 1).unwrap())
                .collect();
            let roots: Vec<ObjRef> = objs.iter().step_by(50).copied().collect();
            collect(&mut s, h, &roots);
            s.merge_into_kernel(h).unwrap();
            s.limits_mut().remove(ml).unwrap();
            collect(&mut s, k, &[]);
        }
        collect(&mut s, k, &[]);
        (reports, s.page_count())
    }

    #[test]
    fn a_page_release_is_invisible_to_virtual_time() {
        let (released, released_pages) = lives(true);
        let (kept, kept_pages) = lives(false);
        assert_eq!(released, kept, "a release moved a collection's report");
        assert_eq!(
            kept_pages, 12,
            "without release every life opens fresh pages"
        );
        assert!(
            released_pages < kept_pages,
            "pooled pages were not claimed back: {released_pages} pages"
        );
    }
}

/// Payload shapes: strings carry their char count, and primitive arrays
/// are unboxed: never traced, refused by `store_ref`, and typed for
/// `store_prim`.
mod payloads {
    use super::*;
    use crate::gc::GcReport;
    use crate::{ObjData, Object};

    #[test]
    fn object_and_payload_sizes_are_pinned() {
        // A boxed slice plus the char count or `elem_bytes` in padding; a
        // still-zero array's count fits there too.
        assert_eq!(core::mem::size_of::<ObjData>(), 24);
        assert_eq!(core::mem::size_of::<Object>(), 48);
    }

    #[test]
    fn string_bytes_are_four_plus_two_per_char() {
        for (text, chars) in [
            ("", 0),
            ("hello", 5),
            ("héllo", 5),
            ("日本語", 3),
            ("a😀b", 3),
        ] {
            let mut s = space();
            let (h, ml) = user_heap(&mut s, 1, 1 << 20);
            let st = s.alloc_str(h, CLS, text).unwrap();
            assert_eq!(s.limits().current(ml), 8 + 4 + 2 * chars, "{text:?}");
            assert_eq!(s.str_len(st).unwrap(), chars as usize, "{text:?}");
            assert_eq!(s.str_value(st).unwrap(), text);
        }
    }

    #[test]
    fn string_accessors_index_by_char() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let st = s.alloc_str(h, CLS, "aé日😀").unwrap();
        let at: Vec<_> = (0..5).map(|i| s.str_char_at(st, i).unwrap()).collect();
        assert_eq!(at, [Some('a'), Some('é'), Some('日'), Some('😀'), None]);
        assert_eq!(s.str_char_at(st, usize::MAX).unwrap(), None);
        assert_eq!(s.str_slice(st, 1, 3).unwrap(), Some("é日"));
        assert_eq!(s.str_slice(st, 4, 4).unwrap(), Some(""));
        assert_eq!(s.str_slice(st, 0, 4).unwrap(), Some("aé日😀"));
        assert_eq!(s.str_slice(st, 3, 2).unwrap(), None);
        assert_eq!(s.str_slice(st, 0, 5).unwrap(), None);
        let fields = s.alloc_fields(h, CLS, 1).unwrap();
        assert_eq!(s.str_len(fields), Err(HeapError::KindMismatch(fields)));
        assert_eq!(
            s.str_char_at(fields, 0),
            Err(HeapError::KindMismatch(fields))
        );
        assert_eq!(
            s.str_slice(fields, 0, 0),
            Err(HeapError::KindMismatch(fields))
        );
    }

    #[test]
    fn a_failed_string_allocation_leaves_the_text_to_retry() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 16);
        let mut text = String::from("too long for sixteen bytes");
        let err = s.alloc_string(h, CLS, &mut text).unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory(_)));
        assert_eq!(text, "too long for sixteen bytes");
        let mut short = String::from("ok");
        let st = s.alloc_string(h, CLS, &mut short).unwrap();
        assert_eq!((s.str_value(st).unwrap(), short.as_str()), ("ok", ""));
    }

    #[test]
    fn primitive_arrays_collect_to_the_same_report() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let ints = s.alloc_array(h, CLS, 4, 4096, Value::Int(0)).unwrap();
        let floats = s.alloc_array(h, CLS, 8, 16, Value::Float(0.0)).unwrap();
        let refs = s.alloc_array(h, CLS, 4, 2, Value::Null).unwrap();
        let _garbage = s.alloc_array(h, CLS, 4, 4096, Value::Int(0)).unwrap();
        s.store_ref(refs, 0, Value::Ref(ints), false).unwrap();
        s.store_ref(refs, 1, Value::Ref(floats), false).unwrap();
        let report = s.gc(h, &[refs]).unwrap();
        // Skipping primitive slots must not move any figure of the report.
        let expected = GcReport {
            heap: h,
            charged_to: crate::ProcTag(1),
            cycles: 3178,
            objects_freed: 1,
            bytes_freed: 16396,
            objects_live: 3,
            exit_items_freed: 0,
            roots: 1,
        };
        assert_eq!(report, expected);
    }

    #[test]
    fn primitive_array_slots_are_never_traced() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let ints = s.alloc_array(h, CLS, 4, 1, Value::Int(0)).unwrap();
        let floats = s.alloc_array(h, CLS, 8, 1, Value::Float(0.0)).unwrap();
        s.store_prim(ints, 0, Value::Int(5)).unwrap();
        let orphan = s.alloc_fields(h, CLS, 1).unwrap();
        // An unboxed array has no slot a reference could sit in.
        assert_eq!(s.get(ints).unwrap().references().count(), 0);
        assert_eq!(s.get(floats).unwrap().references().count(), 0);
        let report = s.gc(h, &[ints, floats]).unwrap();
        assert_eq!((report.objects_live, report.objects_freed), (2, 1));
        assert_eq!(s.get(orphan).err(), Some(HeapError::StaleRef(orphan)));
        assert_eq!(s.load(ints, 0), Ok(Value::Int(5)));
    }

    #[test]
    fn store_ref_into_a_primitive_array_is_a_kind_mismatch() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let target = s.alloc_fields(h, CLS, 1).unwrap();
        for (elem_bytes, fill) in [(4, Value::Int(7)), (8, Value::Float(0.5))] {
            let arr = s.alloc_array(h, CLS, elem_bytes, 3, fill).unwrap();
            for v in [Value::Ref(target), Value::Null] {
                assert_eq!(
                    s.store_ref(arr, 1, v, false),
                    Err(HeapError::KindMismatch(arr))
                );
            }
            let elems: Vec<_> = (0..3).map(|i| s.load(arr, i).unwrap()).collect();
            assert_eq!(elems, [fill; 3]);
        }
    }

    #[test]
    fn a_wrong_kind_primitive_store_is_a_kind_mismatch() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let ints = s.alloc_array(h, CLS, 4, 2, Value::Int(3)).unwrap();
        let floats = s.alloc_array(h, CLS, 8, 2, Value::Float(1.5)).unwrap();
        for (arr, wrong, kept) in [
            (ints, Value::Float(2.0), Value::Int(3)),
            (ints, Value::Null, Value::Int(3)),
            (floats, Value::Int(2), Value::Float(1.5)),
            (floats, Value::Null, Value::Float(1.5)),
        ] {
            assert_eq!(
                s.store_prim(arr, 1, wrong),
                Err(HeapError::KindMismatch(arr))
            );
            assert_eq!(s.load(arr, 1), Ok(kept));
        }
        // Bounds come before kinds.
        assert_eq!(
            s.store_prim(ints, 2, Value::Float(2.0)),
            Err(HeapError::IndexOutOfBounds {
                obj: ints,
                index: 2,
                len: 2
            })
        );
        s.store_prim(ints, 1, Value::Int(-9)).unwrap();
        s.store_prim(floats, 0, Value::Float(-0.25)).unwrap();
        assert_eq!(s.load(ints, 1), Ok(Value::Int(-9)));
        assert_eq!(s.load(floats, 0), Ok(Value::Float(-0.25)));
    }

    #[test]
    fn primitive_arrays_are_accounted_by_element_size() {
        for len in [0usize, 1, 5, 4096] {
            let mut s = space();
            let (h, ml) = user_heap(&mut s, 1, 1 << 20);
            s.alloc_array(h, CLS, 4, len, Value::Int(0)).unwrap();
            let ints = 8 + 4 + 4 * len as u64;
            assert_eq!(s.limits().current(ml), ints, "int[{len}]");
            s.alloc_array(h, CLS, 8, len, Value::Float(0.0)).unwrap();
            let floats = 8 + 4 + 8 * len as u64;
            assert_eq!(s.limits().current(ml), ints + floats, "float[{len}]");
        }
    }

    #[test]
    fn a_refused_allocation_leaves_the_pooled_buffer() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        s.alloc_fields(h, CLS, 3).unwrap();
        s.alloc_array(h, CLS, 4, 3, Value::Null).unwrap();
        s.gc(h, &[]).unwrap();
        assert_eq!(s.payload_pool.parked(3), 2);
        for _ in 0..2 {
            s.set_alloc_fault(crate::AllocFault {
                at: s.alloc_count(),
                persistent: false,
            });
            let refused = s.alloc_fields(h, CLS, 3).unwrap_err();
            assert!(matches!(refused, HeapError::OutOfMemory(_)));
            s.set_alloc_fault(crate::AllocFault {
                at: s.alloc_count(),
                persistent: false,
            });
            let refused = s.alloc_array(h, CLS, 4, 3, Value::Null).unwrap_err();
            assert!(matches!(refused, HeapError::OutOfMemory(_)));
            assert_eq!(s.payload_pool.parked(3), 2);
        }
        s.alloc_fields(h, CLS, 3).unwrap();
        assert_eq!(s.payload_pool.parked(3), 1);
    }

    #[test]
    fn a_template_allocation_copies_its_values_into_fresh_and_pooled_buffers() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let init = [Value::Int(0), Value::Float(0.0), Value::Null];
        let read = |s: &HeapSpace, obj| (0..3).map(|i| s.load(obj, i).unwrap()).collect::<Vec<_>>();

        let fresh = s.alloc_fields_from(h, CLS, &init).unwrap();
        assert_eq!(read(&s, fresh), init);
        assert_eq!(s.limits().current(ml), s.size_model().fields_bytes(3));

        // Dirty a three-slot buffer, let the collector park it, then take
        // it: the copy must overwrite every slot.
        let dirty = s.alloc_fields(h, CLS, 3).unwrap();
        s.store_prim(dirty, 0, Value::Int(7)).unwrap();
        s.store_prim(dirty, 1, Value::Float(2.5)).unwrap();
        s.store_ref(dirty, 2, Value::Ref(fresh), false).unwrap();
        s.gc(h, &[fresh]).unwrap();
        assert_eq!(s.payload_pool.parked(3), 1);
        let pooled = s.alloc_fields_from(h, CLS, &init).unwrap();
        assert_eq!(s.payload_pool.parked(3), 0, "the parked buffer was not taken");
        assert_eq!(read(&s, pooled), init);
    }

    /// True if `arr` is a still-zero array: a count and no element buffer.
    fn still_zero(s: &HeapSpace, arr: crate::ObjRef) -> bool {
        matches!(s.get(arr).unwrap().data, ObjData::Zeros { .. })
    }

    #[test]
    fn an_unwritten_element_loads_as_a_typed_zero() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let ints = s.alloc_array(h, CLS, 4, 5, Value::Int(0)).unwrap();
        let floats = s.alloc_array(h, CLS, 8, 5, Value::Float(0.0)).unwrap();
        for i in 0..5 {
            assert_eq!(s.load(ints, i), Ok(Value::Int(0)));
            assert_eq!(s.load(floats, i), Ok(Value::Float(0.0)));
        }
        let Ok(Value::Float(f)) = s.load(floats, 4) else {
            panic!("a float[] element is a Float");
        };
        assert_eq!(f.to_bits(), 0, "a fresh float[] element is +0.0");
        for arr in [ints, floats] {
            assert!(still_zero(&s, arr));
            assert_eq!(s.slot_count(arr), Ok(5));
            assert_eq!(
                s.load(arr, 5),
                Err(HeapError::IndexOutOfBounds { obj: arr, index: 5, len: 5 })
            );
        }
        // A non-zero fill builds its buffer at once.
        let sevens = s.alloc_array(h, CLS, 4, 2, Value::Int(7)).unwrap();
        assert!(matches!(s.get(sevens).unwrap().data, ObjData::Ints { .. }));
    }

    #[test]
    fn a_zero_store_keeps_no_buffer_and_a_minus_zero_store_builds_one() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        let ints = s.alloc_array(h, CLS, 4, 3, Value::Int(0)).unwrap();
        let floats = s.alloc_array(h, CLS, 8, 3, Value::Float(0.0)).unwrap();
        s.store_prim(ints, 2, Value::Int(0)).unwrap();
        s.store_prim(floats, 2, Value::Float(0.0)).unwrap();
        assert!(still_zero(&s, ints) && still_zero(&s, floats));

        s.store_prim(floats, 1, Value::Float(-0.0)).unwrap();
        let ObjData::Floats { elem_bytes, values } = &s.get(floats).unwrap().data else {
            panic!("a -0.0 store must build the float[] buffer");
        };
        let bits: Vec<u64> = values.iter().map(|f| f.to_bits()).collect();
        assert_eq!((*elem_bytes, bits), (8, vec![0, (-0.0f64).to_bits(), 0]));

        s.store_prim(ints, 0, Value::Int(-4)).unwrap();
        let ObjData::Ints { elem_bytes, values } = &s.get(ints).unwrap().data else {
            panic!("a non-zero store must build the int[] buffer");
        };
        assert_eq!((*elem_bytes, &values[..]), (4, &[-4, 0, 0][..]));
        // Accounted bytes come from the length either way.
        let bytes = |arr| s.get(arr).unwrap().bytes as u64;
        assert_eq!(bytes(ints), s.size_model().array_bytes(4, 3));
        assert_eq!(bytes(floats), s.size_model().array_bytes(8, 3));
    }

    #[test]
    fn a_still_zero_array_refuses_stores_as_a_written_one_does() {
        let mut s = space();
        let (h, _) = user_heap(&mut s, 1, 1 << 20);
        for (elem_bytes, zero, one, wrong) in [
            (4, Value::Int(0), Value::Int(1), [Value::Float(2.0), Value::Null]),
            (8, Value::Float(0.0), Value::Float(1.0), [Value::Int(2), Value::Null]),
        ] {
            let fresh = s.alloc_array(h, CLS, elem_bytes, 2, zero).unwrap();
            let written = s.alloc_array(h, CLS, elem_bytes, 2, zero).unwrap();
            s.store_prim(written, 0, one).unwrap();
            let rename = |e: HeapError, to| match e {
                HeapError::IndexOutOfBounds { index, len, .. } => {
                    HeapError::IndexOutOfBounds { obj: to, index, len }
                }
                HeapError::KindMismatch(_) => HeapError::KindMismatch(to),
                other => other,
            };
            let attempts = [(2, one), (2, zero), (usize::MAX, one), (0, wrong[0]), (1, wrong[1])];
            for (index, val) in attempts {
                let on_written = s.store_prim(written, index, val).unwrap_err();
                let on_fresh = s.store_prim(fresh, index, val).unwrap_err();
                assert_eq!(on_fresh, rename(on_written, fresh), "[{index}] = {val:?}");
                assert!(still_zero(&s, fresh), "[{index}] = {val:?} left a buffer");
            }
            // Bounds before kinds, on both.
            assert!(matches!(
                s.store_prim(fresh, 2, wrong[0]),
                Err(HeapError::IndexOutOfBounds { index: 2, len: 2, .. })
            ));
            assert_eq!(
                s.store_ref(fresh, 0, Value::Null, false),
                Err(HeapError::KindMismatch(fresh))
            );
            assert!(still_zero(&s, fresh));
            assert_eq!(s.load(fresh, 1), Ok(zero));
            assert_eq!(s.load(written, 0), Ok(one));
        }
    }

    #[test]
    fn a_thousand_unwritten_int_arrays_hold_no_element_buffer() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 32 << 20);
        let arrays: Vec<_> = (0..1000)
            .map(|_| s.alloc_array(h, CLS, 4, 4096, Value::Int(0)).unwrap())
            .collect();
        for &arr in &arrays {
            let obj = s.get(arr).unwrap();
            assert!(
                matches!(obj.data, ObjData::Zeros { elem_bytes: 4, float: false, len: 4096 }),
                "{:?}",
                obj.data
            );
            assert_eq!(obj.references().count(), 0);
        }
        assert_eq!(s.limits().current(ml), 1000 * (8 + 4 + 4 * 4096));
    }

    #[test]
    fn gc_and_merge_free_the_same_accounted_bytes_written_or_not() {
        // (elem_bytes, len, fill, a store or none): still-zero, written and
        // non-zero-filled arrays side by side.
        let shapes = [
            (4, 4096, Value::Int(0), None),
            (4, 4096, Value::Int(0), Some(Value::Int(9))),
            (8, 16, Value::Float(0.0), None),
            (8, 16, Value::Float(0.0), Some(Value::Float(-0.0))),
            (4, 3, Value::Int(7), None),
        ];
        let populate = |s: &mut HeapSpace, h| {
            for (elem_bytes, len, fill, store) in shapes {
                let arr = s.alloc_array(h, CLS, elem_bytes, len, fill).unwrap();
                if let Some(v) = store {
                    s.store_prim(arr, len - 1, v).unwrap();
                }
            }
        };
        let mut s = space();
        let total: u64 = shapes
            .iter()
            .map(|&(eb, len, ..)| s.size_model().array_bytes(eb, len))
            .sum();
        assert_eq!(total, 16396 + 16396 + 140 + 140 + 24);

        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        populate(&mut s, h);
        let report = s.gc(h, &[]).unwrap();
        assert_eq!((report.objects_freed, report.bytes_freed), (5, total));
        assert_eq!(s.limits().current(ml), 0);

        let (h, ml) = user_heap(&mut s, 2, 1 << 20);
        populate(&mut s, h);
        let merged = s.merge_into_kernel(h).unwrap();
        assert_eq!((merged.objects_moved, merged.bytes_moved), (5, total));
        assert_eq!(s.limits().current(ml), 0);
        let kernel = s.kernel_heap();
        let report = s.gc(kernel, &[]).unwrap();
        assert_eq!((report.objects_freed, report.bytes_freed), (5, total));
    }

    #[test]
    fn an_array_longer_than_u32_max_is_refused_before_admission() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        let kernel = s.kernel_heap();
        let attempts = s.alloc_count();
        let len = u32::MAX as usize + 1;
        for (heap, fill) in [(h, Value::Int(0)), (kernel, Value::Float(0.0)), (h, Value::Null)] {
            assert_eq!(
                s.alloc_array(heap, CLS, 4, len, fill),
                Err(HeapError::ArrayTooLong { len })
            );
        }
        assert_eq!(s.alloc_count(), attempts, "no admission was attempted");
        assert_eq!(s.limits().current(ml), 0);
        assert_eq!(s.snapshot(kernel).unwrap().objects, 0);
    }

    #[test]
    fn an_array_past_four_gib_is_refused_not_wrapped() {
        let mut s = space();
        let (h, ml) = user_heap(&mut s, 1, 1 << 20);
        // 8 + 4 + 8 * 2^29 bytes would wrap to 12 in a `u32`.
        let err = s.alloc_array(h, CLS, 8, 1 << 29, Value::Float(0.0));
        assert!(matches!(err, Err(HeapError::OutOfMemory(_))));
        assert_eq!(s.limits().current(ml), 0);
    }
}

mod dump {
    use super::*;
    use crate::ProcTag;

    /// Top-level keys of one hand-rolled JSON record, in order: strings at
    /// object depth 1 that are followed by `:`. Nested objects and arrays
    /// (entry/exit tables) are skipped.
    fn top_keys(line: &str) -> Vec<String> {
        let mut keys = Vec::new();
        let mut depth = 0u32;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                '"' => {
                    let mut s = String::new();
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => {
                                chars.next();
                            }
                            '"' => break,
                            c => s.push(c),
                        }
                    }
                    if depth == 1 && chars.peek() == Some(&':') {
                        keys.push(s);
                    }
                }
                _ => {}
            }
        }
        keys
    }

    #[test]
    fn dump_record_key_sets_are_pinned() {
        let mut space = HeapSpace::new(SpaceConfig::default());
        let kernel = space.kernel_heap();
        let root = space.root_memlimit();
        let ml = space
            .limits_mut()
            .create_child(root, Kind::Soft, 1 << 20, "p1")
            .unwrap();
        let user = space.create_user_heap(ProcTag(1), ml, "p1");
        let k = space.alloc_fields(kernel, ClassId(1), 1).unwrap();
        let u = space.alloc_fields(user, ClassId(2), 1).unwrap();
        // A trusted kernel→user store: an entry item, an exit item and an
        // `xedge` record.
        space.store_ref(k, 0, Value::Ref(u), true).unwrap();
        let expected: &[(&str, &[&str])] = &[
            ("space", &["type", "heaps", "pages", "pool_pages", "slots", "barrier"]),
            (
                "heap",
                &[
                    "type", "heap", "label", "kind", "owner", "bytes_used", "objects", "frozen",
                    "gc_count", "pages", "entries", "exits",
                ],
            ),
            ("page", &["type", "page", "heap", "live"]),
            (
                "object",
                &[
                    "type", "slot", "gen", "heap", "class", "bytes", "frozen", "shape", "len",
                    "refs",
                ],
            ),
            ("xedge", &["type", "src", "dst", "src_heap", "dst_heap", "class"]),
            ("edges", &["type", "local", "may_cross", "shared_frozen"]),
            ("recount", &["type", "heap", "live_bytes", "live_objects"]),
        ];
        let dump = space.dump_jsonl();
        let mut seen = vec![false; expected.len()];
        for line in dump.lines() {
            let keys = top_keys(line);
            let ty = line
                .strip_prefix("{\"type\":\"")
                .and_then(|rest| rest.split('"').next())
                .unwrap();
            let i = expected
                .iter()
                .position(|(name, _)| *name == ty)
                .unwrap_or_else(|| panic!("unexpected record type {ty}: {line}"));
            assert_eq!(keys, expected[i].1, "key set of a `{ty}` record: {line}");
            seen[i] = true;
        }
        for (i, (name, _)) in expected.iter().enumerate() {
            assert!(seen[i], "no `{name}` record in the dump:\n{dump}");
        }
    }

    #[test]
    fn dump_is_deterministic_and_reconciles() {
        let build = || {
            let mut space = HeapSpace::new(SpaceConfig::default());
            let kernel = space.kernel_heap();
            let a = space.alloc_fields(kernel, ClassId(1), 2).unwrap();
            let b = space
                .alloc_str(kernel, ClassId(2), "hi \"quoted\"")
                .unwrap();
            space.store_ref(a, 0, Value::Ref(b), true).unwrap();
            space
        };
        let d1 = build().dump_jsonl();
        let d2 = build().dump_jsonl();
        assert_eq!(d1, d2, "dump must be byte-identical across runs");
        assert!(d1.starts_with("{\"type\":\"space\""));
        assert!(d1.contains("\"type\":\"edges\""));
        // Every line parses as a standalone JSON object (shape check: the
        // hand-rolled writer balances braces/quotes on each line).
        for line in d1.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        // Recount equals the header accounting for the kernel heap.
        let space = build();
        let rc = space.recount_heaps();
        let snap = space.snapshot(space.kernel_heap()).unwrap();
        let k = rc.iter().find(|r| r.heap == 0).unwrap();
        assert_eq!(k.live_objects, snap.objects);
        assert_eq!(k.live_bytes, snap.bytes_used);
    }
}
