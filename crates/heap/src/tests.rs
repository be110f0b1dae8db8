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

/// Payload shapes: strings carry their char count, and primitive arrays
/// are neither traced by the collector nor accepted by `store_ref`.
mod payloads {
    use super::*;
    use crate::gc::GcReport;
    use crate::{ObjData, Object};

    #[test]
    fn object_and_payload_sizes_are_pinned() {
        // The char count and the array's `refs` flag fit in padding.
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
        let orphan = s.alloc_fields(h, CLS, 1).unwrap();
        // Plant a reference behind the barrier's back: only a scan of the
        // int array's slots could keep `orphan` alive.
        s.value_slots_mut(ints).unwrap()[0] = Value::Ref(orphan);
        assert_eq!(s.get(ints).unwrap().references().count(), 0);
        let report = s.gc(h, &[ints]).unwrap();
        assert_eq!((report.objects_live, report.objects_freed), (1, 1));
        assert_eq!(s.get(orphan).err(), Some(HeapError::StaleRef(orphan)));
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
            assert_eq!(s.value_slots(arr).unwrap(), &[fill; 3]);
        }
    }
}
