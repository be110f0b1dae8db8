use crate::{Kind, LimitError, MemLimitTree};

fn tree() -> (MemLimitTree, crate::MemLimitId) {
    let mut t = MemLimitTree::new();
    let root = t.create_root(1000, "root");
    (t, root)
}

#[test]
fn root_debit_and_credit() {
    let (mut t, root) = tree();
    t.debit(root, 400).unwrap();
    assert_eq!(t.current(root), 400);
    t.credit(root, 150).unwrap();
    assert_eq!(t.current(root), 250);
    assert_eq!(t.headroom(root), 750);
}

#[test]
fn root_limit_enforced() {
    let (mut t, root) = tree();
    t.debit(root, 1000).unwrap();
    let err = t.debit(root, 1).unwrap_err();
    assert_eq!(err.node, root);
    assert_eq!(err.requested, 1);
    assert_eq!(err.available, 0);
    // Failed debit must not change state.
    assert_eq!(t.current(root), 1000);
}

#[test]
fn soft_child_percolates_to_parent() {
    let (mut t, root) = tree();
    let child = t.create_child(root, Kind::Soft, 300, "soft").unwrap();
    t.debit(child, 200).unwrap();
    assert_eq!(t.current(child), 200);
    assert_eq!(t.current(root), 200, "soft debits reflect in parent");
    t.credit(child, 50).unwrap();
    assert_eq!(t.current(child), 150);
    assert_eq!(t.current(root), 150, "soft credits reflect in parent");
}

#[test]
fn soft_child_capped_by_own_limit() {
    let (mut t, root) = tree();
    let child = t.create_child(root, Kind::Soft, 300, "soft").unwrap();
    let err = t.debit(child, 301).unwrap_err();
    assert_eq!(err.node, child);
    assert_eq!(t.current(root), 0);
}

#[test]
fn soft_child_capped_by_parent() {
    let (mut t, root) = tree();
    // Child's own limit is generous, but the parent cannot cover it.
    let child = t.create_child(root, Kind::Soft, 5000, "soft").unwrap();
    t.debit(root, 900).unwrap();
    let err = t.debit(child, 200).unwrap_err();
    assert_eq!(err.node, root);
    assert_eq!(err.available, 100);
    // Rollback: the child's partial debit was undone.
    assert_eq!(t.current(child), 0);
    assert_eq!(t.current(root), 900);
}

#[test]
fn hard_child_reserves_at_creation() {
    let (mut t, root) = tree();
    let child = t.create_child(root, Kind::Hard, 400, "hard").unwrap();
    assert_eq!(t.current(root), 400, "reservation debited up front");
    // Debits inside the hard child do not move the parent.
    t.debit(child, 100).unwrap();
    assert_eq!(t.current(root), 400);
    assert_eq!(t.current(child), 100);
}

#[test]
fn hard_child_reservation_failure_is_clean() {
    let (mut t, root) = tree();
    t.debit(root, 800).unwrap();
    let err = t.create_child(root, Kind::Hard, 400, "hard").unwrap_err();
    assert!(matches!(err, LimitError::ReservationFailed(_)));
    assert_eq!(t.current(root), 800);
    assert_eq!(t.len(), 1, "failed child must not exist");
}

#[test]
fn hard_child_enforces_own_limit() {
    let (mut t, root) = tree();
    let child = t.create_child(root, Kind::Hard, 400, "hard").unwrap();
    let err = t.debit(child, 401).unwrap_err();
    assert_eq!(err.node, child);
    assert_eq!(t.current(child), 0);
}

#[test]
fn hard_removal_returns_reservation() {
    let (mut t, root) = tree();
    let child = t.create_child(root, Kind::Hard, 400, "hard").unwrap();
    t.debit(child, 100).unwrap();
    t.credit(child, 100).unwrap();
    t.remove(child).unwrap();
    assert_eq!(t.current(root), 0, "reservation credited back");
    assert!(!t.is_alive(child));
}

#[test]
fn soft_stack_percolates_through_chain() {
    let (mut t, root) = tree();
    let a = t.create_child(root, Kind::Soft, 800, "a").unwrap();
    let b = t.create_child(a, Kind::Soft, 600, "b").unwrap();
    let c = t.create_child(b, Kind::Soft, 400, "c").unwrap();
    t.debit(c, 300).unwrap();
    assert_eq!(t.current(c), 300);
    assert_eq!(t.current(b), 300);
    assert_eq!(t.current(a), 300);
    assert_eq!(t.current(root), 300);
}

#[test]
fn hard_node_stops_percolation_mid_chain() {
    let (mut t, root) = tree();
    let hard = t.create_child(root, Kind::Hard, 500, "hard").unwrap();
    let soft = t.create_child(hard, Kind::Soft, 400, "soft").unwrap();
    t.debit(soft, 200).unwrap();
    assert_eq!(t.current(soft), 200);
    assert_eq!(t.current(hard), 200, "debit reaches the hard node itself");
    assert_eq!(
        t.current(root),
        500,
        "but not past it (only the reservation)"
    );
}

#[test]
fn siblings_share_soft_parent_budget() {
    let (mut t, root) = tree();
    let parent = t.create_child(root, Kind::Soft, 500, "p").unwrap();
    let s1 = t.create_child(parent, Kind::Soft, 500, "s1").unwrap();
    let s2 = t.create_child(parent, Kind::Soft, 500, "s2").unwrap();
    t.debit(s1, 300).unwrap();
    // s2's own cap would allow 300, but the shared parent only has 200 left.
    let err = t.debit(s2, 300).unwrap_err();
    assert_eq!(err.node, parent);
    t.debit(s2, 200).unwrap();
    assert_eq!(t.current(parent), 500);
}

#[test]
fn remove_rejects_children_and_use() {
    let (mut t, root) = tree();
    let a = t.create_child(root, Kind::Soft, 800, "a").unwrap();
    let b = t.create_child(a, Kind::Soft, 600, "b").unwrap();
    assert!(matches!(t.remove(a), Err(LimitError::HasChildren(_))));
    t.debit(b, 10).unwrap();
    assert!(matches!(t.remove(b), Err(LimitError::InUse(_, 10))));
    t.credit(b, 10).unwrap();
    t.remove(b).unwrap();
    t.remove(a).unwrap();
    assert_eq!(t.len(), 1);
}

#[test]
fn drain_and_remove_credits_ancestors() {
    let (mut t, root) = tree();
    let a = t.create_child(root, Kind::Soft, 800, "a").unwrap();
    t.debit(a, 123).unwrap();
    let drained = t.drain_and_remove(a).unwrap();
    assert_eq!(drained, 123);
    assert_eq!(t.current(root), 0);
}

#[test]
fn credit_underflow_detected() {
    let (mut t, root) = tree();
    t.debit(root, 5).unwrap();
    assert!(matches!(
        t.credit(root, 6),
        Err(LimitError::CreditUnderflow(_))
    ));
    assert_eq!(t.current(root), 5, "failed credit must not change state");
}

#[test]
fn credit_underflow_on_ancestor_is_atomic() {
    let (mut t, root) = tree();
    let a = t.create_child(root, Kind::Soft, 800, "a").unwrap();
    t.debit(a, 100).unwrap();
    // Manufacture an inconsistency the validator must catch: credit the root
    // directly so the ancestor has less than the child.
    t.credit(root, 60).unwrap();
    let err = t.credit(a, 100).unwrap_err();
    assert!(matches!(err, LimitError::CreditUnderflow(_)));
    assert_eq!(t.current(a), 100, "child untouched on ancestor underflow");
}

#[test]
fn stale_ids_are_rejected() {
    let (mut t, root) = tree();
    let a = t.create_child(root, Kind::Soft, 100, "a").unwrap();
    t.remove(a).unwrap();
    assert!(!t.is_alive(a));
    assert!(matches!(t.credit(a, 1), Err(LimitError::Dead(_))));
    // Reuse the slot; the old id must still be dead.
    let b = t.create_child(root, Kind::Soft, 100, "b").unwrap();
    assert_eq!(a.index(), b.index(), "slot reused");
    assert!(!t.is_alive(a));
    assert!(t.is_alive(b));
}

#[test]
fn available_is_min_along_path() {
    let (mut t, root) = tree();
    let a = t.create_child(root, Kind::Soft, 700, "a").unwrap();
    let b = t.create_child(a, Kind::Soft, 900, "b").unwrap();
    t.debit(root, 500).unwrap(); // root has 500 left
    assert_eq!(t.available(b), 500);
    t.debit(b, 400).unwrap();
    assert_eq!(t.available(b), 100, "root now binds at 100");
    assert_eq!(t.headroom(b), 500);
}

#[test]
fn available_stops_at_hard() {
    let (mut t, root) = tree();
    let h = t.create_child(root, Kind::Hard, 300, "h").unwrap();
    t.debit(root, 700).unwrap(); // root fully consumed
    assert_eq!(t.available(h), 300, "hard child lives off its reservation");
}

#[test]
fn set_limit_soft_only() {
    let (mut t, root) = tree();
    let s = t.create_child(root, Kind::Soft, 100, "s").unwrap();
    let h = t.create_child(root, Kind::Hard, 100, "h").unwrap();
    t.set_limit(s, 200).unwrap();
    assert_eq!(t.limit(s), 200);
    assert!(t.set_limit(h, 200).is_err());
    // Lowering below current use is allowed; further debits blocked.
    t.debit(s, 150).unwrap();
    t.set_limit(s, 100).unwrap();
    assert!(t.debit(s, 1).is_err());
    t.credit(s, 60).unwrap();
    t.debit(s, 1).unwrap();
}

#[test]
fn snapshot_reports_state() {
    let (mut t, root) = tree();
    let a = t.create_child(root, Kind::Hard, 250, "proc-a").unwrap();
    t.debit(a, 25).unwrap();
    let snap = t.snapshot(a);
    assert_eq!(snap.limit, 250);
    assert_eq!(snap.current, 25);
    assert_eq!(snap.kind, Kind::Hard);
    assert_eq!(snap.parent, Some(root));
    assert_eq!(snap.label, "proc-a");
    assert_eq!(t.snapshot_all().len(), 2);
}

#[test]
fn shared_heap_charging_pattern() {
    // The kernel charges every sharer the full size of a shared heap while
    // it holds a reference (§2, "Direct sharing"): model two sharers.
    let (mut t, root) = tree();
    let p1 = t.create_child(root, Kind::Soft, 400, "p1").unwrap();
    let p2 = t.create_child(root, Kind::Soft, 400, "p2").unwrap();
    let shared_size = 100;
    // Creator charged while populating (soft child of p1's memlimit).
    let shm = t.create_child(p1, Kind::Soft, shared_size, "shm").unwrap();
    t.debit(shm, shared_size).unwrap();
    assert_eq!(t.current(p1), 100);
    // Second sharer looks it up: charged the full amount.
    t.debit(p2, shared_size).unwrap();
    assert_eq!(t.current(p2), 100);
    // p1 exits: its charge is credited; p2 still pays in full, so no
    // asynchronous recharging is ever needed.
    t.credit(shm, shared_size).unwrap();
    assert_eq!(t.current(p1), 0);
    assert_eq!(t.current(p2), 100);
}

/// Every node's `current`, in slot order.
fn currents(t: &MemLimitTree, ids: &[crate::MemLimitId]) -> Vec<u64> {
    ids.iter().map(|&id| t.current(id)).collect()
}

/// `Charge` events the tree's trace plane has recorded.
fn charges(plane: &kaffeos_trace::Plane<kaffeos_trace::TraceBuffer>) -> usize {
    plane.read(|b| {
        b.events()
            .filter(|e| matches!(e.payload, kaffeos_trace::Payload::Charge { .. }))
            .count()
    })
}

#[test]
fn debit_failing_at_a_hard_ancestor_changes_nothing() {
    let (mut t, root) = tree();
    let plane = kaffeos_trace::Plane::new(true);
    t.set_trace(plane.clone());
    let hard = t.create_child(root, Kind::Hard, 300, "hard").unwrap();
    let mid = t.create_child(hard, Kind::Soft, 1000, "mid").unwrap();
    let leaf = t.create_child(mid, Kind::Soft, 1000, "leaf").unwrap();
    t.debit(leaf, 250).unwrap();
    let nodes = [root, hard, mid, leaf];
    let before = currents(&t, &nodes);
    let events = charges(&plane);

    let err = t.debit(leaf, 100).unwrap_err();
    assert_eq!((err.node, err.available), (hard, 50));
    assert_eq!(currents(&t, &nodes), before, "a failed debit moved a node");
    assert_eq!(charges(&plane), events, "a failed debit recorded a charge");
    t.audit().unwrap();
}

#[test]
fn debit_failing_at_the_root_over_a_soft_chain_changes_nothing() {
    let (mut t, root) = tree();
    let plane = kaffeos_trace::Plane::new(true);
    t.set_trace(plane.clone());
    let other = t.create_child(root, Kind::Soft, 1000, "other").unwrap();
    let a = t.create_child(root, Kind::Soft, 1000, "a").unwrap();
    let b = t.create_child(a, Kind::Soft, 1000, "b").unwrap();
    let c = t.create_child(b, Kind::Soft, 1000, "c").unwrap();
    t.debit(other, 900).unwrap();
    t.debit(c, 50).unwrap();
    let nodes = [root, other, a, b, c];
    let before = currents(&t, &nodes);
    let events = charges(&plane);

    let err = t.debit(c, 100).unwrap_err();
    assert_eq!((err.node, err.available), (root, 50));
    assert_eq!(currents(&t, &nodes), before, "a failed debit moved a node");
    assert_eq!(charges(&plane), events, "a failed debit recorded a charge");
    t.audit().unwrap();
}
