//! Unit tests: region lattice, verdicts, lints, and never-panic bail-out.

use crate::{analyze, EscapeClass, LintKind, Region, Verdict};
use kaffeos_vm::{
    ClassBuilder, ClassDef, ClassTable, Code, Const, IntrinsicRegistry, MethodBuilder, MethodIdx,
    Op, TypeDesc,
};
use std::sync::Arc;

/// A loaded method's code, made writable: its class's linked definition
/// and class text are copied first when shared.
fn code_mut(table: &mut ClassTable, m: MethodIdx) -> &mut Code {
    let rt = table.method(m);
    let (class, slot) = (rt.class.0 as usize, rt.slot as usize);
    let link = Arc::make_mut(&mut table.classes[class].link);
    &mut Arc::make_mut(&mut link.def).methods[slot].code
}

fn obj() -> TypeDesc {
    TypeDesc::Class("Object".to_string())
}

/// Loads the minimal guest stdlib plus the given classes into one table.
fn table_with(registry: IntrinsicRegistry, defs: Vec<ClassDef>) -> (ClassTable, u32) {
    let mut table = ClassTable::new(registry);
    let ns = table.create_namespace("t", None);
    let base = [
        ClassBuilder::root("Object").build(),
        ClassBuilder::new("String").build(),
        ClassBuilder::new("Exception").field("msg", TypeDesc::Str).build(),
    ];
    for def in base.into_iter().chain(defs) {
        table.load_class(ns, def.into_arc()).unwrap();
    }
    (table, ns)
}

/// Whether any store site of `m` got the `Elide` verdict.
fn elides_any(an: &crate::Analysis, m: kaffeos_vm::MethodIdx) -> bool {
    an.sites().any(|s| s.method == m && s.verdict == Verdict::Elide)
}

#[test]
fn join_is_a_lattice() {
    use Region::*;
    for r in [Local, KernelConst, SharedFrozen, MayCross, Top] {
        assert_eq!(r.join(r), r);
        assert_eq!(r.join(Top), Top);
        assert_eq!(Top.join(r), Top);
    }
    assert_eq!(Local.join(SharedFrozen), MayCross);
    assert_eq!(SharedFrozen.join(KernelConst), MayCross);
    assert_eq!(Local.join(MayCross), MayCross);
}

#[test]
fn local_into_local_store_is_elided() {
    let mut b = ClassBuilder::new("A").field("f", obj());
    let a = b.pool(Const::Class("A".to_string()));
    let o = b.pool(Const::Class("Object".to_string()));
    let f = b.pool(Const::Field {
        class: "A".to_string(),
        name: "f".to_string(),
    });
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .ops([Op::New(a), Op::New(o), Op::PutField(f), Op::Return])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    let an = analyze(&table);
    assert_eq!(an.site(m, 2).expect("store site").verdict, Verdict::Elide);
    assert_eq!(an.elision_counts(), (1, 1));
    assert!(an.lints.is_empty(), "nothing to lint: {:?}", an.lints);
    // The collect pass reuses the fixpoint's last states: every pass
    // interprets each method exactly once, and nothing else interprets.
    assert_eq!(an.counts.0, an.counts.1 * table.methods.len());
}

#[test]
fn parameter_store_is_not_elided() {
    let mut b = ClassBuilder::new("A").field("f", obj());
    let a = b.pool(Const::Class("A".to_string()));
    let f = b.pool(Const::Field {
        class: "A".to_string(),
        name: "f".to_string(),
    });
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .param(obj())
                .ops([Op::New(a), Op::Load(0), Op::PutField(f), Op::Return])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    let an = analyze(&table);
    let site = an.site(m, 2).expect("store site");
    assert_eq!(site.verdict, Verdict::Unknown);
    assert_eq!(site.val, Region::MayCross);
    assert!(!elides_any(&an, m));
}

#[test]
fn static_call_summary_keeps_store_elidable() {
    let mut b = ClassBuilder::new("A").field("f", obj());
    let a = b.pool(Const::Class("A".to_string()));
    let o = b.pool(Const::Class("Object".to_string()));
    let f = b.pool(Const::Field {
        class: "A".to_string(),
        name: "f".to_string(),
    });
    let mk = b.pool(Const::Method {
        class: "A".to_string(),
        name: "mk".to_string(),
    });
    let def = b
        .method(
            MethodBuilder::of_static("mk")
                .returns(obj())
                .ops([Op::New(o), Op::ReturnVal])
                .build(),
        )
        .method(
            MethodBuilder::of_static("main")
                .ops([Op::New(a), Op::CallStatic(mk), Op::PutField(f), Op::Return])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let main = table.find_method(cls, "main").unwrap();

    let an = analyze(&table);
    // `mk` provably returns a fresh local allocation, so the stored value
    // is Local and the barrier is elidable.
    assert_eq!(an.site(main, 2).expect("store site").verdict, Verdict::Elide);
}

/// Builds the virtual-call fixture: `A.get` returns its receiver
/// (`MayCross` summary), `A.main` stores a fresh object into the call's
/// result. Optional extra defs (e.g. an override) load after `A`.
fn virtual_fixture(extra: Vec<ClassDef>) -> (ClassTable, u32) {
    table_with(
        IntrinsicRegistry::new(),
        std::iter::once(class_a()).chain(extra).collect(),
    )
}

/// The fixture's class `A`.
fn class_a() -> ClassDef {
    let mut b = ClassBuilder::new("A").field("f", obj());
    let a = b.pool(Const::Class("A".to_string()));
    let o = b.pool(Const::Class("Object".to_string()));
    let f = b.pool(Const::Field {
        class: "A".to_string(),
        name: "f".to_string(),
    });
    let get = b.pool(Const::Method {
        class: "A".to_string(),
        name: "get".to_string(),
    });
    b.method(
        MethodBuilder::instance("get")
            .returns(TypeDesc::Class("A".to_string()))
            .ops([Op::Load(0), Op::ReturnVal])
            .build(),
    )
    .method(
        MethodBuilder::of_static("main")
            .ops([
                Op::New(a),
                Op::CallVirtual(get),
                Op::New(o),
                Op::PutField(f),
                Op::Return,
            ])
            .build(),
    )
    .build()
}

#[test]
fn monomorphic_virtual_call_is_sharpened() {
    let (table, ns) = virtual_fixture(Vec::new());
    let cls = table.lookup(ns, "A").unwrap();
    let main = table.find_method(cls, "main").unwrap();

    let an = analyze(&table);
    // With no loaded override, CHA proves the only reachable target is
    // `A.get`, whose summary is MayCross (it returns its receiver) — not
    // the old blanket Top, so the site no longer lints.
    let site = an.site(main, 3).expect("store site");
    assert_eq!(site.recv, Region::MayCross);
    assert_eq!(site.verdict, Verdict::Unknown);
    assert!(
        !an.lints.iter().any(|l| l.kind == LintKind::SegViolationCandidate),
        "sharpened site must not lint: {:?}",
        an.lints
    );
    assert_eq!(an.devirt_counts(), (1, 0));
}

#[test]
fn loaded_override_makes_the_site_polymorphic() {
    let sub = ClassBuilder::new("B")
        .extends("A")
        .method(
            MethodBuilder::instance("get")
                .returns(TypeDesc::Class("A".to_string()))
                .ops([Op::Load(0), Op::ReturnVal])
                .build(),
        )
        .build();
    let (table, ns) = virtual_fixture(vec![sub]);
    let cls = table.lookup(ns, "A").unwrap();
    let main = table.find_method(cls, "main").unwrap();

    let an = analyze(&table);
    // Two reachable targets: the summaries still join (MayCross here),
    // but the site is no longer monomorphic.
    let site = an.site(main, 3).expect("store site");
    assert_eq!(site.recv, Region::MayCross);
    assert_eq!(an.devirt_counts(), (0, 1));
}

#[test]
fn shm_get_result_is_frozen_and_write_is_linted() {
    let mut r = IntrinsicRegistry::new();
    r.register("shm.get", vec![TypeDesc::Str, TypeDesc::Int], Some(obj()));
    let mut b = ClassBuilder::new("A").field("f", obj());
    let s = b.pool(Const::Str("buf".to_string()));
    let shm = b.pool(Const::Intrinsic("shm.get".to_string()));
    let a = b.pool(Const::Class("A".to_string()));
    let o = b.pool(Const::Class("Object".to_string()));
    let f = b.pool(Const::Field {
        class: "A".to_string(),
        name: "f".to_string(),
    });
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .ops([
                    Op::ConstStr(s),
                    Op::ConstInt(0),
                    Op::Syscall(shm),
                    Op::CheckCast(a),
                    Op::New(o),
                    Op::PutField(f),
                    Op::Return,
                ])
                .build(),
        )
        .build();
    let (table, ns) = table_with(r, vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    let an = analyze(&table);
    let site = an.site(m, 5).expect("store site");
    assert_eq!(site.recv, Region::SharedFrozen, "CheckCast keeps the region");
    assert_eq!(site.verdict, Verdict::FrozenWrite);
    assert!(an
        .lints
        .iter()
        .any(|l| l.kind == LintKind::WriteAfterFreeze && l.pc == 5 && l.method == "m"));
}

#[test]
fn field_summary_flows_between_methods_regardless_of_order() {
    let mut b = ClassBuilder::new("A").field("f", obj());
    let a = b.pool(Const::Class("A".to_string()));
    let f = b.pool(Const::Field {
        class: "A".to_string(),
        name: "f".to_string(),
    });
    // `read` comes first so a single pass would see the field as still
    // Local; the fixpoint must circle back after `taint` raises it.
    let def = b
        .method(
            MethodBuilder::of_static("read")
                .ops([
                    Op::New(a),
                    Op::New(a),
                    Op::GetField(f),
                    Op::PutField(f),
                    Op::Return,
                ])
                .build(),
        )
        .method(
            MethodBuilder::of_static("taint")
                .param(obj())
                .ops([Op::New(a), Op::Load(0), Op::PutField(f), Op::Return])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let read = table.find_method(cls, "read").unwrap();

    let an = analyze(&table);
    let site = an.site(read, 3).expect("store site");
    assert_eq!(site.val, Region::MayCross, "field summary must taint reads");
    assert_eq!(site.verdict, Verdict::Unknown);
}

#[test]
fn unreachable_code_is_linted_but_implicit_tail_return_is_not() {
    let def = ClassBuilder::new("A")
        .method(
            MethodBuilder::of_static("m")
                .ops([Op::Return, Op::ConstInt(1), Op::Pop, Op::Return])
                .build(),
        )
        .build();
    let (table, _) = table_with(IntrinsicRegistry::new(), vec![def]);

    let an = analyze(&table);
    let dead: Vec<_> = an
        .lints
        .iter()
        .filter(|l| l.kind == LintKind::UnreachableCode)
        .collect();
    assert_eq!(dead.len(), 1, "{:?}", an.lints);
    assert_eq!(dead[0].pc, 1);
    assert!(dead[0].msg.contains("1..3"), "{}", dead[0].msg);
}

#[test]
fn allocating_loop_without_calls_is_linted() {
    let mut b = ClassBuilder::new("A");
    let a = b.pool(Const::Class("A".to_string()));
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .locals(1)
                .ops([
                    Op::ConstInt(10),
                    Op::Store(0),
                    Op::New(a), // loop body start (pc 2)
                    Op::Pop,
                    Op::Load(0),
                    Op::ConstInt(1),
                    Op::Sub,
                    Op::Dup,
                    Op::Store(0),
                    Op::JumpIfTrue(2),
                    Op::Return,
                ])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    let an = analyze(&table);
    assert!(!an.is_bailed(m));
    assert!(an
        .lints
        .iter()
        .any(|l| l.kind == LintKind::AllocInLoopNoSafepoint && l.pc == 2));
}

#[test]
fn join_laws_hold_exhaustively() {
    use Region::*;
    const ALL: [Region; 5] = [Local, KernelConst, SharedFrozen, MayCross, Top];
    for a in ALL {
        assert_eq!(a.join(a), a, "idempotence: {a:?}");
        assert_eq!(a.join(Top), Top, "Top absorbs: {a:?}");
        for b in ALL {
            assert_eq!(a.join(b), b.join(a), "commutativity: {a:?} {b:?}");
            for c in ALL {
                assert_eq!(
                    a.join(b).join(c),
                    a.join(b.join(c)),
                    "associativity: {a:?} {b:?} {c:?}"
                );
            }
        }
    }
    // The escape domain escalates with `max`, so its order is the law.
    assert!(EscapeClass::FrameLocal < EscapeClass::ProcessLocal);
    assert!(EscapeClass::ProcessLocal < EscapeClass::MayCross);
}

#[test]
fn cyclic_hierarchy_defeats_cha_without_hanging() {
    let sub = ClassBuilder::new("B")
        .extends("A")
        .method(
            MethodBuilder::instance("get")
                .returns(TypeDesc::Class("A".to_string()))
                .ops([Op::Load(0), Op::ReturnVal])
                .build(),
        )
        .build();
    let (mut table, ns) = virtual_fixture(vec![sub]);
    let b_cls = table.lookup(ns, "B").unwrap();
    // Corrupt the chain into a cycle: B's superclass is B itself. The
    // bounded subclass walk must bail (not spin), and CHA must treat the
    // site as unsharpenable rather than guess a target set.
    table.classes[b_cls.0 as usize].super_idx = Some(b_cls);

    let an = analyze(&table);
    let (mono, _poly) = an.devirt_counts();
    assert_eq!(mono, 0, "cyclic chain must not count as monomorphic");
}

#[test]
fn monitor_on_unescaping_receiver_keeps_it_frame_local() {
    let mut b = ClassBuilder::new("A");
    let o = b.pool(Const::Class("Object".to_string()));
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .locals(1)
                .ops([
                    Op::New(o),
                    Op::Store(0),
                    Op::Load(0),
                    Op::MonitorEnter,
                    Op::Load(0),
                    Op::MonitorExit,
                    Op::Return,
                ])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    let an = analyze(&table);
    assert_eq!(an.escape_class(m, 0), Some(EscapeClass::FrameLocal));
}

#[test]
fn monitor_on_returned_receiver_may_cross() {
    let mut b = ClassBuilder::new("A");
    let o = b.pool(Const::Class("Object".to_string()));
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .returns(obj())
                .locals(1)
                .ops([
                    Op::New(o),
                    Op::Store(0),
                    Op::Load(0),
                    Op::MonitorEnter,
                    Op::Load(0),
                    Op::MonitorExit,
                    Op::Load(0),
                    Op::ReturnVal,
                ])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    let an = analyze(&table);
    // The receiver is returned, so it may outlive the frame.
    assert_eq!(an.escape_class(m, 0), Some(EscapeClass::MayCross));
}

#[test]
fn loop_allocated_receiver_stays_frame_local_across_back_edge() {
    // Regression for the merge rule: the loop-head merge sees the
    // pre-loop `None` against the back edge's fresh site. Since every
    // tracked occurrence dies in that merge, the site must be silently
    // forgotten — not killed.
    let mut b = ClassBuilder::new("A");
    let o = b.pool(Const::Class("Object".to_string()));
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .locals(2)
                .ops([
                    Op::ConstInt(10),
                    Op::Store(0),
                    Op::New(o), // pc 2: loop head, fresh lock each iteration
                    Op::Store(1),
                    Op::Load(1),
                    Op::MonitorEnter,
                    Op::Load(1),
                    Op::MonitorExit,
                    Op::Load(0),
                    Op::ConstInt(1),
                    Op::Sub,
                    Op::Dup,
                    Op::Store(0),
                    Op::JumpIfTrue(2),
                    Op::Return,
                ])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    let an = analyze(&table);
    assert_eq!(an.escape_class(m, 2), Some(EscapeClass::FrameLocal));
}

#[test]
fn parameter_store_into_fresh_receiver_is_not_elided() {
    let mut b = ClassBuilder::new("A").field("f", obj());
    let a = b.pool(Const::Class("A".to_string()));
    let f = b.pool(Const::Field {
        class: "A".to_string(),
        name: "f".to_string(),
    });
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .param(obj())
                .ops([Op::New(a), Op::Load(0), Op::PutField(f), Op::Return])
                .build(),
        )
        .build();
    let (table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    let an = analyze(&table);
    // A fresh receiver is Local, but the value is a parameter (region
    // MayCross): the store is not proven Local → Local.
    assert!(!elides_any(&an, m));
}

/// Two locks, two methods, opposite acquisition orders.
fn deadlock_fixture() -> (ClassTable, u32) {
    table_with(IntrinsicRegistry::new(), deadlock_defs())
}

/// The classes of [`deadlock_fixture`]: `LockA`, `LockB`, and `A` with
/// `ab` / `ba`.
fn deadlock_defs() -> Vec<ClassDef> {
    let mut b = ClassBuilder::new("A");
    let la = b.pool(Const::Class("LockA".to_string()));
    let lb = b.pool(Const::Class("LockB".to_string()));
    let nest = |outer, inner| {
        MethodBuilder::of_static(if outer == la { "ab" } else { "ba" })
            .locals(2)
            .ops([
                Op::New(outer),
                Op::Store(0),
                Op::Load(0),
                Op::MonitorEnter,
                Op::New(inner),
                Op::Store(1),
                Op::Load(1),
                Op::MonitorEnter,
                Op::Load(1),
                Op::MonitorExit,
                Op::Load(0),
                Op::MonitorExit,
                Op::Return,
            ])
            .build()
    };
    let def = b.method(nest(la, lb)).method(nest(lb, la)).build();
    vec![
        ClassBuilder::new("LockA").build(),
        ClassBuilder::new("LockB").build(),
        def,
    ]
}

#[test]
fn opposite_lock_orders_are_linted_as_deadlock_candidates() {
    let (table, _) = deadlock_fixture();
    let an = analyze(&table);
    let deadlocks: Vec<_> = an
        .lints
        .iter()
        .filter(|l| l.kind == LintKind::DeadlockCandidate)
        .collect();
    assert_eq!(deadlocks.len(), 2, "both edges of the cycle lint: {:?}", an.lints);
    assert!(deadlocks.iter().any(|l| l.msg.contains("LockA -> LockB")));
    assert!(deadlocks.iter().any(|l| l.msg.contains("LockB -> LockA")));
}

#[test]
fn nested_same_class_locks_do_not_lint() {
    let mut b = ClassBuilder::new("A");
    let la = b.pool(Const::Class("LockA".to_string()));
    let def = b
        .method(
            MethodBuilder::of_static("aa")
                .locals(2)
                .ops([
                    Op::New(la),
                    Op::Store(0),
                    Op::Load(0),
                    Op::MonitorEnter,
                    Op::New(la),
                    Op::Store(1),
                    Op::Load(1),
                    Op::MonitorEnter,
                    Op::Load(1),
                    Op::MonitorExit,
                    Op::Load(0),
                    Op::MonitorExit,
                    Op::Return,
                ])
                .build(),
        )
        .build();
    let (table, _) = table_with(
        IntrinsicRegistry::new(),
        vec![ClassBuilder::new("LockA").build(), def],
    );
    let an = analyze(&table);
    // Re-entrant same-class nesting is routine; self-edges are excluded.
    assert!(
        !an.lints.iter().any(|l| l.kind == LintKind::DeadlockCandidate),
        "{:?}",
        an.lints
    );
}

#[test]
fn syscall_under_lock_is_linted() {
    let mut r = IntrinsicRegistry::new();
    r.register("sched.yield", vec![], None);
    let mut b = ClassBuilder::new("A");
    let la = b.pool(Const::Class("LockA".to_string()));
    let y = b.pool(Const::Intrinsic("sched.yield".to_string()));
    let def = b
        .method(
            MethodBuilder::of_static("m")
                .locals(1)
                .ops([
                    Op::New(la),
                    Op::Store(0),
                    Op::Load(0),
                    Op::MonitorEnter,
                    Op::Syscall(y),
                    Op::Load(0),
                    Op::MonitorExit,
                    Op::Return,
                ])
                .build(),
        )
        .build();
    let (table, _) = table_with(r, vec![ClassBuilder::new("LockA").build(), def]);
    let an = analyze(&table);
    let lint = an
        .lints
        .iter()
        .find(|l| l.kind == LintKind::LockHeldAcrossSyscall)
        .unwrap_or_else(|| panic!("expected lock-held-across-syscall: {:?}", an.lints));
    assert_eq!(lint.pc, 4);
    assert!(lint.msg.contains("sched.yield"), "{}", lint.msg);
    assert!(lint.msg.contains("LockA"), "{}", lint.msg);
}

#[test]
fn analyzer_bails_but_never_panics_on_mangled_bytecode() {
    let def = ClassBuilder::new("A")
        .method(MethodBuilder::of_static("m").op(Op::Return).build())
        .build();
    let (mut table, ns) = table_with(IntrinsicRegistry::new(), vec![def]);
    let cls = table.lookup(ns, "A").unwrap();
    let m = table.find_method(cls, "m").unwrap();

    for bad in [
        vec![Op::Pop, Op::Return],            // stack underflow
        vec![Op::Jump(1000)],                 // jump out of range
        vec![Op::Load(9), Op::Return],        // local out of range
        vec![Op::PutField(77), Op::Return],   // pool index out of range
        vec![Op::Dup, Op::Return],            // dup on empty stack
    ] {
        code_mut(&mut table, m).ops = bad.into();
        let an = analyze(&table);
        assert!(an.is_bailed(m), "mangled method must bail");
        assert!(!elides_any(&an, m));
    }
}
