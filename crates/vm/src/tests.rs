use kaffeos_heap::FxHashMap;
use std::sync::Arc;

use kaffeos_heap::{HeapSpace, SpaceConfig, Value};
use kaffeos_memlimit::Kind;

use crate::bytecode::{Const, Op, TypeDesc};
use crate::classes::{ClassIdx, ClassTable};
use crate::classfile::{ClassBuilder, ClassDef, MethodBuilder};
use crate::engine::Engine;
use crate::interp::{step, ExecCtx, RunExit, Thread, ThreadState, VmException};
use crate::intrinsics::IntrinsicRegistry;
use crate::{BuiltinEx, VmError};

/// Minimal guest "standard library" for tests: the root class, String, and
/// the builtin exception hierarchy.
fn base_classes() -> Vec<ClassDef> {
    let object = ClassBuilder::root("Object").build();
    let string = ClassBuilder::new("String").build();
    let exception = ClassBuilder::new("Exception")
        .field("msg", TypeDesc::Str)
        .build();
    let mut out = vec![object, string, exception];
    for name in [
        "NullPointerException",
        "IndexOutOfBoundsException",
        "ArithmeticException",
        "ClassCastException",
        "SegmentationViolation",
        "OutOfMemoryError",
        "StackOverflowError",
        "IllegalStateException",
    ] {
        out.push(
            ClassBuilder::new(name)
                .extends("Exception")
                .field("msg", TypeDesc::Str)
                .build(),
        );
    }
    out
}

struct TestVm {
    space: HeapSpace,
    table: ClassTable,
    ns: u32,
    heap: kaffeos_heap::HeapId,
    string_class: ClassIdx,
    statics: FxHashMap<ClassIdx, kaffeos_heap::ObjRef>,
    intern: FxHashMap<String, kaffeos_heap::ObjRef>,
    monitors: FxHashMap<kaffeos_heap::ObjRef, (u32, u32)>,
    next_thread: u32,
}

impl TestVm {
    fn new() -> Self {
        Self::with_registry(IntrinsicRegistry::new())
    }

    fn with_registry(registry: IntrinsicRegistry) -> Self {
        Self::with_engine(registry, Engine::KAFFEOS)
    }

    fn with_engine(registry: IntrinsicRegistry, engine: Engine) -> Self {
        let mut space = HeapSpace::new(SpaceConfig::default());
        let root = space.root_memlimit();
        let ml = space
            .limits_mut()
            .create_child(root, Kind::Soft, 16 << 20, "test-proc")
            .unwrap();
        let heap = space.create_user_heap(kaffeos_heap::ProcTag(1), ml, "test-heap");
        let mut table = ClassTable::with_engine(registry, engine);
        let ns = table.create_namespace("test", None);
        for def in base_classes() {
            table.load_class(ns, def.into_arc()).unwrap();
        }
        let string_class = table.lookup(ns, "String").unwrap();
        TestVm {
            space,
            table,
            ns,
            heap,
            string_class,
            statics: FxHashMap::default(),
            intern: FxHashMap::default(),
            monitors: FxHashMap::default(),
            next_thread: 1,
        }
    }

    fn load(&mut self, def: ClassDef) -> Result<ClassIdx, VmError> {
        self.table.load_class(self.ns, def.into_arc())
    }

    fn ctx(&mut self) -> ExecCtx<'_> {
        ExecCtx {
            space: &mut self.space,
            table: &self.table,
            ns: self.ns,
            heap: self.heap,
            trusted: false,
            statics: &mut self.statics,
            intern: &mut self.intern,
            string_class: self.string_class,
            monitors: &mut self.monitors,
            extra_roots: &[],
            extra_scan_slots: 0,
            gc_every_safepoint: false,
        }
    }

    fn spawn(&mut self, class: &str, method: &str, args: Vec<Value>) -> Thread {
        let cidx = self.table.lookup(self.ns, class).unwrap();
        let midx = self.table.find_method(cidx, method).unwrap();
        let id = self.next_thread;
        self.next_thread += 1;
        Thread::new(id, &self.table, midx, args)
    }

    /// Runs a static method to completion (panics on syscalls/preemption).
    fn run(&mut self, class: &str, method: &str, args: Vec<Value>) -> RunExit {
        let mut thread = self.spawn(class, method, args);
        let mut ctx = self.ctx();
        step(&mut thread, &mut ctx, u64::MAX)
    }

    /// The fuel-split oracle: runs `class.method(args)` from two fresh
    /// threads up to their first stop at or past `SPLIT_FUEL` cycles — in
    /// one `step`, where blocks run fused, and one op per `step` (fuel 1),
    /// where every block runs plain — and asserts both charge the same
    /// cycles and ops. Returns both exits, fused first.
    fn run_split(&mut self, class: &str, method: &str, args: Vec<Value>) -> (RunExit, RunExit) {
        let mut fused = self.spawn(class, method, args.clone());
        let exit = step(&mut fused, &mut self.ctx(), SPLIT_FUEL);
        let mut plain = self.spawn(class, method, args);
        let split = loop {
            match step(&mut plain, &mut self.ctx(), 1) {
                RunExit::Preempted if plain.cycles < SPLIT_FUEL => {}
                other => break other,
            }
        };
        assert_eq!(
            (plain.cycles, plain.ops),
            (fused.cycles, fused.ops),
            "{class}.{method}: one op per step charged differently"
        );
        (exit, split)
    }

    fn run_int(&mut self, class: &str, method: &str, args: Vec<Value>) -> i64 {
        match self.run(class, method, args) {
            RunExit::Finished(Some(Value::Int(v))) => v,
            other => panic!("expected int result, got {other:?}"),
        }
    }

    fn unhandled_class(&mut self, class: &str, method: &str, args: Vec<Value>) -> String {
        match self.run(class, method, args) {
            RunExit::Unhandled(VmException::Guest(obj)) => {
                let cidx = self
                    .table
                    .from_heap_class(self.space.class_of(obj).unwrap());
                self.table.class(cidx).name().to_string()
            }
            other => panic!("expected unhandled guest exception, got {other:?}"),
        }
    }
}

/// Builds a class `Main` holding one static method `main`.
/// Cycles a fuel-split run may take before it stops preempted.
const SPLIT_FUEL: u64 = 50_000_000;

fn main_class(m: MethodBuilder) -> ClassDef {
    ClassBuilder::new("Main").method(m.build()).build()
}

mod basics {
    use super::*;

    #[test]
    fn constants_and_arithmetic() {
        let mut vm = TestVm::new();
        vm.load(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops([
                    Op::ConstInt(6),
                    Op::ConstInt(7),
                    Op::Mul,
                    Op::ConstInt(2),
                    Op::Add,
                    Op::ReturnVal,
                ]),
        ))
        .unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 44);
    }

    #[test]
    fn loop_sums_one_to_n() {
        let mut vm = TestVm::new();
        // locals: 0 = n (param), 1 = i, 2 = acc
        vm.load(main_class(
            MethodBuilder::of_static("main")
                .param(TypeDesc::Int)
                .returns(TypeDesc::Int)
                .locals(2)
                .ops([
                    /* 0*/ Op::ConstInt(0),
                    /* 1*/ Op::Store(1),
                    /* 2*/ Op::ConstInt(0),
                    /* 3*/ Op::Store(2),
                    /* 4*/ Op::Load(1),
                    /* 5*/ Op::Load(0),
                    /* 6*/ Op::CmpLt,
                    /* 7*/ Op::JumpIfFalse(17),
                    /* 8*/ Op::Load(2),
                    /* 9*/ Op::Load(1),
                    /*10*/ Op::Add,
                    /*11*/ Op::Store(2),
                    /*12*/ Op::Load(1),
                    /*13*/ Op::ConstInt(1),
                    /*14*/ Op::Add,
                    /*15*/ Op::Store(1),
                    /*16*/ Op::Jump(4),
                    /*17*/ Op::Load(2),
                    /*18*/ Op::ReturnVal,
                ]),
        ))
        .unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![Value::Int(10)]), 45);
        assert_eq!(vm.run_int("Main", "main", vec![Value::Int(100)]), 4950);
    }

    #[test]
    fn division_by_zero_raises() {
        let mut vm = TestVm::new();
        vm.load(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops([Op::ConstInt(1), Op::ConstInt(0), Op::Div, Op::ReturnVal]),
        ))
        .unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "ArithmeticException"
        );
    }

    #[test]
    fn float_arithmetic_and_conversion() {
        let mut vm = TestVm::new();
        vm.load(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops([
                    Op::ConstFloat(2.5),
                    Op::ConstFloat(4.0),
                    Op::FMul, // 10.0
                    Op::ConstInt(3),
                    Op::I2F,
                    Op::FAdd, // 13.0
                    Op::F2I,
                    Op::ReturnVal,
                ]),
        ))
        .unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 13);
    }

    #[test]
    fn static_calls_and_recursion() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let fact_ref = b.pool(Const::Method {
            class: "Main".to_string(),
            name: "fact".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("fact")
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::Load(0),
                        Op::ConstInt(1),
                        Op::CmpLe,
                        Op::JumpIfFalse(6),
                        Op::ConstInt(1),
                        Op::ReturnVal,
                        Op::Load(0),
                        Op::Load(0),
                        Op::ConstInt(1),
                        Op::Sub,
                        Op::CallStatic(fact_ref),
                        Op::Mul,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([Op::ConstInt(10), Op::CallStatic(fact_ref), Op::ReturnVal])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 3628800);
    }

    #[test]
    fn unbounded_recursion_overflows() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let rec = b.pool(Const::Method {
            class: "Main".to_string(),
            name: "rec".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("rec")
                    .ops([Op::CallStatic(rec), Op::Return])
                    .build(),
            )
            .method(
                MethodBuilder::of_static("main")
                    .ops([Op::CallStatic(rec), Op::Return])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "StackOverflowError"
        );
    }
}

mod objects {
    use super::*;

    /// Point class with x/y fields, a constructor-style init method, and a
    /// virtual `dist2`.
    fn point_class() -> ClassDef {
        let mut b = ClassBuilder::new("Point")
            .field("x", TypeDesc::Int)
            .field("y", TypeDesc::Int);
        let fx = b.pool(Const::Field {
            class: "Point".to_string(),
            name: "x".to_string(),
        });
        let fy = b.pool(Const::Field {
            class: "Point".to_string(),
            name: "y".to_string(),
        });
        b.method(
            MethodBuilder::instance("init")
                .param(TypeDesc::Int)
                .param(TypeDesc::Int)
                .ops([
                    Op::Load(0),
                    Op::Load(1),
                    Op::PutField(fx),
                    Op::Load(0),
                    Op::Load(2),
                    Op::PutField(fy),
                    Op::Return,
                ])
                .build(),
        )
        .method(
            MethodBuilder::instance("dist2")
                .returns(TypeDesc::Int)
                .ops([
                    Op::Load(0),
                    Op::GetField(fx),
                    Op::Load(0),
                    Op::GetField(fx),
                    Op::Mul,
                    Op::Load(0),
                    Op::GetField(fy),
                    Op::Load(0),
                    Op::GetField(fy),
                    Op::Mul,
                    Op::Add,
                    Op::ReturnVal,
                ])
                .build(),
        )
        .build()
    }

    #[test]
    fn fields_and_virtual_calls() {
        let mut vm = TestVm::new();
        vm.load(point_class()).unwrap();
        let mut b = ClassBuilder::new("Main");
        let point_cls = b.pool(Const::Class("Point".to_string()));
        let init = b.pool(Const::Method {
            class: "Point".to_string(),
            name: "init".to_string(),
        });
        let dist2 = b.pool(Const::Method {
            class: "Point".to_string(),
            name: "dist2".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .locals(1)
                    .ops([
                        Op::New(point_cls),
                        Op::Store(0),
                        Op::Load(0),
                        Op::ConstInt(3),
                        Op::ConstInt(4),
                        Op::CallVirtual(init),
                        Op::Load(0),
                        Op::CallVirtual(dist2),
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 25);
    }

    #[test]
    fn overriding_dispatches_dynamically() {
        let mut vm = TestVm::new();
        vm.load(
            ClassBuilder::new("Base")
                .method(
                    MethodBuilder::instance("speak")
                        .returns(TypeDesc::Int)
                        .ops([Op::ConstInt(1), Op::ReturnVal])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        vm.load(
            ClassBuilder::new("Derived")
                .extends("Base")
                .method(
                    MethodBuilder::instance("speak")
                        .returns(TypeDesc::Int)
                        .ops([Op::ConstInt(2), Op::ReturnVal])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        let mut b = ClassBuilder::new("Main");
        let derived_cls = b.pool(Const::Class("Derived".to_string()));
        let speak_on_base = b.pool(Const::Method {
            class: "Base".to_string(),
            name: "speak".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        // Static type Base, dynamic type Derived.
                        Op::New(derived_cls),
                        Op::CallVirtual(speak_on_base),
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 2, "dynamic dispatch");
    }

    #[test]
    fn call_special_ignores_override() {
        let mut vm = TestVm::new();
        vm.load(
            ClassBuilder::new("Base")
                .method(
                    MethodBuilder::instance("speak")
                        .returns(TypeDesc::Int)
                        .ops([Op::ConstInt(1), Op::ReturnVal])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        vm.load(
            ClassBuilder::new("Derived")
                .extends("Base")
                .method(
                    MethodBuilder::instance("speak")
                        .returns(TypeDesc::Int)
                        .ops([Op::ConstInt(2), Op::ReturnVal])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        let mut b = ClassBuilder::new("Main");
        let derived_cls = b.pool(Const::Class("Derived".to_string()));
        let speak_on_base = b.pool(Const::Method {
            class: "Base".to_string(),
            name: "speak".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::New(derived_cls),
                        Op::CallSpecial(speak_on_base),
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 1, "super-style call");
    }

    #[test]
    fn null_field_access_raises_npe() {
        let mut vm = TestVm::new();
        vm.load(point_class()).unwrap();
        let mut b = ClassBuilder::new("Main");
        let fx = b.pool(Const::Field {
            class: "Point".to_string(),
            name: "x".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .locals(1)
                    .ops([
                        Op::ConstNull,
                        Op::Store(0),
                        Op::Load(0),
                        Op::GetField(fx),
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "NullPointerException"
        );
    }

    #[test]
    fn inherited_fields_share_layout() {
        let mut vm = TestVm::new();
        vm.load(ClassBuilder::new("Base").field("a", TypeDesc::Int).build())
            .unwrap();
        let mut b = ClassBuilder::new("Derived");
        let fa = b.pool(Const::Field {
            class: "Derived".to_string(),
            name: "a".to_string(),
        });
        let fb = b.pool(Const::Field {
            class: "Derived".to_string(),
            name: "b".to_string(),
        });
        let derived = b
            .extends("Base")
            .field("b", TypeDesc::Int)
            .method(
                MethodBuilder::instance("sum")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::Load(0),
                        Op::ConstInt(5),
                        Op::PutField(fa),
                        Op::Load(0),
                        Op::ConstInt(7),
                        Op::PutField(fb),
                        Op::Load(0),
                        Op::GetField(fa),
                        Op::Load(0),
                        Op::GetField(fb),
                        Op::Add,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(derived).unwrap();
        let mut b = ClassBuilder::new("Main");
        let derived_cls = b.pool(Const::Class("Derived".to_string()));
        let sum = b.pool(Const::Method {
            class: "Derived".to_string(),
            name: "sum".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([Op::New(derived_cls), Op::CallVirtual(sum), Op::ReturnVal])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 12);
    }

    #[test]
    fn instanceof_and_checkcast() {
        let mut vm = TestVm::new();
        vm.load(ClassBuilder::new("A").build()).unwrap();
        vm.load(ClassBuilder::new("B").extends("A").build())
            .unwrap();
        let mut b = ClassBuilder::new("Main");
        let a_cls = b.pool(Const::Class("A".to_string()));
        let b_cls = b.pool(Const::Class("B".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::New(b_cls),
                        Op::InstanceOf(a_cls), // 1
                        Op::New(a_cls),
                        Op::InstanceOf(b_cls), // 0
                        Op::ConstInt(10),
                        Op::Mul,
                        Op::Add,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 1);
    }

    #[test]
    fn failed_checkcast_raises() {
        let mut vm = TestVm::new();
        vm.load(ClassBuilder::new("A").build()).unwrap();
        vm.load(ClassBuilder::new("B").extends("A").build())
            .unwrap();
        let mut b = ClassBuilder::new("Main");
        let a_cls = b.pool(Const::Class("A".to_string()));
        let b_cls = b.pool(Const::Class("B".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .ops([Op::New(a_cls), Op::CheckCast(b_cls), Op::Pop, Op::Return])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "ClassCastException"
        );
    }
}

mod statics_and_reloading {
    use super::*;

    fn counter_class() -> ClassDef {
        let mut b = ClassBuilder::new("Counter").static_field("count", TypeDesc::Int);
        let fc = b.pool(Const::Field {
            class: "Counter".to_string(),
            name: "count".to_string(),
        });
        b.method(
            MethodBuilder::of_static("bump")
                .returns(TypeDesc::Int)
                .ops([
                    Op::GetStatic(fc),
                    Op::ConstInt(1),
                    Op::Add,
                    Op::PutStatic(fc),
                    Op::GetStatic(fc),
                    Op::ReturnVal,
                ])
                .build(),
        )
        .build()
    }

    #[test]
    fn statics_persist_across_calls() {
        let mut vm = TestVm::new();
        vm.load(counter_class()).unwrap();
        assert_eq!(vm.run_int("Counter", "bump", vec![]), 1);
        assert_eq!(vm.run_int("Counter", "bump", vec![]), 2);
        assert_eq!(vm.run_int("Counter", "bump", vec![]), 3);
    }

    #[test]
    fn reloaded_classes_have_separate_statics() {
        // Load the same ClassDef through two namespaces delegating to one
        // shared namespace: each load is a *reloaded* class with its own
        // statics (§3.2).
        let mut space = HeapSpace::new(SpaceConfig::default());
        let root = space.root_memlimit();
        let ml = space
            .limits_mut()
            .create_child(root, Kind::Soft, 16 << 20, "p")
            .unwrap();
        let heap = space.create_user_heap(kaffeos_heap::ProcTag(1), ml, "h");
        let mut table = ClassTable::new(IntrinsicRegistry::new());
        let shared = table.create_namespace("shared", None);
        for def in base_classes() {
            table.load_class(shared, def.into_arc()).unwrap();
        }
        let ns1 = table.create_namespace("p1", Some(shared));
        let ns2 = table.create_namespace("p2", Some(shared));
        let def = counter_class().into_arc();
        let c1 = table.load_class(ns1, def.clone()).unwrap();
        let c2 = table.load_class(ns2, def).unwrap();
        assert_ne!(c1, c2, "reloaded class gets a fresh identity");

        let string_class = table.lookup(shared, "String").unwrap();
        let mut statics = FxHashMap::default();
        let mut intern = FxHashMap::default();
        let mut monitors = FxHashMap::default();
        let run = |table: &ClassTable,
                       space: &mut HeapSpace,
                       statics: &mut FxHashMap<_, _>,
                       intern: &mut FxHashMap<_, _>,
                       monitors: &mut FxHashMap<_, _>,
                       ns: u32,
                       class: ClassIdx| {
            let midx = table.find_method(class, "bump").unwrap();
            let mut thread = Thread::new(9, table, midx, vec![]);
            let mut ctx = ExecCtx {
                space,
                table,
                ns,
                heap,
                trusted: false,
                statics,
                intern,
                string_class,
                monitors,
                extra_roots: &[],
                extra_scan_slots: 0,
                gc_every_safepoint: false,
            };
            match step(&mut thread, &mut ctx, u64::MAX) {
                RunExit::Finished(Some(Value::Int(v))) => v,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(
            run(
                &table,
                &mut space,
                &mut statics,
                &mut intern,
                &mut monitors,
                ns1,
                c1
            ),
            1
        );
        assert_eq!(
            run(
                &table,
                &mut space,
                &mut statics,
                &mut intern,
                &mut monitors,
                ns1,
                c1
            ),
            2
        );
        assert_eq!(
            run(
                &table,
                &mut space,
                &mut statics,
                &mut intern,
                &mut monitors,
                ns2,
                c2
            ),
            1,
            "second namespace's counter starts fresh"
        );
    }

    #[test]
    fn delegation_prevents_shadowing_shared_classes() {
        let mut table = ClassTable::new(IntrinsicRegistry::new());
        let shared = table.create_namespace("shared", None);
        table
            .load_class(shared, ClassBuilder::root("Object").build().into_arc())
            .unwrap();
        let ns = table.create_namespace("proc", Some(shared));
        let err = table
            .load_class(ns, ClassBuilder::root("Object").build().into_arc())
            .unwrap_err();
        assert!(matches!(err, VmError::DuplicateClass(_)));
        assert_eq!(table.lookup(ns, "Object"), table.lookup(shared, "Object"));
    }

    #[test]
    fn failed_load_rolls_back_cleanly() {
        let mut vm = TestVm::new();
        // References an unknown class: load fails, then a good load works
        // and the namespace is unpolluted.
        let mut b = ClassBuilder::new("Broken");
        let bad = b.pool(Const::Class("NoSuchClass".to_string()));
        let def = b
            .method(
                MethodBuilder::of_static("main")
                    .ops([Op::New(bad), Op::Pop, Op::Return])
                    .build(),
            )
            .build();
        assert!(matches!(vm.load(def), Err(VmError::UnknownClass(_))));
        assert!(vm.table.lookup(vm.ns, "Broken").is_none());
        vm.load(ClassBuilder::new("Broken").build()).unwrap();
        assert!(vm.table.lookup(vm.ns, "Broken").is_some());
    }
}

mod arrays_and_strings {
    use super::*;

    #[test]
    fn int_array_fill_and_sum() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let int_elem = b.pool(Const::Str("int".to_string()));
        let ops = vec![
            /* 0*/ Op::Load(0),
            /* 1*/ Op::NewArray(int_elem),
            /* 2*/ Op::Store(1),
            /* 3*/ Op::ConstInt(0),
            /* 4*/ Op::Store(2),
            /* 5*/ Op::Load(2),
            /* 6*/ Op::Load(0),
            /* 7*/ Op::CmpLt,
            /* 8*/ Op::JumpIfFalse(20),
            /* 9*/ Op::Load(1),
            /*10*/ Op::Load(2),
            /*11*/ Op::Load(2),
            /*12*/ Op::ConstInt(2),
            /*13*/ Op::Mul,
            /*14*/ Op::AStore,
            /*15*/ Op::Load(2),
            /*16*/ Op::ConstInt(1),
            /*17*/ Op::Add,
            /*18*/ Op::Store(2),
            /*19*/ Op::Jump(5),
            /*20*/ Op::ConstInt(0),
            /*21*/ Op::Store(2),
            /*22*/ Op::ConstInt(0),
            /*23*/ Op::Store(3),
            /*24*/ Op::Load(2),
            /*25*/ Op::Load(1),
            /*26*/ Op::ArrayLen,
            /*27*/ Op::CmpLt,
            /*28*/ Op::JumpIfFalse(40),
            /*29*/ Op::Load(3),
            /*30*/ Op::Load(1),
            /*31*/ Op::Load(2),
            /*32*/ Op::ALoad,
            /*33*/ Op::Add,
            /*34*/ Op::Store(3),
            /*35*/ Op::Load(2),
            /*36*/ Op::ConstInt(1),
            /*37*/ Op::Add,
            /*38*/ Op::Store(2),
            /*39*/ Op::Jump(24),
            /*40*/ Op::Load(3),
            /*41*/ Op::ReturnVal,
        ];
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Int)
                    .locals(3)
                    .ops(ops)
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        // sum of 2i for i in 0..10 = 90
        assert_eq!(vm.run_int("Main", "main", vec![Value::Int(10)]), 90);
    }

    #[test]
    fn array_bounds_checked() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let int_elem = b.pool(Const::Str("int".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::ConstInt(3),
                        Op::NewArray(int_elem),
                        Op::ConstInt(5),
                        Op::ALoad,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "IndexOutOfBoundsException"
        );
    }

    #[test]
    fn string_literals_are_interned_per_process() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let lit = b.pool(Const::Str("hello".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::ConstStr(lit),
                        Op::ConstStr(lit),
                        Op::RefEq,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 1);
    }

    #[test]
    fn concat_produces_new_string_with_value_equality() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let hell = b.pool(Const::Str("hell".to_string()));
        let o = b.pool(Const::Str("o".to_string()));
        let hello = b.pool(Const::Str("hello".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .locals(1)
                    .ops([
                        Op::ConstStr(hell),
                        Op::ConstStr(o),
                        Op::StrConcat,
                        Op::Store(0),
                        // RefEq with the literal is false (not interned)...
                        Op::Load(0),
                        Op::ConstStr(hello),
                        Op::RefEq,
                        // ...but StrEq is true.
                        Op::Load(0),
                        Op::ConstStr(hello),
                        Op::StrEq,
                        Op::ConstInt(10),
                        Op::Mul,
                        Op::Add, // 0 + 10 = 10
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 10);
    }

    #[test]
    fn intern_restores_identity() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let hell = b.pool(Const::Str("hell".to_string()));
        let o = b.pool(Const::Str("o".to_string()));
        let hello = b.pool(Const::Str("hello".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::ConstStr(hell),
                        Op::ConstStr(o),
                        Op::StrConcat,
                        Op::Intern,
                        Op::ConstStr(hello),
                        Op::RefEq,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 1);
    }

    #[test]
    fn substring_charat_parseint() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let lit = b.pool(Const::Str("x42y".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::ConstStr(lit),
                        Op::ConstInt(1),
                        Op::ConstInt(3),
                        Op::Substr, // "42"
                        Op::ParseInt,
                        Op::ConstStr(lit),
                        Op::ConstInt(0),
                        Op::StrCharAt, // 'x' = 120
                        Op::Add,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 42 + 120);
    }

    #[test]
    fn tostr_renders_values() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let expect = b.pool(Const::Str("42".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::ConstInt(42),
                        Op::ToStr,
                        Op::ConstStr(expect),
                        Op::StrEq,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 1);
    }
}

mod exceptions {
    use super::*;

    #[test]
    fn throw_and_catch_guest_exception() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let exc_cls = b.pool(Const::Class("Exception".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        /*0*/ Op::New(exc_cls),
                        /*1*/ Op::Throw,
                        /*2*/ Op::ConstInt(1),
                        /*3*/ Op::ReturnVal,
                        /*4*/ Op::Pop, // handler
                        /*5*/ Op::ConstInt(99),
                        /*6*/ Op::ReturnVal,
                    ])
                    .handler(0, 4, 4, exc_cls)
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 99);
    }

    #[test]
    fn handler_does_not_match_unrelated_class() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let npe_cls = b.pool(Const::Class("NullPointerException".to_string()));
        let arith_cls = b.pool(Const::Class("ArithmeticException".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        /*0*/ Op::New(arith_cls),
                        /*1*/ Op::Throw,
                        /*2*/ Op::ConstInt(1),
                        /*3*/ Op::ReturnVal,
                        /*4*/ Op::Pop,
                        /*5*/ Op::ConstInt(7),
                        /*6*/ Op::ReturnVal,
                    ])
                    .handler(0, 4, 4, npe_cls)
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert!(matches!(
            vm.run("Main", "main", vec![]),
            RunExit::Unhandled(_)
        ));
    }

    #[test]
    fn builtin_exceptions_catchable_by_superclass() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let exc_cls = b.pool(Const::Class("Exception".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        /*0*/ Op::ConstInt(1),
                        /*1*/ Op::ConstInt(0),
                        /*2*/ Op::Div,
                        /*3*/ Op::ReturnVal,
                        /*4*/ Op::Pop,
                        /*5*/ Op::ConstInt(55),
                        /*6*/ Op::ReturnVal,
                    ])
                    .handler(0, 4, 4, exc_cls)
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 55);
    }

    #[test]
    fn exception_unwinds_through_callers() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let arith = b.pool(Const::Class("ArithmeticException".to_string()));
        let inner = b.pool(Const::Method {
            class: "Main".to_string(),
            name: "inner".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("inner")
                    .returns(TypeDesc::Int)
                    .ops([Op::ConstInt(1), Op::ConstInt(0), Op::Div, Op::ReturnVal])
                    .build(),
            )
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        /*0*/ Op::CallStatic(inner),
                        /*1*/ Op::ReturnVal,
                        /*2*/ Op::Pop,
                        /*3*/ Op::ConstInt(123),
                        /*4*/ Op::ReturnVal,
                    ])
                    .handler(0, 2, 2, arith)
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 123);
    }

    #[test]
    fn exception_message_is_set() {
        let mut vm = TestVm::new();
        vm.load(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops([Op::ConstInt(1), Op::ConstInt(0), Op::Div, Op::ReturnVal]),
        ))
        .unwrap();
        match vm.run("Main", "main", vec![]) {
            RunExit::Unhandled(VmException::Guest(obj)) => {
                let Value::Ref(msg) = vm.space.load(obj, 0).unwrap() else {
                    panic!("no message set");
                };
                assert!(vm.space.str_value(msg).unwrap().contains("division"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

mod verifier {
    use super::*;

    fn expect_verify_error(vm: &mut TestVm, def: ClassDef) {
        match vm.load(def) {
            Err(VmError::Verify(_)) => {}
            other => panic!("expected verification failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_stack_underflow() {
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(MethodBuilder::of_static("main").ops([Op::Pop, Op::Return])),
        );
    }

    #[test]
    fn rejects_type_confusion_int_as_ref() {
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(MethodBuilder::of_static("main").ops([Op::ConstInt(42), Op::Throw])),
        );
    }

    #[test]
    fn rejects_ref_arithmetic() {
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([Op::ConstNull, Op::ConstInt(1), Op::Add, Op::ReturnVal]),
            ),
        );
    }

    #[test]
    fn rejects_read_before_write() {
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .locals(1)
                    .ops([Op::Load(0), Op::ReturnVal]),
            ),
        );
    }

    #[test]
    fn rejects_bad_jump_target() {
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(MethodBuilder::of_static("main").ops([Op::Jump(1000), Op::Return])),
        );
    }

    #[test]
    fn rejects_wrong_return_type() {
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Str)
                    .ops([Op::ConstInt(1), Op::ReturnVal]),
            ),
        );
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([Op::Return]),
            ),
        );
    }

    #[test]
    fn rejects_stack_height_mismatch_at_merge() {
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .param(TypeDesc::Int)
                    .ops([
                        /*0*/ Op::Load(0),
                        /*1*/ Op::JumpIfTrue(3),
                        /*2*/ Op::ConstInt(1),
                        /*3*/ Op::ConstInt(2),
                        /*4*/ Op::Add,
                        /*5*/ Op::ReturnVal,
                    ]),
            ),
        );
    }

    #[test]
    fn rejects_call_with_wrong_arg_types() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let callee = b.pool(Const::Method {
            class: "Main".to_string(),
            name: "callee".to_string(),
        });
        let def = b
            .method(
                MethodBuilder::of_static("callee")
                    .param(TypeDesc::Int)
                    .ops([Op::Return])
                    .build(),
            )
            .method(
                MethodBuilder::of_static("main")
                    .ops([Op::ConstNull, Op::CallStatic(callee), Op::Return])
                    .build(),
            )
            .build();
        expect_verify_error(&mut vm, def);
    }

    #[test]
    fn rejects_wrong_array_element_store() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let int_elem = b.pool(Const::Str("int".to_string()));
        let def = b
            .method(
                MethodBuilder::of_static("main")
                    .ops([
                        Op::ConstInt(4),
                        Op::NewArray(int_elem),
                        Op::ConstInt(0),
                        Op::ConstNull,
                        Op::AStore,
                        Op::Return,
                    ])
                    .build(),
            )
            .build();
        expect_verify_error(&mut vm, def);
    }

    #[test]
    fn accepts_null_merge_with_object() {
        let mut vm = TestVm::new();
        vm.load(ClassBuilder::new("A").build()).unwrap();
        let mut b = ClassBuilder::new("Main");
        let a_cls = b.pool(Const::Class("A".to_string()));
        let def = b
            .method(
                MethodBuilder::of_static("main")
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Int)
                    .locals(1)
                    .ops([
                        /*0*/ Op::Load(0),
                        /*1*/ Op::JumpIfFalse(4),
                        /*2*/ Op::New(a_cls),
                        /*3*/ Op::Jump(5),
                        /*4*/ Op::ConstNull,
                        /*5*/ Op::Store(1),
                        /*6*/ Op::Load(1),
                        /*7*/ Op::InstanceOf(a_cls),
                        /*8*/ Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(def).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![Value::Int(1)]), 1);
        assert_eq!(vm.run_int("Main", "main", vec![Value::Int(0)]), 0);
    }

    #[test]
    fn joins_sibling_classes_to_common_super() {
        let mut vm = TestVm::new();
        vm.load(ClassBuilder::new("A").build()).unwrap();
        vm.load(ClassBuilder::new("B1").extends("A").build())
            .unwrap();
        vm.load(ClassBuilder::new("B2").extends("A").build())
            .unwrap();
        let mut b = ClassBuilder::new("Main");
        let b1 = b.pool(Const::Class("B1".to_string()));
        let b2 = b.pool(Const::Class("B2".to_string()));
        let a = b.pool(Const::Class("A".to_string()));
        let def = b
            .method(
                MethodBuilder::of_static("main")
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Int)
                    .ops([
                        /*0*/ Op::Load(0),
                        /*1*/ Op::JumpIfFalse(4),
                        /*2*/ Op::New(b1),
                        /*3*/ Op::Jump(5),
                        /*4*/ Op::New(b2),
                        /*5*/ Op::InstanceOf(a),
                        /*6*/ Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(def).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![Value::Int(1)]), 1);
    }

    /// A merge point whose incoming edges agree on stack *height* but not
    /// on a slot's *type* joins that slot to `Conflict`; any later use of
    /// the slot must be rejected.
    #[test]
    fn rejects_bad_type_merge_at_join() {
        let mut vm = TestVm::new();
        expect_verify_error(
            &mut vm,
            main_class(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .param(TypeDesc::Int)
                    .ops([
                        /*0*/ Op::Load(0),
                        /*1*/ Op::JumpIfFalse(4),
                        /*2*/ Op::ConstInt(7),
                        /*3*/ Op::Jump(5),
                        /*4*/ Op::ConstNull,
                        /*5*/ Op::ReturnVal, // int-vs-null join: unusable
                    ]),
            ),
        );
    }

    /// The null/concrete join resolves to the concrete class, not to some
    /// looser "any reference": passing the joined value where an unrelated
    /// class is expected must still fail.
    #[test]
    fn rejects_null_merge_used_as_unrelated_class() {
        let mut vm = TestVm::new();
        vm.load(ClassBuilder::new("A").build()).unwrap();
        vm.load(ClassBuilder::new("B").build()).unwrap();
        let mut b = ClassBuilder::new("Main");
        let a_cls = b.pool(Const::Class("A".to_string()));
        let callee = b.pool(Const::Method {
            class: "Main".to_string(),
            name: "callee".to_string(),
        });
        let def = b
            .method(
                MethodBuilder::of_static("callee")
                    .param(TypeDesc::Class("B".to_string()))
                    .ops([Op::Return])
                    .build(),
            )
            .method(
                MethodBuilder::of_static("main")
                    .param(TypeDesc::Int)
                    .ops([
                        /*0*/ Op::Load(0),
                        /*1*/ Op::JumpIfFalse(4),
                        /*2*/ Op::New(a_cls),
                        /*3*/ Op::Jump(5),
                        /*4*/ Op::ConstNull,
                        /*5*/ Op::CallStatic(callee), // joined A where B expected
                        /*6*/ Op::Return,
                    ])
                    .build(),
            )
            .build();
        expect_verify_error(&mut vm, def);
    }

    /// Verification failures are deterministic and descriptive: the sorted
    /// worklist always reports the lowest-pc failure, and the error carries
    /// the class, descriptor, offending op, and source line.
    #[test]
    fn verify_error_is_deterministic_and_descriptive() {
        let build = || {
            let mut m = MethodBuilder::of_static("main")
                .param(TypeDesc::Int)
                .ops([
                    /*0*/ Op::Load(0),
                    /*1*/ Op::JumpIfTrue(4),
                    /*2*/ Op::Pop, // underflow on the fall-through edge
                    /*3*/ Op::Return,
                    /*4*/ Op::Pop, // underflow on the taken edge
                    /*5*/ Op::Return,
                ])
                .build();
            m.code.lines = Arc::from([10, 10, 11, 11, 12, 12]);
            ClassBuilder::new("Main").method(m).build()
        };
        for _ in 0..3 {
            let mut vm = TestVm::new();
            let err = match vm.load(build()) {
                Err(VmError::Verify(e)) => e,
                other => panic!("expected verification failure, got {other:?}"),
            };
            assert_eq!(err.class, "Main");
            assert_eq!(err.descriptor, "main(int)");
            assert_eq!(err.pc, 2, "must report the lowest-pc failure");
            assert_eq!(err.op, Some(Op::Pop));
            assert_eq!(err.line, Some(11));
            let text = err.to_string();
            assert!(text.contains("Main.main(int) at pc 2"), "{text}");
            assert!(text.contains("(line 11)"), "{text}");
            assert!(text.contains("[Pop]"), "{text}");
        }
    }
}

mod scheduling {
    use super::*;

    fn spin_class() -> ClassDef {
        main_class(MethodBuilder::of_static("main").ops([Op::ConstInt(0), Op::Pop, Op::Jump(0)]))
    }

    #[test]
    fn fuel_exhaustion_preempts() {
        let mut vm = TestVm::new();
        vm.load(spin_class()).unwrap();
        let mut thread = vm.spawn("Main", "main", vec![]);
        let mut ctx = vm.ctx();
        assert_eq!(step(&mut thread, &mut ctx, 10_000), RunExit::Preempted);
        assert!(thread.cycles >= 10_000);
        assert_eq!(thread.state, ThreadState::Runnable);
        assert_eq!(step(&mut thread, &mut ctx, 10_000), RunExit::Preempted);
    }

    #[test]
    fn kill_honoured_at_safe_point() {
        let mut vm = TestVm::new();
        vm.load(spin_class()).unwrap();
        let mut thread = vm.spawn("Main", "main", vec![]);
        {
            let mut ctx = vm.ctx();
            assert_eq!(step(&mut thread, &mut ctx, 5_000), RunExit::Preempted);
        }
        thread.kill_requested = true;
        let mut ctx = vm.ctx();
        assert_eq!(step(&mut thread, &mut ctx, 5_000), RunExit::Killed);
        assert_eq!(thread.state, ThreadState::Done);
        assert!(thread.frames.is_empty());
    }

    #[test]
    fn kill_deferred_while_in_kernel_mode() {
        let mut vm = TestVm::new();
        vm.load(spin_class()).unwrap();
        let mut thread = vm.spawn("Main", "main", vec![]);
        thread.kill_requested = true;
        thread.kernel_depth = 1;
        {
            let mut ctx = vm.ctx();
            assert_eq!(step(&mut thread, &mut ctx, 5_000), RunExit::Preempted);
        }
        thread.kernel_depth = 0;
        let mut ctx = vm.ctx();
        assert_eq!(step(&mut thread, &mut ctx, 5_000), RunExit::Killed);
    }

    #[test]
    fn syscall_exits_and_resumes() {
        let mut registry = IntrinsicRegistry::new();
        registry.register(
            "test.add",
            vec![TypeDesc::Int, TypeDesc::Int],
            Some(TypeDesc::Int),
        );
        let mut vm = TestVm::with_registry(registry);
        let mut b = ClassBuilder::new("Main");
        let intr = b.pool(Const::Intrinsic("test.add".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::ConstInt(20),
                        Op::ConstInt(22),
                        Op::Syscall(intr),
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        let mut thread = vm.spawn("Main", "main", vec![]);
        let exit = {
            let mut ctx = vm.ctx();
            step(&mut thread, &mut ctx, u64::MAX)
        };
        let RunExit::Syscall { id: 0, args } = exit else {
            panic!("expected syscall, got {exit:?}");
        };
        assert_eq!(args, vec![Value::Int(20), Value::Int(22)]);
        thread.resume_with(Some(Value::Int(42)));
        let mut ctx = vm.ctx();
        assert_eq!(
            step(&mut thread, &mut ctx, u64::MAX),
            RunExit::Finished(Some(Value::Int(42)))
        );
    }

    #[test]
    fn pending_exception_injected_by_kernel() {
        let mut vm = TestVm::new();
        vm.load(spin_class()).unwrap();
        let mut thread = vm.spawn("Main", "main", vec![]);
        thread.pending_exception = Some(VmException::Builtin(
            BuiltinEx::OutOfMemory,
            "kernel says no".to_string(),
        ));
        let mut ctx = vm.ctx();
        assert!(matches!(
            step(&mut thread, &mut ctx, u64::MAX),
            RunExit::Unhandled(_)
        ));
    }

    #[test]
    fn monitors_block_and_release() {
        let mut vm = TestVm::new();
        vm.load(
            ClassBuilder::new("Main")
                .method(
                    MethodBuilder::of_static("main")
                        .param(TypeDesc::Class("Object".to_string()))
                        .returns(TypeDesc::Int)
                        .ops([
                            Op::Load(0),
                            Op::MonitorEnter,
                            Op::Load(0),
                            Op::MonitorExit,
                            Op::ConstInt(1),
                            Op::ReturnVal,
                        ])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        let object_cls = vm.table.lookup(vm.ns, "Object").unwrap();
        let obj = vm
            .space
            .alloc_fields(vm.heap, object_cls.heap_class(), 0)
            .unwrap();
        let mut t1 = vm.spawn("Main", "main", vec![Value::Ref(obj)]);
        let mut t2 = vm.spawn("Main", "main", vec![Value::Ref(obj)]);
        // t1 acquires then is preempted inside the critical section: fuel
        // covers Load (~6 cycles) + MonitorEnter (~130) but not more.
        {
            let mut ctx = vm.ctx();
            let r = step(&mut t1, &mut ctx, 50);
            assert_eq!(r, RunExit::Preempted);
        }
        assert!(vm.monitors.contains_key(&obj), "t1 holds the monitor");
        {
            let mut ctx = vm.ctx();
            let r = step(&mut t2, &mut ctx, u64::MAX);
            assert_eq!(r, RunExit::Blocked(obj));
            assert_eq!(t2.state, ThreadState::Blocked(obj));
        }
        {
            let mut ctx = vm.ctx();
            assert_eq!(
                step(&mut t1, &mut ctx, u64::MAX),
                RunExit::Finished(Some(Value::Int(1)))
            );
        }
        assert!(!vm.monitors.contains_key(&obj));
        t2.state = ThreadState::Runnable;
        let mut ctx = vm.ctx();
        assert_eq!(
            step(&mut t2, &mut ctx, u64::MAX),
            RunExit::Finished(Some(Value::Int(1)))
        );
    }

    #[test]
    fn killed_thread_releases_monitors() {
        let mut vm = TestVm::new();
        vm.load(
            ClassBuilder::new("Main")
                .method(
                    MethodBuilder::of_static("main")
                        .param(TypeDesc::Class("Object".to_string()))
                        .ops([
                            /*0*/ Op::Load(0),
                            /*1*/ Op::MonitorEnter,
                            /*2*/ Op::ConstInt(0),
                            /*3*/ Op::Pop,
                            /*4*/ Op::Jump(2),
                        ])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        let object_cls = vm.table.lookup(vm.ns, "Object").unwrap();
        let obj = vm
            .space
            .alloc_fields(vm.heap, object_cls.heap_class(), 0)
            .unwrap();
        let mut t = vm.spawn("Main", "main", vec![Value::Ref(obj)]);
        {
            let mut ctx = vm.ctx();
            assert_eq!(step(&mut t, &mut ctx, 2_000), RunExit::Preempted);
        }
        assert!(vm.monitors.contains_key(&obj));
        t.kill_requested = true;
        let mut ctx = vm.ctx();
        assert_eq!(step(&mut t, &mut ctx, 1_000), RunExit::Killed);
        assert!(
            !vm.monitors.contains_key(&obj),
            "user-level monitors are released on kill"
        );
    }

    #[test]
    fn stack_roots_cover_locals_and_operands() {
        let mut vm = TestVm::new();
        vm.load(ClassBuilder::new("A").build()).unwrap();
        let mut b = ClassBuilder::new("Main");
        let a_cls = b.pool(Const::Class("A".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .locals(1)
                    .ops([
                        /*0*/ Op::New(a_cls),
                        /*1*/ Op::Store(0),
                        /*2*/ Op::New(a_cls), // left on operand stack
                        /*3*/ Op::Jump(3), // spin
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        let mut thread = vm.spawn("Main", "main", vec![]);
        let mut ctx = vm.ctx();
        assert_eq!(step(&mut thread, &mut ctx, 10_000), RunExit::Preempted);
        let roots = thread.stack_roots();
        assert_eq!(roots.len(), 2, "one local + one operand");
    }
}

mod engines {
    use super::*;

    fn sum_loop_class() -> ClassDef {
        main_class(
            MethodBuilder::of_static("main")
                .param(TypeDesc::Int)
                .returns(TypeDesc::Int)
                .locals(2)
                .ops([
                    /* 0*/ Op::ConstInt(0),
                    /* 1*/ Op::Store(1),
                    /* 2*/ Op::ConstInt(0),
                    /* 3*/ Op::Store(2),
                    /* 4*/ Op::Load(1),
                    /* 5*/ Op::Load(0),
                    /* 6*/ Op::CmpLt,
                    /* 7*/ Op::JumpIfFalse(17),
                    /* 8*/ Op::Load(2),
                    /* 9*/ Op::Load(1),
                    /*10*/ Op::Add,
                    /*11*/ Op::Store(2),
                    /*12*/ Op::Load(1),
                    /*13*/ Op::ConstInt(1),
                    /*14*/ Op::Add,
                    /*15*/ Op::Store(1),
                    /*16*/ Op::Jump(4),
                    /*17*/ Op::Load(2),
                    /*18*/ Op::ReturnVal,
                ]),
        )
    }

    /// The answer of `Main.main(arg)` of `class` on a VM of `engine`, and
    /// the cycles it took.
    fn run_on(class: ClassDef, engine: Engine, arg: i64) -> (i64, u64) {
        let mut vm = TestVm::with_engine(IntrinsicRegistry::new(), engine);
        vm.load(class).unwrap();
        let mut thread = vm.spawn("Main", "main", vec![Value::Int(arg)]);
        match step(&mut thread, &mut vm.ctx(), u64::MAX) {
            RunExit::Finished(Some(Value::Int(v))) => (v, thread.cycles),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn engine_cpi_ordering_matches_paper() {
        let cycles = |engine| run_on(sum_loop_class(), engine, 500).1;
        let ibm = cycles(Engine::JIT_IBM);
        let k00 = cycles(Engine::KAFFE00);
        let kos = cycles(Engine::KAFFEOS);
        let k99 = cycles(Engine::KAFFE99);
        assert!(
            ibm < k00 && k00 < kos && kos < k99,
            "cycle ordering: ibm={ibm} k00={k00} kaffeos={kos} k99={k99}"
        );
        let ratio = k00 as f64 / ibm as f64;
        assert!((2.0..=5.0).contains(&ratio), "IBM/Kaffe00 ratio {ratio}");
        let ratio99 = k99 as f64 / k00 as f64;
        assert!(
            (1.5..=2.6).contains(&ratio99),
            "Kaffe99/Kaffe00 ratio {ratio99}"
        );
    }

    #[test]
    fn slow_throw_engine_charges_more_for_exceptions() {
        let mut b = ClassBuilder::new("Main");
        let exc_cls = b.pool(Const::Class("Exception".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Int)
                    .locals(1)
                    .ops([
                        /* 0*/ Op::ConstInt(0),
                        /* 1*/ Op::Store(1),
                        /* 2*/ Op::Load(1),
                        /* 3*/ Op::Load(0),
                        /* 4*/ Op::CmpLt,
                        /* 5*/ Op::JumpIfFalse(14),
                        /* 6*/ Op::New(exc_cls),
                        /* 7*/ Op::Throw,
                        /* 8*/ Op::Pop, // handler target
                        /* 9*/ Op::Load(1),
                        /*10*/ Op::ConstInt(1),
                        /*11*/ Op::Add,
                        /*12*/ Op::Store(1),
                        /*13*/ Op::Jump(2),
                        /*14*/ Op::Load(1),
                        /*15*/ Op::ReturnVal,
                    ])
                    .handler(6, 8, 8, exc_cls)
                    .build(),
            )
            .build();
        let (answer, fast) = run_on(cls.clone(), Engine::KAFFEOS, 200);
        assert_eq!(answer, 200);
        let (answer, slow) = run_on(cls, Engine::KAFFE99, 200);
        assert_eq!(answer, 200);
        // The jack effect: exception-heavy code is disproportionately
        // slower on the slow-dispatch engine (beyond the plain CPI gap of
        // about 1.13x between these two engines).
        assert!(
            slow as f64 / fast as f64 > 1.5,
            "slow dispatch {slow} vs fast {fast}"
        );
    }

    #[test]
    fn barrier_cycles_attributed_to_thread() {
        let mut vm = TestVm::new();
        vm.load(
            ClassBuilder::new("Holder")
                .field("next", TypeDesc::Class("Holder".to_string()))
                .build(),
        )
        .unwrap();
        let mut b = ClassBuilder::new("Main");
        let holder_cls = b.pool(Const::Class("Holder".to_string()));
        let fnext = b.pool(Const::Field {
            class: "Holder".to_string(),
            name: "next".to_string(),
        });
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .locals(1)
                    .ops([
                        Op::New(holder_cls),
                        Op::Store(0),
                        Op::Load(0),
                        Op::Load(0),
                        Op::PutField(fnext),
                        Op::Return,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        let before = vm.space.barrier_stats().executed;
        assert!(matches!(
            vm.run("Main", "main", vec![]),
            RunExit::Finished(None)
        ));
        assert_eq!(vm.space.barrier_stats().executed, before + 1);
    }
}

mod op_edge_cases {
    use super::*;

    fn run_ops_int(ops: Vec<Op>) -> i64 {
        let mut vm = TestVm::new();
        vm.load(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops(ops),
        ))
        .unwrap();
        vm.run_int("Main", "main", vec![])
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        assert_eq!(
            run_ops_int(vec![
                Op::ConstInt(i64::MAX),
                Op::ConstInt(1),
                Op::Add,
                Op::ReturnVal,
            ]),
            i64::MIN,
            "overflow wraps like Java"
        );
        assert_eq!(
            run_ops_int(vec![
                Op::ConstInt(i64::MIN),
                Op::ConstInt(-1),
                Op::Div,
                Op::ReturnVal,
            ]),
            i64::MIN,
            "MIN / -1 wraps instead of trapping"
        );
        assert_eq!(
            run_ops_int(vec![Op::ConstInt(i64::MIN), Op::Neg, Op::ReturnVal]),
            i64::MIN
        );
    }

    #[test]
    fn shifts_mask_their_counts() {
        assert_eq!(
            run_ops_int(vec![
                Op::ConstInt(1),
                Op::ConstInt(65), // 65 & 63 == 1
                Op::Shl,
                Op::ReturnVal,
            ]),
            2
        );
    }

    #[test]
    fn swap_and_dup_shuffle_correctly() {
        assert_eq!(
            run_ops_int(vec![
                Op::ConstInt(3),
                Op::ConstInt(10),
                Op::Swap, // 10, 3
                Op::Sub,  // 10 - 3
                Op::ReturnVal,
            ]),
            7
        );
        assert_eq!(
            run_ops_int(vec![Op::ConstInt(6), Op::Dup, Op::Mul, Op::ReturnVal]),
            36
        );
    }

    #[test]
    fn float_to_int_truncates() {
        assert_eq!(
            run_ops_int(vec![Op::ConstFloat(-2.9), Op::F2I, Op::ReturnVal]),
            -2
        );
    }

    #[test]
    fn float_comparisons_handle_nan_as_false() {
        // NaN compares false on every ordered comparison (0/0 = NaN).
        assert_eq!(
            run_ops_int(vec![
                Op::ConstFloat(0.0),
                Op::ConstFloat(0.0),
                Op::FDiv, // NaN
                Op::ConstFloat(1.0),
                Op::FCmpLt,
                Op::ReturnVal,
            ]),
            0
        );
    }

    #[test]
    fn null_check_passes_and_fails() {
        let mut vm = TestVm::new();
        vm.load(
            ClassBuilder::new("Main")
                .method(
                    MethodBuilder::of_static("main")
                        .param(TypeDesc::Class("Object".to_string()))
                        .returns(TypeDesc::Int)
                        .ops([Op::Load(0), Op::NullCheck, Op::ConstInt(1), Op::ReturnVal])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        let object_cls = vm.table.lookup(vm.ns, "Object").unwrap();
        let obj = vm
            .space
            .alloc_fields(vm.heap, object_cls.heap_class(), 0)
            .unwrap();
        assert_eq!(
            vm.run_int("Main", "main", vec![Value::Ref(obj)]),
            1,
            "non-null passes"
        );
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![Value::Null]),
            "NullPointerException"
        );
    }

    #[test]
    fn parse_int_failure_raises() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let bad = b.pool(Const::Str("not a number".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([Op::ConstStr(bad), Op::ParseInt, Op::ReturnVal])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "ArithmeticException"
        );
    }

    #[test]
    fn substr_bounds_raise() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let s = b.pool(Const::Str("abc".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Str)
                    .ops([
                        Op::ConstStr(s),
                        Op::ConstInt(1),
                        Op::ConstInt(9),
                        Op::Substr,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "IndexOutOfBoundsException"
        );
    }

    #[test]
    fn charat_bounds_raise() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let s = b.pool(Const::Str("ab".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::ConstStr(s),
                        Op::ConstInt(5),
                        Op::StrCharAt,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "IndexOutOfBoundsException"
        );
    }

    #[test]
    fn negative_array_length_raises() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let int_elem = b.pool(Const::Str("int".to_string()));
        let cls = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::ConstInt(-3),
                        Op::NewArray(int_elem),
                        Op::ArrayLen,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        vm.load(cls).unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "IndexOutOfBoundsException"
        );
    }

    #[test]
    fn reentrant_monitor_acquisition() {
        let mut vm = TestVm::new();
        vm.load(
            ClassBuilder::new("Main")
                .method(
                    MethodBuilder::of_static("main")
                        .param(TypeDesc::Class("Object".to_string()))
                        .returns(TypeDesc::Int)
                        .ops([
                            Op::Load(0),
                            Op::MonitorEnter,
                            Op::Load(0),
                            Op::MonitorEnter, // reentrant
                            Op::Load(0),
                            Op::MonitorExit,
                            Op::Load(0),
                            Op::MonitorExit,
                            Op::ConstInt(1),
                            Op::ReturnVal,
                        ])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        let object_cls = vm.table.lookup(vm.ns, "Object").unwrap();
        let obj = vm
            .space
            .alloc_fields(vm.heap, object_cls.heap_class(), 0)
            .unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![Value::Ref(obj)]), 1);
        assert!(vm.monitors.is_empty(), "fully released after depth-2 exit");
    }

    #[test]
    fn monitor_exit_without_ownership_raises() {
        let mut vm = TestVm::new();
        vm.load(
            ClassBuilder::new("Main")
                .method(
                    MethodBuilder::of_static("main")
                        .param(TypeDesc::Class("Object".to_string()))
                        .ops([Op::Load(0), Op::MonitorExit, Op::Return])
                        .build(),
                )
                .build(),
        )
        .unwrap();
        let object_cls = vm.table.lookup(vm.ns, "Object").unwrap();
        let obj = vm
            .space
            .alloc_fields(vm.heap, object_cls.heap_class(), 0)
            .unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![Value::Ref(obj)]),
            "IllegalStateException"
        );
    }

    #[test]
    fn implicit_void_return_at_code_end() {
        let mut vm = TestVm::new();
        vm.load(main_class(
            MethodBuilder::of_static("main").ops([Op::ConstInt(1), Op::Pop]),
        ))
        .unwrap();
        assert!(matches!(
            vm.run("Main", "main", vec![]),
            RunExit::Finished(None)
        ));
    }
}

mod verifier_edge_cases {
    use super::*;

    fn expect_reject(def: ClassDef) {
        let mut vm = TestVm::new();
        match vm.load(def) {
            Err(VmError::Verify(_)) => {}
            other => panic!("expected verification failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_local_index_out_of_range() {
        expect_reject(main_class(MethodBuilder::of_static("main").ops([
            Op::ConstInt(1),
            Op::Store(99),
            Op::Return,
        ])));
    }

    #[test]
    fn rejects_float_int_confusion() {
        expect_reject(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops([Op::ConstFloat(1.0), Op::ConstInt(2), Op::Add, Op::ReturnVal]),
        ));
        expect_reject(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Float)
                .ops([Op::ConstInt(1), Op::ConstInt(2), Op::FAdd, Op::ReturnVal]),
        ));
    }

    #[test]
    fn rejects_string_ops_on_non_strings() {
        expect_reject(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops([Op::ConstInt(9), Op::StrLen, Op::ReturnVal]),
        ));
        // Null *is* a valid String statically (it fails at runtime with an
        // NPE instead) — that is Java's behaviour too.
        let mut vm = TestVm::new();
        vm.load(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Str)
                .ops([Op::ConstNull, Op::Intern, Op::ReturnVal]),
        ))
        .unwrap();
        assert_eq!(
            vm.unhandled_class("Main", "main", vec![]),
            "NullPointerException"
        );
    }

    #[test]
    fn rejects_arraylen_on_object() {
        let mut b = ClassBuilder::new("Main");
        let obj_cls = b.pool(Const::Class("Object".to_string()));
        expect_reject(
            b.method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([Op::New(obj_cls), Op::ArrayLen, Op::ReturnVal])
                    .build(),
            )
            .build(),
        );
    }

    #[test]
    fn rejects_aload_on_non_array() {
        expect_reject(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops([Op::ConstNull, Op::ConstInt(0), Op::ALoad, Op::ReturnVal]),
        ));
    }

    #[test]
    fn rejects_monitor_on_primitive() {
        expect_reject(main_class(MethodBuilder::of_static("main").ops([
            Op::ConstInt(5),
            Op::MonitorEnter,
            Op::Return,
        ])));
    }

    #[test]
    fn rejects_dup_on_empty_stack() {
        expect_reject(main_class(
            MethodBuilder::of_static("main").ops([Op::Dup, Op::Return]),
        ));
    }

    #[test]
    fn rejects_fall_off_end_of_value_method() {
        expect_reject(main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .ops([Op::ConstInt(1), Op::Pop]),
        ));
    }

    #[test]
    fn rejects_conflicting_local_types_at_merge_when_used() {
        // The same local holds Int on one path and a ref on the other;
        // using it after the merge must fail.
        let mut b = ClassBuilder::new("Main");
        let obj_cls = b.pool(Const::Class("Object".to_string()));
        expect_reject(
            b.method(
                MethodBuilder::of_static("main")
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Int)
                    .locals(1)
                    .ops([
                        /*0*/ Op::Load(0),
                        /*1*/ Op::JumpIfFalse(5),
                        /*2*/ Op::ConstInt(1),
                        /*3*/ Op::Store(1),
                        /*4*/ Op::Jump(7),
                        /*5*/ Op::New(obj_cls),
                        /*6*/ Op::Store(1),
                        /*7*/ Op::Load(1), // conflict: Int vs Object
                        /*8*/ Op::ReturnVal,
                    ])
                    .build(),
            )
            .build(),
        );
    }

    #[test]
    fn accepts_exception_handler_with_consistent_locals() {
        let mut vm = TestVm::new();
        let mut b = ClassBuilder::new("Main");
        let exc = b.pool(Const::Class("Exception".to_string()));
        let def = b
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .locals(2)
                    .ops([
                        /*0*/ Op::ConstInt(5),
                        /*1*/ Op::Store(1),
                        /*2*/ Op::ConstInt(1),
                        /*3*/ Op::ConstInt(0),
                        /*4*/ Op::Div,
                        /*5*/ Op::ReturnVal,
                        // handler: local 1 is still a valid Int here
                        /*6*/
                        Op::Pop,
                        /*7*/ Op::Load(1),
                        /*8*/ Op::ReturnVal,
                    ])
                    .handler(2, 6, 6, exc)
                    .build(),
            )
            .build();
        vm.load(def).unwrap();
        assert_eq!(vm.run_int("Main", "main", vec![]), 5);
    }

    #[test]
    fn rejects_handler_with_bad_class_const() {
        let mut b = ClassBuilder::new("Main");
        let not_a_class = b.pool(Const::Str("zzz".to_string()));
        expect_reject(
            b.method(
                MethodBuilder::of_static("main")
                    .ops([Op::ConstInt(1), Op::Pop, Op::Return])
                    .handler(0, 2, 2, not_a_class)
                    .build(),
            )
            .build(),
        );
    }

    #[test]
    fn rejects_backward_jump_with_grown_stack() {
        // Each loop iteration would push one extra value: stack heights at
        // the merge point differ → reject.
        expect_reject(main_class(
            MethodBuilder::of_static("main")
                .ops([/*0*/ Op::ConstInt(1), /*1*/ Op::Jump(0)]),
        ));
    }
}

/// The loader verifies a definition once per load context: (own history,
/// parent's history, definition). These tests pin both halves of the key
/// and the two ways a context stops being memoised.
mod verify_memo {
    use super::*;

    /// A root namespace holding the test standard library.
    fn shared_table() -> (ClassTable, u32) {
        let mut table = ClassTable::new(IntrinsicRegistry::new());
        let shared = table.create_namespace("shared", None);
        for def in base_classes() {
            table.load_class(shared, def.into_arc()).unwrap();
        }
        (table, shared)
    }

    fn helper(ty: TypeDesc) -> Arc<ClassDef> {
        ClassBuilder::new("Helper")
            .field("f", ty)
            .build()
            .into_arc()
    }

    /// `static int m(Helper h) { return h.f + 1; }`: well typed only when
    /// the `Helper` it resolves declares `int f`.
    fn main_def() -> Arc<ClassDef> {
        let mut b = ClassBuilder::new("Main");
        let f = b.pool(Const::Field {
            class: "Helper".to_string(),
            name: "f".to_string(),
        });
        b.method(
            MethodBuilder::of_static("m")
                .param(TypeDesc::Class("Helper".to_string()))
                .returns(TypeDesc::Int)
                .ops([
                    Op::Load(0),
                    Op::GetField(f),
                    Op::ConstInt(1),
                    Op::Add,
                    Op::ReturnVal,
                ])
                .build(),
        )
        .build()
        .into_arc()
    }

    fn plain(name: &str) -> Arc<ClassDef> {
        ClassBuilder::new(name)
            .method(
                MethodBuilder::of_static("main")
                    .returns(TypeDesc::Int)
                    .ops([Op::ConstInt(7), Op::ReturnVal])
                    .build(),
            )
            .build()
            .into_arc()
    }

    #[test]
    fn a_thousand_fresh_namespaces_verify_each_definition_once() {
        let (mut table, shared) = shared_table();
        let (int_helper, main) = (helper(TypeDesc::Int), main_def());
        let before = table.verifications;
        for k in 0..1000 {
            let ns = table.create_namespace(format!("p{k}"), Some(shared));
            table.load_class(ns, int_helper.clone()).unwrap();
            table.load_class(ns, main.clone()).unwrap();
        }
        assert_eq!(table.verifications - before, 2);
    }

    /// Keying by the definition alone is not exact: the same `Main` is
    /// well typed after `Helper { int f; }` and ill typed after
    /// `Helper { String f; }`.
    #[test]
    fn own_history_separates_differently_typed_helpers() {
        let (mut table, shared) = shared_table();
        let main = main_def();
        let a = table.create_namespace("a", Some(shared));
        table.load_class(a, helper(TypeDesc::Int)).unwrap();
        table.load_class(a, main.clone()).unwrap();
        let before = table.verifications;
        let b = table.create_namespace("b", Some(shared));
        table.load_class(b, helper(TypeDesc::Str)).unwrap();
        let err = table.load_class(b, main).unwrap_err();
        assert!(matches!(err, VmError::Verify(_)), "{err:?}");
        assert_eq!(
            table.verifications - before,
            2,
            "Helper and Main both verified"
        );
    }

    /// The same `Main` resolves its `Helper` through two parents that
    /// bound differently typed ones.
    #[test]
    fn parent_history_separates_differently_typed_parents() {
        let mut table = ClassTable::new(IntrinsicRegistry::new());
        let base: Vec<_> = base_classes().into_iter().map(ClassDef::into_arc).collect();
        let parent = |table: &mut ClassTable, name: &str, ty: TypeDesc| {
            let p = table.create_namespace(name, None);
            for def in &base {
                table.load_class(p, def.clone()).unwrap();
            }
            table.load_class(p, helper(ty)).unwrap();
            p
        };
        let int_parent = parent(&mut table, "int", TypeDesc::Int);
        let str_parent = parent(&mut table, "str", TypeDesc::Str);
        let main = main_def();
        let a = table.create_namespace("a", Some(int_parent));
        table.load_class(a, main.clone()).unwrap();
        let b = table.create_namespace("b", Some(str_parent));
        let err = table.load_class(b, main).unwrap_err();
        assert!(matches!(err, VmError::Verify(_)), "{err:?}");
    }

    /// A load into the parent between two child loads (a
    /// `load_shared_source` between two spawns) forces a second
    /// verification; the next child hits again.
    #[test]
    fn a_parent_load_between_child_loads_verifies_again() {
        let (mut table, shared) = shared_table();
        let main = plain("Main");
        let child = |table: &mut ClassTable, k: u32| {
            let ns = table.create_namespace(format!("c{k}"), Some(shared));
            table.load_class(ns, main.clone()).unwrap();
        };
        let before = table.verifications;
        child(&mut table, 0);
        child(&mut table, 1);
        assert_eq!(table.verifications - before, 1);
        table.load_class(shared, plain("Extra")).unwrap();
        child(&mut table, 2);
        assert_eq!(table.verifications - before, 3, "Extra and Main verified");
        child(&mut table, 3);
        assert_eq!(table.verifications - before, 3);
    }

    /// A rejected definition adds no edge and leaves the namespace's
    /// history where it was: the next load hits the edge a namespace that
    /// never failed recorded.
    #[test]
    fn a_failed_verification_adds_no_edge() {
        let (mut table, shared) = shared_table();
        let (str_helper, main, extra) = (helper(TypeDesc::Str), main_def(), plain("Extra"));
        let clean = table.create_namespace("clean", Some(shared));
        table.load_class(clean, str_helper.clone()).unwrap();
        table.load_class(clean, extra.clone()).unwrap();
        let (edges, before) = (table.verify_edges(), table.verifications);
        for k in 0..2 {
            let ns = table.create_namespace(format!("f{k}"), Some(shared));
            table.load_class(ns, str_helper.clone()).unwrap();
            assert!(table.load_class(ns, main.clone()).is_err());
            table.load_class(ns, extra.clone()).unwrap();
        }
        assert_eq!(table.verify_edges(), edges);
        assert_eq!(
            table.verifications - before,
            2,
            "only the rejected Main runs"
        );
    }

    /// A dropped namespace, and a namespace delegating to one, verify every
    /// load: neither can hit an edge, however fresh it looks.
    #[test]
    fn a_dropped_namespace_never_hits() {
        let (mut table, shared) = shared_table();
        let object = table
            .class(table.lookup(shared, "Object").unwrap())
            .link
            .def
            .clone();
        let main = plain("Main");
        let dead = table.create_namespace("dead", Some(shared));
        table.drop_namespace(dead);
        let (edges, before) = (table.verify_edges(), table.verifications);
        table.load_class(dead, object).unwrap();
        for k in 0..2 {
            let below = table.create_namespace(format!("below{k}"), Some(dead));
            table.load_class(below, main.clone()).unwrap();
        }
        assert_eq!(table.verifications - before, 3);
        assert_eq!(table.verify_edges(), edges);
    }
}

/// The fuel-split oracle over every fused micro kind: one method whose loop
/// runs each fusion pattern (moves, ALU and ALU-store pairs and chains,
/// fused loads, field gets, compare-and-branch of either sense over
/// locals, constants and the stack, a fused `Div` that raises into a
/// handler), run in one `step` and one op per `step`.
mod fuel_split {
    use super::*;

    fn mix_class() -> ClassDef {
        let mut b = ClassBuilder::new("Main");
        let holder = b.pool(Const::Class("Holder".to_string()));
        let v = b.pool(Const::Field {
            class: "Holder".to_string(),
            name: "v".to_string(),
        });
        let int = b.pool(Const::Str("int".to_string()));
        let arith = b.pool(Const::Class("ArithmeticException".to_string()));
        // Locals: 0 n, 1 i, 2 acc, 3 f, 4 arr, 5 obj, 6 k, 7 zero.
        let ops = [
            /* 0*/ Op::ConstInt(0),
            /* 1*/ Op::Store(1),
            /* 2*/ Op::ConstInt(0),
            /* 3*/ Op::Store(2),
            /* 4*/ Op::ConstFloat(0.5),
            /* 5*/ Op::Store(3),
            /* 6*/ Op::ConstInt(8),
            /* 7*/ Op::NewArray(int),
            /* 8*/ Op::Store(4),
            /* 9*/ Op::New(holder),
            /*10*/ Op::Store(5),
            /*11*/ Op::ConstInt(0),
            /*12*/ Op::Store(7),
            // head: k = i & 7; arr[k] = i * 3; obj.v = acc
            /*13*/ Op::Load(1),
            /*14*/ Op::ConstInt(7),
            /*15*/ Op::And,
            /*16*/ Op::Store(6),
            /*17*/ Op::Load(4),
            /*18*/ Op::Load(6),
            /*19*/ Op::Load(1),
            /*20*/ Op::ConstInt(3),
            /*21*/ Op::Mul,
            /*22*/ Op::AStore,
            /*23*/ Op::Load(5),
            /*24*/ Op::Load(2),
            /*25*/ Op::PutField(v),
            // acc = acc + arr[k]
            /*26*/ Op::Load(2),
            /*27*/ Op::Load(4),
            /*28*/ Op::Load(6),
            /*29*/ Op::ALoad,
            /*30*/ Op::Add,
            /*31*/ Op::Store(2),
            // if (obj.v > 100) acc = acc / 3
            /*32*/ Op::Load(5),
            /*33*/ Op::GetField(v),
            /*34*/ Op::ConstInt(100),
            /*35*/ Op::CmpGt,
            /*36*/ Op::JumpIfFalse(41),
            /*37*/ Op::Load(2),
            /*38*/ Op::ConstInt(3),
            /*39*/ Op::Div,
            /*40*/ Op::Store(2),
            // f = f * 1.5; if (!(f < 1000)) { f = 0.5; k = i }
            /*41*/ Op::Load(3),
            /*42*/ Op::ConstFloat(1.5),
            /*43*/ Op::FMul,
            /*44*/ Op::Store(3),
            /*45*/ Op::Load(3),
            /*46*/ Op::ConstFloat(1000.0),
            /*47*/ Op::FCmpLt,
            /*48*/ Op::JumpIfTrue(53),
            /*49*/ Op::ConstFloat(0.5),
            /*50*/ Op::Store(3),
            /*51*/ Op::Load(1),
            /*52*/ Op::Store(6),
            // acc = (acc + acc * acc) % 1000003; k = acc | (acc ^ acc)
            /*53*/ Op::Load(2),
            /*54*/ Op::Dup,
            /*55*/ Op::Dup,
            /*56*/ Op::Mul,
            /*57*/ Op::Add,
            /*58*/ Op::ConstInt(1_000_003),
            /*59*/ Op::Rem,
            /*60*/ Op::Store(2),
            /*61*/ Op::Load(2),
            /*62*/ Op::Dup,
            /*63*/ Op::Dup,
            /*64*/ Op::Xor,
            /*65*/ Op::Or,
            /*66*/ Op::Store(6),
            // acc / zero raises into the handler at 72
            /*67*/ Op::Load(2),
            /*68*/ Op::Load(7),
            /*69*/ Op::Div,
            /*70*/ Op::Pop,
            /*71*/ Op::Jump(73),
            /*72*/ Op::Pop,
            // i = i + 1; if (i < n) goto head
            /*73*/ Op::Load(1),
            /*74*/ Op::ConstInt(1),
            /*75*/ Op::Add,
            /*76*/ Op::Store(1),
            /*77*/ Op::Load(1),
            /*78*/ Op::Load(0),
            /*79*/ Op::CmpLt,
            /*80*/ Op::JumpIfTrue(13),
            // a compare of two stack operands
            /*81*/ Op::Load(1),
            /*82*/ Op::Load(0),
            /*83*/ Op::Load(1),
            /*84*/ Op::Sub,
            /*85*/ Op::CmpGe,
            /*86*/ Op::JumpIfFalse(87),
            /*87*/ Op::Load(2),
            /*88*/ Op::ReturnVal,
        ];
        b.method(
            MethodBuilder::of_static("mix")
                .param(TypeDesc::Int)
                .returns(TypeDesc::Int)
                .locals(7)
                .ops(ops)
                .handler(67, 70, 72, arith)
                .build(),
        )
        .build()
    }

    #[test]
    fn every_fused_micro_matches_one_op_per_step() {
        let mut vm = TestVm::new();
        vm.load(ClassBuilder::new("Holder").field("v", TypeDesc::Int).build())
            .unwrap();
        vm.load(mix_class()).unwrap();
        let mut answers = Vec::new();
        for n in [1, 2, 7, 40] {
            let (fused, plain) = vm.run_split("Main", "mix", vec![Value::Int(n)]);
            assert_eq!(plain, fused, "mix({n}): fuel split");
            let RunExit::Finished(Some(Value::Int(acc))) = fused else {
                panic!("mix({n}): {fused:?}");
            };
            answers.push(acc);
        }
        // Distinct answers: the loop ran a different number of times each.
        answers.dedup();
        assert_eq!(answers.len(), 4, "{answers:?}");
    }

    /// `Shape` (an `int` field, a constructor, a void method that falls off
    /// its end) and `Square`, which overrides `area`.
    fn shape_classes() -> [ClassDef; 2] {
        let mut b = ClassBuilder::new("Shape").field("n", TypeDesc::Int);
        let n = b.pool(Const::Field {
            class: "Shape".to_string(),
            name: "n".to_string(),
        });
        let shape = b
            .method(
                MethodBuilder::instance("init")
                    .param(TypeDesc::Int)
                    .ops([Op::Load(0), Op::Load(1), Op::PutField(n), Op::Return])
                    .build(),
            )
            .method(
                MethodBuilder::instance("area")
                    .returns(TypeDesc::Int)
                    .ops([Op::Load(0), Op::GetField(n), Op::ReturnVal])
                    .build(),
            )
            // No `Return`: the implicit return past the last op.
            .method(
                MethodBuilder::instance("bump")
                    .ops([
                        Op::Load(0),
                        Op::Load(0),
                        Op::GetField(n),
                        Op::ConstInt(1),
                        Op::Add,
                        Op::PutField(n),
                    ])
                    .build(),
            )
            .build();
        let mut b = ClassBuilder::new("Square").extends("Shape");
        let n = b.pool(Const::Field {
            class: "Square".to_string(),
            name: "n".to_string(),
        });
        let square = b
            .method(
                MethodBuilder::instance("area")
                    .returns(TypeDesc::Int)
                    .ops([
                        Op::Load(0),
                        Op::GetField(n),
                        Op::Load(0),
                        Op::GetField(n),
                        Op::Mul,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build();
        [shape, square]
    }

    /// `Main`: `calls(n)` loops over static, special and virtual calls
    /// (void, value and implicit returns), `catcher` catches an exception
    /// `thrower` raises two frames down, and `guard` catches the
    /// `StackOverflowError` of unbounded recursion.
    fn calls_class() -> ClassDef {
        let mut b = ClassBuilder::new("Main");
        let method = |b: &mut ClassBuilder, class: &str, name: &str| {
            b.pool(Const::Method {
                class: class.to_string(),
                name: name.to_string(),
            })
        };
        let square = b.pool(Const::Class("Square".to_string()));
        let init = method(&mut b, "Shape", "init");
        let area = method(&mut b, "Shape", "area");
        let bump = method(&mut b, "Shape", "bump");
        let nop = method(&mut b, "Main", "nop");
        let catcher = method(&mut b, "Main", "catcher");
        let middle = method(&mut b, "Main", "middle");
        let thrower = method(&mut b, "Main", "thrower");
        let guard = method(&mut b, "Main", "guard");
        let deep = method(&mut b, "Main", "deep");
        let arith = b.pool(Const::Class("ArithmeticException".to_string()));
        let overflow = b.pool(Const::Class("StackOverflowError".to_string()));
        let int_to_int = |name: &str, ops: Vec<Op>| {
            MethodBuilder::of_static(name)
                .param(TypeDesc::Int)
                .returns(TypeDesc::Int)
                .ops(ops)
        };
        b.method(
            // Locals: 0 n, 1 i, 2 acc, 3 s.
            int_to_int(
                "calls",
                vec![
                    /* 0*/ Op::ConstInt(0),
                    /* 1*/ Op::Store(1),
                    /* 2*/ Op::ConstInt(0),
                    /* 3*/ Op::Store(2),
                    // head: s = new Square; s.init(i); s.bump(); nop()
                    /* 4*/ Op::Load(1),
                    /* 5*/ Op::Load(0),
                    /* 6*/ Op::CmpLt,
                    /* 7*/ Op::JumpIfFalse(31),
                    /* 8*/ Op::New(square),
                    /* 9*/ Op::Store(3),
                    /*10*/ Op::Load(3),
                    /*11*/ Op::Load(1),
                    /*12*/ Op::CallSpecial(init),
                    /*13*/ Op::Load(3),
                    /*14*/ Op::CallVirtual(bump),
                    /*15*/ Op::CallStatic(nop),
                    // acc = acc + s.area() + catcher(i % 3)
                    /*16*/ Op::Load(2),
                    /*17*/ Op::Load(3),
                    /*18*/ Op::CallVirtual(area),
                    /*19*/ Op::Add,
                    /*20*/ Op::Load(1),
                    /*21*/ Op::ConstInt(3),
                    /*22*/ Op::Rem,
                    /*23*/ Op::CallStatic(catcher),
                    /*24*/ Op::Add,
                    /*25*/ Op::Store(2),
                    /*26*/ Op::Load(1),
                    /*27*/ Op::ConstInt(1),
                    /*28*/ Op::Add,
                    /*29*/ Op::Store(1),
                    /*30*/ Op::Jump(4),
                    // acc + guard()
                    /*31*/ Op::Load(2),
                    /*32*/ Op::CallStatic(guard),
                    /*33*/ Op::Add,
                    /*34*/ Op::ReturnVal,
                ],
            )
            .locals(3)
            .build(),
        )
        .method(MethodBuilder::of_static("nop").op(Op::Return).build())
        .method(
            // catcher(x) = middle(x), or 100 when it raises.
            int_to_int(
                "catcher",
                vec![
                    Op::Load(0),
                    Op::CallStatic(middle),
                    Op::ReturnVal,
                    Op::Pop,
                    Op::ConstInt(100),
                    Op::ReturnVal,
                ],
            )
            .handler(0, 2, 3, arith)
            .build(),
        )
        .method(
            int_to_int(
                "middle",
                vec![
                    Op::Load(0),
                    Op::CallStatic(thrower),
                    Op::ConstInt(1),
                    Op::Add,
                    Op::ReturnVal,
                ],
            )
            .build(),
        )
        .method(
            // 60 / x: raises for x = 0.
            int_to_int(
                "thrower",
                vec![Op::ConstInt(60), Op::Load(0), Op::Div, Op::ReturnVal],
            )
            .build(),
        )
        .method(
            // guard() = deep(0), or -1 when the stack overflows.
            MethodBuilder::of_static("guard")
                .returns(TypeDesc::Int)
                .ops([
                    Op::ConstInt(0),
                    Op::CallStatic(deep),
                    Op::ReturnVal,
                    Op::Pop,
                    Op::ConstInt(-1),
                    Op::ReturnVal,
                ])
                .handler(0, 2, 3, overflow)
                .build(),
        )
        .method(
            int_to_int(
                "deep",
                vec![
                    Op::Load(0),
                    Op::ConstInt(1),
                    Op::Add,
                    Op::CallStatic(deep),
                    Op::ReturnVal,
                ],
            )
            .build(),
        )
        .build()
    }

    /// Runs `Main.method(args)` one op per `step` to its end and folds
    /// every stop — frame depth, pc, cycles and ops — into one digest.
    fn trajectory(vm: &mut TestVm, method: &str, args: Vec<Value>) -> (RunExit, u64) {
        let mut thread = vm.spawn("Main", method, args);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        loop {
            let exit = step(&mut thread, &mut vm.ctx(), 1);
            let pc = thread.frames.last().map_or(u32::MAX, |f| f.pc);
            for v in [thread.frames.len() as u64, pc as u64, thread.cycles, thread.ops] {
                h = (h ^ v).wrapping_mul(0x100_0000_01b3);
            }
            if exit != RunExit::Preempted {
                return (exit, h);
            }
        }
    }

    #[test]
    fn calls_returns_and_unwinds_match_one_op_per_step() {
        let mut vm = TestVm::new();
        for def in shape_classes() {
            vm.load(def).unwrap();
        }
        vm.load(calls_class()).unwrap();
        let mut digests = Vec::new();
        // calls(n) = sum over i < n of (i + 1)^2 + catcher(i % 3), minus 1.
        for (n, answer) in [(0, -1), (1, 100), (2, 165), (5, 407)] {
            let (fused, plain) = vm.run_split("Main", "calls", vec![Value::Int(n)]);
            assert_eq!(plain, fused, "calls({n}): fuel split");
            assert_eq!(fused, RunExit::Finished(Some(Value::Int(answer))), "calls({n})");
            let (exit, digest) = trajectory(&mut vm, "calls", vec![Value::Int(n)]);
            assert_eq!(exit, fused, "calls({n}): trajectory");
            digests.push(digest);
        }
        // Every stop of the one-op-per-step runs, as the cycle model and
        // the safe points placed them before calls and returns became
        // template ops: a charge or a fuel check that moves changes it.
        assert_eq!(digests, CALLS_TRAJECTORIES, "{digests:#x?}");
    }

    /// The digests of `calls_returns_and_unwinds_match_one_op_per_step`.
    const CALLS_TRAJECTORIES: [u64; 4] = [
        0x77a4_6275_a7d1_d025,
        0xfabe_f921_9581_26a3,
        0x6f12_09cc_2cfd_9c78,
        0xa7e1_86f2_9cca_fec4,
    ];
}

/// The string runtime ops against a plain-Rust oracle over `chars()`:
/// values, exceptions and messages for ASCII and non-ASCII strings, at and
/// past both ends.
mod string_oracle {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Out {
        Int(i64),
        Str(String),
        Raised(String, String),
    }

    fn bounds(msg: String) -> Out {
        Out::Raised("IndexOutOfBoundsException".to_string(), msg)
    }

    fn oracle_len(s: &str) -> Out {
        Out::Int(s.chars().count() as i64)
    }

    fn oracle_char_at(s: &str, i: i64) -> Out {
        match usize::try_from(i).ok().and_then(|i| s.chars().nth(i)) {
            Some(c) => Out::Int(c as i64),
            None => bounds(format!("string index {i}")),
        }
    }

    fn oracle_substring(s: &str, a: i64, b: i64) -> Out {
        let chars: Vec<char> = s.chars().collect();
        let n = chars.len() as i64;
        if a < 0 || b < a || b > n {
            return bounds(format!("substring [{a}, {b}) of length {n}"));
        }
        Out::Str(chars[a as usize..b as usize].iter().collect())
    }

    fn string_ops_class() -> ClassDef {
        let str_to_int = |name: &str, ops: Vec<Op>| {
            MethodBuilder::of_static(name)
                .param(TypeDesc::Str)
                .returns(TypeDesc::Int)
                .ops(ops)
                .build()
        };
        ClassBuilder::new("Main")
            .method(str_to_int(
                "len",
                vec![Op::Load(0), Op::StrLen, Op::ReturnVal],
            ))
            .method(
                MethodBuilder::of_static("at")
                    .param(TypeDesc::Str)
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Int)
                    .ops([Op::Load(0), Op::Load(1), Op::StrCharAt, Op::ReturnVal])
                    .build(),
            )
            .method(
                MethodBuilder::of_static("sub")
                    .param(TypeDesc::Str)
                    .param(TypeDesc::Int)
                    .param(TypeDesc::Int)
                    .returns(TypeDesc::Str)
                    .ops([
                        Op::Load(0),
                        Op::Load(1),
                        Op::Load(2),
                        Op::Substr,
                        Op::ReturnVal,
                    ])
                    .build(),
            )
            .build()
    }

    /// The outcome of `Main.method(args)`, which the fused and the
    /// one-op-per-step run must agree on.
    fn outcome(vm: &mut TestVm, method: &str, args: Vec<Value>) -> Out {
        let (fused, plain) = vm.run_split("Main", method, args);
        let out = decode(vm, method, fused);
        assert_eq!(decode(vm, method, plain), out, "{method}: fuel split");
        out
    }

    fn decode(vm: &mut TestVm, method: &str, exit: RunExit) -> Out {
        match exit {
            RunExit::Finished(Some(Value::Int(v))) => Out::Int(v),
            RunExit::Finished(Some(Value::Ref(r))) => {
                Out::Str(vm.space.str_value(r).unwrap().to_string())
            }
            RunExit::Unhandled(VmException::Guest(ex)) => {
                let class = vm.table.from_heap_class(vm.space.class_of(ex).unwrap());
                let Value::Ref(msg) = vm.space.load(ex, 0).unwrap() else {
                    panic!("{method}: exception without a message");
                };
                Out::Raised(
                    vm.table.class(class).name().to_string(),
                    vm.space.str_value(msg).unwrap().to_string(),
                )
            }
            other => panic!("{method}: unexpected exit {other:?}"),
        }
    }

    /// A string of `n` chars drawn from a seeded mix of 1-, 2-, 3- and
    /// 4-byte UTF-8 chars.
    fn mixed(n: usize, mut seed: u64) -> String {
        const POOL: [char; 10] = ['a', 'Z', '7', ' ', 'é', 'ß', '日', '本', '😀', '🎉'];
        (0..n)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                POOL[(seed >> 33) as usize % POOL.len()]
            })
            .collect()
    }

    fn check(text: &str, pairs: &[(i64, i64)]) {
        let mut vm = TestVm::new();
        vm.load(string_ops_class()).unwrap();
        let tag = vm.string_class.heap_class();
        let s = Value::Ref(vm.space.alloc_str(vm.heap, tag, text).unwrap());
        let n = text.chars().count() as i64;
        assert_eq!(
            outcome(&mut vm, "len", vec![s]),
            oracle_len(text),
            "len {text:?}"
        );
        for i in -1..=n + 1 {
            assert_eq!(
                outcome(&mut vm, "at", vec![s, Value::Int(i)]),
                oracle_char_at(text, i),
                "charAt({i}) of {text:?}"
            );
        }
        for &(a, b) in pairs {
            assert_eq!(
                outcome(&mut vm, "sub", vec![s, Value::Int(a), Value::Int(b)]),
                oracle_substring(text, a, b),
                "substring({a}, {b}) of {text:?}"
            );
        }
    }

    #[test]
    fn short_strings_match_the_oracle_at_every_index() {
        for text in [
            "",
            "hello, world",
            "café",
            "日本語のテキスト",
            "a😀b🎉",
            "é",
        ] {
            let n = text.chars().count() as i64;
            let pairs: Vec<_> = (-1..=n + 1)
                .flat_map(|a| (-1..=n + 1).map(move |b| (a, b)))
                .collect();
            check(text, &pairs);
        }
    }

    #[test]
    fn a_long_mixed_string_matches_the_oracle() {
        let text = mixed(1000, 7);
        assert_eq!(text.chars().count(), 1000);
        assert!(text.len() > 1000, "the sample must not be ASCII");
        let mut seed = 0x5eed_u64;
        let mut draw = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1003) as i64 - 1
        };
        let pairs: Vec<_> = (0..1000).map(|_| (draw(), draw())).collect();
        check(&text, &pairs);
    }
}

/// The array ops as Cup compiles them (`new int[n]`, `a[i]`, `a[i] = v`,
/// `a.len()`, `"" + a`, `"" + a[i]`) against a plain-Rust oracle, for
/// `int[]` and `float[]` of lengths 0, 1 and 5 at every index from -1 to
/// n + 1, fused and one op per step: values, exception classes and
/// messages.
mod array_oracle {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Out {
        Int(i64),
        Float(f64),
        Str(String),
        Array(kaffeos_heap::ObjRef),
        Done,
        Raised(String, String),
    }

    /// The two unboxed element kinds.
    #[derive(Clone, Copy)]
    enum Kind {
        Ints,
        Floats,
    }

    impl Kind {
        fn name(self) -> &'static str {
            match self {
                Kind::Ints => "int",
                Kind::Floats => "float",
            }
        }

        fn elem(self) -> TypeDesc {
            match self {
                Kind::Ints => TypeDesc::Int,
                Kind::Floats => TypeDesc::Float,
            }
        }

        /// A fresh array's elements.
        fn zero(self) -> Value {
            match self {
                Kind::Ints => Value::Int(0),
                Kind::Floats => Value::Float(0.0),
            }
        }

        fn value(self, i: i64) -> Value {
            match self {
                Kind::Ints if i == 0 => Value::Int(i64::MIN),
                Kind::Ints => Value::Int(i * 7 - 3),
                Kind::Floats if i == 0 => Value::Float(-0.0),
                Kind::Floats => Value::Float(i as f64 * 1.25 - 2.0),
            }
        }

        fn out(self, v: Value) -> Out {
            match v {
                Value::Int(i) => Out::Int(i),
                Value::Float(f) => Out::Float(f),
                other => panic!("{other:?} in a {} array", self.name()),
            }
        }
    }

    fn bounds(i: i64, n: i64) -> Out {
        Out::Raised(
            "IndexOutOfBoundsException".to_string(),
            format!("index {i} out of bounds for length {n}"),
        )
    }

    /// The guest's rendering of a primitive.
    fn render(v: Value) -> String {
        match v {
            Value::Int(i) => i.to_string(),
            Value::Float(f) if f == f.trunc() && f.is_finite() && f.abs() < 1e15 => {
                format!("{f:.1}")
            }
            Value::Float(f) => f.to_string(),
            other => panic!("render {other:?}"),
        }
    }

    /// Name, parameters, return type and body of one array-op method.
    type OpMethod = (&'static str, Vec<TypeDesc>, Option<TypeDesc>, Vec<Op>);

    /// `Main` with one static method per array op for `kind`, each called
    /// through a `via_` wrapper, so the op runs in a callee frame.
    fn array_ops_class(kind: Kind) -> ClassDef {
        let arr = TypeDesc::Array(Box::new(kind.elem()));
        let (a, int) = (arr.clone(), TypeDesc::Int);
        let mut b = ClassBuilder::new("Main");
        let elem = b.pool(Const::Str(kind.name().to_string()));
        let ops: [OpMethod; 7] = [
            (
                "make",
                vec![int.clone()],
                Some(arr.clone()),
                vec![Op::Load(0), Op::NewArray(elem), Op::ReturnVal],
            ),
            // `a[i]` with both operands in locals (one fused micro) and
            // with a computed index (the plain load micro).
            (
                "at",
                vec![a.clone(), int.clone()],
                Some(kind.elem()),
                vec![Op::Load(0), Op::Load(1), Op::ALoad, Op::ReturnVal],
            ),
            (
                "at_computed",
                vec![a.clone(), int.clone()],
                Some(kind.elem()),
                vec![
                    Op::Load(0),
                    Op::Load(1),
                    Op::ConstInt(0),
                    Op::Add,
                    Op::ALoad,
                    Op::ReturnVal,
                ],
            ),
            (
                "set",
                vec![a.clone(), int.clone(), kind.elem()],
                None,
                vec![
                    Op::Load(0),
                    Op::Load(1),
                    Op::Load(2),
                    Op::AStore,
                    Op::Return,
                ],
            ),
            (
                "len",
                vec![a.clone()],
                Some(int.clone()),
                vec![Op::Load(0), Op::ArrayLen, Op::ReturnVal],
            ),
            (
                "show",
                vec![a.clone()],
                Some(TypeDesc::Str),
                vec![Op::Load(0), Op::ToStr, Op::ReturnVal],
            ),
            (
                "show_at",
                vec![a, int],
                Some(TypeDesc::Str),
                vec![
                    Op::Load(0),
                    Op::Load(1),
                    Op::ALoad,
                    Op::ToStr,
                    Op::ReturnVal,
                ],
            ),
        ];
        for (name, params, ret, body) in ops {
            let target = b.pool(Const::Method {
                class: "Main".to_string(),
                name: name.to_string(),
            });
            let mut call: Vec<Op> = (0..params.len() as u16).map(Op::Load).collect();
            call.push(Op::CallStatic(target));
            call.push(if ret.is_some() {
                Op::ReturnVal
            } else {
                Op::Return
            });
            for (name, ops) in [(name.to_string(), body), (format!("via_{name}"), call)] {
                let mut m = MethodBuilder::of_static(&name);
                for p in &params {
                    m = m.param(p.clone());
                }
                if let Some(r) = &ret {
                    m = m.returns(r.clone());
                }
                b = b.method(m.ops(ops).build());
            }
        }
        b.build()
    }

    /// A test VM with `Main` loaded for one element kind.
    struct Arrays {
        vm: TestVm,
    }

    impl Arrays {
        fn new(kind: Kind) -> Self {
            let mut vm = TestVm::new();
            vm.load(array_ops_class(kind)).unwrap();
            Arrays { vm }
        }

        /// `via_method(args)`, fused and one op per step, which must agree
        /// up to the identity of a returned array.
        fn call(&mut self, method: &str, args: Vec<Value>) -> Out {
            let (fused, plain) = self.vm.run_split("Main", &format!("via_{method}"), args);
            let out = self.decode(method, fused);
            match (&out, self.decode(method, plain)) {
                (Out::Array(_), Out::Array(_)) => {}
                (out, split) => assert_eq!(&split, out, "{method}: fuel split"),
            }
            out
        }

        fn decode(&mut self, method: &str, exit: RunExit) -> Out {
            let vm = &mut self.vm;
            match exit {
                RunExit::Finished(None) => Out::Done,
                RunExit::Finished(Some(Value::Int(v))) => Out::Int(v),
                RunExit::Finished(Some(Value::Float(v))) => Out::Float(v),
                RunExit::Finished(Some(Value::Ref(r))) => match vm.space.str_value(r) {
                    Ok(s) => Out::Str(s.to_string()),
                    Err(_) => Out::Array(r),
                },
                RunExit::Unhandled(VmException::Guest(ex)) => {
                    let class = vm.table.from_heap_class(vm.space.class_of(ex).unwrap());
                    let Value::Ref(msg) = vm.space.load(ex, 0).unwrap() else {
                        panic!("{method}: exception without a message");
                    };
                    Out::Raised(
                        vm.table.class(class).name().to_string(),
                        vm.space.str_value(msg).unwrap().to_string(),
                    )
                }
                other => panic!("{method}: unexpected exit {other:?}"),
            }
        }
    }

    fn check(kind: Kind, n: i64) {
        let mut t = Arrays::new(kind);
        let label = format!("{}[{n}]", kind.name());
        let Out::Array(arr) = t.call("make", vec![Value::Int(n)]) else {
            panic!("{label}: make returned no array");
        };
        let arr = Value::Ref(arr);
        assert_eq!(t.call("len", vec![arr]), Out::Int(n), "{label}: len");
        assert_eq!(
            t.call("show", vec![arr]),
            Out::Str(format!("array[{n}]")),
            "{label}: render"
        );
        let in_range = |i: i64| (0..n).contains(&i);
        let loads = ["at", "at_computed"];
        for i in -1..=n + 1 {
            let zero = if in_range(i) {
                kind.out(kind.zero())
            } else {
                bounds(i, n)
            };
            for m in loads {
                let got = t.call(m, vec![arr, Value::Int(i)]);
                assert_eq!(got, zero, "{label}: fresh {m}({i})");
            }
        }
        for i in -1..=n + 1 {
            let stored = if in_range(i) { Out::Done } else { bounds(i, n) };
            let got = t.call("set", vec![arr, Value::Int(i), kind.value(i)]);
            assert_eq!(got, stored, "{label}: set({i})");
        }
        for i in -1..=n + 1 {
            let (value, shown) = if in_range(i) {
                (kind.out(kind.value(i)), Out::Str(render(kind.value(i))))
            } else {
                (bounds(i, n), bounds(i, n))
            };
            for m in loads {
                let got = t.call(m, vec![arr, Value::Int(i)]);
                assert_eq!(got, value, "{label}: {m}({i})");
            }
            let got = t.call("show_at", vec![arr, Value::Int(i)]);
            assert_eq!(got, shown, "{label}: show_at({i})");
        }
    }

    #[test]
    fn int_and_float_arrays_match_the_oracle_at_every_index() {
        for kind in [Kind::Ints, Kind::Floats] {
            for n in [0, 1, 5] {
                check(kind, n);
            }
        }
    }
}

/// The link memo: one linked definition, and so one body per method, per
/// load context, shared across the namespaces that load over it.
mod body_memo {
    use super::*;
    use crate::jit::CompiledBody;

    /// Runs `class.method()` in namespace `ns` and returns the answer.
    fn run_in(vm: &mut TestVm, ns: u32, class: &str, method: &str) -> i64 {
        vm.ns = ns;
        match vm.run(class, method, vec![]) {
            RunExit::Finished(Some(Value::Int(v))) => v,
            other => panic!("{class}.{method}: unexpected exit {other:?}"),
        }
    }

    /// The body linked for `class.method` in namespace `ns`.
    fn body(vm: &TestVm, ns: u32, class: &str, method: &str) -> Arc<CompiledBody> {
        let cls = vm.table.lookup(ns, class).unwrap();
        let m = vm.table.find_method(cls, method).unwrap();
        vm.table.method(m).body.clone()
    }

    /// `Base` in one of two layouts: `{ int x; }`, or `{ int y; int x; }`
    /// where `init` also sets `y` to 100.
    fn base(with_y: bool) -> Arc<ClassDef> {
        let mut b = ClassBuilder::new("Base");
        if with_y {
            b = b.field("y", TypeDesc::Int);
        }
        b = b.field("x", TypeDesc::Int);
        let field = |b: &mut ClassBuilder, name: &str| {
            b.pool(Const::Field {
                class: "Base".to_string(),
                name: name.to_string(),
            })
        };
        let mut ops = Vec::new();
        if with_y {
            let y = field(&mut b, "y");
            ops.extend([Op::Load(0), Op::ConstInt(100), Op::PutField(y)]);
        }
        let x = field(&mut b, "x");
        ops.extend([Op::Load(0), Op::ConstInt(3), Op::PutField(x), Op::Return]);
        b.method(MethodBuilder::instance("init").ops(ops).build())
            .build()
            .into_arc()
    }

    /// `class Sub extends Base { int f; static int m() { Sub s = new Sub();
    /// s.init(); s.f = 4; return s.x * ten() + s.f; } static int ten() {
    /// return 10; } }` plus `run()`, which calls `m`. `m` answers 34 in
    /// either layout, and only if its field slots match the layout it runs
    /// in.
    fn sub() -> Arc<ClassDef> {
        let mut b = ClassBuilder::new("Sub")
            .extends("Base")
            .field("f", TypeDesc::Int);
        let cls = b.pool(Const::Class("Sub".to_string()));
        let init = b.pool(Const::Method {
            class: "Base".to_string(),
            name: "init".to_string(),
        });
        let x = b.pool(Const::Field {
            class: "Base".to_string(),
            name: "x".to_string(),
        });
        let f = b.pool(Const::Field {
            class: "Sub".to_string(),
            name: "f".to_string(),
        });
        let [m, ten] = ["m", "ten"].map(|name| {
            b.pool(Const::Method {
                class: "Sub".to_string(),
                name: name.to_string(),
            })
        });
        b.method(
            MethodBuilder::of_static("m")
                .returns(TypeDesc::Int)
                .locals(1)
                .ops([
                    Op::New(cls),
                    Op::Store(0),
                    Op::Load(0),
                    Op::CallVirtual(init),
                    Op::Load(0),
                    Op::ConstInt(4),
                    Op::PutField(f),
                    Op::Load(0),
                    Op::GetField(x),
                    Op::CallStatic(ten),
                    Op::Mul,
                    Op::Load(0),
                    Op::GetField(f),
                    Op::Add,
                    Op::ReturnVal,
                ])
                .build(),
        )
        .method(
            MethodBuilder::of_static("ten")
                .returns(TypeDesc::Int)
                .ops([Op::ConstInt(10), Op::ReturnVal])
                .build(),
        )
        .method(
            MethodBuilder::of_static("run")
                .returns(TypeDesc::Int)
                .ops([Op::CallStatic(m), Op::ReturnVal])
                .build(),
        )
        .build()
        .into_arc()
    }

    /// One definition bound over two field layouts gets a linked definition
    /// per layout, and each answers correctly. The two load contexts share
    /// no body: a body belongs to the definition as linked in one context,
    /// so `ten` and `run`, which access no field, are lowered once per
    /// layout as well.
    #[test]
    fn one_definition_over_two_field_layouts_gets_two_bodies() {
        let mut vm = TestVm::new();
        let shared = vm.ns;
        let sub = sub();
        let before = vm.table.body_usage().0;
        let mut loads = Vec::new();
        for with_y in [false, true] {
            let ns = vm
                .table
                .create_namespace(format!("y{with_y}"), Some(shared));
            let start = vm.table.lowering_totals();
            vm.table.load_class(ns, base(with_y)).unwrap();
            vm.table.load_class(ns, sub.clone()).unwrap();
            loads.push((ns, vm.table.lowering_totals().since(start)));
            let answer = run_in(&mut vm, ns, "Sub", "run");
            assert_eq!(answer, 34, "layout with_y={with_y}");
        }
        let ((a, la), (b, lb)) = (loads[0], loads[1]);
        let link = |ns| vm.table.class(vm.table.lookup(ns, "Sub").unwrap()).link.clone();
        assert!(!Arc::ptr_eq(&link(a), &link(b)));
        for method in ["m", "ten", "run"] {
            let (ba, bb) = (body(&vm, a, "Sub", method), body(&vm, b, "Sub", method));
            assert!(!Arc::ptr_eq(&ba, &bb), "{method} shared across layouts");
        }
        // `Base.init`, then `Sub.m`, `ten` and `run`: all lowered in each.
        for l in [la, lb] {
            assert_eq!((l.compiled, l.hits, l.reuse), (4, 0, 0), "{l:?}");
        }
        assert_eq!(vm.table.body_usage().0 - before, 8);
    }

    /// 1 000 re-spawns of one definition link it once: after the first
    /// spawn the memo's edge count and body usage stay constant, each
    /// spawn adds exactly its class and method records, every spawn's
    /// records point at one linked definition and one body, and only the
    /// first spawn verifies or lowers.
    #[test]
    fn respawns_share_one_memoized_body() {
        let mut vm = TestVm::new();
        let shared = vm.ns;
        // `static int main() { int i = 0; while (i < 10) i = i + 1; return i; }`
        let main = main_class(
            MethodBuilder::of_static("main")
                .returns(TypeDesc::Int)
                .locals(1)
                .ops([
                    /*0*/ Op::ConstInt(0),
                    /*1*/ Op::Store(0),
                    /*2*/ Op::Load(0),
                    /*3*/ Op::ConstInt(10),
                    /*4*/ Op::CmpLt,
                    /*5*/ Op::JumpIfFalse(11),
                    /*6*/ Op::Load(0),
                    /*7*/ Op::ConstInt(1),
                    /*8*/ Op::Add,
                    /*9*/ Op::Store(0),
                    /*10*/ Op::Jump(2),
                    /*11*/ Op::Load(0),
                    /*12*/ Op::ReturnVal,
                ]),
        )
        .into_arc();
        let before = vm.table.body_usage().0;
        let mut first = None;
        for k in 0..1000 {
            let ns = vm.table.create_namespace(format!("p{k}"), Some(shared));
            let records = (vm.table.classes.len(), vm.table.methods.len());
            let (start, verified) = (vm.table.lowering_totals(), vm.table.verifications);
            let cls = vm.table.load_class(ns, main.clone()).unwrap();
            let lowered = vm.table.lowering_totals().since(start);
            let grown = (
                vm.table.classes.len() - records.0,
                vm.table.methods.len() - records.1,
            );
            assert_eq!(grown, (1, 1), "spawn {k}");
            assert_eq!(vm.table.verifications - verified, (k == 0) as usize);
            assert_eq!(lowered.compiled, (k == 0) as u64);
            assert_eq!(run_in(&mut vm, ns, "Main", "main"), 10);

            let link = vm.table.class(cls).link.clone();
            let b = body(&vm, ns, "Main", "main");
            assert!(Arc::ptr_eq(&link.methods[0].body, &b));
            let memo = (vm.table.verify_edges(), vm.table.body_usage());
            let (link0, b0, memo0) = first.get_or_insert_with(|| (link.clone(), b.clone(), memo));
            assert!(Arc::ptr_eq(link0, &link), "spawn {k} linked a definition of its own");
            assert!(Arc::ptr_eq(b0, &b), "spawn {k} runs a body of its own");
            assert_eq!(*memo0, memo, "spawn {k} grew the memo");
        }
        assert_eq!(vm.table.body_usage().0 - before, 1);
    }

    /// A load under a dropped namespace's child has no load context to
    /// key: every such load verifies, lowers and runs correctly, and the
    /// memo gains nothing.
    #[test]
    fn a_load_under_a_dropped_namespace_links_afresh() {
        let mut vm = TestVm::new();
        let shared = vm.ns;
        let object = vm.table.class(vm.table.lookup(shared, "Object").unwrap()).link.def.clone();
        let dead = vm.table.create_namespace("dead", Some(shared));
        vm.table.drop_namespace(dead);
        vm.table.load_class(dead, object).unwrap();
        let memo = (vm.table.verify_edges(), vm.table.body_usage());
        let (base, sub) = (base(true), sub());
        for k in 0..2 {
            let ns = vm.table.create_namespace(format!("below{k}"), Some(dead));
            let (start, verified) = (vm.table.lowering_totals(), vm.table.verifications);
            vm.table.load_class(ns, base.clone()).unwrap();
            vm.table.load_class(ns, sub.clone()).unwrap();
            let lowered = vm.table.lowering_totals().since(start);
            assert_eq!(vm.table.verifications - verified, 2, "below{k}");
            assert_eq!((lowered.compiled, lowered.hits), (4, 0), "below{k}");
            assert_eq!(run_in(&mut vm, ns, "Sub", "run"), 34, "below{k}");
        }
        assert_eq!((vm.table.verify_edges(), vm.table.body_usage()), memo);
    }
}

/// `new` and the statics object copy their class's typed-zero template
/// (DESIGN §17), into a fresh buffer or one the payload pool recycled.
mod class_templates {
    use super::*;
    use kaffeos_heap::ObjRef;

    /// `Base` has an `int`, a `float` and a reference field, and statics of
    /// the same three types; `Sub` adds an `int` and a `float`.
    fn load_classes(vm: &mut TestVm) {
        vm.load(
            ClassBuilder::new("Base")
                .field("i", TypeDesc::Int)
                .field("f", TypeDesc::Float)
                .field("r", TypeDesc::Str)
                .static_field("si", TypeDesc::Int)
                .static_field("sf", TypeDesc::Float)
                .static_field("sr", TypeDesc::Str)
                .build(),
        )
        .unwrap();
        vm.load(
            ClassBuilder::new("Sub")
                .extends("Base")
                .field("j", TypeDesc::Int)
                .field("g", TypeDesc::Float)
                .build(),
        )
        .unwrap();
        let mut b = ClassBuilder::new("Main");
        let base = b.pool(Const::Class("Base".to_string()));
        let sub = b.pool(Const::Class("Sub".to_string()));
        let si = b.pool(Const::Field {
            class: "Base".to_string(),
            name: "si".to_string(),
        });
        let make = |name: &str, class: &str, idx: u16| {
            MethodBuilder::of_static(name)
                .returns(TypeDesc::Class(class.to_string()))
                .ops([Op::New(idx), Op::ReturnVal])
                .build()
        };
        let main = b
            .method(make("base", "Base", base))
            .method(make("sub", "Sub", sub))
            .method(
                MethodBuilder::of_static("statics")
                    .returns(TypeDesc::Int)
                    .ops([Op::GetStatic(si), Op::ReturnVal])
                    .build(),
            )
            .build();
        vm.load(main).unwrap();
    }

    const BASE: [Value; 3] = [Value::Int(0), Value::Float(0.0), Value::Null];
    const SUB: [Value; 5] = [
        Value::Int(0),
        Value::Float(0.0),
        Value::Null,
        Value::Int(0),
        Value::Float(0.0),
    ];

    fn new_object(vm: &mut TestVm, method: &str) -> ObjRef {
        match vm.run("Main", method, vec![]) {
            RunExit::Finished(Some(Value::Ref(obj))) => obj,
            other => panic!("Main.{method}: {other:?}"),
        }
    }

    fn slots(vm: &TestVm, obj: ObjRef) -> Vec<Value> {
        let n = vm.space.slot_count(obj).unwrap();
        (0..n).map(|i| vm.space.load(obj, i).unwrap()).collect()
    }

    /// The statics object of `Base`, created by a `GetStatic`.
    fn statics(vm: &mut TestVm) -> Vec<Value> {
        assert_eq!(vm.run_int("Main", "statics", vec![]), 0);
        let base = vm.table.lookup(vm.ns, "Base").unwrap();
        let obj = vm.statics[&base];
        slots(vm, obj)
    }

    #[test]
    fn fresh_objects_and_statics_hold_typed_zeros() {
        let mut vm = TestVm::new();
        load_classes(&mut vm);
        let base = new_object(&mut vm, "base");
        assert_eq!(slots(&vm, base), BASE);
        // The subclass's template carries the inherited slots' defaults.
        let sub = new_object(&mut vm, "sub");
        assert_eq!(slots(&vm, sub), SUB);
        assert_eq!(statics(&mut vm), BASE);
    }

    #[test]
    fn recycled_buffers_are_overwritten_with_typed_zeros() {
        let mut vm = TestVm::new();
        load_classes(&mut vm);
        // Dirty two three-slot buffers and a five-slot one, then let the
        // collector park them all in the payload pool.
        for method in ["base", "base", "sub"] {
            let obj = new_object(&mut vm, method);
            let n = vm.space.slot_count(obj).unwrap();
            for i in 0..n {
                match slots(&vm, obj)[i] {
                    Value::Int(_) => vm.space.store_prim(obj, i, Value::Int(7)).unwrap(),
                    Value::Float(_) => vm.space.store_prim(obj, i, Value::Float(2.5)).unwrap(),
                    _ => {
                        vm.space.store_ref(obj, i, Value::Ref(obj), false).unwrap();
                    }
                }
            }
            for (v, zero) in slots(&vm, obj).into_iter().zip(SUB) {
                assert_ne!(v, zero, "Main.{method}: a slot stayed zero");
            }
        }
        vm.space.gc(vm.heap, &[]).unwrap();
        let base = new_object(&mut vm, "base");
        assert_eq!(slots(&vm, base), BASE);
        assert_eq!(statics(&mut vm), BASE);
        let sub = new_object(&mut vm, "sub");
        assert_eq!(slots(&vm, sub), SUB);
    }
    /// A builtin exception the VM materialises is a copy of its class's
    /// template too: in a namespace whose `ArithmeticException` declares
    /// `msg` and an `int code`, a handler for a division by zero reads
    /// `code` as `Int(0)`.
    #[test]
    fn materialised_builtin_exceptions_hold_typed_zeros() {
        let mut vm = TestVm::new();
        let ns = vm.table.create_namespace("coded", None);
        vm.ns = ns;
        for def in base_classes().into_iter().take(3) {
            vm.load(def).unwrap();
        }
        vm.load(
            ClassBuilder::new("ArithmeticException")
                .extends("Exception")
                .field("msg", TypeDesc::Str)
                .field("code", TypeDesc::Int)
                .build(),
        )
        .unwrap();
        let mut b = ClassBuilder::new("Main");
        let arith = b.pool(Const::Class("ArithmeticException".to_string()));
        let code = b.pool(Const::Field {
            class: "ArithmeticException".to_string(),
            name: "code".to_string(),
        });
        let main = MethodBuilder::of_static("main")
            .returns(TypeDesc::Int)
            .ops([
                /*0*/ Op::ConstInt(1),
                /*1*/ Op::ConstInt(0),
                /*2*/ Op::Div,
                /*3*/ Op::ReturnVal,
                /*4*/ Op::GetField(code),
                /*5*/ Op::ReturnVal,
            ])
            .handler(0, 4, 4, arith)
            .build();
        vm.load(b.method(main).build()).unwrap();
        let exit = vm.run("Main", "main", vec![]);
        assert!(
            matches!(exit, RunExit::Finished(Some(Value::Int(0)))),
            "{exit:?}"
        );
    }
}
