//! End-to-end compiler tests: Cup source → bytecode → verifier → VM.

use kaffeos_heap::FxHashMap;

use kaffeos_heap::{HeapSpace, SpaceConfig, Value};
use kaffeos_memlimit::Kind;
use kaffeos_vm::{
    step, ClassBuilder, ClassTable, Engine, ExecCtx, IntrinsicRegistry, RunExit, Thread, TypeDesc,
    VmException,
};

use crate::compile;

/// An exception class with a `msg` field and an `init(String)` constructor.
fn exception_class(name: &str, extends: Option<&str>) -> kaffeos_vm::ClassDef {
    use kaffeos_vm::{Const, MethodBuilder, Op};
    let mut b = ClassBuilder::new(name);
    if let Some(parent) = extends {
        b = b.extends(parent);
    }
    let mut b = b.field("msg", TypeDesc::Str);
    let fmsg = b.pool(Const::Field {
        class: name.to_string(),
        name: "msg".to_string(),
    });
    b.method(
        MethodBuilder::instance("init")
            .param(TypeDesc::Str)
            .ops([Op::Load(0), Op::Load(1), Op::PutField(fmsg), Op::Return])
            .build(),
    )
    .build()
}

fn base_classes() -> Vec<kaffeos_vm::ClassDef> {
    let mut out = vec![
        ClassBuilder::root("Object").build(),
        ClassBuilder::new("String").build(),
        exception_class("Exception", None),
    ];
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
        // Subclasses inherit `msg` and `init` from Exception.
        out.push(ClassBuilder::new(name).extends("Exception").build());
    }
    out
}

struct Host {
    space: HeapSpace,
    table: ClassTable,
    ns: u32,
    heap: kaffeos_heap::HeapId,
    string_class: kaffeos_vm::ClassIdx,
    statics: FxHashMap<kaffeos_vm::ClassIdx, kaffeos_heap::ObjRef>,
    intern: FxHashMap<String, kaffeos_heap::ObjRef>,
    monitors: FxHashMap<kaffeos_heap::ObjRef, (u32, u32)>,
    printed: Vec<String>,
}

impl Host {
    fn new() -> Self {
        let mut registry = IntrinsicRegistry::new();
        registry.register("sys.print", vec![TypeDesc::Str], None);
        registry.register("sys.cycles", vec![], Some(TypeDesc::Int));
        let mut space = HeapSpace::new(SpaceConfig::default());
        let root = space.root_memlimit();
        let ml = space
            .limits_mut()
            .create_child(root, Kind::Soft, 64 << 20, "p")
            .unwrap();
        let heap = space.create_user_heap(kaffeos_heap::ProcTag(1), ml, "h");
        let mut table = ClassTable::new(registry);
        let ns = table.create_namespace("test", None);
        for def in base_classes() {
            table.load_class(ns, def.into_arc()).unwrap();
        }
        let string_class = table.lookup(ns, "String").unwrap();
        Host {
            space,
            table,
            ns,
            heap,
            string_class,
            statics: FxHashMap::default(),
            intern: FxHashMap::default(),
            monitors: FxHashMap::default(),
            printed: Vec::new(),
        }
    }

    fn compile_and_load(&mut self, src: &str) {
        let defs = compile(src, &self.table, self.ns).expect("compile");
        for def in defs {
            self.table
                .load_class(self.ns, def.into_arc())
                .expect("load");
        }
    }

    /// Runs `Main.main(args)` to completion, servicing `sys.print`.
    fn run(&mut self, args: Vec<Value>) -> RunExit {
        let cidx = self.table.lookup(self.ns, "Main").unwrap();
        let midx = self.table.find_method(cidx, "main").unwrap();
        let mut thread = Thread::new(1, &self.table, midx, args);
        loop {
            let exit = {
                let mut ctx = ExecCtx {
                    space: &mut self.space,
                    table: &self.table,
                    ns: self.ns,
                    heap: self.heap,
                    trusted: false,
                    engine: Engine::KAFFEOS,
                    statics: &mut self.statics,
                    intern: &mut self.intern,
                    string_class: self.string_class,
                    monitors: &mut self.monitors,
                    extra_roots: &[],
                    extra_scan_slots: 0,
                    gc_every_safepoint: false,
                    jit: None,
                };
                step(&mut thread, &mut ctx, u64::MAX)
            };
            match exit {
                RunExit::Syscall { id: 0, args } => {
                    // sys.print
                    if let Some(Value::Ref(s)) = args.first() {
                        self.printed
                            .push(self.space.str_value(*s).unwrap().to_string());
                    }
                    thread.resume_with(None);
                }
                RunExit::Syscall { id: 1, .. } => {
                    // sys.cycles
                    let c = thread.cycles as i64;
                    thread.resume_with(Some(Value::Int(c)));
                }
                other => return other,
            }
        }
    }

    fn run_int(&mut self, args: Vec<Value>) -> i64 {
        match self.run(args) {
            RunExit::Finished(Some(Value::Int(v))) => v,
            other => panic!("expected int, got {other:?}"),
        }
    }

    fn unhandled_class(&mut self, args: Vec<Value>) -> String {
        match self.run(args) {
            RunExit::Unhandled(VmException::Guest(obj)) => {
                let cidx = self
                    .table
                    .from_heap_class(self.space.class_of(obj).unwrap());
                self.table.class(cidx).name.clone()
            }
            other => panic!("expected unhandled exception, got {other:?}"),
        }
    }
}

fn run_main_int(src: &str, args: Vec<Value>) -> i64 {
    let mut host = Host::new();
    host.compile_and_load(src);
    host.run_int(args)
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(
        run_main_int(
            "class Main { static int main() { return 2 + 3 * 4 - 6 / 2; } }",
            vec![]
        ),
        11
    );
    assert_eq!(
        run_main_int(
            "class Main { static int main() { return (2 + 3) * (4 - 6) / 2; } }",
            vec![]
        ),
        -5
    );
    assert_eq!(
        run_main_int(
            "class Main { static int main() { return 7 % 3 + (1 << 4) + (256 >> 2) + (12 & 10) + (12 | 3) + (5 ^ 1); } }",
            vec![]
        ),
        7 % 3 + (1 << 4) + (256 >> 2) + (12 & 10) + (12 | 3) + (5 ^ 1)
    );
}

#[test]
fn while_and_for_loops() {
    let src = r#"
        class Main {
            static int main(int n) {
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { continue; }
                    if (i > 20) { break; }
                    acc = acc + i;
                }
                int j = 0;
                while (j < 3) { acc = acc * 2; j = j + 1; }
                return acc;
            }
        }
    "#;
    // odd i in 0..n capped at 20: for n=10 → 1+3+5+7+9 = 25, ×8 = 200
    assert_eq!(run_main_int(src, vec![Value::Int(10)]), 200);
    // for n=100: odds ≤ 20 → 1+3+..+19 = 100; wait break at i>20, so odds
    // up to 19 plus i=21 triggers break before adding: 100 × 8 = 800.
    assert_eq!(run_main_int(src, vec![Value::Int(100)]), 800);
}

#[test]
fn classes_fields_and_methods() {
    let src = r#"
        class Counter {
            int count;
            init(int start) { this.count = start; }
            void bump() { this.count = this.count + 1; }
            int get() { return count; }
        }
        class Main {
            static int main() {
                Counter c = new Counter(40);
                c.bump();
                c.bump();
                return c.get();
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![]), 42);
}

#[test]
fn inheritance_and_virtual_dispatch() {
    let src = r#"
        class Shape {
            int area() { return 0; }
            int describe() { return this.area() * 10; }
        }
        class Square extends Shape {
            int side;
            init(int s) { this.side = s; }
            int area() { return side * side; }
        }
        class Main {
            static int main() {
                Shape s = new Square(3);
                return s.describe();
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![]), 90);
}

#[test]
fn static_fields_and_methods() {
    let src = r#"
        class Registry {
            static int total;
            static void add(int n) { Registry.total = Registry.total + n; }
        }
        class Main {
            static int main() {
                Registry.add(30);
                Registry.add(12);
                return Registry.total;
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![]), 42);
}

#[test]
fn arrays_and_nested_arrays() {
    let src = r#"
        class Main {
            static int main(int n) {
                int[] a = new int[n];
                for (int i = 0; i < n; i = i + 1) { a[i] = i * i; }
                int[][] m = new int[][3];
                m[0] = a;
                int acc = 0;
                for (int i = 0; i < m[0].len(); i = i + 1) { acc = acc + m[0][i]; }
                return acc;
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![Value::Int(5)]), 1 + 4 + 9 + 16);
}

#[test]
fn strings_concat_and_builtins() {
    let src = r#"
        class Main {
            static int main() {
                String s = "val=" + 42;
                if (s.eq("val=42")) {
                    String sub = s.substr(4, s.len());
                    return sub.toInt() + s.charAt(0);
                }
                return -1;
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![]), 42 + 'v' as i64);
}

#[test]
fn char_at_out_of_range_raises_on_both_sides() {
    // Both ends raise, with the index in the message.
    let src = r#"
        class Main {
            static int main(int i) {
                String s = "abc";
                try {
                    return s.charAt(i);
                } catch (IndexOutOfBoundsException e) {
                    if (e.msg.eq("string index " + i)) { return -1; }
                    return -2;
                }
            }
        }
    "#;
    let mut host = Host::new();
    host.compile_and_load(src);
    let at = |host: &mut Host, i: i64| host.run_int(vec![Value::Int(i)]);
    assert_eq!(at(&mut host, 0), 'a' as i64);
    assert_eq!(at(&mut host, 2), 'c' as i64);
    assert_eq!(at(&mut host, -1), -1);
    assert_eq!(at(&mut host, 3), -1);
}

#[test]
fn string_identity_semantics() {
    // `==` is reference equality; literals are interned per process, so the
    // literal equals itself but not a computed string (§3.3).
    let src = r#"
        class Main {
            static int main() {
                String a = "x";
                String b = "x";
                String c = "" + "x";
                int r = 0;
                if (a == b) { r = r + 1; }
                if (a == c) { r = r + 10; }
                if (a.eq(c)) { r = r + 100; }
                return r;
            }
        }
    "#;
    // a==b (interned), a!=c (fresh), a.eq(c) true → 101. Note "" + "x"
    // builds a fresh (non-interned) string via concatenation.
    assert_eq!(run_main_int(src, vec![]), 101);
}

#[test]
fn exceptions_try_catch_throw() {
    let src = r#"
        class Main {
            static int main(int n) {
                try {
                    if (n == 0) { throw new Exception("zero"); }
                    return 100 / n;
                } catch (Exception e) {
                    return -1;
                }
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![Value::Int(4)]), 25);
    assert_eq!(run_main_int(src, vec![Value::Int(0)]), -1);
}

#[test]
fn builtin_exceptions_caught_by_class() {
    let src = r#"
        class Main {
            static int main(int n) {
                try {
                    int[] a = new int[3];
                    return a[n];
                } catch (IndexOutOfBoundsException e) {
                    return -2;
                } catch (Exception e) {
                    return -1;
                }
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![Value::Int(1)]), 0);
    assert_eq!(run_main_int(src, vec![Value::Int(9)]), -2);
}

#[test]
fn uncaught_exception_unwinds() {
    let src = r#"
        class Main {
            static int main() { return 1 / 0; }
        }
    "#;
    let mut host = Host::new();
    host.compile_and_load(src);
    assert_eq!(host.unhandled_class(vec![]), "ArithmeticException");
}

#[test]
fn cast_and_instanceof() {
    let src = r#"
        class Animal { int noise() { return 1; } }
        class Dog extends Animal {
            int noise() { return 2; }
            int fetch() { return 7; }
        }
        class Main {
            static int main() {
                Animal a = new Dog();
                int r = 0;
                if (a is Dog) { r = r + (a as Dog).fetch(); }
                if (a is Animal) { r = r + a.noise(); }
                return r;
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![]), 9);
}

#[test]
fn logical_short_circuit() {
    let src = r#"
        class Main {
            static int calls;
            static bool bump() { Main.calls = Main.calls + 1; return true; }
            static int main() {
                bool a = false && Main.bump();
                bool b = true || Main.bump();
                if (a || !b) { return -1; }
                return Main.calls;
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![]), 0, "rhs never evaluated");
}

#[test]
fn float_arithmetic_and_promotion() {
    let src = r#"
        class Main {
            static int main() {
                float x = 1.5;
                float y = x * 4 + 1;   // int operands promote
                if (y > 6.9 && y < 7.1) { return 1; }
                return 0;
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![]), 1);
}

#[test]
fn recursion_fib() {
    let src = r#"
        class Main {
            static int fib(int n) {
                if (n < 2) { return n; }
                return Main.fib(n - 1) + Main.fib(n - 2);
            }
            static int main(int n) { return fib(n); }
        }
    "#;
    assert_eq!(run_main_int(src, vec![Value::Int(15)]), 610);
}

#[test]
fn sync_blocks_compile_and_release() {
    let src = r#"
        class Main {
            static int main() {
                Object lock = new Object();
                int acc = 0;
                sync (lock) { acc = acc + 21; }
                sync (lock) { acc = acc + 21; }
                return acc;
            }
        }
    "#;
    let mut host = Host::new();
    host.compile_and_load(src);
    assert_eq!(host.run_int(vec![]), 42);
    assert!(host.monitors.is_empty(), "monitors released");
}

#[test]
fn sync_releases_monitor_on_exception() {
    let src = r#"
        class Main {
            static int main() {
                Object lock = new Object();
                try {
                    sync (lock) { throw new Exception("boom"); }
                } catch (Exception e) {
                    return 5;
                }
                return 0;
            }
        }
    "#;
    let mut host = Host::new();
    host.compile_and_load(src);
    assert_eq!(host.run_int(vec![]), 5);
    assert!(host.monitors.is_empty(), "monitor released on unwind");
}

#[test]
fn intrinsics_lower_to_syscalls() {
    let src = r#"
        class Main {
            static int main() {
                Sys.print("hello " + 1);
                Sys.print("world");
                return 0;
            }
        }
    "#;
    let mut host = Host::new();
    host.compile_and_load(src);
    assert_eq!(host.run_int(vec![]), 0);
    assert_eq!(
        host.printed,
        vec!["hello 1".to_string(), "world".to_string()]
    );
}

#[test]
fn extends_library_exception() {
    let src = r#"
        class AppError extends Exception {
            int code;
            init(int c) { this.code = c; }
        }
        class Main {
            static int main() {
                try { throw new AppError(42); }
                catch (AppError e) { return e.code; }
            }
        }
    "#;
    assert_eq!(run_main_int(src, vec![]), 42);
}

mod compile_errors {
    use super::*;

    fn expect_error(src: &str, needle: &str) {
        let host = Host::new();
        let err = compile(src, &host.table, host.ns).unwrap_err();
        assert!(
            err.msg.contains(needle),
            "expected error containing {needle:?}, got {:?}",
            err.msg
        );
    }

    #[test]
    fn unknown_variable() {
        expect_error(
            "class Main { static int main() { return nope; } }",
            "unknown variable",
        );
    }

    #[test]
    fn unknown_class() {
        expect_error(
            "class Main { static void main() { Ghost g = null; } }",
            "unknown class",
        );
    }

    #[test]
    fn type_mismatch_assignment() {
        expect_error(
            "class Main { static void main() { int x = \"s\"; } }",
            "cannot use",
        );
    }

    #[test]
    fn wrong_argument_count() {
        expect_error(
            "class Main { static int f(int a) { return a; } static void main() { Main.f(); } }",
            "expected 1 arguments",
        );
    }

    #[test]
    fn break_outside_loop() {
        expect_error(
            "class Main { static void main() { break; } }",
            "break outside",
        );
    }

    #[test]
    fn this_in_static() {
        expect_error(
            "class Main { int x; static int main() { return this.x; } }",
            "`this` in a static method",
        );
    }

    #[test]
    fn void_as_value() {
        expect_error(
            "class Main { static void f() { } static int main() { return Main.f(); } }",
            "void call used as a value",
        );
    }

    #[test]
    fn duplicate_variable() {
        expect_error(
            "class Main { static void main() { int a = 1; int a = 2; } }",
            "duplicate variable",
        );
    }

    #[test]
    fn unknown_intrinsic() {
        expect_error(
            "class Main { static void main() { Sys.reboot(); } }",
            "unknown intrinsic",
        );
    }
}

/// Every compiled program must pass the VM verifier — spot-check that the
/// compiler's output for tricky control flow (loops with breaks inside
/// try/catch inside sync) verifies and runs.
#[test]
fn kitchen_sink_verifies_and_runs() {
    let src = r#"
        class Node {
            int value;
            Node next;
            init(int v) { this.value = v; }
        }
        class Main {
            static int main(int n) {
                Object lock = new Object();
                Node head = null;
                for (int i = 0; i < n; i = i + 1) {
                    Node fresh = new Node(i);
                    fresh.next = head;
                    head = fresh;
                }
                int acc = 0;
                sync (lock) {
                    Node cur = head;
                    while (cur != null) {
                        try {
                            if (cur.value % 3 == 0) { throw new Exception("skip"); }
                            acc = acc + cur.value;
                        } catch (Exception e) {
                            acc = acc + 1000;
                        }
                        cur = cur.next;
                    }
                }
                return acc;
            }
        }
    "#;
    // values 0..10: multiples of 3 (0,3,6,9) add 1000 each; others sum.
    let expect = 1000 * 4 + (1 + 2 + 4 + 5 + 7 + 8);
    assert_eq!(run_main_int(src, vec![Value::Int(10)]), expect);
}

mod language_coverage {
    use super::*;

    #[test]
    fn operator_precedence_matrix() {
        let cases: &[(&str, i64)] = &[
            ("1 + 2 * 3 - 4 / 2", 5),
            ("(1 + 2) * (3 - 4) / 1", -3),
            ("10 % 4 + 1", 3),
            ("1 << 3 >> 1", 4),
            ("7 & 3 | 8 ^ 1", 3 | 9),
            ("-3 * -4", 12),
            ("10 - -5", 15),
        ];
        for (expr, expected) in cases {
            let src = format!("class Main {{ static int main() {{ return {expr}; }} }}");
            assert_eq!(run_main_int(&src, vec![]), *expected, "{expr}");
        }
    }

    #[test]
    fn boolean_operator_matrix() {
        let cases: &[(&str, i64)] = &[
            ("true && true", 1),
            ("true && false", 0),
            ("false || true", 1),
            ("false || false", 0),
            ("!(1 > 2)", 1),
            ("1 < 2 && 2 < 3 && 3 < 4", 1),
            ("1 == 1 && 1 != 2", 1),
            ("2 >= 2 && 2 <= 2", 1),
        ];
        for (expr, expected) in cases {
            let src = format!(
                "class Main {{ static int main() {{ if ({expr}) {{ return 1; }} return 0; }} }}"
            );
            assert_eq!(run_main_int(&src, vec![]), *expected, "{expr}");
        }
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            class Main {
                static int grade(int score) {
                    if (score >= 90) { return 4; }
                    else if (score >= 80) { return 3; }
                    else if (score >= 70) { return 2; }
                    else { return 0; }
                }
                static int main() {
                    return Main.grade(95) * 1000 + Main.grade(85) * 100
                         + Main.grade(75) * 10 + Main.grade(10);
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 4320);
    }

    #[test]
    fn nested_loops_with_break_and_continue() {
        let src = r#"
            class Main {
                static int main() {
                    int acc = 0;
                    for (int i = 0; i < 10; i = i + 1) {
                        if (i % 2 == 1) { continue; }
                        int j = 0;
                        while (true) {
                            j = j + 1;
                            if (j > i) { break; }
                            acc = acc + 1;
                        }
                        if (i > 6) { break; }
                    }
                    return acc;
                }
            }
        "#;
        // even i: inner adds i. i=0:0, 2:2, 4:4, 6:6, 8:8 then break after 8?
        // break happens when i > 6, i.e. after i=8's inner loop.
        assert_eq!(run_main_int(src, vec![]), 2 + 4 + 6 + 8);
    }

    #[test]
    fn comments_are_skipped() {
        let src = r#"
            // leading comment
            class Main {
                /* block
                   comment */
                static int main() {
                    int x = 5; // trailing
                    /* mid */ return x;
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 5);
    }

    #[test]
    fn negative_modulo_matches_rust_and_java() {
        let src = "class Main { static int main() { return (0 - 7) % 3; } }";
        assert_eq!(run_main_int(src, vec![]), -1);
    }

    #[test]
    fn instance_method_recursion() {
        let src = r#"
            class Walker {
                int depth(int n) {
                    if (n == 0) { return 0; }
                    return 1 + this.depth(n - 1);
                }
            }
            class Main {
                static int main() { return new Walker().depth(17); }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 17);
    }

    #[test]
    fn runtime_cast_failure_raises() {
        let src = r#"
            class A { }
            class B extends A { int only() { return 1; } }
            class Main {
                static int main() {
                    A a = new A();
                    try {
                        B b = a as B;
                        return b.only();
                    } catch (ClassCastException e) {
                        return 42;
                    }
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 42);
    }

    #[test]
    fn string_builtin_surface() {
        let src = r#"
            class Main {
                static int main() {
                    String s = "KaffeOS";
                    int acc = 0;
                    if (s.len() == 7) { acc = acc + 1; }
                    if (s.charAt(0) == 75) { acc = acc + 10; }        // 'K'
                    if (s.substr(5, 7).eq("OS")) { acc = acc + 100; }
                    if (("4" + "2").toInt() == 42) { acc = acc + 1000; }
                    String t = ("Kaffe" + "OS").intern();
                    if (t == "KaffeOS") { acc = acc + 10000; }
                    return acc;
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 11111);
    }

    #[test]
    fn float_literals_and_mixed_expressions() {
        let src = r#"
            class Main {
                static int main() {
                    float a = 0.5;
                    float b = a * 8 + 1.25;   // 5.25
                    float c = b / 0.25;       // 21.0
                    if (c > 20.9 && c < 21.1) { return c.toInt(); }
                    return -1;
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 21);
    }

    #[test]
    fn bool_fields_params_and_returns() {
        let src = r#"
            class Flag {
                bool on;
                bool toggle() { this.on = !this.on; return on; }
            }
            class Main {
                static bool both(bool a, bool b) { return a && b; }
                static int main() {
                    Flag f = new Flag();
                    bool first = f.toggle();   // true
                    bool second = f.toggle();  // false
                    if (Main.both(first, !second)) { return 1; }
                    return 0;
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 1);
    }

    #[test]
    fn static_and_instance_field_shorthand() {
        // Unqualified names resolve to fields of the enclosing class.
        let src = r#"
            class Main {
                static int total;
                int local;
                int bump() {
                    local = local + 1;    // instance shorthand
                    total = total + 10;   // static shorthand
                    return local;
                }
                static int main() {
                    Main m = new Main();
                    m.bump();
                    m.bump();
                    return total + m.local;
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 22);
    }

    #[test]
    fn deep_inheritance_chain_dispatch() {
        let src = r#"
            class L0 { int id() { return 0; } }
            class L1 extends L0 { int id() { return 1; } }
            class L2 extends L1 { }
            class L3 extends L2 { int id() { return 3; } }
            class Main {
                static int main() {
                    L0 a = new L3();
                    L0 b = new L2();
                    return a.id() * 10 + b.id();
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 31);
    }

    #[test]
    fn finally_like_cleanup_via_catch_rethrow() {
        let src = r#"
            class Main {
                static int cleanups;
                static int risky(int n) {
                    try {
                        if (n == 0) { throw new Exception("zero"); }
                        Main.cleanups = Main.cleanups + 1;
                        return 100 / n;
                    } catch (Exception e) {
                        Main.cleanups = Main.cleanups + 1;
                        throw e;
                    }
                }
                static int main() {
                    int acc = 0;
                    try { acc = acc + Main.risky(4); } catch (Exception e) { }
                    try { acc = acc + Main.risky(0); } catch (Exception e) { acc = acc + 7; }
                    return acc * 10 + Main.cleanups;
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), (25 + 7) * 10 + 2);
    }

    #[test]
    fn vectors_of_mixed_user_classes() {
        // The shared-library Vector holds Objects; `as` casts recover them.
        let src = r#"
            class Apple { int weight; init(int w) { this.weight = w; } }
            class Pear { int weight; init(int w) { this.weight = w; } }
            class Main {
                static int main() {
                    Vector basket = new Vector();
                    basket.add(new Apple(100));
                    basket.add(new Pear(60));
                    basket.add(new Apple(120));
                    int apples = 0;
                    for (int i = 0; i < basket.count(); i = i + 1) {
                        Object item = basket.get(i);
                        if (item is Apple) {
                            apples = apples + (item as Apple).weight;
                        }
                    }
                    return apples;
                }
            }
        "#;
        let mut host = Host::new();
        // This test needs the Vector class: compile the shared stdlib too.
        host.compile_and_load(
            r#"
            class Vector {
                Object[] data;
                int size;
                init() { this.data = new Object[4]; this.size = 0; }
                void add(Object item) {
                    if (size == data.len()) {
                        Object[] bigger = new Object[data.len() * 2];
                        for (int i = 0; i < size; i = i + 1) { bigger[i] = data[i]; }
                        this.data = bigger;
                    }
                    data[size] = item;
                    size = size + 1;
                }
                Object get(int i) { return data[i]; }
                int count() { return size; }
            }
            "#,
        );
        host.compile_and_load(src);
        assert_eq!(host.run_int(vec![]), 220);
    }
}

mod more_compile_errors {
    use super::*;

    fn expect_error(src: &str, needle: &str) {
        let host = Host::new();
        let err = compile(src, &host.table, host.ns).unwrap_err();
        assert!(
            err.msg.contains(needle),
            "expected error containing {needle:?}, got {:?}",
            err.msg
        );
    }

    #[test]
    fn continue_outside_loop() {
        expect_error(
            "class Main { static void main() { continue; } }",
            "continue outside",
        );
    }

    #[test]
    fn missing_return_value() {
        expect_error(
            "class Main { static int main() { return; } }",
            "missing return value",
        );
    }

    #[test]
    fn value_return_from_void() {
        expect_error(
            "class Main { static void main() { return 5; } }",
            "void method cannot return",
        );
    }

    #[test]
    fn unknown_method_on_class() {
        expect_error(
            "class Main { static void main() { Main.ghost(); } }",
            "unknown method",
        );
    }

    #[test]
    fn instance_method_from_static_context() {
        expect_error(
            "class Main { int inst() { return 1; } static int main() { return inst(); } }",
            "called from static",
        );
    }

    #[test]
    fn non_static_field_via_class_name() {
        expect_error(
            "class Main { int x; static int main() { return Main.x; } }",
            "not static",
        );
    }

    #[test]
    fn arity_mismatch_constructor() {
        expect_error(
            "class P { init(int a) { } } class Main { static void main() { P p = new P(); } }",
            "constructor takes 1 arguments",
        );
    }

    #[test]
    fn indexing_non_array() {
        expect_error(
            "class Main { static int main() { int x = 3; return x[0]; } }",
            "indexing a non-array",
        );
    }

    #[test]
    fn bad_condition_type() {
        expect_error(
            r#"class Main { static void main() { if ("s") { } } }"#,
            "expected a bool",
        );
    }

    #[test]
    fn throw_non_object() {
        expect_error(
            "class Main { static void main() { throw 5; } }",
            "can only throw objects",
        );
    }

    #[test]
    fn duplicate_class_in_program() {
        expect_error("class A { } class A { }", "duplicate class");
    }

    #[test]
    fn unknown_superclass() {
        expect_error("class A extends Ghost { }", "unknown superclass");
    }
}

/// The lexer on its own: tokens, escapes and lines.
mod lexer {
    use crate::lexer::{lex, TokenKind};

    #[test]
    fn lexes_mixed_tokens() {
        let toks = lex("class A { int x = 42; float f = 2.5; } // end").unwrap();
        let kinds: Vec<&TokenKind> = toks.iter().map(|t| &t.kind).collect();
        assert!(matches!(kinds[0], TokenKind::Class));
        assert!(matches!(kinds[1], TokenKind::Ident(s) if s == "A"));
        assert!(kinds.contains(&&TokenKind::Int(42)));
        assert!(kinds.contains(&&TokenKind::Float(2.5)));
        assert_eq!(kinds.last(), Some(&&TokenKind::Eof));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let toks = lex(r#""a\nb\"c""#).unwrap();
        assert_eq!(toks[0].kind, TokenKind::Str("a\nb\"c".to_string()));
    }

    #[test]
    fn tracks_lines() {
        let toks = lex("a\nb\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn two_char_operators() {
        let toks = lex("<= >= == != && || << >>").unwrap();
        let kinds: Vec<&TokenKind> = toks.iter().map(|t| &t.kind).collect();
        assert_eq!(
            kinds[..8],
            [
                &TokenKind::Le,
                &TokenKind::Ge,
                &TokenKind::EqEq,
                &TokenKind::NotEq,
                &TokenKind::AndAnd,
                &TokenKind::OrOr,
                &TokenKind::Shl,
                &TokenKind::Shr
            ]
        );
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn block_comments_skip_lines() {
        let toks = lex("/* a\nb\nc */ x").unwrap();
        assert!(matches!(&toks[0].kind, TokenKind::Ident(s) if s == "x"));
        assert_eq!(toks[0].line, 3);
    }
}

/// The parser on its own: the trees it builds and the source it refuses.
mod parser {
    use crate::ast::*;
    use crate::lexer::lex;
    use crate::parser::parse_program;

    fn parse(src: &str) -> Vec<ClassDecl> {
        parse_program(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_class_with_members() {
        let classes = parse(
            "class A extends B { static int total; String name; \
             int get(int x) { return x; } void run() { } init(int a) { } }",
        );
        assert_eq!(classes.len(), 1);
        let c = &classes[0];
        assert_eq!(c.name, "A");
        assert_eq!(c.extends.as_deref(), Some("B"));
        assert_eq!(c.fields.len(), 2);
        assert!(c.fields[0].is_static);
        assert_eq!(c.methods.len(), 3);
        assert_eq!(c.methods[2].name, "init");
        assert!(!c.methods[2].is_static);
    }

    #[test]
    fn parses_constructor_with_class_name() {
        let classes = parse("class P { int x; P(int x) { this.x = x; } }");
        assert_eq!(classes[0].methods[0].name, "init");
    }

    #[test]
    fn parses_control_flow() {
        let classes = parse(
            "class A { void f(int n) { \
               if (n > 0) { n = n - 1; } else { n = 0; } \
               while (n < 10) { n = n + 1; } \
               for (int i = 0; i < n; i = i + 1) { n = n + i; } \
               try { n = n / 0; } catch (Exception e) { n = 0; } \
               sync (this) { n = 1; } \
             } }",
        );
        assert_eq!(classes[0].methods[0].body.len(), 5);
    }

    #[test]
    fn precedence_mul_before_add() {
        let classes = parse("class A { int f() { return 1 + 2 * 3; } }");
        let Stmt::Return { value: Some(e), .. } = &classes[0].methods[0].body[0] else {
            panic!("expected return");
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = e
        else {
            panic!("expected +, got {e:?}");
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn array_types_and_indexing() {
        let classes = parse(
            "class A { int[] buf; int f() { int[][] m = null; \
             int[] a = new int[4]; a[0] = 1; return a[0]; } }",
        );
        assert_eq!(classes[0].fields[0].ty, Ty::Array(Box::new(Ty::Int)));
        let Stmt::VarDecl { ty, .. } = &classes[0].methods[0].body[0] else {
            panic!();
        };
        assert_eq!(*ty, Ty::Array(Box::new(Ty::Array(Box::new(Ty::Int)))));
    }

    #[test]
    fn distinguishes_decl_from_expression() {
        let classes = parse("class A { int f(int a) { a = 1; int b = 2; f(a); return b; } }");
        let body = &classes[0].methods[0].body;
        assert!(matches!(body[0], Stmt::Assign { .. }));
        assert!(matches!(body[1], Stmt::VarDecl { .. }));
        assert!(matches!(body[2], Stmt::Expr(Expr::SelfCall { .. })));
    }

    #[test]
    fn postfix_chains() {
        let classes = parse("class A { int f(A a) { return a.b.c(1)[2].d; } }");
        let Stmt::Return { value: Some(e), .. } = &classes[0].methods[0].body[0] else {
            panic!();
        };
        assert!(matches!(e, Expr::Field { .. }));
    }

    #[test]
    fn cast_and_instanceof() {
        let classes = parse("class A { bool f(Object o) { A a = o as A; return o is A; } }");
        let body = &classes[0].methods[0].body;
        assert!(matches!(
            body[0],
            Stmt::VarDecl {
                init: Some(Expr::Cast { .. }),
                ..
            }
        ));
    }

    #[test]
    fn rejects_tokens_without_eof() {
        assert!(parse_program(&[]).is_err());
        let mut toks = lex("class A { }").unwrap();
        toks.pop();
        assert!(parse_program(&toks).is_err());
    }

    #[test]
    fn rejects_try_without_catch() {
        let toks = lex("class A { void f() { try { } } }").unwrap();
        assert!(parse_program(&toks).is_err());
    }

    #[test]
    fn dangling_else_binds_inner() {
        let classes = parse(
            "class A { int f(int x) { if (x > 0) if (x > 1) return 2; else return 1; return 0; } }",
        );
        let Stmt::If {
            then_body,
            else_body,
            ..
        } = &classes[0].methods[0].body[0]
        else {
            panic!();
        };
        assert!(else_body.is_empty(), "outer if has no else");
        let Stmt::If {
            else_body: inner_else,
            ..
        } = &then_body[0]
        else {
            panic!();
        };
        assert!(!inner_else.is_empty(), "inner if owns the else");
    }
}

/// Source nested past the parser's bound is a `CompileError`, never a host
/// stack overflow: the parser counts every level it nests, and refuses a
/// tree the parser would build iteratively but codegen and `Drop` would
/// walk recursively (a long operator chain).
mod nesting_bound {
    use super::*;
    use crate::parser::MAX_DEPTH;

    fn main_returning(expr: &str) -> String {
        format!("class Main {{ static int main() {{ return {expr}; }} }}")
    }

    fn expect_too_deep(src: &str) {
        let host = Host::new();
        let err = compile(src, &host.table, host.ns).unwrap_err();
        assert!(err.msg.contains("nested deeper than"), "{err:?}");
    }

    #[test]
    fn deep_parentheses_are_refused() {
        let n = 3_000;
        expect_too_deep(&main_returning(&format!(
            "{}1{}",
            "(".repeat(n),
            ")".repeat(n)
        )));
    }

    #[test]
    fn deep_blocks_are_refused() {
        let n = 10_000;
        expect_too_deep(&format!(
            "class Main {{ static void main() {{ {}{} }} }}",
            "{".repeat(n),
            "}".repeat(n)
        ));
    }

    #[test]
    fn long_unary_chains_are_refused() {
        expect_too_deep(&main_returning(&format!("{}1", "-".repeat(30_000))));
    }

    #[test]
    fn long_operator_chains_are_refused() {
        expect_too_deep(&main_returning(&vec!["1"; 100_000].join(" + ")));
    }

    #[test]
    fn deep_array_types_are_refused() {
        expect_too_deep(&format!(
            "class Main {{ static void main() {{ int{} a = null; }} }}",
            "[]".repeat(10_000)
        ));
    }

    #[test]
    fn deep_else_if_chains_are_refused() {
        let chain = "if (x == 0) { x = 1; } else ".repeat(5_000);
        expect_too_deep(&format!(
            "class Main {{ static void main() {{ int x = 0; {chain}{{ x = 2; }} }} }}"
        ));
    }

    /// Each shape nested just under the bound compiles and runs, within
    /// the 2 MiB stack of a test thread even in an unoptimised build.
    #[test]
    fn source_just_under_the_bound_compiles_and_runs() {
        let n = MAX_DEPTH as usize - 8;
        let sum = vec!["1"; n].join(" + ");
        assert_eq!(run_main_int(&main_returning(&sum), vec![]), n as i64);
        let parens = format!("{}-(2 * 3){}", "(".repeat(n), ")".repeat(n));
        assert_eq!(run_main_int(&main_returning(&parens), vec![]), -6);
        let negations = format!("{}7", "-".repeat(n));
        assert_eq!(run_main_int(&main_returning(&negations), vec![]), 7);
        let blocks = format!(
            "class Main {{ static int main() {{ int x = 0; {}x = x + 5;{} return x; }} }}",
            "{ ".repeat(n),
            " }".repeat(n)
        );
        assert_eq!(run_main_int(&blocks, vec![]), 5);
        let ifs = format!(
            "class Main {{ static int main() {{ int x = 0; {}x = 9;{} return x; }} }}",
            "if (x == 0) { ".repeat(n),
            " }".repeat(n)
        );
        assert_eq!(run_main_int(&ifs, vec![]), 9);
    }

    /// A guest nested the way the shipped ones are (the deepest of them
    /// reaches 13 levels) compiles and runs.
    #[test]
    fn shipped_guest_nesting_compiles_and_runs() {
        let src = r#"
            class Main {
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 4; i = i + 1) {
                        while (total < 100) {
                            if (i > 1) {
                                try {
                                    total = total + ((i * 2 + 1) * (i - 1) + -(-(i % 3)));
                                } catch (Exception e) { total = 0; }
                            } else { total = total + 1; break; }
                        }
                    }
                    return total;
                }
            }
        "#;
        assert_eq!(run_main_int(src, vec![]), 100);
    }
}

/// Limits of the class-file format reached from source: the `u16`
/// constant-pool index and the `u16` local-slot count.
mod format_limits {
    use super::*;
    use kaffeos_vm::{Const, Op};

    /// `class Main { static void main() { Sys.print("s0"); … } }` printing
    /// `n` distinct strings.
    fn printer(n: usize) -> String {
        let prints: String = (0..n).map(|i| format!("Sys.print(\"s{i}\");\n")).collect();
        format!("class Main {{ static void main() {{\n{prints}}} }}")
    }

    /// 65 536 strings plus the `print` intrinsic need 65 537 pool entries:
    /// a `CompileError`, not an index that wraps back onto `"s0"`.
    #[test]
    fn a_pool_past_65536_entries_is_refused() {
        let host = Host::new();
        let err = compile(&printer(65_536), &host.table, host.ns).unwrap_err();
        assert!(err.msg.contains("65536 constant-pool entries"), "{err:?}");
        assert_eq!(err.line, 65_537, "the first print past the bound: {err:?}");
    }

    /// A pool of exactly 65 536 entries compiles, and its last string is
    /// indexed by the last `u16`.
    #[test]
    fn a_pool_of_65536_entries_compiles() {
        let host = Host::new();
        let defs = compile(&printer(65_535), &host.table, host.ns).unwrap();
        let main = &defs[0];
        assert_eq!(main.pool.len(), 65_536);
        let last = main.methods[0]
            .code
            .ops
            .iter()
            .rev()
            .find_map(|op| match op {
                Op::ConstStr(i) => Some(*i),
                _ => None,
            })
            .unwrap();
        assert_eq!(last, u16::MAX);
        assert_eq!(main.pool[last as usize], Const::Str("s65534".to_string()));
    }

    /// Interning stays one entry per constant however often it recurs.
    #[test]
    fn repeated_constants_share_one_pool_entry() {
        let host = Host::new();
        let src = format!(
            "class Main {{ static void main() {{ {} }} }}",
            "Sys.print(\"a\"); Sys.print(\"b\"); ".repeat(1_000)
        );
        let defs = compile(&src, &host.table, host.ns).unwrap();
        assert_eq!(defs[0].pool.len(), 3, "{:?}", defs[0].pool);
    }

    /// Local slots are `u16` and `max_locals` counts them, so the
    /// 65 536th local is a `CompileError`, not a slot counter that wraps.
    #[test]
    fn more_than_65535_locals_are_refused() {
        let decls: String = (0..70_000).map(|i| format!("int v{i} = 0;\n")).collect();
        let src = format!("class Main {{ static void main() {{\n{decls}}} }}");
        let host = Host::new();
        let err = compile(&src, &host.table, host.ns).unwrap_err();
        assert!(err.msg.contains("too many local variables"), "{err:?}");
        assert!(
            err.msg.contains("v65535"),
            "the 65 536th declaration: {err:?}"
        );
    }
}
