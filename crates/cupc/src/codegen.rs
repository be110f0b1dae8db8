//! Type checking and code generation for Cup.
//!
//! One pass per method over the AST, with a pre-pass that collects all
//! program class signatures. External classes (the guest standard library,
//! already loaded into a `ClassTable` namespace) are resolved through the
//! table, so Cup programs can extend and call library classes. The VM
//! verifier independently re-checks the emitted bytecode.

use std::collections::HashMap;

use kaffeos_vm::{ClassDef, ClassTable, Code, Const, Handler, Op, TypeDesc};

use crate::ast::*;
use crate::CompileError;

/// Receiver class names that compile to kernel intrinsics instead of
/// method calls: `Sys.print(s)` → intrinsic `"sys.print"`.
const INTRINSIC_NAMESPACES: &[&str] = &["Sys", "Proc", "Shm", "Net", "Mem", "Time"];

/// Compiles a parsed program into loadable class definitions.
pub fn compile_program(
    program: &[ClassDecl],
    table: &ClassTable,
    ns: u32,
) -> Result<Vec<ClassDef>, CompileError> {
    let env = Env::collect(program, table, ns)?;
    program.iter().map(|c| env.compile_class(c)).collect()
}

/// Expression type: a syntactic type or the bottom `null`.
#[derive(Debug, Clone, PartialEq)]
enum ETy {
    T(Ty),
    Null,
}

impl ETy {
    fn is_reference(&self) -> bool {
        matches!(
            self,
            ETy::Null | ETy::T(Ty::Str) | ETy::T(Ty::Class(_)) | ETy::T(Ty::Array(_))
        )
    }

    fn is_int_like(&self) -> bool {
        matches!(self, ETy::T(Ty::Int) | ETy::T(Ty::Bool))
    }
}

#[derive(Debug, Clone)]
struct MethodSig {
    params: Vec<Ty>,
    ret: Option<Ty>,
    is_static: bool,
}

#[derive(Debug, Clone)]
struct ClassInfo {
    extends: Option<String>,
    /// field name → (type, is_static)
    fields: HashMap<String, (Ty, bool)>,
    methods: HashMap<String, MethodSig>,
}

/// Compilation environment: program classes plus the external table.
struct Env<'a> {
    program: HashMap<String, ClassInfo>,
    table: &'a ClassTable,
    ns: u32,
}

fn desc_to_ty(d: &TypeDesc) -> Ty {
    match d {
        TypeDesc::Int => Ty::Int,
        TypeDesc::Float => Ty::Float,
        TypeDesc::Str => Ty::Str,
        TypeDesc::Class(n) => Ty::Class(n.clone()),
        TypeDesc::Array(e) => Ty::Array(Box::new(desc_to_ty(e))),
    }
}

fn ty_to_desc(t: &Ty) -> TypeDesc {
    match t {
        Ty::Int | Ty::Bool => TypeDesc::Int,
        Ty::Float => TypeDesc::Float,
        Ty::Str => TypeDesc::Str,
        Ty::Class(n) => TypeDesc::Class(n.clone()),
        Ty::Array(e) => TypeDesc::Array(Box::new(ty_to_desc(e))),
    }
}

impl<'a> Env<'a> {
    fn collect(
        program: &[ClassDecl],
        table: &'a ClassTable,
        ns: u32,
    ) -> Result<Self, CompileError> {
        let mut classes = HashMap::new();
        for c in program {
            if classes.contains_key(&c.name) {
                return Err(CompileError {
                    line: c.line,
                    msg: format!("duplicate class {}", c.name),
                });
            }
            let mut fields = HashMap::new();
            for f in &c.fields {
                if fields
                    .insert(f.name.clone(), (f.ty.clone(), f.is_static))
                    .is_some()
                {
                    return Err(CompileError {
                        line: f.line,
                        msg: format!("duplicate field {}.{}", c.name, f.name),
                    });
                }
            }
            let mut methods = HashMap::new();
            for m in &c.methods {
                if methods
                    .insert(
                        m.name.clone(),
                        MethodSig {
                            params: m.params.iter().map(|(_, t)| t.clone()).collect(),
                            ret: m.ret.clone(),
                            is_static: m.is_static,
                        },
                    )
                    .is_some()
                {
                    return Err(CompileError {
                        line: m.line,
                        msg: format!("duplicate method {}.{}", c.name, m.name),
                    });
                }
            }
            classes.insert(
                c.name.clone(),
                ClassInfo {
                    extends: Some(c.extends.clone().unwrap_or_else(|| "Object".to_string())),
                    fields,
                    methods,
                },
            );
        }
        let env = Env {
            program: classes,
            table,
            ns,
        };
        // Validate superclasses exist.
        for c in program {
            let parent = c.extends.clone().unwrap_or_else(|| "Object".to_string());
            if !env.class_exists(&parent) {
                return Err(CompileError {
                    line: c.line,
                    msg: format!("unknown superclass {parent}"),
                });
            }
        }
        Ok(env)
    }

    fn class_exists(&self, name: &str) -> bool {
        self.program.contains_key(name) || self.table.lookup(self.ns, name).is_some()
    }

    fn superclass(&self, name: &str) -> Option<String> {
        if let Some(info) = self.program.get(name) {
            return info.extends.clone();
        }
        let idx = self.table.lookup(self.ns, name)?;
        let sup = self.table.class(idx).super_idx?;
        Some(self.table.class(sup).name.clone())
    }

    /// Field lookup, walking up the hierarchy. Returns (type, is_static).
    fn field_of(&self, class: &str, field: &str) -> Option<(Ty, bool)> {
        let mut cursor = Some(class.to_string());
        while let Some(cur) = cursor {
            if let Some(info) = self.program.get(&cur) {
                if let Some((t, is_static)) = info.fields.get(field) {
                    return Some((t.clone(), *is_static));
                }
            } else if let Some(idx) = self.table.lookup(self.ns, &cur) {
                let lc = self.table.class(idx);
                if let Some(f) = lc.instance_field(field) {
                    return Some((desc_to_ty(&f.ty), false));
                }
                if let Some(f) = lc.static_field(field) {
                    return Some((desc_to_ty(&f.ty), true));
                }
            }
            cursor = self.superclass(&cur);
        }
        None
    }

    /// Method lookup, walking up the hierarchy.
    fn method_of(&self, class: &str, method: &str) -> Option<MethodSig> {
        let mut cursor = Some(class.to_string());
        while let Some(cur) = cursor {
            if let Some(info) = self.program.get(&cur) {
                if let Some(sig) = info.methods.get(method) {
                    return Some(sig.clone());
                }
            } else if let Some(idx) = self.table.lookup(self.ns, &cur) {
                if let Some(midx) = self.table.find_method(idx, method) {
                    let m = self.table.method(midx);
                    return Some(MethodSig {
                        params: m.params.iter().map(desc_to_ty).collect(),
                        ret: m.ret.as_ref().map(desc_to_ty),
                        is_static: m.is_static,
                    });
                }
            }
            cursor = self.superclass(&cur);
        }
        None
    }

    /// `a` names a class equal to or below `b`.
    fn is_subclass_name(&self, a: &str, b: &str) -> bool {
        let mut cursor = Some(a.to_string());
        while let Some(cur) = cursor {
            if cur == b {
                return true;
            }
            cursor = self.superclass(&cur);
        }
        false
    }

    /// May a value of type `from` be used where `to` is expected?
    fn assignable(&self, from: &ETy, to: &Ty) -> bool {
        match (from, to) {
            (ETy::Null, t) => ETy::T(t.clone()).is_reference(),
            (ETy::T(Ty::Int), Ty::Int | Ty::Bool) => true,
            (ETy::T(Ty::Bool), Ty::Int | Ty::Bool) => true,
            (ETy::T(Ty::Float), Ty::Float) => true,
            (ETy::T(Ty::Str), Ty::Str) => true,
            (ETy::T(Ty::Class(a)), Ty::Class(b)) => self.is_subclass_name(a, b),
            (ETy::T(Ty::Array(a)), Ty::Array(b)) => a == b,
            // Arrays and strings upcast to the root class (as in Java);
            // there is no downcast back, so Object-typed slots holding
            // arrays are opaque.
            (ETy::T(Ty::Array(_)) | ETy::T(Ty::Str), Ty::Class(b)) => b == "Object",
            _ => false,
        }
    }

    fn compile_class(&self, decl: &ClassDecl) -> Result<ClassDef, CompileError> {
        let mut gen = ClassGen {
            env: self,
            decl,
            pool: Vec::new(),
            pool_index: HashMap::new(),
        };
        gen.run()
    }
}

/// Per-class code generator.
struct ClassGen<'a, 'b> {
    env: &'b Env<'a>,
    decl: &'b ClassDecl,
    pool: Vec<Const>,
    /// Each pool entry's index, so interning does not scan the pool.
    pool_index: HashMap<Const, u16>,
}

impl<'a, 'b> ClassGen<'a, 'b> {
    /// Interns `c` in the class's constant pool. Ops index the pool with a
    /// `u16`, so a class that needs more than 65 536 entries is an error,
    /// not an index that wraps onto another entry.
    fn pool(&mut self, f: &FnGen, c: Const) -> Result<u16, CompileError> {
        if let Some(&i) = self.pool_index.get(&c) {
            return Ok(i);
        }
        let Ok(i) = u16::try_from(self.pool.len()) else {
            return Err(CompileError {
                line: f.line(),
                msg: format!(
                    "class {} needs more than 65536 constant-pool entries",
                    self.decl.name
                ),
            });
        };
        self.pool.push(c.clone());
        self.pool_index.insert(c, i);
        Ok(i)
    }

    fn run(&mut self) -> Result<ClassDef, CompileError> {
        let mut methods = Vec::new();
        for m in &self.decl.methods {
            methods.push(self.compile_method(m)?);
        }
        Ok(ClassDef {
            name: self.decl.name.clone(),
            super_name: Some(
                self.decl
                    .extends
                    .clone()
                    .unwrap_or_else(|| "Object".to_string()),
            ),
            fields: self
                .decl
                .fields
                .iter()
                .map(|f| kaffeos_vm::FieldDef {
                    name: f.name.clone(),
                    ty: ty_to_desc(&f.ty),
                    is_static: f.is_static,
                })
                .collect(),
            methods,
            pool: self.pool.clone(),
        })
    }

    fn compile_method(&mut self, m: &MethodDecl) -> Result<kaffeos_vm::MethodDef, CompileError> {
        let mut f = FnGen {
            ops: Vec::new(),
            handlers: Vec::new(),
            scopes: vec![HashMap::new()],
            next_local: 0,
            max_locals: 0,
            loops: Vec::new(),
            pending_continues: Vec::new(),
            ret: m.ret.clone(),
            is_static: m.is_static,
            line_marks: Vec::new(),
        };
        if !m.is_static {
            f.declare("this", Ty::Class(self.decl.name.clone()), m.line)?;
        }
        for (name, ty) in &m.params {
            f.declare(name, ty.clone(), m.line)?;
        }
        for stmt in &m.body {
            self.stmt(&mut f, stmt)?;
        }
        // Implicit return only for void methods; a value-returning method
        // must end every path in return/throw — the verifier enforces it,
        // but give a friendlier error if the last statement clearly falls
        // through on a value-returning method with an empty body.
        if m.ret.is_some() && m.body.is_empty() {
            return Err(CompileError {
                line: m.line,
                msg: format!("method {} must return a value", m.name),
            });
        }
        if m.ret.is_none() {
            f.ops.push(Op::Return);
        }
        let lines = f.line_table(m.line);
        Ok(kaffeos_vm::MethodDef {
            name: m.name.clone(),
            params: m.params.iter().map(|(_, t)| ty_to_desc(t)).collect(),
            ret: m.ret.as_ref().map(ty_to_desc),
            is_static: m.is_static,
            code: Code {
                max_locals: f.max_locals,
                ops: f.ops.into(),
                handlers: f.handlers.into(),
                lines: lines.into(),
            },
        })
    }

    // ---- statements --------------------------------------------------------

    fn stmt(&mut self, f: &mut FnGen, s: &Stmt) -> Result<(), CompileError> {
        if let Some(line) = stmt_line(s) {
            f.mark_line(line);
        }
        match s {
            Stmt::VarDecl {
                ty,
                name,
                init,
                line,
            } => {
                self.check_type(ty, *line)?;
                let slot = f.declare(name, ty.clone(), *line)?;
                if let Some(init) = init {
                    let got = self.expr(f, init)?;
                    self.coerce(f, &got, ty, *line)?;
                    f.ops.push(Op::Store(slot));
                } else {
                    // Initialise so the verifier's read-before-write check
                    // passes for the common declare-then-assign pattern.
                    match ty {
                        Ty::Int | Ty::Bool => f.ops.push(Op::ConstInt(0)),
                        Ty::Float => f.ops.push(Op::ConstFloat(0.0)),
                        _ => f.ops.push(Op::ConstNull),
                    }
                    f.ops.push(Op::Store(slot));
                }
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => self.assign(f, target, value, *line),
            Stmt::Expr(e) => {
                let t = self.expr_stmt(f, e)?;
                if t.is_some() {
                    f.ops.push(Op::Pop);
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                let t = self.expr(f, cond)?;
                self.expect_bool(&t, *line)?;
                let jfalse = f.emit_patch(PatchKind::IfFalse);
                for s in then_body {
                    self.stmt(f, s)?;
                }
                if else_body.is_empty() {
                    f.patch(jfalse);
                } else {
                    let jend = f.emit_patch(PatchKind::Always);
                    f.patch(jfalse);
                    for s in else_body {
                        self.stmt(f, s)?;
                    }
                    f.patch(jend);
                }
                Ok(())
            }
            Stmt::While { cond, body, line } => {
                let head = f.here();
                let t = self.expr(f, cond)?;
                self.expect_bool(&t, *line)?;
                let jexit = f.emit_patch(PatchKind::IfFalse);
                f.loops.push(LoopCtx {
                    continue_target: head,
                    breaks: Vec::new(),
                });
                for s in body {
                    self.stmt(f, s)?;
                }
                f.ops.push(Op::Jump(head));
                let Some(ctx) = f.loops.pop() else {
                    return Err(loop_lost(*line));
                };
                f.patch(jexit);
                for b in ctx.breaks {
                    f.patch(b);
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                line,
            } => {
                f.push_scope();
                if let Some(init) = init.as_ref() {
                    self.stmt(f, init)?;
                }
                let head = f.here();
                let jexit = match cond {
                    Some(cond) => {
                        let t = self.expr(f, cond)?;
                        self.expect_bool(&t, *line)?;
                        Some(f.emit_patch(PatchKind::IfFalse))
                    }
                    None => None,
                };
                f.loops.push(LoopCtx {
                    // `continue` must run the update; patched below.
                    continue_target: u32::MAX,
                    breaks: Vec::new(),
                });
                let body_continue_patches_start = f.pending_continues.len();
                for s in body {
                    self.stmt(f, s)?;
                }
                let update_at = f.here();
                // Retarget continues recorded inside the body.
                for i in body_continue_patches_start..f.pending_continues.len() {
                    let at = f.pending_continues[i];
                    f.patch_to(at, update_at);
                }
                f.pending_continues.truncate(body_continue_patches_start);
                if let Some(update) = update.as_ref() {
                    self.stmt(f, update)?;
                }
                f.ops.push(Op::Jump(head));
                let Some(ctx) = f.loops.pop() else {
                    return Err(loop_lost(*line));
                };
                if let Some(jexit) = jexit {
                    f.patch(jexit);
                }
                for b in ctx.breaks {
                    f.patch(b);
                }
                f.pop_scope();
                Ok(())
            }
            Stmt::Return { value, line } => {
                match (&f.ret.clone(), value) {
                    (None, None) => f.ops.push(Op::Return),
                    (Some(want), Some(e)) => {
                        let got = self.expr(f, e)?;
                        self.coerce(f, &got, want, *line)?;
                        f.ops.push(Op::ReturnVal);
                    }
                    (None, Some(_)) => {
                        return Err(CompileError {
                            line: *line,
                            msg: "void method cannot return a value".to_string(),
                        })
                    }
                    (Some(_), None) => {
                        return Err(CompileError {
                            line: *line,
                            msg: "missing return value".to_string(),
                        })
                    }
                }
                Ok(())
            }
            Stmt::Break { line } => {
                let at = f.emit_patch(PatchKind::Always);
                let Some(ctx) = f.loops.last_mut() else {
                    return Err(CompileError {
                        line: *line,
                        msg: "break outside a loop".to_string(),
                    });
                };
                ctx.breaks.push(at);
                Ok(())
            }
            Stmt::Continue { line } => {
                let Some(ctx) = f.loops.last() else {
                    return Err(CompileError {
                        line: *line,
                        msg: "continue outside a loop".to_string(),
                    });
                };
                if ctx.continue_target == u32::MAX {
                    // For-loop: target patched after the body.
                    let at = f.emit_patch(PatchKind::Always);
                    f.pending_continues.push(at);
                } else {
                    let target = ctx.continue_target;
                    f.ops.push(Op::Jump(target));
                }
                Ok(())
            }
            Stmt::Throw { value, line } => {
                let t = self.expr(f, value)?;
                if !matches!(t, ETy::T(Ty::Class(_)) | ETy::Null) {
                    return Err(CompileError {
                        line: *line,
                        msg: "can only throw objects".to_string(),
                    });
                }
                f.ops.push(Op::Throw);
                Ok(())
            }
            Stmt::Try {
                body,
                catches,
                line,
            } => {
                let start = f.here();
                f.push_scope();
                for s in body {
                    self.stmt(f, s)?;
                }
                f.pop_scope();
                let end = f.here();
                if start == end {
                    return Err(CompileError {
                        line: *line,
                        msg: "empty try body".to_string(),
                    });
                }
                let jend = f.emit_patch(PatchKind::Always);
                let mut jumps = vec![jend];
                for c in catches {
                    if !self.env.class_exists(&c.class) {
                        return Err(CompileError {
                            line: c.line,
                            msg: format!("unknown exception class {}", c.class),
                        });
                    }
                    let cls = self.pool(f, Const::Class(c.class.clone()))?;
                    let target = f.here();
                    f.handlers.push(Handler {
                        start,
                        end,
                        target,
                        class: cls,
                    });
                    f.push_scope();
                    let slot = f.declare(&c.var, Ty::Class(c.class.clone()), c.line)?;
                    f.ops.push(Op::Store(slot));
                    for s in &c.body {
                        self.stmt(f, s)?;
                    }
                    f.pop_scope();
                    jumps.push(f.emit_patch(PatchKind::Always));
                }
                // The last catch's end-jump is redundant but harmless.
                for j in jumps {
                    f.patch(j);
                }
                Ok(())
            }
            Stmt::Sync { lock, body, line } => {
                let t = self.expr(f, lock)?;
                if !t.is_reference() || t == ETy::Null {
                    return Err(CompileError {
                        line: *line,
                        msg: "sync needs an object expression".to_string(),
                    });
                }
                // Keep the lock in a hidden local so exit paths can find it.
                f.push_scope();
                let slot = f.declare_hidden(self.lock_ty(&t), *line)?;
                f.ops.push(Op::Store(slot));
                f.ops.push(Op::Load(slot));
                f.ops.push(Op::MonitorEnter);
                let start = f.here();
                for s in body {
                    self.stmt(f, s)?;
                }
                let end = f.here();
                f.ops.push(Op::Load(slot));
                f.ops.push(Op::MonitorExit);
                let jend = f.emit_patch(PatchKind::Always);
                // Exception path: release the monitor, rethrow.
                if start != end && self.env.class_exists("Exception") {
                    let cls = self.pool(f, Const::Class("Exception".to_string()))?;
                    let target = f.here();
                    f.handlers.push(Handler {
                        start,
                        end,
                        target,
                        class: cls,
                    });
                    let exc_slot = f.declare_hidden(Ty::Class("Exception".to_string()), *line)?;
                    f.ops.push(Op::Store(exc_slot));
                    f.ops.push(Op::Load(slot));
                    f.ops.push(Op::MonitorExit);
                    f.ops.push(Op::Load(exc_slot));
                    f.ops.push(Op::Throw);
                }
                f.patch(jend);
                f.pop_scope();
                Ok(())
            }
            Stmt::Block(body) => {
                f.push_scope();
                for s in body {
                    self.stmt(f, s)?;
                }
                f.pop_scope();
                Ok(())
            }
        }
    }

    fn lock_ty(&self, t: &ETy) -> Ty {
        match t {
            ETy::T(t) => t.clone(),
            ETy::Null => Ty::Class("Object".to_string()),
        }
    }

    fn check_type(&self, ty: &Ty, line: u32) -> Result<(), CompileError> {
        match ty {
            Ty::Class(name) if !self.env.class_exists(name) => Err(CompileError {
                line,
                msg: format!("unknown class {name}"),
            }),
            Ty::Array(e) => self.check_type(e, line),
            _ => Ok(()),
        }
    }

    fn assign(
        &mut self,
        f: &mut FnGen,
        target: &Expr,
        value: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        match target {
            Expr::Var(name, _) => {
                if let Some((slot, ty)) = f.lookup(name) {
                    let got = self.expr(f, value)?;
                    self.coerce(f, &got, &ty, line)?;
                    f.ops.push(Op::Store(slot));
                    return Ok(());
                }
                // Unqualified static or instance field of the current class.
                self.assign_field_of_self(f, name, value, line)
            }
            Expr::Field { recv, name, line } => {
                // Static field: `ClassName.field = v`.
                if let Expr::Var(class_name, _) = recv.as_ref() {
                    if f.lookup(class_name).is_none() && self.env.class_exists(class_name) {
                        let Some((ty, is_static)) = self.env.field_of(class_name, name) else {
                            return Err(CompileError {
                                line: *line,
                                msg: format!("unknown field {class_name}.{name}"),
                            });
                        };
                        if !is_static {
                            return Err(CompileError {
                                line: *line,
                                msg: format!("{class_name}.{name} is not static"),
                            });
                        }
                        let got = self.expr(f, value)?;
                        self.coerce(f, &got, &ty, *line)?;
                        let idx = self.pool(
                            f,
                            Const::Field {
                                class: class_name.clone(),
                                name: name.clone(),
                            },
                        )?;
                        f.ops.push(Op::PutStatic(idx));
                        return Ok(());
                    }
                }
                let recv_ty = self.expr(f, recv)?;
                let ETy::T(Ty::Class(class_name)) = recv_ty else {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("field store on non-object {recv_ty:?}"),
                    });
                };
                let Some((ty, is_static)) = self.env.field_of(&class_name, name) else {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("unknown field {class_name}.{name}"),
                    });
                };
                if is_static {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("{class_name}.{name} is static; use the class name"),
                    });
                }
                let got = self.expr(f, value)?;
                self.coerce(f, &got, &ty, *line)?;
                let idx = self.pool(
                    f,
                    Const::Field {
                        class: class_name,
                        name: name.clone(),
                    },
                )?;
                f.ops.push(Op::PutField(idx));
                Ok(())
            }
            Expr::Index { arr, idx, line } => {
                let arr_ty = self.expr(f, arr)?;
                let ETy::T(Ty::Array(elem)) = arr_ty else {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("indexing a non-array {arr_ty:?}"),
                    });
                };
                let idx_ty = self.expr(f, idx)?;
                if !idx_ty.is_int_like() {
                    return Err(CompileError {
                        line: *line,
                        msg: "array index must be int".to_string(),
                    });
                }
                let got = self.expr(f, value)?;
                self.coerce(f, &got, &elem, *line)?;
                f.ops.push(Op::AStore);
                Ok(())
            }
            other => Err(CompileError {
                line,
                msg: format!("invalid assignment target {other:?}"),
            }),
        }
    }

    /// `name = value` where `name` is a field of the enclosing class.
    fn assign_field_of_self(
        &mut self,
        f: &mut FnGen,
        name: &str,
        value: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        let class_name = self.decl.name.clone();
        let Some((ty, is_static)) = self.env.field_of(&class_name, name) else {
            return Err(CompileError {
                line,
                msg: format!("unknown variable or field {name}"),
            });
        };
        let idx = self.pool(
            f,
            Const::Field {
                class: class_name,
                name: name.to_string(),
            },
        )?;
        if is_static {
            let got = self.expr(f, value)?;
            self.coerce(f, &got, &ty, line)?;
            f.ops.push(Op::PutStatic(idx));
        } else {
            if f.is_static {
                return Err(CompileError {
                    line,
                    msg: format!("instance field {name} in a static method"),
                });
            }
            f.ops.push(Op::Load(0));
            let got = self.expr(f, value)?;
            self.coerce(f, &got, &ty, line)?;
            f.ops.push(Op::PutField(idx));
        }
        Ok(())
    }

    // ---- expressions -----------------------------------------------------

    /// Compiles an expression statement; returns `Some` if it left a value
    /// on the stack that must be popped.
    fn expr_stmt(&mut self, f: &mut FnGen, e: &Expr) -> Result<Option<ETy>, CompileError> {
        match e {
            Expr::Call { .. } | Expr::SelfCall { .. } | Expr::New { .. } => {
                match self.call_like(f, e)? {
                    Some(t) => Ok(Some(t)),
                    None => Ok(None),
                }
            }
            other => Ok(Some(self.expr(f, other)?)),
        }
    }

    /// Compiles an expression, leaving exactly one value on the stack.
    fn expr(&mut self, f: &mut FnGen, e: &Expr) -> Result<ETy, CompileError> {
        match e {
            Expr::IntLit(v, _) => {
                f.ops.push(Op::ConstInt(*v));
                Ok(ETy::T(Ty::Int))
            }
            Expr::FloatLit(v, _) => {
                f.ops.push(Op::ConstFloat(*v));
                Ok(ETy::T(Ty::Float))
            }
            Expr::StrLit(s, _) => {
                let idx = self.pool(f, Const::Str(s.clone()))?;
                f.ops.push(Op::ConstStr(idx));
                Ok(ETy::T(Ty::Str))
            }
            Expr::BoolLit(v, _) => {
                f.ops.push(Op::ConstInt(*v as i64));
                Ok(ETy::T(Ty::Bool))
            }
            Expr::Null(_) => {
                f.ops.push(Op::ConstNull);
                Ok(ETy::Null)
            }
            Expr::This(line) => {
                if f.is_static {
                    return Err(CompileError {
                        line: *line,
                        msg: "`this` in a static method".to_string(),
                    });
                }
                f.ops.push(Op::Load(0));
                Ok(ETy::T(Ty::Class(self.decl.name.clone())))
            }
            Expr::Var(name, line) => {
                if let Some((slot, ty)) = f.lookup(name) {
                    f.ops.push(Op::Load(slot));
                    return Ok(ETy::T(ty));
                }
                // Unqualified field of the enclosing class.
                let class_name = self.decl.name.clone();
                let Some((ty, is_static)) = self.env.field_of(&class_name, name) else {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("unknown variable {name}"),
                    });
                };
                let idx = self.pool(
                    f,
                    Const::Field {
                        class: class_name,
                        name: name.clone(),
                    },
                )?;
                if is_static {
                    f.ops.push(Op::GetStatic(idx));
                } else {
                    if f.is_static {
                        return Err(CompileError {
                            line: *line,
                            msg: format!("instance field {name} in a static method"),
                        });
                    }
                    f.ops.push(Op::Load(0));
                    f.ops.push(Op::GetField(idx));
                }
                Ok(ETy::T(ty))
            }
            Expr::Binary { op, lhs, rhs, line } => self.binary(f, *op, lhs, rhs, *line),
            Expr::Unary { op, operand, line } => {
                let t = self.expr(f, operand)?;
                match op {
                    UnOp::Neg => match t {
                        ETy::T(Ty::Int) => {
                            f.ops.push(Op::Neg);
                            Ok(ETy::T(Ty::Int))
                        }
                        ETy::T(Ty::Float) => {
                            f.ops.push(Op::FNeg);
                            Ok(ETy::T(Ty::Float))
                        }
                        other => Err(CompileError {
                            line: *line,
                            msg: format!("cannot negate {other:?}"),
                        }),
                    },
                    UnOp::Not => {
                        self.expect_bool(&t, *line)?;
                        f.ops.push(Op::ConstInt(0));
                        f.ops.push(Op::CmpEq);
                        Ok(ETy::T(Ty::Bool))
                    }
                }
            }
            Expr::Field { recv, name, line } => {
                // Static field access `ClassName.field`.
                if let Expr::Var(class_name, _) = recv.as_ref() {
                    if f.lookup(class_name).is_none() && self.env.class_exists(class_name) {
                        let Some((ty, is_static)) = self.env.field_of(class_name, name) else {
                            return Err(CompileError {
                                line: *line,
                                msg: format!("unknown field {class_name}.{name}"),
                            });
                        };
                        if !is_static {
                            return Err(CompileError {
                                line: *line,
                                msg: format!("{class_name}.{name} is not static"),
                            });
                        }
                        let idx = self.pool(
                            f,
                            Const::Field {
                                class: class_name.clone(),
                                name: name.clone(),
                            },
                        )?;
                        f.ops.push(Op::GetStatic(idx));
                        return Ok(ETy::T(ty));
                    }
                }
                let recv_ty = self.expr(f, recv)?;
                let ETy::T(Ty::Class(class_name)) = recv_ty else {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("field access on non-object {recv_ty:?}"),
                    });
                };
                let Some((ty, is_static)) = self.env.field_of(&class_name, name) else {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("unknown field {class_name}.{name}"),
                    });
                };
                if is_static {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("{class_name}.{name} is static; use the class name"),
                    });
                }
                let idx = self.pool(
                    f,
                    Const::Field {
                        class: class_name,
                        name: name.clone(),
                    },
                )?;
                f.ops.push(Op::GetField(idx));
                Ok(ETy::T(ty))
            }
            Expr::Index { arr, idx, line } => {
                let arr_ty = self.expr(f, arr)?;
                let ETy::T(Ty::Array(elem)) = arr_ty else {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("indexing a non-array {arr_ty:?}"),
                    });
                };
                let idx_ty = self.expr(f, idx)?;
                if !idx_ty.is_int_like() {
                    return Err(CompileError {
                        line: *line,
                        msg: "array index must be int".to_string(),
                    });
                }
                f.ops.push(Op::ALoad);
                Ok(ETy::T(*elem))
            }
            Expr::Cast { value, class, line } => {
                if !self.env.class_exists(class) {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("unknown class {class}"),
                    });
                }
                let t = self.expr(f, value)?;
                if !t.is_reference() {
                    return Err(CompileError {
                        line: *line,
                        msg: "cast of a non-reference".to_string(),
                    });
                }
                let idx = self.pool(f, Const::Class(class.clone()))?;
                f.ops.push(Op::CheckCast(idx));
                Ok(ETy::T(Ty::Class(class.clone())))
            }
            Expr::InstanceOf { value, class, line } => {
                if !self.env.class_exists(class) {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("unknown class {class}"),
                    });
                }
                let t = self.expr(f, value)?;
                if !t.is_reference() {
                    return Err(CompileError {
                        line: *line,
                        msg: "`is` on a non-reference".to_string(),
                    });
                }
                let idx = self.pool(f, Const::Class(class.clone()))?;
                f.ops.push(Op::InstanceOf(idx));
                Ok(ETy::T(Ty::Bool))
            }
            Expr::Call { .. } | Expr::SelfCall { .. } | Expr::New { .. } => {
                match self.call_like(f, e)? {
                    Some(t) => Ok(t),
                    None => Err(CompileError {
                        line: e.line(),
                        msg: "void call used as a value".to_string(),
                    }),
                }
            }
            Expr::NewArray { elem, len, line } => {
                self.check_type(elem, *line)?;
                let len_ty = self.expr(f, len)?;
                if !len_ty.is_int_like() {
                    return Err(CompileError {
                        line: *line,
                        msg: "array length must be int".to_string(),
                    });
                }
                let idx = match elem {
                    Ty::Class(name) => self.pool(f, Const::Class(name.clone()))?,
                    other => self.pool(f, Const::Str(array_elem_desc(other)))?,
                };
                f.ops.push(Op::NewArray(idx));
                Ok(ETy::T(Ty::Array(Box::new(elem.clone()))))
            }
        }
    }

    /// Calls and `new`: shared by value and statement positions. Returns
    /// the result type, or `None` for void calls.
    fn call_like(&mut self, f: &mut FnGen, e: &Expr) -> Result<Option<ETy>, CompileError> {
        match e {
            Expr::New { class, args, line } => {
                if !self.env.class_exists(class) {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("unknown class {class}"),
                    });
                }
                let cls_idx = self.pool(f, Const::Class(class.clone()))?;
                f.ops.push(Op::New(cls_idx));
                let ctor = self.env.method_of(class, "init");
                match ctor {
                    Some(sig) => {
                        if sig.params.len() != args.len() {
                            return Err(CompileError {
                                line: *line,
                                msg: format!(
                                    "{class} constructor takes {} arguments, got {}",
                                    sig.params.len(),
                                    args.len()
                                ),
                            });
                        }
                        f.ops.push(Op::Dup);
                        for (arg, want) in args.iter().zip(&sig.params) {
                            let got = self.expr(f, arg)?;
                            self.coerce(f, &got, want, *line)?;
                        }
                        let init_idx = self.pool(
                            f,
                            Const::Method {
                                class: class.clone(),
                                name: "init".to_string(),
                            },
                        )?;
                        f.ops.push(Op::CallSpecial(init_idx));
                    }
                    None if args.is_empty() => {}
                    None => {
                        return Err(CompileError {
                            line: *line,
                            msg: format!("{class} has no constructor"),
                        })
                    }
                }
                Ok(Some(ETy::T(Ty::Class(class.clone()))))
            }
            Expr::SelfCall { method, args, line } => {
                let class_name = self.decl.name.clone();
                let Some(sig) = self.env.method_of(&class_name, method) else {
                    return Err(CompileError {
                        line: *line,
                        msg: format!("unknown method {method}"),
                    });
                };
                if !sig.is_static {
                    if f.is_static {
                        return Err(CompileError {
                            line: *line,
                            msg: format!("instance method {method} called from static code"),
                        });
                    }
                    f.ops.push(Op::Load(0));
                }
                self.emit_args(f, args, &sig.params, *line)?;
                let idx = self.pool(
                    f,
                    Const::Method {
                        class: class_name,
                        name: method.clone(),
                    },
                )?;
                if sig.is_static {
                    f.ops.push(Op::CallStatic(idx));
                } else {
                    f.ops.push(Op::CallVirtual(idx));
                }
                Ok(sig.ret.map(ETy::T))
            }
            Expr::Call {
                recv,
                method,
                args,
                line,
            } => {
                // Intrinsic namespace?
                if let Expr::Var(ns_name, _) = recv.as_ref() {
                    if f.lookup(ns_name).is_none()
                        && INTRINSIC_NAMESPACES.contains(&ns_name.as_str())
                    {
                        return self.intrinsic_call(f, ns_name, method, args, *line);
                    }
                    // Static method call `ClassName.m(...)`.
                    if f.lookup(ns_name).is_none() && self.env.class_exists(ns_name) {
                        let Some(sig) = self.env.method_of(ns_name, method) else {
                            return Err(CompileError {
                                line: *line,
                                msg: format!("unknown method {ns_name}.{method}"),
                            });
                        };
                        if !sig.is_static {
                            return Err(CompileError {
                                line: *line,
                                msg: format!("{ns_name}.{method} is not static"),
                            });
                        }
                        self.emit_args(f, args, &sig.params, *line)?;
                        let idx = self.pool(
                            f,
                            Const::Method {
                                class: ns_name.clone(),
                                name: method.clone(),
                            },
                        )?;
                        f.ops.push(Op::CallStatic(idx));
                        return Ok(sig.ret.map(ETy::T));
                    }
                }
                let recv_ty = self.expr(f, recv)?;
                match &recv_ty {
                    // String builtins.
                    ETy::T(Ty::Str) => self.string_builtin(f, method, args, *line),
                    // Float builtin: truncating conversion.
                    ETy::T(Ty::Float) if method == "toInt" && args.is_empty() => {
                        f.ops.push(Op::F2I);
                        Ok(Some(ETy::T(Ty::Int)))
                    }
                    // Array builtin: len().
                    ETy::T(Ty::Array(_)) => {
                        if method == "len" && args.is_empty() {
                            f.ops.push(Op::ArrayLen);
                            Ok(Some(ETy::T(Ty::Int)))
                        } else {
                            Err(CompileError {
                                line: *line,
                                msg: format!("unknown array method {method}"),
                            })
                        }
                    }
                    ETy::T(Ty::Class(class_name)) => {
                        let Some(sig) = self.env.method_of(class_name, method) else {
                            return Err(CompileError {
                                line: *line,
                                msg: format!("unknown method {class_name}.{method}"),
                            });
                        };
                        if sig.is_static {
                            return Err(CompileError {
                                line: *line,
                                msg: format!("{class_name}.{method} is static"),
                            });
                        }
                        self.emit_args(f, args, &sig.params, *line)?;
                        let idx = self.pool(
                            f,
                            Const::Method {
                                class: class_name.clone(),
                                name: method.clone(),
                            },
                        )?;
                        f.ops.push(Op::CallVirtual(idx));
                        Ok(sig.ret.map(ETy::T))
                    }
                    other => Err(CompileError {
                        line: *line,
                        msg: format!("method call on {other:?}"),
                    }),
                }
            }
            _ => Err(CompileError {
                line: f.line(),
                msg: "internal: call_like on a non-call expression".to_string(),
            }),
        }
    }

    fn intrinsic_call(
        &mut self,
        f: &mut FnGen,
        ns_name: &str,
        method: &str,
        args: &[Expr],
        line: u32,
    ) -> Result<Option<ETy>, CompileError> {
        let intr_name = format!("{}.{}", ns_name.to_lowercase(), method);
        let Some(id) = self.env.table.intrinsics().by_name(&intr_name) else {
            return Err(CompileError {
                line,
                msg: format!("unknown intrinsic {intr_name}"),
            });
        };
        let Some(def) = self.env.table.intrinsics().def(id).cloned() else {
            return Err(CompileError {
                line,
                msg: format!("intrinsic {intr_name} has no definition"),
            });
        };
        let params: Vec<Ty> = def.params.iter().map(desc_to_ty).collect();
        self.emit_args(f, args, &params, line)?;
        let idx = self.pool(f, Const::Intrinsic(intr_name))?;
        f.ops.push(Op::Syscall(idx));
        Ok(def.ret.as_ref().map(|t| ETy::T(desc_to_ty(t))))
    }

    fn string_builtin(
        &mut self,
        f: &mut FnGen,
        method: &str,
        args: &[Expr],
        line: u32,
    ) -> Result<Option<ETy>, CompileError> {
        let check_args = |want: usize| {
            if args.len() == want {
                Ok(())
            } else {
                Err(CompileError {
                    line,
                    msg: format!("String.{method} takes {want} arguments, got {}", args.len()),
                })
            }
        };
        match method {
            "len" => {
                check_args(0)?;
                f.ops.push(Op::StrLen);
                Ok(Some(ETy::T(Ty::Int)))
            }
            "charAt" => {
                check_args(1)?;
                let t = self.expr(f, &args[0])?;
                self.coerce(f, &t, &Ty::Int, line)?;
                f.ops.push(Op::StrCharAt);
                Ok(Some(ETy::T(Ty::Int)))
            }
            "substr" => {
                check_args(2)?;
                let a = self.expr(f, &args[0])?;
                self.coerce(f, &a, &Ty::Int, line)?;
                let b = self.expr(f, &args[1])?;
                self.coerce(f, &b, &Ty::Int, line)?;
                f.ops.push(Op::Substr);
                Ok(Some(ETy::T(Ty::Str)))
            }
            "eq" => {
                check_args(1)?;
                let t = self.expr(f, &args[0])?;
                self.coerce(f, &t, &Ty::Str, line)?;
                f.ops.push(Op::StrEq);
                Ok(Some(ETy::T(Ty::Bool)))
            }
            "toInt" => {
                check_args(0)?;
                f.ops.push(Op::ParseInt);
                Ok(Some(ETy::T(Ty::Int)))
            }
            "intern" => {
                check_args(0)?;
                f.ops.push(Op::Intern);
                Ok(Some(ETy::T(Ty::Str)))
            }
            other => Err(CompileError {
                line,
                msg: format!("unknown String method {other}"),
            }),
        }
    }

    fn emit_args(
        &mut self,
        f: &mut FnGen,
        args: &[Expr],
        params: &[Ty],
        line: u32,
    ) -> Result<(), CompileError> {
        if args.len() != params.len() {
            return Err(CompileError {
                line,
                msg: format!("expected {} arguments, got {}", params.len(), args.len()),
            });
        }
        for (arg, want) in args.iter().zip(params) {
            let got = self.expr(f, arg)?;
            self.coerce(f, &got, want, line)?;
        }
        Ok(())
    }

    fn binary(
        &mut self,
        f: &mut FnGen,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<ETy, CompileError> {
        // Short-circuit logical operators.
        if op == BinOp::And || op == BinOp::Or {
            let lt = self.expr(f, lhs)?;
            self.expect_bool(&lt, line)?;
            let jshort = f.emit_patch(if op == BinOp::And {
                PatchKind::IfFalse
            } else {
                PatchKind::IfTrue
            });
            let rt = self.expr(f, rhs)?;
            self.expect_bool(&rt, line)?;
            let jend = f.emit_patch(PatchKind::Always);
            f.patch(jshort);
            f.ops
                .push(Op::ConstInt(if op == BinOp::And { 0 } else { 1 }));
            f.patch(jend);
            return Ok(ETy::T(Ty::Bool));
        }

        let lt = self.expr(f, lhs)?;
        // String concatenation: if the left side is a string, `+` renders
        // the right side (and vice versa below).
        if op == BinOp::Add && lt == ETy::T(Ty::Str) {
            let _rt = self.expr(f, rhs)?;
            f.ops.push(Op::StrConcat);
            return Ok(ETy::T(Ty::Str));
        }
        let rt = self.expr(f, rhs)?;
        if op == BinOp::Add && rt == ETy::T(Ty::Str) {
            f.ops.push(Op::StrConcat);
            return Ok(ETy::T(Ty::Str));
        }

        // Reference equality — including String == String (§3.3: pointer
        // comparison does not hold for strings interned by different
        // processes; `.eq` is the value comparison).
        if (op == BinOp::Eq || op == BinOp::Ne) && lt.is_reference() && rt.is_reference() {
            f.ops.push(if op == BinOp::Eq {
                Op::RefEq
            } else {
                Op::RefNe
            });
            return Ok(ETy::T(Ty::Bool));
        }

        let both_int = lt.is_int_like() && rt.is_int_like();
        let float_involved = lt == ETy::T(Ty::Float) || rt == ETy::T(Ty::Float);
        if !both_int && !float_involved {
            return Err(CompileError {
                line,
                msg: format!("operator {op:?} on {lt:?} and {rt:?}"),
            });
        }
        if float_involved {
            // Promote whichever side is int.
            if rt.is_int_like() {
                f.ops.push(Op::I2F);
            } else if lt.is_int_like() {
                f.ops.push(Op::Swap);
                f.ops.push(Op::I2F);
                f.ops.push(Op::Swap);
            }
            let result = match op {
                BinOp::Add => (Op::FAdd, Ty::Float),
                BinOp::Sub => (Op::FSub, Ty::Float),
                BinOp::Mul => (Op::FMul, Ty::Float),
                BinOp::Div => (Op::FDiv, Ty::Float),
                BinOp::Lt => (Op::FCmpLt, Ty::Bool),
                BinOp::Le => (Op::FCmpLe, Ty::Bool),
                BinOp::Gt => (Op::FCmpGt, Ty::Bool),
                BinOp::Ge => (Op::FCmpGe, Ty::Bool),
                BinOp::Eq => (Op::FCmpEq, Ty::Bool),
                BinOp::Ne => {
                    f.ops.push(Op::FCmpEq);
                    f.ops.push(Op::ConstInt(0));
                    f.ops.push(Op::CmpEq);
                    return Ok(ETy::T(Ty::Bool));
                }
                other => {
                    return Err(CompileError {
                        line,
                        msg: format!("operator {other:?} not defined on float"),
                    })
                }
            };
            f.ops.push(result.0);
            return Ok(ETy::T(result.1));
        }
        let result = match op {
            BinOp::Add => (Op::Add, Ty::Int),
            BinOp::Sub => (Op::Sub, Ty::Int),
            BinOp::Mul => (Op::Mul, Ty::Int),
            BinOp::Div => (Op::Div, Ty::Int),
            BinOp::Rem => (Op::Rem, Ty::Int),
            BinOp::Shl => (Op::Shl, Ty::Int),
            BinOp::Shr => (Op::Shr, Ty::Int),
            BinOp::BitAnd => (Op::And, Ty::Int),
            BinOp::BitOr => (Op::Or, Ty::Int),
            BinOp::BitXor => (Op::Xor, Ty::Int),
            BinOp::Lt => (Op::CmpLt, Ty::Bool),
            BinOp::Le => (Op::CmpLe, Ty::Bool),
            BinOp::Gt => (Op::CmpGt, Ty::Bool),
            BinOp::Ge => (Op::CmpGe, Ty::Bool),
            BinOp::Eq => (Op::CmpEq, Ty::Bool),
            BinOp::Ne => (Op::CmpNe, Ty::Bool),
            BinOp::And | BinOp::Or => {
                return Err(CompileError {
                    line,
                    msg: format!("internal: {op:?} reached arithmetic lowering"),
                })
            }
        };
        f.ops.push(result.0);
        Ok(ETy::T(result.1))
    }

    fn expect_bool(&self, t: &ETy, line: u32) -> Result<(), CompileError> {
        if t.is_int_like() {
            Ok(())
        } else {
            Err(CompileError {
                line,
                msg: format!("expected a bool/int condition, found {t:?}"),
            })
        }
    }

    /// Checks assignability; no code is emitted (ints and bools share a
    /// runtime representation, everything else must match exactly).
    fn coerce(&self, f: &mut FnGen, got: &ETy, want: &Ty, line: u32) -> Result<(), CompileError> {
        // Implicit int→float promotion on assignment.
        if got.is_int_like() && *want == Ty::Float {
            f.ops.push(Op::I2F);
            return Ok(());
        }
        if self.env.assignable(got, want) {
            Ok(())
        } else {
            Err(CompileError {
                line,
                msg: format!("cannot use {got:?} where {want:?} is expected"),
            })
        }
    }
}

/// A loop whose context was gone by the end of its body: codegen pushes
/// one per loop and pops it there, so this is a compiler bug reported as a
/// compile error rather than a host panic.
fn loop_lost(line: u32) -> CompileError {
    CompileError {
        line,
        msg: "loop context lost".to_string(),
    }
}

/// Source line of a statement, if it has one (`Block` does not).
fn stmt_line(s: &Stmt) -> Option<u32> {
    Some(match s {
        Stmt::VarDecl { line, .. }
        | Stmt::Assign { line, .. }
        | Stmt::If { line, .. }
        | Stmt::While { line, .. }
        | Stmt::For { line, .. }
        | Stmt::Return { line, .. }
        | Stmt::Break { line }
        | Stmt::Continue { line }
        | Stmt::Throw { line, .. }
        | Stmt::Try { line, .. }
        | Stmt::Sync { line, .. } => *line,
        Stmt::Expr(e) => e.line(),
        Stmt::Block(_) => return None,
    })
}

/// Array element descriptor for `NewArray` pool entries (non-class
/// elements; see the VM verifier's `decode_elem_desc`).
fn array_elem_desc(t: &Ty) -> String {
    match t {
        Ty::Int | Ty::Bool => "int".to_string(),
        Ty::Float => "float".to_string(),
        Ty::Str => "str".to_string(),
        Ty::Class(n) => format!("C:{n}"),
        Ty::Array(e) => format!("[{}", array_elem_desc(e)),
    }
}

#[derive(Debug, Clone, Copy)]
enum PatchKind {
    Always,
    IfFalse,
    IfTrue,
}

struct LoopCtx {
    continue_target: u32,
    breaks: Vec<usize>,
}

/// Per-method emission state.
struct FnGen {
    ops: Vec<Op>,
    handlers: Vec<Handler>,
    scopes: Vec<HashMap<String, (u16, Ty)>>,
    next_local: u16,
    max_locals: u16,
    loops: Vec<LoopCtx>,
    /// `continue` sites inside `for` bodies awaiting the update position.
    pending_continues: Vec<usize>,
    ret: Option<Ty>,
    is_static: bool,
    /// Debug line marks: `(op index, source line)` recorded at statement
    /// entry, expanded into a per-op line table by `line_table`.
    line_marks: Vec<(u32, u32)>,
}

impl FnGen {
    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Source line of the statement being compiled (0 before the first).
    fn line(&self) -> u32 {
        self.line_marks.last().map_or(0, |&(_, line)| line)
    }

    /// Records that instructions emitted from here on come from `line`.
    fn mark_line(&mut self, line: u32) {
        let at = self.ops.len() as u32;
        if let Some(last) = self.line_marks.last_mut() {
            if last.0 == at {
                last.1 = line;
                return;
            }
        }
        self.line_marks.push((at, line));
    }

    /// Expands the recorded marks into a per-op table (forward-filled;
    /// ops before the first mark get `default_line`, the method header).
    fn line_table(&self, default_line: u32) -> Vec<u32> {
        let mut lines = vec![0u32; self.ops.len()];
        let mut cur = default_line;
        let mut next = 0usize;
        for (pc, slot) in lines.iter_mut().enumerate() {
            while next < self.line_marks.len() && self.line_marks[next].0 as usize <= pc {
                cur = self.line_marks[next].1;
                next += 1;
            }
            *slot = cur;
        }
        lines
    }

    /// Emits a jump with an unresolved target; returns the op index.
    fn emit_patch(&mut self, kind: PatchKind) -> usize {
        let at = self.ops.len();
        self.ops.push(match kind {
            PatchKind::Always => Op::Jump(u32::MAX),
            PatchKind::IfFalse => Op::JumpIfFalse(u32::MAX),
            PatchKind::IfTrue => Op::JumpIfTrue(u32::MAX),
        });
        at
    }

    /// Resolves a pending jump to the current position.
    fn patch(&mut self, at: usize) {
        let target = self.here();
        self.patch_to(at, target);
    }

    fn patch_to(&mut self, at: usize, target: u32) {
        self.ops[at] = match self.ops[at] {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfFalse(_) => Op::JumpIfFalse(target),
            Op::JumpIfTrue(_) => Op::JumpIfTrue(target),
            other => {
                debug_assert!(false, "patching non-jump {other:?}");
                other
            }
        };
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        // Slots are not recycled: simpler, and max_locals stays correct.
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, ty: Ty, line: u32) -> Result<u16, CompileError> {
        let slot = self.next_local;
        let Some(scope) = self.scopes.last_mut() else {
            return Err(CompileError {
                line,
                msg: format!("variable {name} declared outside any scope"),
            });
        };
        if scope.contains_key(name) {
            return Err(CompileError {
                line,
                msg: format!("duplicate variable {name}"),
            });
        }
        // `max_locals` is a `u16` too, so the last usable slot is 65 534.
        let Some(next) = slot.checked_add(1) else {
            return Err(CompileError {
                line,
                msg: format!("too many local variables (at most {}): {name}", u16::MAX),
            });
        };
        scope.insert(name.to_string(), (slot, ty));
        self.next_local = next;
        self.max_locals = self.max_locals.max(self.next_local);
        Ok(slot)
    }

    fn declare_hidden(&mut self, ty: Ty, line: u32) -> Result<u16, CompileError> {
        let name = format!("$tmp{}", self.next_local);
        self.declare(&name, ty, line)
    }

    fn lookup(&self, name: &str) -> Option<(u16, Ty)> {
        for scope in self.scopes.iter().rev() {
            if let Some((slot, ty)) = scope.get(name) {
                return Some((*slot, ty.clone()));
            }
        }
        None
    }
}
