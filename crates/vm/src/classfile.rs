//! Loader-independent class definitions ("class files") and builders.
//!
//! A [`ClassDef`] is what a compiler produces and what a class loader
//! consumes. Loading the same `ClassDef` through two different loaders
//! yields two distinct classes with separate statics — the paper's
//! *reloaded* classes (§3.2). The builders keep hand-written bytecode (in
//! tests and the guest standard library) readable.

use std::sync::Arc;

use crate::bytecode::{Code, Const, Handler, Op, TypeDesc};

/// Field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Declared type.
    pub ty: TypeDesc,
    /// Static vs instance.
    pub is_static: bool,
}

/// Method declaration plus body.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDef {
    /// Method name.
    pub name: String,
    /// Parameter types; instance methods have an implicit `this` receiver
    /// in local slot 0 that is *not* listed here.
    pub params: Vec<TypeDesc>,
    /// Return type, or `None` for void.
    pub ret: Option<TypeDesc>,
    /// Static vs instance.
    pub is_static: bool,
    /// Body (verified at class-load time).
    pub code: Code,
}

/// A compiled class, before loading.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Class name (unique within a namespace).
    pub name: String,
    /// Superclass name; `None` only for the root class `Object`.
    pub super_name: Option<String>,
    /// Declared fields.
    pub fields: Vec<FieldDef>,
    /// Declared methods.
    pub methods: Vec<MethodDef>,
    /// Symbolic constant pool.
    pub pool: Vec<Const>,
}

impl ClassDef {
    /// Wraps in the `Arc` the loader shares between namespaces (the *text*
    /// of a shared class is shared; reloaded classes share text here too,
    /// which the paper notes is possible though its prototype did not).
    pub fn into_arc(self) -> Arc<ClassDef> {
        Arc::new(self)
    }
}

/// Fluent builder for a [`ClassDef`].
#[derive(Debug)]
pub struct ClassBuilder {
    name: String,
    super_name: Option<String>,
    fields: Vec<FieldDef>,
    methods: Vec<MethodDef>,
    pool: Vec<Const>,
}

impl ClassBuilder {
    /// Starts a class extending `Object`.
    pub fn new(name: impl Into<String>) -> Self {
        ClassBuilder {
            name: name.into(),
            super_name: Some("Object".to_string()),
            fields: Vec::new(),
            methods: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Starts the root class (no superclass).
    pub fn root(name: impl Into<String>) -> Self {
        ClassBuilder {
            name: name.into(),
            super_name: None,
            fields: Vec::new(),
            methods: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Sets the superclass.
    pub fn extends(mut self, super_name: impl Into<String>) -> Self {
        self.super_name = Some(super_name.into());
        self
    }

    /// Declares an instance field.
    pub fn field(mut self, name: impl Into<String>, ty: TypeDesc) -> Self {
        self.fields.push(FieldDef {
            name: name.into(),
            ty,
            is_static: false,
        });
        self
    }

    /// Declares a static field.
    pub fn static_field(mut self, name: impl Into<String>, ty: TypeDesc) -> Self {
        self.fields.push(FieldDef {
            name: name.into(),
            ty,
            is_static: true,
        });
        self
    }

    /// Adds a finished method.
    pub fn method(mut self, m: MethodDef) -> Self {
        self.methods.push(m);
        self
    }

    /// Adds a constant-pool entry, returning its index. Duplicate entries
    /// are coalesced.
    pub fn pool(&mut self, c: Const) -> u16 {
        if let Some(i) = self.pool.iter().position(|e| *e == c) {
            return i as u16;
        }
        self.pool.push(c);
        (self.pool.len() - 1) as u16
    }

    /// Finishes the class.
    pub fn build(self) -> ClassDef {
        ClassDef {
            name: self.name,
            super_name: self.super_name,
            fields: self.fields,
            methods: self.methods,
            pool: self.pool,
        }
    }
}

/// Fluent builder for a [`MethodDef`].
#[derive(Debug)]
pub struct MethodBuilder {
    name: String,
    params: Vec<TypeDesc>,
    ret: Option<TypeDesc>,
    is_static: bool,
    max_locals: u16,
    ops: Vec<Op>,
    handlers: Vec<Handler>,
}

impl MethodBuilder {
    /// Starts an instance method (receiver in local 0).
    pub fn instance(name: impl Into<String>) -> Self {
        MethodBuilder {
            name: name.into(),
            params: Vec::new(),
            ret: None,
            is_static: false,
            max_locals: 1,
            ops: Vec::new(),
            handlers: Vec::new(),
        }
    }

    /// Starts a static method.
    pub fn of_static(name: impl Into<String>) -> Self {
        MethodBuilder {
            name: name.into(),
            params: Vec::new(),
            ret: None,
            is_static: true,
            max_locals: 0,
            ops: Vec::new(),
            handlers: Vec::new(),
        }
    }

    /// Appends a parameter.
    pub fn param(mut self, ty: TypeDesc) -> Self {
        self.params.push(ty);
        self.max_locals += 1;
        self
    }

    /// Sets the return type.
    pub fn returns(mut self, ty: TypeDesc) -> Self {
        self.ret = Some(ty);
        self
    }

    /// Reserves extra local slots beyond the parameters.
    pub fn locals(mut self, extra: u16) -> Self {
        self.max_locals += extra;
        self
    }

    /// Appends one instruction; returns its index (usable as a jump
    /// target for later fixup).
    pub fn op(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// Appends many instructions.
    pub fn ops(mut self, ops: impl IntoIterator<Item = Op>) -> Self {
        self.ops.extend(ops);
        self
    }

    /// Adds an exception handler.
    pub fn handler(mut self, start: u32, end: u32, target: u32, class: u16) -> Self {
        self.handlers.push(Handler {
            start,
            end,
            target,
            class,
        });
        self
    }

    /// Finishes the method.
    pub fn build(self) -> MethodDef {
        MethodDef {
            name: self.name,
            params: self.params,
            ret: self.ret,
            is_static: self.is_static,
            code: Code {
                max_locals: self.max_locals,
                ops: self.ops.into(),
                handlers: self.handlers.into(),
                lines: Arc::from([]),
            },
        }
    }
}
