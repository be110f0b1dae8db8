//! Type-safe bytecode virtual machine — the "Kaffe" substrate of the
//! KaffeOS reproduction.
//!
//! The paper builds KaffeOS on the Kaffe JVM; this crate is the equivalent
//! substrate built from scratch: a stack-machine bytecode with classes,
//! virtual dispatch, arrays, strings and exceptions; a **class-file
//! verifier** (type safety is what provides memory protection in KaffeOS,
//! so untrusted code must be checked before it runs); **class loaders**
//! with per-process namespaces and delegation to a shared loader
//! (§3.1–3.2); per-process **string interning** (§3.3); and an interpreter
//! with **safe points** at which preemption and deferred termination take
//! effect.
//!
//! The interpreter is engine-parameterised ([`Engine`]): the same semantics
//! under different cycle models reproduce the platforms of Figure 3
//! (IBM's JIT, Kaffe00, Kaffe99, and KaffeOS itself). Reference stores run
//! the write barrier of the underlying [`kaffeos_heap::HeapSpace`].
//!
//! The VM is kernel-agnostic: anything privileged (process creation, shared
//! heaps, I/O) exits the interpreter as a [`Syscall`](RunExit::Syscall)
//! that the kernel crate services.

mod bytecode;
mod classes;
mod classfile;
mod engine;
mod interp;
mod intrinsics;
mod jit;
mod verify;

pub use bytecode::{Code, Const, Handler, Op, TypeDesc};
pub use classes::{
    ClassIdx, ClassTable, ClassTemplate, LinkedClass, LoadedClass, MethodIdx, Namespace, RConst,
};
pub use classfile::{ClassBuilder, ClassDef, FieldDef, MethodBuilder, MethodDef};
pub use engine::{Engine, OpCosts};
pub use interp::{
    step, BuiltinEx, DrainedCycles, ExecCtx, Frame, RunExit, SegSite, Thread, ThreadState,
    VmException, FLOAT_ARRAY_CLASS, INT_ARRAY_CLASS, MAX_FRAMES, REF_ARRAY_CLASS,
};
pub use intrinsics::{IntrinsicDef, IntrinsicRegistry};
pub use jit::ProcJitStats;
pub use verify::{method_descriptor, verify_class, VerifyError};

/// Errors raised while loading, linking, or running guest code.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// Class name not found in the namespace.
    UnknownClass(String),
    /// Field/method resolution failure.
    UnknownMember {
        /// Class searched.
        class: String,
        /// Member name that did not resolve.
        member: String,
    },
    /// Duplicate class definition in one namespace.
    DuplicateClass(String),
    /// Bytecode failed verification. Boxed: the diagnostic carries the
    /// method descriptor, op and line, and only the cold path pays for it.
    Verify(Box<VerifyError>),
    /// A heap-level failure that is not a guest-visible exception.
    Heap(kaffeos_heap::HeapError),
    /// Malformed constant-pool reference or operand.
    BadBytecode(String),
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::UnknownClass(name) => write!(f, "unknown class {name}"),
            VmError::UnknownMember { class, member } => {
                write!(f, "unknown member {class}.{member}")
            }
            VmError::DuplicateClass(name) => write!(f, "duplicate class {name}"),
            VmError::Verify(e) => write!(f, "verification failed: {e}"),
            VmError::Heap(e) => write!(f, "heap error: {e}"),
            VmError::BadBytecode(msg) => write!(f, "bad bytecode: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<VerifyError> for VmError {
    fn from(e: VerifyError) -> Self {
        VmError::Verify(Box::new(e))
    }
}

impl From<Box<VerifyError>> for VmError {
    fn from(e: Box<VerifyError>) -> Self {
        VmError::Verify(e)
    }
}

impl From<kaffeos_heap::HeapError> for VmError {
    fn from(e: kaffeos_heap::HeapError) -> Self {
        VmError::Heap(e)
    }
}

#[cfg(test)]
mod tests;
