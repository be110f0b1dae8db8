//! The bytecode instruction set, constant pool, and code attributes.
//!
//! A compact stack-machine ISA in the JVM tradition: operands come from an
//! operand stack, locals are indexed slots, and symbolic references to
//! classes, fields, and methods live in a per-class constant pool that the
//! linker resolves at class-load time.

use std::sync::Arc;

/// Guest-visible type descriptors, used in field/method signatures and by
/// the verifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeDesc {
    /// 64-bit integer (also carries guest `bool` and `char`).
    Int,
    /// 64-bit float.
    Float,
    /// Immutable string.
    Str,
    /// Instance of the named class (or a subclass).
    Class(String),
    /// Array with the given element type.
    Array(Box<TypeDesc>),
}

impl TypeDesc {
    /// True for reference-typed values (objects, strings, arrays).
    pub fn is_reference(&self) -> bool {
        matches!(
            self,
            TypeDesc::Str | TypeDesc::Class(_) | TypeDesc::Array(_)
        )
    }

    /// Accounted bytes per array element of this type (32-bit-era layout:
    /// references are 4 bytes, ints 4, floats 8, chars 2).
    pub fn array_elem_bytes(&self) -> u8 {
        match self {
            TypeDesc::Int => 4,
            TypeDesc::Float => 8,
            TypeDesc::Str | TypeDesc::Class(_) | TypeDesc::Array(_) => 4,
        }
    }
}

/// Constant-pool entries (symbolic; the linker resolves them).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Const {
    /// String literal (interned per process at first use, §3.3).
    Str(String),
    /// Class reference by name.
    Class(String),
    /// Field reference; static-ness comes from the field's declaration.
    Field {
        /// Class declaring (or inheriting) the field.
        class: String,
        /// Field name.
        name: String,
    },
    /// Method reference.
    Method {
        /// Statically named receiver class.
        class: String,
        /// Method name.
        name: String,
    },
    /// Intrinsic (kernel syscall surface) by name.
    Intrinsic(String),
}

/// One bytecode instruction. `u16` operands index the constant pool;
/// branch offsets are absolute instruction indices (the assembler/compiler
/// resolves labels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    // --- constants & locals -------------------------------------------
    /// Push null.
    ConstNull,
    /// Push an integer constant.
    ConstInt(i64),
    /// Push a float constant.
    ConstFloat(f64),
    /// Push the interned string for pool entry `Str`.
    ConstStr(u16),
    /// Push local slot.
    Load(u16),
    /// Pop into local slot.
    Store(u16),
    /// Pop and discard.
    Pop,
    /// Duplicate top of stack.
    Dup,
    /// Swap the two top stack values.
    Swap,

    // --- integer arithmetic -------------------------------------------
    /// Integer add (wrapping).
    Add,
    /// Integer subtract (wrapping).
    Sub,
    /// Integer multiply (wrapping).
    Mul,
    /// Throws `ArithmeticException` on division by zero.
    Div,
    /// Throws `ArithmeticException` on division by zero.
    Rem,
    /// Integer negate (wrapping).
    Neg,
    /// Shift left (count masked to 63).
    Shl,
    /// Arithmetic shift right (count masked).
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,

    // --- float arithmetic ----------------------------------------------
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide (IEEE; no trap).
    FDiv,
    /// Float negate.
    FNeg,
    /// int → float.
    I2F,
    /// float → int (truncating).
    F2I,

    // --- comparisons (push 0/1) -----------------------------------------
    /// Integer equality → 0/1.
    CmpEq,
    /// Integer inequality → 0/1.
    CmpNe,
    /// Integer less-than → 0/1.
    CmpLt,
    /// Integer ≤ → 0/1.
    CmpLe,
    /// Integer greater-than → 0/1.
    CmpGt,
    /// Integer ≥ → 0/1.
    CmpGe,
    /// Float less-than → 0/1 (false on NaN).
    FCmpLt,
    /// Float ≤ → 0/1 (false on NaN).
    FCmpLe,
    /// Float greater-than → 0/1 (false on NaN).
    FCmpGt,
    /// Float ≥ → 0/1 (false on NaN).
    FCmpGe,
    /// Float equality → 0/1 (false on NaN).
    FCmpEq,
    /// Reference identity (the `==` of §3.3 — does *not* hold for equal
    /// strings interned by different processes).
    RefEq,
    /// Reference non-identity.
    RefNe,

    // --- control flow ----------------------------------------------------
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop; jump if non-zero / non-null.
    JumpIfTrue(u32),
    /// Pop; jump if zero / null.
    JumpIfFalse(u32),
    /// Return void.
    Return,
    /// Pop and return a value.
    ReturnVal,

    // --- objects ----------------------------------------------------------
    /// Allocate an instance of pool `Class` entry (fields zeroed/nulled).
    New(u16),
    /// Pop receiver; push field value. Pool `Field` entry.
    GetField(u16),
    /// Pop value, pop receiver; store field. Reference-typed fields run the
    /// write barrier.
    PutField(u16),
    /// Push static field value. Pool `Field` entry.
    GetStatic(u16),
    /// Pop value; store static field (barriered if reference-typed).
    PutStatic(u16),
    /// Pop receiver; throw NullPointerException if null, else no-op. Used
    /// by compilers to hoist null checks.
    NullCheck,
    /// Pop receiver; push 1 if instance of pool `Class` entry.
    InstanceOf(u16),
    /// Pop receiver; throw ClassCastException unless instance of entry
    /// (null passes).
    CheckCast(u16),

    // --- arrays -------------------------------------------------------------
    /// Pop length; allocate array of pool `Class`-described element type...
    /// the pool entry is `Class(name)` for object arrays, or the special
    /// names `"int"`/`"float"`/`"str"`.
    NewArray(u16),
    /// Pop index, pop array; push element.
    ALoad,
    /// Pop value, pop index, pop array; store element (barriered for
    /// reference arrays).
    AStore,
    /// Pop array; push length.
    ArrayLen,

    // --- calls ----------------------------------------------------------------
    /// Call a static method. Pool `Method` entry.
    CallStatic(u16),
    /// Call a virtual method: receiver + args on stack, dispatched through
    /// the receiver's vtable. Pool `Method` entry names the statically
    /// resolved slot.
    CallVirtual(u16),
    /// Call a method without dynamic dispatch (constructors, `super` calls).
    CallSpecial(u16),
    /// Invoke a kernel intrinsic. Pool `Intrinsic` entry; the interpreter
    /// exits to the kernel with the popped arguments.
    Syscall(u16),

    // --- exceptions -------------------------------------------------------------
    /// Pop a throwable object and raise it.
    Throw,

    // --- strings -----------------------------------------------------------------
    /// Pop two strings (or values; non-strings are formatted), push
    /// concatenation.
    StrConcat,
    /// Pop string; push length.
    StrLen,
    /// Pop index, pop string; push char as int.
    StrCharAt,
    /// Pop two strings; push value equality as 0/1 (`equals`, which unlike
    /// `RefEq` works across heaps).
    StrEq,
    /// Pop string; push the process-interned instance.
    Intern,
    /// Pop any value; push its string rendering.
    ToStr,
    /// Pop start/end (int) and string; push substring.
    Substr,
    /// Pop a string; push its integer parse or throw ArithmeticException.
    ParseInt,

    // --- monitors ---------------------------------------------------------
    /// Pop object; acquire its monitor (blocks the green thread if owned
    /// elsewhere). Shared objects are synchronised "in the usual way" (§2).
    MonitorEnter,
    /// Pop object; release its monitor.
    MonitorExit,
}

/// Exception-table entry: if an exception of (a subclass of) the class at
/// pool index `class` is thrown while `pc ∈ [start, end)`, control moves to
/// `target` with the exception object pushed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Handler {
    /// First covered instruction index (inclusive).
    pub start: u32,
    /// End of the covered range (exclusive).
    pub end: u32,
    /// Handler entry instruction index.
    pub target: u32,
    /// Constant-pool index of the caught class.
    pub class: u16,
}

/// A method body. The three tables are immutable and shared: every
/// namespace that binds the same definition holds the same allocations, so
/// cloning a `Code` costs three refcount bumps.
#[derive(Debug, Clone, PartialEq)]
pub struct Code {
    /// Number of local slots (parameters occupy the first slots).
    pub max_locals: u16,
    /// Instructions.
    pub ops: Arc<[Op]>,
    /// Exception handlers, innermost first.
    pub handlers: Arc<[Handler]>,
    /// Debug line table: `lines[pc]` is the 1-based source line the
    /// instruction at `pc` was compiled from, or 0 when unknown. Empty for
    /// hand-built bytecode (no debug info); when present, `lines.len() ==
    /// ops.len()`.
    pub lines: Arc<[u32]>,
}

impl Code {
    /// Source line for the instruction at `pc`, if debug info is present.
    pub fn line_for(&self, pc: u32) -> Option<u32> {
        match self.lines.get(pc as usize) {
            Some(&l) if l != 0 => Some(l),
            _ => None,
        }
    }
}
