use crate::refs::{ClassId, HeapId};
use crate::value::Value;

/// Object payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjData {
    /// Instance fields, in declaration order (the VM resolves names to
    /// indices at class-load time).
    Fields(Box<[Value]>),
    /// Array of references (`T[]`, `str[]`, nested arrays): the only array
    /// shape the collector traces and `store_ref` writes. `elem_bytes` is
    /// the accounted size per element (4 under the 32-bit model).
    Refs {
        /// Accounted size per element.
        elem_bytes: u8,
        /// Element values, each `Null` or a `Ref`.
        values: Box<[Value]>,
    },
    /// Unboxed `int[]` (accounted 4 bytes per element) that a non-zero
    /// store has written: the host holds 8 bytes per element. A zero-filled
    /// array starts as [`ObjData::Zeros`] and gets this buffer at its first
    /// non-zero store. It can hold no reference, so nothing traces it.
    Ints {
        /// Accounted size per element.
        elem_bytes: u8,
        /// Element values.
        values: Box<[i64]>,
    },
    /// Unboxed `float[]` (accounted 8 bytes per element), like
    /// [`ObjData::Ints`].
    Floats {
        /// Accounted size per element.
        elem_bytes: u8,
        /// Element values.
        values: Box<[f64]>,
    },
    /// Immutable string payload. Strings are objects so they live on a heap,
    /// are accounted, and participate in per-process interning (§3.3).
    Str {
        /// The characters.
        text: Box<str>,
        /// `text.chars().count()`, computed once at allocation (saturating
        /// at `u32::MAX`, far past any memlimit). Equal to `text.len()`
        /// exactly when the string is ASCII.
        chars: u32,
    },
    /// A zero-filled `int[]` or `float[]` that no non-zero store has
    /// written: its element count and no buffer, so the host holds nothing
    /// for its elements. Every element loads as `Int(0)` or `Float(0.0)`.
    /// The first store of a non-zero value of the right kind (`-0.0`
    /// included) turns it into [`ObjData::Ints`] or [`ObjData::Floats`].
    /// Declared last, so the older shapes keep their discriminants in the
    /// accessors the executor inlines.
    Zeros {
        /// Accounted size per element.
        elem_bytes: u8,
        /// `float[]` if set, `int[]` otherwise.
        float: bool,
        /// Element count.
        len: u32,
    },
}

impl ObjData {
    /// Number of slots (fields or elements); 0 for strings.
    pub fn len(&self) -> usize {
        match self {
            ObjData::Fields(f) => f.len(),
            ObjData::Refs { values, .. } => values.len(),
            ObjData::Ints { values, .. } => values.len(),
            ObjData::Floats { values, .. } => values.len(),
            ObjData::Zeros { len, .. } => *len as usize,
            ObjData::Str { .. } => 0,
        }
    }

    /// True if there are no value slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `val` at `index` of a still-zero array, which the caller has
    /// bounds-checked. A zero of the array's kind (`+0.0` for a `float[]`)
    /// leaves it without a buffer; any other value of its kind builds the
    /// zeroed buffer and then stores. `None` (and the array unchanged) for
    /// a value of the wrong kind, or for any payload but
    /// [`ObjData::Zeros`]. Kept out of line: `store_prim` is inlined into
    /// the executor, and only stores into still-zero arrays and
    /// wrong-kind stores reach this.
    #[cold]
    #[inline(never)]
    pub(crate) fn store_into_zeros(&mut self, index: usize, val: Value) -> Option<()> {
        let ObjData::Zeros {
            elem_bytes,
            float,
            len,
        } = *self
        else {
            return None;
        };
        match (float, val) {
            (false, Value::Int(0)) => {}
            (true, Value::Float(f)) if f.to_bits() == 0 => {}
            (false, Value::Int(i)) => {
                let mut values = vec![0i64; len as usize].into_boxed_slice();
                values[index] = i;
                *self = ObjData::Ints { elem_bytes, values };
            }
            (true, Value::Float(f)) => {
                let mut values = vec![0f64; len as usize].into_boxed_slice();
                values[index] = f;
                *self = ObjData::Floats { elem_bytes, values };
            }
            _ => return None,
        }
        Some(())
    }
}

/// Char `index` of a string whose char count is `chars`: a byte index when
/// the string is ASCII, a walk from the start otherwise.
pub(crate) fn str_char_at(text: &str, chars: u32, index: usize) -> Option<char> {
    if chars as usize == text.len() {
        text.as_bytes().get(index).map(|&b| b as char)
    } else {
        text.chars().nth(index)
    }
}

/// Chars `[start, end)` of a string whose char count is `chars`, or `None`
/// unless `start <= end <= chars`. ASCII strings slice by byte; others walk
/// from the start to `end`.
pub(crate) fn str_slice(text: &str, chars: u32, start: usize, end: usize) -> Option<&str> {
    if start > end || end > chars as usize {
        return None;
    }
    if chars as usize == text.len() {
        return text.get(start..end);
    }
    let mut offsets = text.char_indices().map(|(at, _)| at).chain([text.len()]);
    let from = offsets.nth(start)?;
    let to = match end - start {
        0 => from,
        n => offsets.nth(n - 1)?,
    };
    text.get(from..to)
}

/// One heap object: header plus payload.
///
/// The `heap` field plays the role of the paper's optional heap-pointer
/// header word. It is always present in the Rust struct, but the *accounted*
/// size only includes it for the Heap Pointer / Fake Heap Pointer barrier
/// variants, and the *No Heap Pointer* barrier deliberately ignores it and
/// performs the page lookup instead (so the two code paths cost what the
/// paper says they cost).
#[derive(Debug, Clone)]
pub struct Object {
    /// Class identity assigned by the VM.
    pub class: ClassId,
    /// Owning heap ("heap pointer" header word).
    pub heap: HeapId,
    /// Mark bit for the owning heap's mark-and-sweep collector.
    pub marked: bool,
    /// Set once the object lives on a frozen shared heap: reference fields
    /// are immutable from then on (§2, "Direct sharing").
    pub frozen: bool,
    /// Accounted size in bytes under the active [`crate::SizeModel`].
    pub bytes: u32,
    /// Payload.
    pub data: ObjData,
}

impl Object {
    /// Iterates the non-null references held in this object's slots.
    /// Only fields and reference arrays have any.
    pub fn references(&self) -> impl Iterator<Item = crate::refs::ObjRef> + '_ {
        let slots: &[Value] = match &self.data {
            ObjData::Fields(f) | ObjData::Refs { values: f, .. } => f,
            ObjData::Ints { .. }
            | ObjData::Floats { .. }
            | ObjData::Zeros { .. }
            | ObjData::Str { .. } => &[],
        };
        slots.iter().filter_map(|v| v.as_ref())
    }

    /// Number of reference-typed slots currently holding non-null refs.
    pub fn reference_count(&self) -> usize {
        self.references().count()
    }
}
