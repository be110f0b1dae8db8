use crate::refs::{ClassId, HeapId};
use crate::value::Value;

/// Object payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjData {
    /// Instance fields, in declaration order (the VM resolves names to
    /// indices at class-load time).
    Fields(Box<[Value]>),
    /// Array of `values.len()` elements. `elem_bytes` is the accounted size
    /// per element (1 for `byte[]`, 2 for `char[]`, 4 for `int[]`/`T[]`,
    /// 8 for `float[]` under the 32-bit layout model).
    Array {
        /// Accounted size per element (1/2/4/8 under the 32-bit model).
        elem_bytes: u8,
        /// False for `int[]`/`float[]`: the elements can never hold a
        /// reference, so the collector does not scan them and
        /// `store_ref` refuses them.
        refs: bool,
        /// Element values.
        values: Box<[Value]>,
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
}

impl ObjData {
    /// Number of value slots (fields or elements); 0 for strings.
    pub fn len(&self) -> usize {
        match self {
            ObjData::Fields(f) => f.len(),
            ObjData::Array { values, .. } => values.len(),
            ObjData::Str { .. } => 0,
        }
    }

    /// True if there are no value slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// Primitive arrays hold none and are not scanned.
    pub fn references(&self) -> impl Iterator<Item = crate::refs::ObjRef> + '_ {
        let slots: &[Value] = match &self.data {
            ObjData::Fields(f) => f,
            ObjData::Array {
                refs: true, values, ..
            } => values,
            ObjData::Array { refs: false, .. } | ObjData::Str { .. } => &[],
        };
        slots.iter().filter_map(|v| v.as_ref())
    }

    /// Number of reference-typed slots currently holding non-null refs.
    pub fn reference_count(&self) -> usize {
        self.references().count()
    }
}
