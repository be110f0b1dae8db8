//! Class loading, linking, namespaces, and the resolved constant pool.
//!
//! Separate namespaces are provided through class loaders (§3.1). A
//! process' namespace delegates lookups it cannot satisfy to the **shared
//! namespace**, so shared classes are the same class (same [`ClassIdx`],
//! shared text, consistent types for shared-heap objects) in every process,
//! while reloaded classes get a fresh [`ClassIdx`] — and therefore fresh
//! statics — per process (§3.2).
//!
//! A reloaded class is the same class text bound again, so the verifier's
//! verdict on it is derived once per *load context* and shared: see
//! [`Namespace::history`].

use kaffeos_heap::{FxHashMap, Value};
use std::sync::Arc;

use crate::bytecode::{Const, TypeDesc};
use crate::classfile::ClassDef;
use crate::engine::{Engine, BASE_COSTS};
use crate::intrinsics::IntrinsicRegistry;
use crate::jit::{BodyMemo, CompiledBody, ProcJitStats};
use crate::verify::verify_class;
use crate::VmError;

/// Index of a loaded class in the global class table. Doubles as the heap
/// layer's `ClassId` (same numeric value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassIdx(pub u32);

impl ClassIdx {
    /// The heap-layer tag for objects of this class.
    pub fn heap_class(self) -> kaffeos_heap::ClassId {
        kaffeos_heap::ClassId(self.0)
    }
}

/// Index of a method in the global method table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodIdx(pub u32);

/// Instance or static field after layout.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Declared field name.
    pub name: String,
    /// Declared type.
    pub ty: TypeDesc,
    /// Slot in the instance (for instance fields, including inherited) or
    /// in the class' statics object (for statics).
    pub slot: u16,
}

/// Resolved constant-pool entry.
#[derive(Debug, Clone, PartialEq)]
pub enum RConst {
    /// String literal.
    Str(Arc<str>),
    /// Class reference.
    Class(ClassIdx),
    /// Instance field: slot in the object layout.
    InstanceField {
        /// Statically named receiver class.
        class: ClassIdx,
        /// Field slot in the instance layout.
        slot: u16,
        /// Declared type (drives barrier vs primitive stores).
        ty: TypeDesc,
    },
    /// Static field: slot in `class`'s statics object.
    StaticField {
        /// Class whose statics object holds the field.
        class: ClassIdx,
        /// Slot within that statics object.
        slot: u16,
        /// Declared type.
        ty: TypeDesc,
    },
    /// Direct call target (static or special).
    DirectMethod(MethodIdx),
    /// Virtual call: vtable slot resolved against the static receiver type
    /// (`class`). `CallVirtual` dispatches through the *receiver's* vtable
    /// at that slot; `CallSpecial` uses `class`'s own vtable entry, giving
    /// constructor/`super` semantics without dynamic dispatch.
    VirtualMethod {
        /// Statically named receiver class.
        class: ClassIdx,
        /// Vtable slot to dispatch through.
        vslot: u16,
        /// Receiver + parameter count (stack slots consumed).
        nargs: u8,
        /// Whether a result is pushed.
        returns: bool,
    },
    /// Kernel intrinsic.
    Intrinsic {
        /// Registry id serviced by the kernel.
        id: u16,
        /// Argument count popped by the call.
        nargs: u8,
        /// Whether a result is pushed on resume.
        returns: bool,
    },
}

/// What a call to a method needs, fixed when its class is loaded. Eight
/// bytes: every method record of every spawn carries one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameShape {
    /// Locals the arguments fill (receiver + params); the verifier holds
    /// them within `max_locals`.
    pub(crate) args: u16,
    /// Locals of the frame ([`crate::bytecode::Code::max_locals`]).
    pub(crate) max_locals: u16,
    /// Cycles a call charges: `call + call_per_arg × args`, pre-scaled for
    /// the table's engine.
    pub(crate) call_cycles: u32,
}

/// Runtime method record in the global table.
#[derive(Debug, Clone)]
pub struct MethodRt {
    /// Declaring class.
    pub class: ClassIdx,
    /// Method name (no overloading: names are unique per class).
    pub name: String,
    /// Parameter types (receiver excluded).
    pub params: Vec<TypeDesc>,
    /// Return type, `None` for void.
    pub ret: Option<TypeDesc>,
    /// Static vs instance.
    pub is_static: bool,
    /// Verified body.
    pub code: crate::bytecode::Code,
    /// Cached `Class.method` display name (see
    /// [`ClassTable::qualified_name`]) — built once at load time so the
    /// profiler's miss path never formats.
    pub qname: String,
    /// The linked template body the executor runs, shared through the
    /// table's lower-once memo.
    pub(crate) body: Arc<CompiledBody>,
    /// The frame a call pushes and the cycles it charges.
    pub(crate) shape: FrameShape,
}

impl MethodRt {
    /// Locals consumed by arguments (receiver + params).
    pub fn arg_slots(&self) -> usize {
        self.params.len() + usize::from(!self.is_static)
    }
}

/// A loaded, linked class.
#[derive(Debug, Clone)]
pub struct LoadedClass {
    /// The class "file" this load came from (text shared across loads).
    pub def: Arc<ClassDef>,
    /// This load's identity.
    pub idx: ClassIdx,
    /// Namespace that loaded it.
    pub namespace: u32,
    /// Class name.
    pub name: String,
    /// Superclass, `None` only for the root class.
    pub super_idx: Option<ClassIdx>,
    /// Instance fields including inherited ones, slot-ordered.
    pub instance_fields: Vec<FieldInfo>,
    /// Static fields declared by this class, slot-ordered.
    pub static_fields: Vec<FieldInfo>,
    /// Declared methods.
    pub methods: Vec<MethodIdx>,
    /// Virtual dispatch table (inherited slots first).
    pub vtable: Vec<MethodIdx>,
    /// Method name → vtable slot.
    pub vslots: FxHashMap<String, u16>,
    /// Resolved constant pool.
    pub rpool: Vec<RConst>,
    /// What `new` and the statics object copy and charge.
    pub template: Arc<ClassTemplate>,
}

/// A class's `new` charge and typed-zero payloads (`Int(0)` for `int`,
/// `Float(0.0)` for `float`, null for a reference), fixed at load. One
/// template serves every class of the same field types: every reload of
/// a definition, and every clone of the table, shares it.
#[derive(Debug)]
pub struct ClassTemplate {
    /// Cycles `new` charges before it allocates: `alloc` plus `simple` per
    /// instance field, each pre-scaled for the table's engine.
    pub new_cycles: u64,
    /// The instance fields' zeros, slot-ordered (inherited slots first):
    /// the payload `new` copies.
    pub instance: Box<[Value]>,
    /// The static fields' zeros: the statics object's payload.
    pub statics: Box<[Value]>,
}

/// The typed zero of a field type.
fn typed_zero(ty: &TypeDesc) -> Value {
    match ty {
        TypeDesc::Int => Value::Int(0),
        TypeDesc::Float => Value::Float(0.0),
        _ => Value::Null,
    }
}

/// A field's kind in a template key: 0 null, 1 `Int`, 2 `Float`.
fn zero_kind(f: &FieldInfo) -> u8 {
    match typed_zero(&f.ty) {
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        _ => 0,
    }
}

impl LoadedClass {
    /// Finds an instance field slot by name.
    pub fn instance_field(&self, name: &str) -> Option<&FieldInfo> {
        self.instance_fields.iter().find(|f| f.name == name)
    }

    /// Finds a static field slot by name.
    pub fn static_field(&self, name: &str) -> Option<&FieldInfo> {
        self.static_fields.iter().find(|f| f.name == name)
    }
}

/// One class loader's namespace (§3.1). `parent` is the delegation target
/// (the shared loader), consulted *first* like Java's parent delegation, so
/// a process cannot shadow a shared class with its own version.
#[derive(Debug, Clone)]
pub struct Namespace {
    /// Namespace id (index in the table).
    pub id: u32,
    /// Diagnostic label.
    pub name: String,
    /// Delegation target, consulted first.
    pub parent: Option<u32>,
    /// Classes loaded directly into this namespace.
    pub classes: FxHashMap<String, ClassIdx>,
    /// Load-history id: which definitions this namespace bound, in which
    /// order, over which parent histories. A fresh namespace is at 0.
    /// Two namespaces with equal own and parent histories resolve every
    /// name to a class of the same definition and shape, so a definition
    /// the verifier accepted in one is accepted in the other.
    pub(crate) history: u64,
}

/// A load history that never hits the verify memo and never gains an edge:
/// the namespace was dropped, or it loaded over a parent whose history
/// does not describe what the parent resolves.
const UNKEYED: u64 = u64::MAX;

/// Global table of namespaces, loaded classes, and methods.
#[derive(Debug, Default, Clone)]
pub struct ClassTable {
    /// Every loaded class, indexed by [`ClassIdx`].
    pub classes: Vec<LoadedClass>,
    /// Every loaded method, indexed by [`MethodIdx`].
    pub methods: Vec<MethodRt>,
    /// Every class-loader namespace.
    pub namespaces: Vec<Namespace>,
    intrinsics: IntrinsicRegistry,
    /// Verify memo: (own history, parent's history, definition address) →
    /// the history after binding the definition. An edge exists only once
    /// `verify_class` accepted the definition from that context; the `Arc`
    /// keeps its address from being reused while the edge exists.
    verified: FxHashMap<(u64, u64, usize), (Arc<ClassDef>, u64)>,
    /// Last history id handed out.
    histories: u64,
    /// Cycle model the table's threads run under.
    engine: Engine,
    /// Lower-once memo of every linked template body.
    bodies: BodyMemo,
    /// Every distinct class template, keyed by the kinds of its instance
    /// zeros, a separator, and the kinds of its statics zeros.
    templates: FxHashMap<Box<[u8]>, Arc<ClassTemplate>>,
    /// `verify_class` runs made by `load_class`.
    #[cfg(test)]
    pub(crate) verifications: usize,
}

impl ClassTable {
    /// Creates a table with the given intrinsic surface whose threads run
    /// under the KaffeOS cycle model.
    pub fn new(intrinsics: IntrinsicRegistry) -> Self {
        Self::with_engine(intrinsics, Engine::KAFFEOS)
    }

    /// Creates a table whose threads run under `engine`'s cycle model; its
    /// template bodies are pre-scaled for it.
    pub fn with_engine(intrinsics: IntrinsicRegistry, engine: Engine) -> Self {
        ClassTable {
            intrinsics,
            engine,
            ..ClassTable::default()
        }
    }

    /// The cycle model this table's threads run under.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// `(bodies, modelled bytes)` the lower-once memo holds: one body per
    /// (definition, method, field layout) ever loaded.
    pub fn body_usage(&self) -> (usize, u64) {
        self.bodies.usage()
    }

    /// Lowering counters summed over every load so far; a difference of
    /// two readings attributes the loads between them.
    pub fn lowering_totals(&self) -> ProcJitStats {
        self.bodies.totals()
    }

    /// The template of a class with these instance and static fields.
    fn template(&mut self, instance: &[FieldInfo], statics: &[FieldInfo]) -> Arc<ClassTemplate> {
        let kinds = instance.iter().map(zero_kind);
        let key: Box<[u8]> = kinds.chain([3]).chain(statics.iter().map(zero_kind)).collect();
        let engine = self.engine;
        let zeros = |fields: &[FieldInfo]| fields.iter().map(|f| typed_zero(&f.ty)).collect();
        self.templates
            .entry(key)
            .or_insert_with(|| {
                Arc::new(ClassTemplate {
                    new_cycles: engine.scaled(BASE_COSTS.alloc)
                        + engine.scaled(BASE_COSTS.simple) * instance.len() as u64,
                    instance: zeros(instance),
                    statics: zeros(statics),
                })
            })
            .clone()
    }

    /// Edges in the verify memo.
    #[cfg(test)]
    pub(crate) fn verify_edges(&self) -> usize {
        self.verified.len()
    }

    /// The intrinsic registry used at link time.
    pub fn intrinsics(&self) -> &IntrinsicRegistry {
        &self.intrinsics
    }

    /// Creates a namespace; `parent` enables delegation (process loaders
    /// delegate to the shared loader, §3.1).
    pub fn create_namespace(&mut self, name: impl Into<String>, parent: Option<u32>) -> u32 {
        let id = self.namespaces.len() as u32;
        self.namespaces.push(Namespace {
            id,
            name: name.into(),
            parent,
            classes: FxHashMap::default(),
            history: 0,
        });
        id
    }

    /// The parent half of `ns`'s load context: 0 for a root namespace (it
    /// resolves through nothing, like a fresh parent), the parent's history
    /// when the parent is a root, and [`UNKEYED`] otherwise — a parent that
    /// delegates further resolves names its own history does not record.
    fn parent_history(&self, ns: u32) -> u64 {
        let Some(parent) = self.namespaces[ns as usize].parent else {
            return 0;
        };
        match self.namespaces.get(parent as usize) {
            Some(p) if p.parent.is_none() => p.history,
            _ => UNKEYED,
        }
    }

    /// Looks a class up in a namespace, delegating to the parent first.
    pub fn lookup(&self, ns: u32, name: &str) -> Option<ClassIdx> {
        let namespace = self.namespaces.get(ns as usize)?;
        if let Some(parent) = namespace.parent {
            if let Some(idx) = self.lookup(parent, name) {
                return Some(idx);
            }
        }
        namespace.classes.get(name).copied()
    }

    /// Loads and links `def` into namespace `ns`, verifying its bytecode.
    ///
    /// The superclass and every class the constant pool references must be
    /// resolvable in `ns` (possibly via delegation). Loading the same def
    /// into two namespaces *reloads* it: distinct `ClassIdx`, distinct
    /// statics (§3.2). The verifier runs once per load context: a namespace
    /// whose own and parent histories already bound this `def` takes the
    /// recorded edge instead. The verifier sees the table only through
    /// parent-first lookups from `ns` and the classes and methods they
    /// return, which equal histories make the same up to a renaming of
    /// [`ClassIdx`]; its verdict does not depend on that renaming.
    pub fn load_class(&mut self, ns: u32, def: Arc<ClassDef>) -> Result<ClassIdx, VmError> {
        if self
            .namespaces
            .get(ns as usize)
            .ok_or_else(|| VmError::BadBytecode(format!("no namespace {ns}")))?
            .classes
            .contains_key(&def.name)
        {
            return Err(VmError::DuplicateClass(def.name.clone()));
        }
        // A class visible via delegation may not be redefined locally: that
        // would shadow a shared class and break shared-heap typing.
        if self.lookup(ns, &def.name).is_some() {
            return Err(VmError::DuplicateClass(def.name.clone()));
        }

        let super_idx = match &def.super_name {
            Some(name) => Some(
                self.lookup(ns, name)
                    .ok_or_else(|| VmError::UnknownClass(name.clone()))?,
            ),
            None => None,
        };

        let idx = ClassIdx(self.classes.len() as u32);

        // Instance field layout: inherited slots first.
        let mut instance_fields: Vec<FieldInfo> = match super_idx {
            Some(s) => self.classes[s.0 as usize].instance_fields.clone(),
            None => Vec::new(),
        };
        let mut static_fields: Vec<FieldInfo> = Vec::new();
        for f in &def.fields {
            if f.is_static {
                static_fields.push(FieldInfo {
                    name: f.name.clone(),
                    ty: f.ty.clone(),
                    slot: static_fields.len() as u16,
                });
            } else {
                instance_fields.push(FieldInfo {
                    name: f.name.clone(),
                    ty: f.ty.clone(),
                    slot: instance_fields.len() as u16,
                });
            }
        }

        // Methods and vtable: start from the superclass vtable; overriding
        // replaces the inherited slot, new virtuals append.
        let (mut vtable, mut vslots) = match super_idx {
            Some(s) => {
                let sc = &self.classes[s.0 as usize];
                (sc.vtable.clone(), sc.vslots.clone())
            }
            None => (Vec::new(), FxHashMap::default()),
        };
        let engine = self.engine;
        let mut methods = Vec::new();
        for m in &def.methods {
            let midx = MethodIdx(self.methods.len() as u32);
            let args = m.params.len() as u64 + u64::from(!m.is_static);
            let call_cycles = engine.scaled(BASE_COSTS.call + BASE_COSTS.call_per_arg * args);
            let shape = FrameShape {
                args: u16::try_from(args).unwrap_or(u16::MAX),
                max_locals: m.code.max_locals,
                call_cycles: u32::try_from(call_cycles).unwrap_or(u32::MAX),
            };
            self.methods.push(MethodRt {
                class: idx,
                name: m.name.clone(),
                params: m.params.clone(),
                ret: m.ret.clone(),
                is_static: m.is_static,
                code: m.code.clone(),
                qname: format!("{}.{}", def.name, m.name),
                body: Arc::default(),
                shape,
            });
            methods.push(midx);
            if !m.is_static {
                if let Some(&slot) = vslots.get(&m.name) {
                    vtable[slot as usize] = midx;
                } else {
                    let slot = vtable.len() as u16;
                    vtable.push(midx);
                    vslots.insert(m.name.clone(), slot);
                }
            }
        }

        let template = self.template(&instance_fields, &static_fields);

        // Register the class before resolving the pool so self-references
        // (including recursive types) resolve.
        self.namespaces[ns as usize]
            .classes
            .insert(def.name.clone(), idx);
        self.classes.push(LoadedClass {
            def: def.clone(),
            idx,
            namespace: ns,
            name: def.name.clone(),
            super_idx,
            instance_fields,
            static_fields,
            methods,
            vtable,
            vslots,
            rpool: Vec::new(),
            template,
        });

        let rpool = match self.resolve_pool(ns, &def) {
            Ok(p) => p,
            Err(e) => {
                self.unload_failed(ns, idx, &def.name);
                return Err(e);
            }
        };
        self.classes[idx.0 as usize].rpool = rpool;

        let own = self.namespaces[ns as usize].history;
        let context = (own, self.parent_history(ns), Arc::as_ptr(&def) as usize);
        let next = match self.verified.get(&context) {
            Some(&(_, next)) => next,
            None => {
                #[cfg(test)]
                {
                    self.verifications += 1;
                }
                if let Err(e) = verify_class(self, idx) {
                    self.unload_failed(ns, idx, &def.name);
                    return Err(e.into());
                }
                if context.0 == UNKEYED || context.1 == UNKEYED {
                    UNKEYED
                } else {
                    self.histories += 1;
                    self.verified.insert(context, (def, self.histories));
                    self.histories
                }
            }
        };
        self.namespaces[ns as usize].history = next;
        self.link_bodies(ns, idx);
        Ok(idx)
    }

    /// Gives each method of the verified class `idx`, just loaded into
    /// `ns`, its template body from the memo, lowering it on a miss.
    fn link_bodies(&mut self, ns: u32, idx: ClassIdx) {
        let mut memo = core::mem::take(&mut self.bodies);
        for i in 0..self.classes[idx.0 as usize].methods.len() {
            let midx = self.classes[idx.0 as usize].methods[i];
            let body = memo.link(self, midx, ns);
            self.methods[midx.0 as usize].body = body;
        }
        self.bodies = memo;
    }

    /// Rolls back a failed load (the class must be the most recent one).
    fn unload_failed(&mut self, ns: u32, idx: ClassIdx, name: &str) {
        debug_assert_eq!(idx.0 as usize, self.classes.len() - 1);
        self.namespaces[ns as usize].classes.remove(name);
        if let Some(cls) = self.classes.pop() {
            // Methods were appended contiguously.
            self.methods
                .truncate(self.methods.len() - cls.methods.len());
        }
    }

    fn resolve_pool(&self, ns: u32, def: &ClassDef) -> Result<Vec<RConst>, VmError> {
        def.pool.iter().map(|c| self.resolve_const(ns, c)).collect()
    }

    fn resolve_const(&self, ns: u32, c: &Const) -> Result<RConst, VmError> {
        Ok(match c {
            Const::Str(s) => RConst::Str(Arc::from(s.as_str())),
            Const::Class(name) => RConst::Class(
                self.lookup(ns, name)
                    .ok_or_else(|| VmError::UnknownClass(name.clone()))?,
            ),
            Const::Field { class, name } => {
                let cidx = self
                    .lookup(ns, class)
                    .ok_or_else(|| VmError::UnknownClass(class.clone()))?;
                // Walk up the hierarchy for statics declared in supers.
                let mut cursor = Some(cidx);
                loop {
                    let Some(cur) = cursor else {
                        return Err(VmError::UnknownMember {
                            class: class.clone(),
                            member: name.clone(),
                        });
                    };
                    let lc = &self.classes[cur.0 as usize];
                    if let Some(f) = lc.instance_field(name) {
                        break RConst::InstanceField {
                            class: cidx,
                            slot: f.slot,
                            ty: f.ty.clone(),
                        };
                    }
                    if let Some(f) = lc.static_field(name) {
                        break RConst::StaticField {
                            class: cur,
                            slot: f.slot,
                            ty: f.ty.clone(),
                        };
                    }
                    cursor = lc.super_idx;
                }
            }
            Const::Method { class, name } => {
                let cidx = self
                    .lookup(ns, class)
                    .ok_or_else(|| VmError::UnknownClass(class.clone()))?;
                let unknown = || VmError::UnknownMember {
                    class: class.clone(),
                    member: name.clone(),
                };
                let midx = self.find_method(cidx, name).ok_or_else(unknown)?;
                let m = &self.methods[midx.0 as usize];
                if m.is_static {
                    RConst::DirectMethod(midx)
                } else {
                    let lc = &self.classes[cidx.0 as usize];
                    let vslot = *lc.vslots.get(name).ok_or_else(unknown)?;
                    RConst::VirtualMethod {
                        class: cidx,
                        vslot,
                        nargs: (m.params.len() + 1) as u8,
                        returns: m.ret.is_some(),
                    }
                }
            }
            Const::Intrinsic(name) => {
                let unknown = || VmError::UnknownMember {
                    class: "<intrinsics>".to_string(),
                    member: name.clone(),
                };
                let id = self.intrinsics.by_name(name).ok_or_else(unknown)?;
                let def = self.intrinsics.def(id).ok_or_else(unknown)?;
                RConst::Intrinsic {
                    id,
                    nargs: def.params.len() as u8,
                    returns: def.ret.is_some(),
                }
            }
        })
    }

    /// Finds a method by name, walking up the class hierarchy.
    pub fn find_method(&self, class: ClassIdx, name: &str) -> Option<MethodIdx> {
        let mut cursor = Some(class);
        while let Some(cur) = cursor {
            let lc = &self.classes[cur.0 as usize];
            for &m in &lc.methods {
                if self.methods[m.0 as usize].name == name {
                    return Some(m);
                }
            }
            cursor = lc.super_idx;
        }
        None
    }

    /// `a` is `b` or a subclass of `b`.
    pub fn is_subclass(&self, a: ClassIdx, b: ClassIdx) -> bool {
        let mut cursor = Some(a);
        while let Some(cur) = cursor {
            if cur == b {
                return true;
            }
            cursor = self.classes[cur.0 as usize].super_idx;
        }
        false
    }

    /// Loaded class by index.
    pub fn class(&self, idx: ClassIdx) -> &LoadedClass {
        &self.classes[idx.0 as usize]
    }

    /// Method record by index.
    pub fn method(&self, idx: MethodIdx) -> &MethodRt {
        &self.methods[idx.0 as usize]
    }

    /// `Class.method` display name for a method — the profiler's frame
    /// label. Namespaces are deliberately omitted: per-process class loads
    /// of the same source share one hot name in the flamegraph.
    pub fn qualified_name(&self, idx: MethodIdx) -> String {
        self.method(idx).qname.clone()
    }

    /// The class behind a heap-layer tag.
    pub fn from_heap_class(&self, id: kaffeos_heap::ClassId) -> ClassIdx {
        debug_assert!((id.0 as usize) < self.classes.len());
        ClassIdx(id.0)
    }

    /// Number of classes loaded into namespace `ns` directly (not via
    /// delegation) — the paper's shared-vs-reloaded ratio is computed from
    /// these counts.
    pub fn loaded_in(&self, ns: u32) -> usize {
        self.namespaces[ns as usize].classes.len()
    }

    /// Unloads a namespace: its name map (and delegation link) is cleared,
    /// so the classes it loaded become unreachable by name. KaffeOS calls
    /// this when a process is reaped — the class-unloading counterpart of
    /// merging the process heap (class *records* stay in the table because
    /// surviving objects may still carry their class ids; only resolution
    /// through the dead namespace stops). Its load history is retired, so
    /// neither it nor a namespace delegating to it hits the verify memo.
    pub fn drop_namespace(&mut self, ns: u32) {
        if let Some(n) = self.namespaces.get_mut(ns as usize) {
            n.classes.clear();
            n.parent = None;
            n.history = UNKEYED;
        }
    }
}
