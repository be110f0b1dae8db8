//! Class loading, linking, namespaces, and the resolved constant pool.
//!
//! Separate namespaces are provided through class loaders (§3.1). A
//! process' namespace delegates lookups it cannot satisfy to the **shared
//! namespace**, so shared classes are the same class (same [`ClassIdx`],
//! shared text, consistent types for shared-heap objects) in every process,
//! while reloaded classes get a fresh [`ClassIdx`] — and therefore fresh
//! statics — per process (§3.2).
//!
//! A reloaded class is the same class text bound again, so everything a
//! load derives from it — layout, the verifier's verdict, template bodies
//! — is derived once per *load context* ([`Namespace::history`]) into a
//! shared [`LinkedClass`], and each load adds only its small bindings
//! ([`LoadedClass`], [`MethodRt`]).

use kaffeos_heap::{FxHashMap, Value};
use std::sync::Arc;

use crate::bytecode::{Const, Op, TypeDesc};
use crate::classfile::{ClassDef, MethodDef};
use crate::engine::{Engine, BASE_COSTS};
use crate::intrinsics::IntrinsicRegistry;
use crate::jit::{lower, CompiledBody, ProcJitStats};
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

/// A method's per-load binding in the global table. Its declaration is
/// its definition's [`MethodDef`] ([`ClassTable::decl`]); its body, frame
/// shape and op stream are shared with its linked definition and held
/// inline, so a call reads each from the record in one load.
#[derive(Debug, Clone)]
pub struct MethodRt {
    /// Declaring class.
    pub class: ClassIdx,
    /// Position in the declaring definition's `methods` (and its linked
    /// definition's).
    pub slot: u32,
    /// The linked template body the executor runs.
    pub(crate) body: Arc<CompiledBody>,
    /// The frame a call pushes and the cycles it charges.
    pub(crate) shape: FrameShape,
    /// The declaration's op stream, which runtime ops run.
    pub(crate) ops: Arc<[Op]>,
}

impl MethodRt {
    /// Locals consumed by arguments (receiver + params).
    pub fn arg_slots(&self) -> usize {
        self.shape.args as usize
    }
}

/// A class's per-load binding: what differs between two loads of one
/// linked definition.
#[derive(Debug, Clone)]
pub struct LoadedClass {
    /// The definition as linked in this load's context, shared by every
    /// load over the same context.
    pub link: Arc<LinkedClass>,
    /// This load's identity.
    pub idx: ClassIdx,
    /// Namespace that loaded it.
    pub namespace: u32,
    /// Superclass, `None` only for the root class.
    pub super_idx: Option<ClassIdx>,
    /// The record of its first declared method; the records of the rest
    /// follow it in declaration order.
    pub(crate) first_method: u32,
    /// Virtual dispatch table (inherited slots first).
    pub vtable: Vec<MethodIdx>,
    /// Resolved constant pool.
    pub rpool: Vec<RConst>,
}

/// A class definition linked in one load context (DESIGN §12): its field
/// layout, dispatch slots, template, and every method's frame shape and
/// template body. Built, verified and lowered once per context, and held
/// by the table's link memo for every later load over that context.
#[derive(Debug, Clone)]
pub struct LinkedClass {
    /// The class "file" it was linked from.
    pub def: Arc<ClassDef>,
    /// Instance fields including inherited ones, slot-ordered.
    pub instance_fields: Vec<FieldInfo>,
    /// Static fields declared by this class, slot-ordered.
    pub static_fields: Vec<FieldInfo>,
    /// Method name → vtable slot, inherited names included.
    pub(crate) vslots: FxHashMap<String, u16>,
    /// What `new` and the statics object copy and charge.
    pub template: ClassTemplate,
    /// One entry per declared method, in declaration order.
    pub(crate) methods: Box<[LinkedMethod]>,
    /// The namespace whose load linked it (cross-namespace reuse
    /// attribution).
    creator: u32,
}

/// One method of a [`LinkedClass`].
#[derive(Debug, Clone)]
pub(crate) struct LinkedMethod {
    /// `Class.method` display name (see [`ClassTable::qualified_name`]),
    /// built once per link so the profiler's miss path never formats.
    qname: String,
    /// The vtable slot of an instance method.
    vslot: Option<u16>,
    /// The frame a call pushes and the cycles it charges.
    pub(crate) shape: FrameShape,
    /// The template body, lowered once the class verified.
    pub(crate) body: Arc<CompiledBody>,
}

/// A class's `new` charge and typed-zero payloads (`Int(0)` for `int`,
/// `Float(0.0)` for `float`, null for a reference), fixed at link time.
#[derive(Debug, Clone)]
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

impl LoadedClass {
    /// Class name.
    pub fn name(&self) -> &str {
        &self.link.def.name
    }

    /// Its method records, in declaration order.
    pub fn methods(&self) -> impl Iterator<Item = MethodIdx> {
        let n = self.link.methods.len() as u32;
        (self.first_method..self.first_method + n).map(MethodIdx)
    }

    /// Finds an instance field slot by name.
    pub fn instance_field(&self, name: &str) -> Option<&FieldInfo> {
        self.link.instance_fields.iter().find(|f| f.name == name)
    }

    /// Finds a static field slot by name.
    pub fn static_field(&self, name: &str) -> Option<&FieldInfo> {
        self.link.static_fields.iter().find(|f| f.name == name)
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
    /// links to the same layout and bodies in both, and the verifier
    /// accepts it in one exactly when it accepts it in the other.
    pub(crate) history: u64,
}

/// A load history that never hits the link memo and never gains an edge:
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
    /// The link memo: (own history, parent's history, definition address)
    /// → the definition as linked from that context, and the history
    /// after binding it. An edge exists only once `verify_class` accepted
    /// the definition from that context; the linked definition holds the
    /// `Arc` whose address keys it, so the address is not reused while the
    /// edge exists.
    linked: FxHashMap<(u64, u64, usize), (Arc<LinkedClass>, u64)>,
    /// Last history id handed out.
    histories: u64,
    /// Cycle model the table's threads run under.
    engine: Engine,
    /// Lowering counters summed over every load.
    lowering: ProcJitStats,
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

    /// `(bodies, modelled bytes)` the link memo holds: one body per method
    /// of each definition, per load context it was linked in.
    pub fn body_usage(&self) -> (usize, u64) {
        self.linked
            .values()
            .flat_map(|(link, _)| link.methods.iter())
            .fold((0, 0), |(n, bytes), m| (n + 1, bytes + m.body.bytes()))
    }

    /// Lowering counters summed over every load so far; a difference of
    /// two readings attributes the loads between them.
    pub fn lowering_totals(&self) -> ProcJitStats {
        self.lowering
    }

    /// Edges in the link memo.
    #[cfg(test)]
    pub(crate) fn verify_edges(&self) -> usize {
        self.linked.len()
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
    /// statics (§3.2). The definition is linked, verified and lowered once
    /// per load context: a namespace whose own and parent histories already
    /// bound this `def` takes the recorded [`LinkedClass`] and builds only
    /// its bindings. The verifier and the lowering see the table only
    /// through parent-first lookups from `ns` and the classes and methods
    /// they return, which equal histories make the same up to a renaming of
    /// [`ClassIdx`] and [`MethodIdx`]; neither result depends on that
    /// renaming.
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

        let own = self.namespaces[ns as usize].history;
        let context = (own, self.parent_history(ns), Arc::as_ptr(&def) as usize);
        let (link, hit) = match self.linked.get(&context) {
            Some((link, next)) => (link.clone(), Some(*next)),
            None => (Arc::new(self.link_class(ns, def, super_idx)), None),
        };
        let idx = self.bind(ns, link, super_idx)?;
        let next = match hit {
            Some(next) => {
                let link = &self.classes[idx.0 as usize].link;
                let n = link.methods.len() as u64;
                let totals = &mut self.lowering;
                totals.hits += n;
                if link.creator != ns {
                    totals.reuse += n;
                }
                totals.bytes += link.methods.iter().map(|m| m.body.bytes()).sum::<u64>();
                next
            }
            None => {
                #[cfg(test)]
                {
                    self.verifications += 1;
                }
                if let Err(e) = verify_class(self, idx) {
                    self.unload_failed(ns, idx);
                    return Err(e.into());
                }
                self.lower_class(idx);
                if context.0 == UNKEYED || context.1 == UNKEYED {
                    UNKEYED
                } else {
                    self.histories += 1;
                    let link = self.classes[idx.0 as usize].link.clone();
                    self.linked.insert(context, (link, self.histories));
                    self.histories
                }
            }
        };
        self.namespaces[ns as usize].history = next;
        Ok(idx)
    }

    /// Links `def`, loaded into `ns` over superclass `super_idx`: its field
    /// layout (inherited slots first), dispatch slots (overriding keeps the
    /// inherited slot, new virtuals append), template and frame shapes.
    /// The bodies are placeholders until [`ClassTable::lower_class`].
    fn link_class(&self, ns: u32, def: Arc<ClassDef>, super_idx: Option<ClassIdx>) -> LinkedClass {
        let sup = super_idx.map(|s| &*self.classes[s.0 as usize].link);
        let mut instance_fields = sup.map_or_else(Vec::new, |s| s.instance_fields.clone());
        let mut vslots = sup.map_or_else(FxHashMap::default, |s| s.vslots.clone());
        let mut static_fields: Vec<FieldInfo> = Vec::new();
        for f in &def.fields {
            let fields = if f.is_static {
                &mut static_fields
            } else {
                &mut instance_fields
            };
            fields.push(FieldInfo {
                name: f.name.clone(),
                ty: f.ty.clone(),
                slot: fields.len() as u16,
            });
        }

        let engine = self.engine;
        let methods = def
            .methods
            .iter()
            .map(|m| {
                let args = m.params.len() as u64 + u64::from(!m.is_static);
                let call_cycles = engine.scaled(BASE_COSTS.call + BASE_COSTS.call_per_arg * args);
                let vslot = (!m.is_static).then(|| {
                    let next = vslots.len() as u16;
                    *vslots.entry(m.name.clone()).or_insert(next)
                });
                LinkedMethod {
                    qname: format!("{}.{}", def.name, m.name),
                    vslot,
                    shape: FrameShape {
                        args: u16::try_from(args).unwrap_or(u16::MAX),
                        max_locals: m.code.max_locals,
                        call_cycles: u32::try_from(call_cycles).unwrap_or(u32::MAX),
                    },
                    body: Arc::default(),
                }
            })
            .collect();

        let zeros = |fields: &[FieldInfo]| fields.iter().map(|f| typed_zero(&f.ty)).collect();
        let template = ClassTemplate {
            new_cycles: engine.scaled(BASE_COSTS.alloc)
                + engine.scaled(BASE_COSTS.simple) * instance_fields.len() as u64,
            instance: zeros(&instance_fields),
            statics: zeros(&static_fields),
        };
        LinkedClass {
            def,
            instance_fields,
            static_fields,
            vslots,
            template,
            methods,
            creator: ns,
        }
    }

    /// Binds `link` into `ns` over superclass `super_idx`: appends its class
    /// and method records, builds its vtable, and resolves its pool. The
    /// class is registered before its pool resolves, so self-references
    /// (including recursive types) resolve.
    fn bind(
        &mut self,
        ns: u32,
        link: Arc<LinkedClass>,
        super_idx: Option<ClassIdx>,
    ) -> Result<ClassIdx, VmError> {
        let idx = ClassIdx(self.classes.len() as u32);
        let first_method = self.methods.len() as u32;
        let mut vtable = match super_idx {
            Some(s) => self.classes[s.0 as usize].vtable.clone(),
            None => Vec::new(),
        };
        // Every slot past the inherited ones is a method of this class.
        vtable.resize(link.vslots.len(), MethodIdx(first_method));
        for (i, m) in link.methods.iter().enumerate() {
            let midx = MethodIdx(first_method + i as u32);
            if let Some(slot) = m.vslot {
                vtable[slot as usize] = midx;
            }
            self.methods.push(MethodRt {
                class: idx,
                slot: i as u32,
                body: m.body.clone(),
                shape: m.shape,
                ops: link.def.methods[i].code.ops.clone(),
            });
        }
        self.namespaces[ns as usize]
            .classes
            .insert(link.def.name.clone(), idx);
        self.classes.push(LoadedClass {
            link,
            idx,
            namespace: ns,
            super_idx,
            first_method,
            vtable,
            rpool: Vec::new(),
        });

        let pool = &self.classes[idx.0 as usize].link.def.pool;
        match pool.iter().map(|c| self.resolve_const(ns, c)).collect() {
            Ok(rpool) => {
                self.classes[idx.0 as usize].rpool = rpool;
                Ok(idx)
            }
            Err(e) => {
                self.unload_failed(ns, idx);
                Err(e)
            }
        }
    }

    /// Lowers every method of the verified class `idx` into the body its
    /// record and its linked definition share.
    fn lower_class(&mut self, idx: ClassIdx) {
        let bodies: Vec<Arc<CompiledBody>> = self.classes[idx.0 as usize]
            .methods()
            .map(|midx| Arc::new(lower(self, midx)))
            .collect();
        let cls = &mut self.classes[idx.0 as usize];
        let first = cls.first_method as usize;
        for (rt, body) in self.methods[first..].iter_mut().zip(&bodies) {
            rt.body = body.clone();
        }
        // The record holds the only reference until the memo records it,
        // so this writes in place.
        let link = Arc::make_mut(&mut cls.link);
        for (m, body) in link.methods.iter_mut().zip(bodies) {
            self.lowering.compiled += 1;
            self.lowering.bytes += body.bytes();
            m.body = body;
        }
    }

    /// Rolls back a failed load (the class must be the most recent one).
    fn unload_failed(&mut self, ns: u32, idx: ClassIdx) {
        debug_assert_eq!(idx.0 as usize, self.classes.len() - 1);
        if let Some(cls) = self.classes.pop() {
            self.namespaces[ns as usize].classes.remove(&cls.link.def.name);
            // Methods were appended contiguously.
            self.methods.truncate(cls.first_method as usize);
        }
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
                let m = self.decl(midx);
                if m.is_static {
                    RConst::DirectMethod(midx)
                } else {
                    let lc = &self.classes[cidx.0 as usize];
                    let vslot = *lc.link.vslots.get(name).ok_or_else(unknown)?;
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
            if let Some(i) = lc.link.def.methods.iter().position(|m| m.name == name) {
                return Some(MethodIdx(lc.first_method + i as u32));
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

    /// A method's declaration: name, signature and code.
    pub fn decl(&self, idx: MethodIdx) -> &MethodDef {
        let m = self.method(idx);
        &self.class(m.class).link.def.methods[m.slot as usize]
    }

    /// `Class.method` display name for a method — the profiler's frame
    /// label. Namespaces are deliberately omitted: per-process class loads
    /// of the same source share one hot name in the flamegraph.
    pub fn qualified_name(&self, idx: MethodIdx) -> String {
        let m = self.method(idx);
        self.class(m.class).link.methods[m.slot as usize].qname.clone()
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
    /// neither it nor a namespace delegating to it hits the link memo.
    pub fn drop_namespace(&mut self, ns: u32) {
        if let Some(n) = self.namespaces.get_mut(ns as usize) {
            n.classes.clear();
            n.parent = None;
            n.history = UNKEYED;
        }
    }
}
