//! The process-wide boot image: the class table every kernel boots from.
//!
//! The paper's shared loader loads the system classes once, and every
//! process shares them (§3.1–3.2). Here the standard library is compiled,
//! verified and lowered once per host process: the shared library into the
//! `shared` namespace and the reloaded library into the `template`
//! namespace. Each kernel then boots from its own clone of that table.
//!
//! A clone copies class, method and namespace records, not code: linked
//! definitions, with their class text, layouts and template bodies, are
//! `Arc`s that every clone shares with the image. The link memo is keyed
//! by the addresses of the class definitions those `Arc`s hold, and the
//! image holds them for the life of the host process, so the memo stays
//! valid in every clone.
//!
//! Template bodies are pre-scaled for the table's cycle model, so there is
//! one image per [`Engine`]. The image is never mutated once built, and
//! every kernel owns its clone: what one kernel loads, spawns or drops
//! never reaches another kernel or the image.

use std::sync::{Arc, Mutex, PoisonError};

use kaffeos_vm::{ClassDef, ClassIdx, ClassTable, Engine};

use super::KernelError;
use crate::stdlib;
use crate::syscalls::build_registry;

/// The pristine class table a kernel boots from, and what boot learned
/// about it.
pub(crate) struct BootImage {
    /// The shared library loaded into `shared_ns`, the reloaded library
    /// into `template_ns`; nothing else.
    pub(crate) table: ClassTable,
    /// The shared loader's namespace, every process namespace's parent.
    pub(crate) shared_ns: u32,
    /// Namespace used to type-check images at registration time.
    pub(crate) template_ns: u32,
    /// Classes loaded into `shared_ns` (for the §3.2 ratio).
    pub(crate) shared_class_count: usize,
    /// The reloaded library, bound again into every process namespace.
    pub(crate) reloaded_defs: Vec<Arc<ClassDef>>,
    /// `String`, the class of every string the kernel allocates.
    pub(crate) string_class: ClassIdx,
}

/// Every image built so far, one per engine, in first-boot order. The
/// first boot under an engine builds its image while holding the lock, so
/// concurrent first boots build it once.
static IMAGES: Mutex<Vec<(Engine, Arc<BootImage>)>> = Mutex::new(Vec::new());

impl BootImage {
    /// The image for `engine`, built on the first request in this host
    /// process. A boot that panicked while holding the lock pushed nothing,
    /// so the list stays whole and later boots recover it.
    pub(crate) fn get(engine: Engine) -> Result<Arc<BootImage>, KernelError> {
        let mut images = IMAGES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, image)) = images.iter().find(|(e, _)| *e == engine) {
            return Ok(image.clone());
        }
        let image = Arc::new(BootImage::build(engine)?);
        images.push((engine, image.clone()));
        Ok(image)
    }

    /// Builds an image from scratch: compiles, verifies and lowers the
    /// standard library into a fresh table.
    pub(crate) fn build(engine: Engine) -> Result<BootImage, KernelError> {
        let mut table = ClassTable::with_engine(build_registry(), engine);
        let shared_ns = table.create_namespace("shared", None);
        let shared_class_count = stdlib::load_shared_stdlib(&mut table, shared_ns)?;
        let template_ns = table.create_namespace("template", Some(shared_ns));
        let reloaded_defs: Vec<Arc<ClassDef>> = stdlib::compile_reloaded(&table, template_ns)?
            .into_iter()
            .map(|d| d.into_arc())
            .collect();
        for def in &reloaded_defs {
            table.load_class(template_ns, def.clone())?;
        }
        let string_class = table
            .lookup(shared_ns, "String")
            .ok_or(KernelError::Internal("the shared library has no String"))?;
        Ok(BootImage {
            table,
            shared_ns,
            template_ns,
            shared_class_count,
            reloaded_defs,
            string_class,
        })
    }
}
