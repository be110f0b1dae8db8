use crate::error::{LimitError, LimitExceeded};

/// A conservation violation found by [`MemLimitTree::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitAuditError {
    /// The node at which the violation was detected.
    pub node: MemLimitId,
    /// Human-readable description of the inconsistency.
    pub detail: String,
}

impl std::fmt::Display for LimitAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memlimit {:?}: {}", self.node, self.detail)
    }
}

impl std::error::Error for LimitAuditError {}

/// Whether a memlimit reserves its maximum from its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reservation: the node's full `limit` is debited from the parent at
    /// creation and credited back at removal. Debits and credits inside the
    /// node never percolate past it.
    Hard,
    /// Pass-through cap: the node's debits and credits are reflected in the
    /// parent (and recursively above), so the parent limit bounds the sum of
    /// its soft children.
    Soft,
}

/// Handle to a node in a [`MemLimitTree`].
///
/// Ids are generational: removing a node and reusing its slot yields a new
/// id, so stale handles are detected rather than silently aliased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemLimitId {
    index: u32,
    generation: u32,
}

impl MemLimitId {
    /// Slot index; stable for the node's lifetime. Useful as a map key when
    /// the caller knows the node is alive.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Generation of the slot; together with [`index`](MemLimitId::index)
    /// this uniquely names a node across slot reuse (trace events key on
    /// the pair).
    pub fn generation(self) -> u32 {
        self.generation
    }
}

#[derive(Debug)]
struct Node {
    generation: u32,
    alive: bool,
    parent: Option<MemLimitId>,
    kind: Kind,
    limit: u64,
    current: u64,
    children: u32,
    label: String,
}

/// Read-only view of one memlimit, for diagnostics and the `ps`-style
/// reporting the kernel exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemLimitSnapshot {
    /// The node.
    pub id: MemLimitId,
    /// Parent node, if any.
    pub parent: Option<MemLimitId>,
    /// Hard or soft.
    pub kind: Kind,
    /// Maximum bytes.
    pub limit: u64,
    /// Bytes currently debited.
    pub current: u64,
    /// Diagnostic label.
    pub label: String,
}

/// Arena of memlimit nodes forming one hierarchy.
#[derive(Debug, Default)]
pub struct MemLimitTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    trace: kaffeos_trace::Plane<kaffeos_trace::TraceBuffer>,
}

impl MemLimitTree {
    /// Creates an empty tree. Use [`MemLimitTree::create_root`] to plant the
    /// root (typically sized to the machine's physical memory).
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the trace plane that [`debit`] and [`credit`] report to.
    /// The default plane is off and records nothing.
    ///
    /// [`debit`]: MemLimitTree::debit
    /// [`credit`]: MemLimitTree::credit
    pub fn set_trace(&mut self, trace: kaffeos_trace::Plane<kaffeos_trace::TraceBuffer>) {
        self.trace = trace;
    }

    /// Creates a root memlimit with the given maximum. Multiple roots are
    /// permitted (e.g. one per simulated machine) but KaffeOS uses one.
    pub fn create_root(&mut self, limit: u64, label: impl Into<String>) -> MemLimitId {
        self.insert(Node {
            generation: 0,
            alive: true,
            parent: None,
            kind: Kind::Hard,
            limit,
            current: 0,
            children: 0,
            label: label.into(),
        })
    }

    /// Creates a child memlimit under `parent`.
    ///
    /// A [`Kind::Hard`] child immediately debits its full `limit` from the
    /// parent chain (the reservation); if the chain cannot cover it the child
    /// is not created and [`LimitError::ReservationFailed`] is returned.
    pub fn create_child(
        &mut self,
        parent: MemLimitId,
        kind: Kind,
        limit: u64,
        label: impl Into<String>,
    ) -> Result<MemLimitId, LimitError> {
        self.check_alive(parent)?;
        if kind == Kind::Hard {
            // Reserve the child's full maximum from the parent before the
            // child exists; on failure nothing changes.
            self.debit(parent, limit)
                .map_err(LimitError::ReservationFailed)?;
        }
        let id = self.insert(Node {
            generation: 0,
            alive: true,
            parent: Some(parent),
            kind,
            limit,
            current: 0,
            children: 0,
            label: label.into(),
        });
        self.node_mut(parent).children += 1;
        Ok(id)
    }

    /// Debits `bytes` from `id`, percolating up through soft ancestors.
    ///
    /// The debit is all-or-nothing: if any node on the percolation path would
    /// exceed its limit, every node already debited is rolled back and the
    /// offending node is reported.
    pub fn debit(&mut self, id: MemLimitId, bytes: u64) -> Result<(), LimitExceeded> {
        debug_assert!(self.is_alive(id), "debit on dead memlimit {id:?}");
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = self.node_mut(cur);
            let available = node.limit.saturating_sub(node.current);
            if bytes > available {
                self.undo_debit(id, cur, bytes);
                return Err(LimitExceeded {
                    node: cur,
                    requested: bytes,
                    available,
                });
            }
            node.current += bytes;
            // A hard node absorbs the debit: its own reservation was taken
            // from the parent at creation time.
            cursor = if node.kind == Kind::Hard {
                None
            } else {
                node.parent
            };
        }
        // One event at the node the caller named, not per percolation step:
        // soft-ancestor updates are derivable from the tree shape, and a
        // single event keeps the node's net trace equal to its direct use.
        self.trace.with(|t| {
            t.record(kaffeos_trace::Payload::Charge {
                node: id.index,
                node_gen: id.generation,
                bytes,
            })
        });
        Ok(())
    }

    /// Rolls back a debit of `bytes` that failed at `failed`: walks the
    /// same path again from `id` and takes `bytes` back from every node
    /// below `failed`, so a failed debit needs no record of where it went.
    fn undo_debit(&mut self, id: MemLimitId, failed: MemLimitId, bytes: u64) {
        let mut cursor = id;
        while cursor != failed {
            let node = self.node_mut(cursor);
            node.current -= bytes;
            // Every node below `failed` on the path is soft; it has one.
            match node.parent {
                Some(parent) => cursor = parent,
                None => return,
            }
        }
    }

    /// Credits `bytes` back to `id`, percolating exactly as [`debit`] does.
    ///
    /// Crediting more than a node's current use is a kernel bug and reported
    /// as [`LimitError::CreditUnderflow`] without modifying the tree.
    ///
    /// [`debit`]: MemLimitTree::debit
    pub fn credit(&mut self, id: MemLimitId, bytes: u64) -> Result<(), LimitError> {
        self.check_alive(id)?;
        // Validate the whole path first so the operation is atomic.
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = self.node(cur);
            if node.current < bytes {
                return Err(LimitError::CreditUnderflow(cur));
            }
            cursor = if node.kind == Kind::Hard {
                None
            } else {
                node.parent
            };
        }
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = self.node_mut(cur);
            node.current -= bytes;
            cursor = if node.kind == Kind::Hard {
                None
            } else {
                node.parent
            };
        }
        self.trace.with(|t| {
            t.record(kaffeos_trace::Payload::Credit {
                node: id.index,
                node_gen: id.generation,
                bytes,
            })
        });
        Ok(())
    }

    /// Removes a leaf node with no remaining use.
    ///
    /// A hard node's reservation is credited back to its parent chain. The
    /// caller must first credit the node down to zero (KaffeOS does this when
    /// a process heap is merged into the kernel heap).
    pub fn remove(&mut self, id: MemLimitId) -> Result<(), LimitError> {
        self.check_alive(id)?;
        let node = self.node(id);
        if node.children != 0 {
            return Err(LimitError::HasChildren(id));
        }
        if node.current != 0 {
            return Err(LimitError::InUse(id, node.current));
        }
        let parent = node.parent;
        let kind = node.kind;
        let limit = node.limit;
        if let Some(p) = parent {
            if kind == Kind::Hard {
                // Return the reservation.
                self.credit(p, limit)?;
            }
            self.node_mut(p).children -= 1;
        }
        let n = self.node_mut(id);
        n.alive = false;
        n.generation = n.generation.wrapping_add(1);
        self.free.push(id.index);
        Ok(())
    }

    /// Force-credits the node's entire current use (used when tearing down a
    /// terminated process whose exact outstanding byte count the kernel wants
    /// to discard wholesale), then removes it.
    pub fn drain_and_remove(&mut self, id: MemLimitId) -> Result<u64, LimitError> {
        self.check_alive(id)?;
        let current = self.node(id).current;
        if current > 0 {
            self.credit(id, current)?;
        }
        self.remove(id)?;
        Ok(current)
    }

    /// Raises or lowers a node's maximum. Lowering below `current` is
    /// allowed: the node simply cannot debit until it drops below the new
    /// cap (mirrors `setrlimit` semantics). Hard nodes cannot be resized
    /// because their reservation is already committed.
    pub fn set_limit(&mut self, id: MemLimitId, limit: u64) -> Result<(), LimitError> {
        self.check_alive(id)?;
        let node = self.node_mut(id);
        if node.kind == Kind::Hard && node.parent.is_some() {
            return Err(LimitError::ReservationFailed(LimitExceeded {
                node: id,
                requested: limit,
                available: node.limit,
            }));
        }
        node.limit = limit;
        Ok(())
    }

    /// Current use in bytes.
    pub fn current(&self, id: MemLimitId) -> u64 {
        self.node(id).current
    }

    /// Maximum in bytes.
    pub fn limit(&self, id: MemLimitId) -> u64 {
        self.node(id).limit
    }

    /// Bytes the node itself could still debit (ignoring ancestors).
    pub fn headroom(&self, id: MemLimitId) -> u64 {
        let node = self.node(id);
        node.limit.saturating_sub(node.current)
    }

    /// Bytes a debit at this node could actually obtain, i.e. the minimum
    /// headroom along the percolation path.
    pub fn available(&self, id: MemLimitId) -> u64 {
        let mut avail = u64::MAX;
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let node = self.node(cur);
            avail = avail.min(node.limit.saturating_sub(node.current));
            cursor = if node.kind == Kind::Hard {
                None
            } else {
                node.parent
            };
        }
        avail
    }

    /// Parent handle, if any.
    pub fn parent(&self, id: MemLimitId) -> Option<MemLimitId> {
        self.node(id).parent
    }

    /// Hard or soft.
    pub fn kind(&self, id: MemLimitId) -> Kind {
        self.node(id).kind
    }

    /// True if `id` names a live node.
    pub fn is_alive(&self, id: MemLimitId) -> bool {
        self.nodes
            .get(id.index as usize)
            .map(|n| n.alive && n.generation == id.generation)
            .unwrap_or(false)
    }

    /// Snapshot of one node for reporting.
    pub fn snapshot(&self, id: MemLimitId) -> MemLimitSnapshot {
        let node = self.node(id);
        MemLimitSnapshot {
            id,
            parent: node.parent,
            kind: node.kind,
            limit: node.limit,
            current: node.current,
            label: node.label.clone(),
        }
    }

    /// Snapshots of every live node, in slot order.
    pub fn snapshot_all(&self) -> Vec<MemLimitSnapshot> {
        (0..self.nodes.len())
            .filter_map(|i| {
                let n = &self.nodes[i];
                n.alive.then(|| {
                    self.snapshot(MemLimitId {
                        index: i as u32,
                        generation: n.generation,
                    })
                })
            })
            .collect()
    }

    /// Renders the subtree under `root` as an indented procfs-style text
    /// table, one node per line:
    ///
    /// ```text
    /// machine                hard      0/16777216 (0%)
    ///   proc1:compress       hard 524288/8388608 (6%)
    /// ```
    ///
    /// Children print in slot order (creation order for never-reused
    /// slots), so equal trees render byte-identically — the text is served
    /// verbatim through the kernel's `proc.meminfo` syscall.
    pub fn render_tree(&self, root: MemLimitId) -> String {
        let mut out = String::new();
        self.render_node(&mut out, root, 0);
        out
    }

    fn render_node(&self, out: &mut String, id: MemLimitId, depth: usize) {
        use std::fmt::Write as _;
        let node = self.node(id);
        let pct = node
            .current
            .saturating_mul(100)
            .checked_div(node.limit)
            .unwrap_or(0);
        let name = format!("{}{}", "  ".repeat(depth), node.label);
        let _ = writeln!(
            out,
            "{name:<28} {:<4} {}/{} ({pct}%)",
            match node.kind {
                Kind::Hard => "hard",
                Kind::Soft => "soft",
            },
            node.current,
            node.limit
        );
        for (i, n) in self.nodes.iter().enumerate() {
            if n.alive && n.parent == Some(id) {
                self.render_node(
                    out,
                    MemLimitId {
                        index: i as u32,
                        generation: n.generation,
                    },
                    depth + 1,
                );
            }
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// True if the tree has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks structural conservation over the whole tree:
    ///
    /// * every live node's parent is alive and its `children` count matches
    ///   the number of live children pointing at it;
    /// * for every node, the sum of its children's contributions (a soft
    ///   child's `current`, a hard child's full `limit` — the reservation)
    ///   does not exceed the node's own `current`. The remainder is the
    ///   node's direct debits, which cannot be negative.
    ///
    /// Used by the kernel's fault auditor after injected faults; a violation
    /// means a debit/credit pair was lost or double-applied somewhere.
    pub fn audit(&self) -> Result<(), LimitAuditError> {
        let live: Vec<MemLimitId> = (0..self.nodes.len())
            .filter_map(|i| {
                let n = &self.nodes[i];
                n.alive.then_some(MemLimitId {
                    index: i as u32,
                    generation: n.generation,
                })
            })
            .collect();
        for &id in &live {
            let node = self.node(id);
            if let Some(p) = node.parent {
                if !self.is_alive(p) {
                    return Err(LimitAuditError {
                        node: id,
                        detail: format!("parent {p:?} is dead"),
                    });
                }
            }
        }
        for &id in &live {
            let node = self.node(id);
            let mut child_count = 0u32;
            let mut contributed = 0u64;
            for &c in &live {
                let child = self.node(c);
                if child.parent != Some(id) {
                    continue;
                }
                child_count += 1;
                contributed = contributed.saturating_add(match child.kind {
                    Kind::Hard => child.limit,
                    Kind::Soft => child.current,
                });
            }
            if child_count != node.children {
                return Err(LimitAuditError {
                    node: id,
                    detail: format!(
                        "children count {} but {} live children found",
                        node.children, child_count
                    ),
                });
            }
            if contributed > node.current {
                return Err(LimitAuditError {
                    node: id,
                    detail: format!(
                        "children contribute {} bytes but node's current is only {}",
                        contributed, node.current
                    ),
                });
            }
        }
        Ok(())
    }

    fn insert(&mut self, mut node: Node) -> MemLimitId {
        if let Some(index) = self.free.pop() {
            node.generation = self.nodes[index as usize].generation;
            let generation = node.generation;
            self.nodes[index as usize] = node;
            MemLimitId { index, generation }
        } else {
            let index = self.nodes.len() as u32;
            let generation = node.generation;
            self.nodes.push(node);
            MemLimitId { index, generation }
        }
    }

    fn check_alive(&self, id: MemLimitId) -> Result<(), LimitError> {
        if self.is_alive(id) {
            Ok(())
        } else {
            Err(LimitError::Dead(id))
        }
    }

    fn node(&self, id: MemLimitId) -> &Node {
        debug_assert!(self.is_alive(id), "access to dead memlimit {id:?}");
        &self.nodes[id.index as usize]
    }

    fn node_mut(&mut self, id: MemLimitId) -> &mut Node {
        debug_assert!(self.is_alive(id), "access to dead memlimit {id:?}");
        &mut self.nodes[id.index as usize]
    }
}
