//! Incrementally editable netlists with live dual-graph maintenance —
//! the structural substrate of the long-lived partition engine.
//!
//! A [`DynamicNetlist`] owns a netlist under edits: modules and signals
//! live in tombstoned slots with **stable ids** (ids are never reused, so
//! an edit script replayed from scratch allocates the same ids), plus a
//! module → incident-net index and, per live net, the net's *dual
//! adjacency* — the list of other nets it shares modules with, each with
//! its shared-module multiplicity. That adjacency is exactly one row of
//! the paper's intersection graph `G`, kept current under edits by
//! touching only the G-vertices whose pair sets actually changed:
//!
//! - [`add_net`](DynamicNetlist::add_net) scans the incident nets of the
//!   new net's pins (the only nets whose pair sets gain an entry);
//! - [`remove_net`](DynamicNetlist::remove_net) unlinks the net from its
//!   recorded neighbors (no other row changes);
//! - [`pin_change`](DynamicNetlist::pin_change) adjusts multiplicities
//!   with the nets incident to the one touched module;
//! - module edits never change `G` at all (its vertices are signals).
//!
//! The initial adjacency is built by the [`Dualizer`] — the same
//! dualization kernel the batch engine uses — and
//! [`materialize`](DynamicNetlist::materialize) compacts the live slots
//! back into an ordinary [`Hypergraph`] (ascending stable-id order, so
//! two states with the same live content materialize bit-identically).

use std::collections::BTreeMap;

use crate::error::BuildGraphError;
use crate::intersection::Dualizer;
use crate::{Hypergraph, HypergraphBuilder, VertexId};

/// A structural edit the [`DynamicNetlist`] refused, with the offending
/// ids — the typed vocabulary the serve protocol's `edit_rejected`
/// replies are built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncrementalError {
    /// The module id is dead or was never allocated.
    UnknownModule(u32),
    /// The net id is dead or was never allocated.
    UnknownNet(u32),
    /// The module is already a pin of the net (or listed twice).
    DuplicatePin {
        /// The net whose pin set was edited.
        net: u32,
        /// The module that is already present.
        module: u32,
    },
    /// The module is not a pin of the net.
    MissingPin {
        /// The net whose pin set was edited.
        net: u32,
        /// The module that is not present.
        module: u32,
    },
    /// Removing the pin would leave the net empty; remove the net instead.
    LastPin {
        /// The net that would be emptied.
        net: u32,
    },
    /// The module still has incident nets; detach them first.
    ModuleInUse {
        /// The module that is still pinned.
        module: u32,
    },
    /// Module and net weights must be positive.
    ZeroWeight,
    /// A net needs at least one pin.
    EmptyNet,
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownModule(m) => write!(f, "unknown module {m}"),
            Self::UnknownNet(e) => write!(f, "unknown net {e}"),
            Self::DuplicatePin { net, module } => {
                write!(f, "module {module} is already a pin of net {net}")
            }
            Self::MissingPin { net, module } => {
                write!(f, "module {module} is not a pin of net {net}")
            }
            Self::LastPin { net } => {
                write!(
                    f,
                    "removing the last pin of net {net}; remove the net instead"
                )
            }
            Self::ModuleInUse { module } => {
                write!(f, "module {module} still has incident nets")
            }
            Self::ZeroWeight => write!(f, "weights must be positive"),
            Self::EmptyNet => write!(f, "a net needs at least one pin"),
        }
    }
}

impl std::error::Error for IncrementalError {}

/// One live signal: its sorted pin list and weight.
#[derive(Clone, Debug, PartialEq, Eq)]
struct NetSlot {
    /// Module ids, sorted ascending, distinct.
    pins: Vec<u32>,
    weight: u64,
}

/// An editable netlist with stable ids and an incrementally maintained
/// dual adjacency. See the module docs for the maintenance contract.
#[derive(Clone, Debug, Default)]
pub struct DynamicNetlist {
    /// Module slot → weight; `None` is a tombstone. Ids are never reused.
    modules: Vec<Option<u64>>,
    /// Net slot → pins + weight; `None` is a tombstone.
    nets: Vec<Option<NetSlot>>,
    /// Module slot → incident live net ids, sorted ascending.
    incidence: Vec<Vec<u32>>,
    /// Net slot → `(other net, shared modules)`, sorted ascending by net
    /// id, multiplicities always positive. One row of `G` per live net.
    neighbors: Vec<Vec<(u32, u32)>>,
    live_modules: usize,
    live_nets: usize,
}

impl DynamicNetlist {
    /// An empty netlist: no modules, no nets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing hypergraph: module and net ids become the stable
    /// slot ids (identity mapping), and the initial dual adjacency is
    /// built by the [`Dualizer`], so the one dualization kernel — not a
    /// second ad-hoc pair kernel — seeds the rows.
    ///
    /// # Errors
    ///
    /// Propagates the dualizer's build failure (oversized graphs).
    pub fn from_hypergraph(h: &Hypergraph) -> Result<Self, BuildGraphError> {
        let mut nl = Self {
            modules: h.vertices().map(|v| Some(h.vertex_weight(v))).collect(),
            nets: h
                .edges()
                .map(|e| {
                    Some(NetSlot {
                        pins: h.pins(e).iter().map(|p| p.index() as u32).collect(), // fhp-audit: allow(as-cast-truncation) — vertex ids fit u32 by the VertexId representation
                        weight: h.edge_weight(e),
                    })
                })
                .collect(),
            incidence: h
                .vertices()
                .map(|v| {
                    h.edges_of(v)
                        .iter()
                        .map(|e| e.index() as u32) // fhp-audit: allow(as-cast-truncation) — edge ids fit u32 by the EdgeId representation
                        .collect()
                })
                .collect(),
            neighbors: vec![Vec::new(); h.num_edges()],
            live_modules: h.num_vertices(),
            live_nets: h.num_edges(),
        };
        if h.num_edges() > 0 {
            let ig = Dualizer::new().build(h)?;
            for e in h.edges() {
                // Threshold-free dualization keeps every signal, so the
                // mapping is total and the g ↔ edge correspondence is the
                // identity here.
                let Some(g) = ig.g_vertex_of(e) else { continue };
                let row: Vec<(u32, u32)> = ig
                    .graph()
                    .neighbors(g)
                    .iter()
                    .zip(ig.multiplicities_of(g))
                    .map(|(&ng, &mult)| (ig.edge_of(ng).index() as u32, mult)) // fhp-audit: allow(as-cast-truncation) — edge ids fit u32 by the EdgeId representation
                    .collect();
                if let Some(slot) = nl.neighbors.get_mut(e.index()) {
                    *slot = row;
                }
            }
        }
        Ok(nl)
    }

    /// Live module count.
    pub fn num_live_modules(&self) -> usize {
        self.live_modules
    }

    /// Live net count.
    pub fn num_live_nets(&self) -> usize {
        self.live_nets
    }

    /// Total slot count (live + tombstoned) for modules — the exclusive
    /// upper bound of every module id ever allocated.
    pub fn module_slots(&self) -> usize {
        self.modules.len()
    }

    /// Total slot count (live + tombstoned) for nets.
    pub fn net_slots(&self) -> usize {
        self.nets.len()
    }

    /// The module's weight, `None` if dead.
    pub fn module_weight(&self, m: u32) -> Option<u64> {
        self.modules.get(m as usize).copied().flatten()
    }

    /// The net's weight, `None` if dead.
    pub fn net_weight(&self, e: u32) -> Option<u64> {
        self.net_slot(e).map(|n| n.weight)
    }

    /// The net's pins (sorted ascending), `None` if dead.
    pub fn net_pins(&self, e: u32) -> Option<&[u32]> {
        self.net_slot(e).map(|n| n.pins.as_slice())
    }

    /// The live nets incident to a module (sorted ascending), `None` if
    /// the module is dead.
    pub fn incident_nets(&self, m: u32) -> Option<&[u32]> {
        self.module_weight(m)?;
        self.incidence.get(m as usize).map(|v| v.as_slice())
    }

    /// The net's dual adjacency — `(other net, shared modules)` sorted
    /// ascending by net id — or `None` if the net is dead.
    pub fn dual_neighbors(&self, e: u32) -> Option<&[(u32, u32)]> {
        self.net_slot(e)?;
        self.neighbors.get(e as usize).map(|v| v.as_slice())
    }

    /// Live module ids, ascending.
    pub fn live_modules(&self) -> impl Iterator<Item = u32> + '_ {
        self.modules
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_some())
            .map(|(i, _)| i as u32) // fhp-audit: allow(as-cast-truncation) — slot indices fit u32 by the id representation
    }

    /// Live net ids, ascending.
    pub fn live_nets(&self) -> impl Iterator<Item = u32> + '_ {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_some())
            .map(|(i, _)| i as u32) // fhp-audit: allow(as-cast-truncation) — slot indices fit u32 by the id representation
    }

    /// Sum of live module weights.
    pub fn total_module_weight(&self) -> u64 {
        self.modules.iter().flatten().sum()
    }

    fn net_slot(&self, e: u32) -> Option<&NetSlot> {
        self.nets.get(e as usize).and_then(|n| n.as_ref())
    }

    /// Allocates a new module. Returns its stable id.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::ZeroWeight`] if `weight == 0`.
    pub fn add_module(&mut self, weight: u64) -> Result<u32, IncrementalError> {
        if weight == 0 {
            return Err(IncrementalError::ZeroWeight);
        }
        let id = self.modules.len() as u32; // fhp-audit: allow(as-cast-truncation) — slot indices fit u32 by the id representation
        self.modules.push(Some(weight));
        self.incidence.push(Vec::new());
        self.live_modules += 1;
        Ok(id)
    }

    /// Removes an isolated module (tombstones the slot).
    ///
    /// # Errors
    ///
    /// [`IncrementalError::UnknownModule`] if dead,
    /// [`IncrementalError::ModuleInUse`] if any net still pins it.
    pub fn remove_module(&mut self, m: u32) -> Result<(), IncrementalError> {
        if self.module_weight(m).is_none() {
            return Err(IncrementalError::UnknownModule(m));
        }
        if self
            .incidence
            .get(m as usize)
            .is_some_and(|inc| !inc.is_empty())
        {
            return Err(IncrementalError::ModuleInUse { module: m });
        }
        if let Some(slot) = self.modules.get_mut(m as usize) {
            *slot = None;
        }
        self.live_modules -= 1;
        Ok(())
    }

    /// Changes a module's weight. `G` is untouched (its vertices are
    /// signals).
    ///
    /// # Errors
    ///
    /// [`IncrementalError::UnknownModule`] /
    /// [`IncrementalError::ZeroWeight`].
    pub fn reweight_module(&mut self, m: u32, weight: u64) -> Result<(), IncrementalError> {
        if weight == 0 {
            return Err(IncrementalError::ZeroWeight);
        }
        match self.modules.get_mut(m as usize) {
            Some(slot @ Some(_)) => {
                *slot = Some(weight);
                Ok(())
            }
            _ => Err(IncrementalError::UnknownModule(m)),
        }
    }

    /// Adds a net over `pins`, returning its stable id. The only dual
    /// rows touched are the new net's own and those of nets sharing a
    /// pin with it.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::EmptyNet`], [`IncrementalError::ZeroWeight`],
    /// [`IncrementalError::UnknownModule`], or
    /// [`IncrementalError::DuplicatePin`] (a module listed twice).
    pub fn add_net(&mut self, pins: &[u32], weight: u64) -> Result<u32, IncrementalError> {
        if pins.is_empty() {
            return Err(IncrementalError::EmptyNet);
        }
        if weight == 0 {
            return Err(IncrementalError::ZeroWeight);
        }
        let id = self.nets.len() as u32; // fhp-audit: allow(as-cast-truncation) — slot indices fit u32 by the id representation
        let mut sorted = pins.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            // fhp-audit: allow(panic-site) — windows(2) yields exactly two elements
            if w[0] == w[1] {
                return Err(IncrementalError::DuplicatePin {
                    net: id,
                    // fhp-audit: allow(panic-site) — windows(2) yields exactly two elements
                    module: w[0],
                });
            }
        }
        for &m in &sorted {
            if self.module_weight(m).is_none() {
                return Err(IncrementalError::UnknownModule(m));
            }
        }
        // Shared-module counts with every net incident to one of the pins
        // — exactly the pair set the new G-vertex introduces.
        let mut shared: BTreeMap<u32, u32> = BTreeMap::new();
        for &m in &sorted {
            if let Some(inc) = self.incidence.get(m as usize) {
                for &other in inc {
                    *shared.entry(other).or_insert(0) += 1;
                }
            }
        }
        for (&other, &mult) in &shared {
            if let Some(row) = self.neighbors.get_mut(other as usize) {
                insert_neighbor(row, id, mult);
            }
        }
        self.neighbors
            .push(shared.into_iter().collect::<Vec<(u32, u32)>>());
        for &m in &sorted {
            if let Some(inc) = self.incidence.get_mut(m as usize) {
                insert_sorted(inc, id);
            }
        }
        self.nets.push(Some(NetSlot {
            pins: sorted,
            weight,
        }));
        self.live_nets += 1;
        Ok(id)
    }

    /// Removes a net, unlinking it from its recorded dual neighbors (the
    /// only rows that change).
    ///
    /// # Errors
    ///
    /// [`IncrementalError::UnknownNet`].
    pub fn remove_net(&mut self, e: u32) -> Result<(), IncrementalError> {
        let Some(slot) = self
            .nets
            .get_mut(e as usize)
            .and_then(|s: &mut Option<NetSlot>| s.take())
        else {
            return Err(IncrementalError::UnknownNet(e));
        };
        self.live_nets -= 1;
        for &m in &slot.pins {
            if let Some(inc) = self.incidence.get_mut(m as usize) {
                remove_sorted(inc, e);
            }
        }
        let row = std::mem::take(
            self.neighbors
                .get_mut(e as usize)
                .unwrap_or(&mut Vec::new()),
        );
        for (other, _) in row {
            if let Some(orow) = self.neighbors.get_mut(other as usize) {
                remove_neighbor(orow, e);
            }
        }
        Ok(())
    }

    /// Adds (`add == true`) or removes a single pin of a net, adjusting
    /// shared-module multiplicities with the nets incident to that one
    /// module.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::UnknownNet`] /
    /// [`IncrementalError::UnknownModule`] /
    /// [`IncrementalError::DuplicatePin`] /
    /// [`IncrementalError::MissingPin`] / [`IncrementalError::LastPin`].
    pub fn pin_change(&mut self, e: u32, m: u32, add: bool) -> Result<(), IncrementalError> {
        if self.net_slot(e).is_none() {
            return Err(IncrementalError::UnknownNet(e));
        }
        if self.module_weight(m).is_none() {
            return Err(IncrementalError::UnknownModule(m));
        }
        let present = self
            .net_slot(e)
            .is_some_and(|n| n.pins.binary_search(&m).is_ok());
        if add && present {
            return Err(IncrementalError::DuplicatePin { net: e, module: m });
        }
        if !add {
            if !present {
                return Err(IncrementalError::MissingPin { net: e, module: m });
            }
            if self.net_slot(e).is_some_and(|n| n.pins.len() == 1) {
                return Err(IncrementalError::LastPin { net: e });
            }
        }
        if add {
            // Multiplicity bumps first, over the module's incidence
            // *before* `e` joins it (`e` is not incident to `m` yet).
            let others: Vec<u32> = self
                .incidence
                .get(m as usize)
                .map(|inc| inc.iter().copied().filter(|&o| o != e).collect())
                .unwrap_or_default();
            for other in others {
                self.bump_pair(e, other, 1);
            }
            if let Some(Some(slot)) = self.nets.get_mut(e as usize) {
                insert_sorted_pin(&mut slot.pins, m);
            }
            if let Some(inc) = self.incidence.get_mut(m as usize) {
                insert_sorted(inc, e);
            }
        } else {
            if let Some(Some(slot)) = self.nets.get_mut(e as usize) {
                remove_sorted(&mut slot.pins, m);
            }
            if let Some(inc) = self.incidence.get_mut(m as usize) {
                remove_sorted(inc, e);
            }
            let others: Vec<u32> = self
                .incidence
                .get(m as usize)
                .map(|inc| inc.iter().copied().filter(|&o| o != e).collect())
                .unwrap_or_default();
            for other in others {
                self.bump_pair(e, other, -1);
            }
        }
        Ok(())
    }

    /// Adjusts the shared-module multiplicity of the pair `(a, b)` by
    /// `delta`, inserting or dropping the symmetric entries as it crosses
    /// zero.
    fn bump_pair(&mut self, a: u32, b: u32, delta: i64) {
        let current = self
            .neighbors
            .get(a as usize)
            .and_then(|row| {
                row.binary_search_by_key(&b, |&(id, _)| id)
                    .ok()
                    // fhp-audit: allow(panic-site) — index returned by binary_search on the same row
                    .map(|i| row[i].1)
            })
            .unwrap_or(0);
        let next = (i64::from(current) + delta).max(0) as u32; // fhp-audit: allow(as-cast-truncation) — multiplicities are small positive counts clamped at zero
        for (x, y) in [(a, b), (b, a)] {
            if let Some(row) = self.neighbors.get_mut(x as usize) {
                if next == 0 {
                    remove_neighbor(row, y);
                } else {
                    insert_neighbor(row, y, next);
                }
            }
        }
    }

    /// Compacts the live slots into an ordinary [`Hypergraph`] plus the
    /// compact → stable id maps (`module_ids`, `net_ids`), both
    /// ascending. Two states with identical live content materialize to
    /// bit-identical hypergraphs regardless of edit history.
    pub fn materialize(&self) -> (Hypergraph, Vec<u32>, Vec<u32>) {
        let module_ids: Vec<u32> = self.live_modules().collect();
        let net_ids: Vec<u32> = self.live_nets().collect();
        let mut compact_of = vec![u32::MAX; self.modules.len()];
        let mut b = HypergraphBuilder::new();
        for (compact, &m) in module_ids.iter().enumerate() {
            // fhp-audit: allow(panic-site) — live module ids index the full slot table
            compact_of[m as usize] = compact as u32; // fhp-audit: allow(as-cast-truncation) — compact indices fit u32 by the id representation
            let w = self.module_weight(m).unwrap_or(1);
            b.add_weighted_vertex(w);
        }
        for &e in &net_ids {
            if let Some(slot) = self.net_slot(e) {
                let pins: Vec<VertexId> = slot
                    .pins
                    .iter()
                    // fhp-audit: allow(panic-site) — live pins index live modules by the incidence invariant
                    .map(|&m| VertexId::new(compact_of[m as usize] as usize))
                    .collect();
                b.add_weighted_edge(pins, slot.weight)
                    // fhp-audit: allow(panic-site) — pins are live, distinct and in-range by the slot invariants
                    .expect("live pins are valid by construction");
            }
        }
        (b.build(), module_ids, net_ids)
    }

    /// An order-independent fingerprint of the dual adjacency (stable net
    /// ids, each unordered pair counted once with its multiplicity).
    pub fn dual_fingerprint(&self) -> u64 {
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        for e in self.live_nets() {
            if let Some(row) = self.dual_neighbors(e) {
                for &(other, mult) in row {
                    if other > e {
                        acc = mix64(
                            acc ^ mix64(u64::from(e) << 32 | u64::from(other)) ^ u64::from(mult),
                        );
                    }
                }
            }
        }
        mix64(acc)
    }

    /// Recomputes every dual row by brute-force pin scanning and compares
    /// it against the incrementally maintained adjacency; the first
    /// divergence is returned as a description. The verification path of
    /// the `incremental` oracle and the property tests.
    pub fn verify_dual(&self) -> Result<(), String> {
        for e in self.live_nets() {
            let mut shared: BTreeMap<u32, u32> = BTreeMap::new();
            if let Some(pins) = self.net_pins(e) {
                for &m in pins {
                    if let Some(inc) = self.incidence.get(m as usize) {
                        for &other in inc {
                            if other != e {
                                *shared.entry(other).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }
            let expect: Vec<(u32, u32)> = shared.into_iter().collect();
            let got = self.dual_neighbors(e).unwrap_or(&[]);
            if got != expect.as_slice() {
                return Err(format!(
                    "dual row of net {e} diverged: maintained {got:?}, recomputed {expect:?}"
                ));
            }
        }
        Ok(())
    }
}

/// SplitMix64's finalizer: the avalanche mix used by the fingerprints.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn insert_sorted(v: &mut Vec<u32>, x: u32) {
    if let Err(at) = v.binary_search(&x) {
        v.insert(at, x);
    }
}

fn insert_sorted_pin(v: &mut Vec<u32>, x: u32) {
    insert_sorted(v, x);
}

fn remove_sorted(v: &mut Vec<u32>, x: u32) {
    if let Ok(at) = v.binary_search(&x) {
        v.remove(at);
    }
}

fn insert_neighbor(row: &mut Vec<(u32, u32)>, id: u32, mult: u32) {
    match row.binary_search_by_key(&id, |&(x, _)| x) {
        Ok(at) => row[at] = (id, mult), // fhp-audit: allow(panic-site) — index returned by binary_search on the same row
        Err(at) => row.insert(at, (id, mult)),
    }
}

fn remove_neighbor(row: &mut Vec<(u32, u32)>, id: u32) {
    if let Ok(at) = row.binary_search_by_key(&id, |&(x, _)| x) {
        row.remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection::paper_example;
    use crate::EdgeId;
    use crate::IntersectionGraph;
    use rand::rngs::SplitMix64;
    use rand::{Rng, SeedableRng};

    fn paper_netlist() -> DynamicNetlist {
        DynamicNetlist::from_hypergraph(&paper_example()).expect("paper example dualizes")
    }

    /// The maintained dual must equal a from-scratch intersection-graph
    /// build of the materialized state.
    fn assert_dual_matches_scratch(nl: &DynamicNetlist) {
        nl.verify_dual().expect("incremental dual is consistent");
        let (h, _modules, net_ids) = nl.materialize();
        if h.num_edges() == 0 {
            return;
        }
        let ig = IntersectionGraph::build(&h);
        for (compact, &stable) in net_ids.iter().enumerate() {
            let g = ig
                .g_vertex_of(EdgeId::new(compact))
                .expect("threshold-free dualization keeps every net");
            let expect: Vec<(u32, u32)> = ig
                .graph()
                .neighbors(g)
                .iter()
                .zip(ig.multiplicities_of(g))
                .map(|(&ng, &mult)| (net_ids[ig.edge_of(ng).index()], mult))
                .collect();
            assert_eq!(
                nl.dual_neighbors(stable).unwrap_or(&[]),
                expect.as_slice(),
                "dual row of net {stable}"
            );
        }
    }

    #[test]
    fn from_hypergraph_round_trips() {
        let h = paper_example();
        let nl = DynamicNetlist::from_hypergraph(&h).expect("dualizes");
        assert_eq!(nl.num_live_modules(), h.num_vertices());
        assert_eq!(nl.num_live_nets(), h.num_edges());
        let (back, modules, nets) = nl.materialize();
        assert_eq!(back, h);
        assert_eq!(modules.len(), h.num_vertices());
        assert_eq!(nets.len(), h.num_edges());
        assert_dual_matches_scratch(&nl);
    }

    #[test]
    fn add_and_remove_net_patch_only_shared_rows() {
        let mut nl = paper_netlist();
        let before: Vec<Vec<(u32, u32)>> = nl
            .live_nets()
            .map(|e| nl.dual_neighbors(e).unwrap_or(&[]).to_vec())
            .collect();
        let id = nl.add_net(&[0, 5], 2).expect("valid net");
        assert!(nl.dual_neighbors(id).is_some());
        assert_dual_matches_scratch(&nl);
        nl.remove_net(id).expect("net exists");
        let after: Vec<Vec<(u32, u32)>> = nl
            .live_nets()
            .map(|e| nl.dual_neighbors(e).unwrap_or(&[]).to_vec())
            .collect();
        assert_eq!(before, after, "remove must undo add exactly");
        assert_dual_matches_scratch(&nl);
    }

    #[test]
    fn pin_change_round_trips() {
        let mut nl = paper_netlist();
        let fp = nl.dual_fingerprint();
        nl.pin_change(0, 9, true).expect("module 9 not on net 0");
        assert_ne!(nl.dual_fingerprint(), fp, "pair sets changed");
        assert_dual_matches_scratch(&nl);
        nl.pin_change(0, 9, false).expect("pin present");
        assert_eq!(nl.dual_fingerprint(), fp);
        assert_dual_matches_scratch(&nl);
    }

    #[test]
    fn module_lifecycle_and_typed_errors() {
        let mut nl = DynamicNetlist::new();
        assert_eq!(nl.add_module(0), Err(IncrementalError::ZeroWeight));
        let a = nl.add_module(2).expect("weight ok");
        let b = nl.add_module(3).expect("weight ok");
        assert_eq!((a, b), (0, 1));
        assert_eq!(nl.total_module_weight(), 5);
        assert_eq!(nl.add_net(&[], 1), Err(IncrementalError::EmptyNet));
        assert_eq!(
            nl.add_net(&[0, 0], 1),
            Err(IncrementalError::DuplicatePin { net: 0, module: 0 })
        );
        assert_eq!(nl.add_net(&[7], 1), Err(IncrementalError::UnknownModule(7)));
        let e = nl.add_net(&[a, b], 1).expect("valid");
        assert_eq!(
            nl.remove_module(a),
            Err(IncrementalError::ModuleInUse { module: a })
        );
        assert_eq!(nl.pin_change(e, b, false), Ok(()));
        assert_eq!(
            nl.pin_change(e, a, false),
            Err(IncrementalError::LastPin { net: e })
        );
        nl.remove_net(e).expect("net exists");
        assert_eq!(nl.remove_net(e), Err(IncrementalError::UnknownNet(e)));
        nl.remove_module(a).expect("isolated now");
        assert_eq!(nl.remove_module(a), Err(IncrementalError::UnknownModule(a)));
        assert_eq!(
            nl.reweight_module(a, 4),
            Err(IncrementalError::UnknownModule(a))
        );
        nl.reweight_module(b, 9).expect("alive");
        assert_eq!(nl.module_weight(b), Some(9));
        // Ids are never reused: the next module gets a fresh slot.
        let c = nl.add_module(1).expect("weight ok");
        assert_eq!(c, 2);
    }

    #[test]
    fn random_edit_walk_stays_consistent() {
        let mut nl = paper_netlist();
        let mut rng = SplitMix64::seed_from_u64(0xfeed);
        for step in 0..120 {
            let live_mods: Vec<u32> = nl.live_modules().collect();
            let live_nets: Vec<u32> = nl.live_nets().collect();
            match rng.gen_range(0u32..6) {
                0 => {
                    if live_mods.len() >= 2 {
                        let a = live_mods[rng.gen_range(0..live_mods.len())];
                        let b = live_mods[rng.gen_range(0..live_mods.len())];
                        if a != b {
                            nl.add_net(&[a, b], 1 + rng.gen_range(0u64..3))
                                .expect("valid pins");
                        }
                    }
                }
                1 => {
                    if let Some(&e) = live_nets.get(rng.gen_range(0..live_nets.len().max(1))) {
                        nl.remove_net(e).expect("live net");
                    }
                }
                2 => {
                    nl.add_module(1 + rng.gen_range(0u64..3))
                        .expect("weight ok");
                }
                3 => {
                    if !live_mods.is_empty() && !live_nets.is_empty() {
                        let e = live_nets[rng.gen_range(0..live_nets.len())];
                        let m = live_mods[rng.gen_range(0..live_mods.len())];
                        let present = nl.net_pins(e).is_some_and(|p| p.binary_search(&m).is_ok());
                        if present {
                            let _ = nl.pin_change(e, m, false);
                        } else {
                            nl.pin_change(e, m, true)
                                .expect("pin absent and both alive");
                        }
                    }
                }
                4 => {
                    if !live_mods.is_empty() {
                        let m = live_mods[rng.gen_range(0..live_mods.len())];
                        nl.reweight_module(m, 1 + rng.gen_range(0u64..5))
                            .expect("alive");
                    }
                }
                _ => {
                    if let Some(&m) = live_mods
                        .iter()
                        .find(|&&m| nl.incident_nets(m).is_some_and(|i| i.is_empty()))
                    {
                        nl.remove_module(m).expect("isolated");
                    }
                }
            }
            if step % 10 == 0 {
                assert_dual_matches_scratch(&nl);
            }
        }
        assert_dual_matches_scratch(&nl);
    }

    #[test]
    fn fingerprint_is_history_independent() {
        // Two different edit histories arriving at the same live content
        // agree on the dual fingerprint and the materialized hypergraph.
        let mut a = DynamicNetlist::new();
        for _ in 0..4 {
            a.add_module(1).expect("weight ok");
        }
        a.add_net(&[0, 1], 1).expect("valid");
        a.add_net(&[1, 2], 1).expect("valid");
        a.add_net(&[2, 3], 1).expect("valid");
        a.remove_net(1).expect("live");

        let mut b = DynamicNetlist::new();
        for _ in 0..4 {
            b.add_module(1).expect("weight ok");
        }
        b.add_net(&[0, 1], 1).expect("valid");
        b.add_net(&[0, 3], 1).expect("valid");
        b.remove_net(1).expect("live");
        b.add_net(&[2, 3], 1).expect("valid");

        assert_eq!(a.dual_fingerprint(), b.dual_fingerprint());
        assert_eq!(a.materialize().0, b.materialize().0);
    }
}
