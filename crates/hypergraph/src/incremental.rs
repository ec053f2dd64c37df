//! Incrementally editable netlists — the structural substrate of the
//! long-lived partition engine.
//!
//! A [`DynamicNetlist`] owns a netlist under edits: modules and signals
//! live in tombstoned slots with **stable ids** (ids are never reused, so
//! an edit script replayed from scratch allocates the same ids). It keeps
//! two views and nothing else: each live net's sorted pin list and each
//! live module's sorted incident-net list. An edit patches only the
//! entries it touches:
//!
//! - [`add_net`](DynamicNetlist::add_net) /
//!   [`remove_net`](DynamicNetlist::remove_net) write the net's slot and
//!   the incidence lists of its pins;
//! - [`pin_change`](DynamicNetlist::pin_change) writes one pin list and
//!   one incidence list;
//! - module edits write one module slot.
//!
//! No net-to-net adjacency is stored. The paper's intersection graph `G`
//! is a pure function of the pin sets, so callers that need it build it
//! from scratch with the [`Dualizer`] — Algorithm I on
//! [`materialize`](DynamicNetlist::materialize)'s output, or
//! [`dual_fingerprint`](DynamicNetlist::dual_fingerprint).
//! `materialize` compacts the live slots back into an ordinary
//! [`Hypergraph`] (ascending stable-id order, so two states with the same
//! live content materialize bit-identically).

use std::convert::Infallible;

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

/// An editable netlist with stable ids, pin lists and a module →
/// incident-net index. See the module docs for what an edit touches.
#[derive(Clone, Debug, Default)]
pub struct DynamicNetlist {
    /// Module slot → weight; `None` is a tombstone. Ids are never reused.
    modules: Vec<Option<u64>>,
    /// Net slot → pins + weight; `None` is a tombstone.
    nets: Vec<Option<NetSlot>>,
    /// Module slot → incident live net ids, sorted ascending.
    incidence: Vec<Vec<u32>>,
    live_modules: usize,
    live_nets: usize,
}

impl DynamicNetlist {
    /// An empty netlist: no modules, no nets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing hypergraph: module and net ids become the stable
    /// slot ids (identity mapping). O(pins).
    ///
    /// # Errors
    ///
    /// None: the error type is [`Infallible`]. The `Result` keeps the
    /// signature that existing callers match on.
    pub fn from_hypergraph(h: &Hypergraph) -> Result<Self, Infallible> {
        Ok(Self {
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
            live_modules: h.num_vertices(),
            live_nets: h.num_edges(),
        })
    }

    /// Live module count.
    pub fn num_live_modules(&self) -> usize {
        self.live_modules
    }

    /// Live net count.
    pub fn num_live_nets(&self) -> usize {
        self.live_nets
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

    /// Changes a module's weight.
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

    /// Adds a net over `pins`, returning its stable id. Writes the new
    /// slot and the incidence list of each pin.
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

    /// Removes a net: tombstones its slot and drops it from the
    /// incidence list of each pin.
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
        Ok(())
    }

    /// Adds (`add == true`) or removes a single pin of a net: writes the
    /// net's pin list and the module's incidence list.
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
        let write: fn(&mut Vec<u32>, u32) = if add { insert_sorted } else { remove_sorted };
        if let Some(Some(slot)) = self.nets.get_mut(e as usize) {
            write(&mut slot.pins, m);
        }
        if let Some(inc) = self.incidence.get_mut(m as usize) {
            write(inc, e);
        }
        Ok(())
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
                let pins = slot
                    .pins
                    .iter()
                    // fhp-audit: allow(panic-site) — live pins index live modules by the incidence invariant
                    .map(|&m| VertexId::new(compact_of[m as usize] as usize));
                b.add_weighted_edge(pins, slot.weight)
                    // fhp-audit: allow(panic-site) — pins are live, distinct and in-range by the slot invariants
                    .expect("live pins are valid by construction");
            }
        }
        (b.build(), module_ids, net_ids)
    }

    /// An order-independent fingerprint of the paper's intersection
    /// graph `G` over the live nets: each adjacent pair of stable net ids
    /// counted once. Nothing is kept for it between calls: each call
    /// materializes the live netlist and dualizes it with the
    /// [`Dualizer`], so it costs one threshold-free build of `G`.
    pub fn dual_fingerprint(&self) -> u64 {
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        let (h, _module_ids, net_ids) = self.materialize();
        // Threshold-free dualization keeps every net and fails only past
        // u32::MAX live nets; such a state hashes as an edgeless G.
        // G-vertex order follows compact net order, which follows
        // ascending stable ids, so `edges()` visits the pairs in
        // ascending (a, b) stable-id order — the order the hash folds.
        let Ok(ig) = Dualizer::new().build(&h) else {
            return mix64(acc);
        };
        for (ga, gb) in ig.graph().edges() {
            let stable = |g: u32| net_ids.get(ig.edge_of(g).index()).copied();
            if let (Some(a), Some(b)) = (stable(ga), stable(gb)) {
                acc = mix64(acc ^ mix64(u64::from(a) << 32 | u64::from(b)));
            }
        }
        mix64(acc)
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

fn remove_sorted(v: &mut Vec<u32>, x: u32) {
    if let Ok(at) = v.binary_search(&x) {
        v.remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection::paper_example;
    use rand::rngs::SplitMix64;
    use rand::{Rng, SeedableRng};

    fn paper_netlist() -> DynamicNetlist {
        let Ok(nl) = DynamicNetlist::from_hypergraph(&paper_example());
        nl
    }

    /// The maintained incidence must equal the incidence of the
    /// materialized hypergraph, which the builder derives from the pin
    /// lists alone: every live module's incident nets are its
    /// `edges_of`, mapped back to stable net ids.
    fn assert_incidence_matches_pins(nl: &DynamicNetlist) {
        let (h, module_ids, net_ids) = nl.materialize();
        assert_eq!(module_ids.len(), nl.num_live_modules());
        assert_eq!(net_ids.len(), nl.num_live_nets());
        for (v, &m) in h.vertices().zip(&module_ids) {
            let expect: Vec<u32> = h.edges_of(v).iter().map(|e| net_ids[e.index()]).collect();
            assert_eq!(
                nl.incident_nets(m),
                Some(expect.as_slice()),
                "incidence of module {m}"
            );
        }
    }

    #[test]
    fn from_hypergraph_round_trips() {
        let h = paper_example();
        let Ok(nl) = DynamicNetlist::from_hypergraph(&h);
        assert_eq!(nl.num_live_modules(), h.num_vertices());
        assert_eq!(nl.num_live_nets(), h.num_edges());
        let (back, modules, nets) = nl.materialize();
        assert_eq!(back, h);
        assert_eq!(modules.len(), h.num_vertices());
        assert_eq!(nets.len(), h.num_edges());
        assert_incidence_matches_pins(&nl);
    }

    #[test]
    fn add_and_remove_net_round_trip() {
        let mut nl = paper_netlist();
        let before = nl.materialize();
        let id = nl.add_net(&[0, 5], 2).expect("valid net");
        assert_eq!(nl.net_pins(id), Some(&[0, 5][..]));
        assert_incidence_matches_pins(&nl);
        nl.remove_net(id).expect("net exists");
        assert_eq!(nl.materialize(), before, "remove must undo add exactly");
        assert_incidence_matches_pins(&nl);
    }

    #[test]
    fn pin_change_round_trips() {
        let mut nl = paper_netlist();
        let fp = nl.dual_fingerprint();
        nl.pin_change(0, 9, true).expect("module 9 not on net 0");
        assert_ne!(nl.dual_fingerprint(), fp, "pair sets changed");
        assert_incidence_matches_pins(&nl);
        nl.pin_change(0, 9, false).expect("pin present");
        assert_eq!(nl.dual_fingerprint(), fp);
        assert_incidence_matches_pins(&nl);
    }

    #[test]
    fn module_lifecycle_and_typed_errors() {
        let mut nl = DynamicNetlist::new();
        assert_eq!(nl.add_module(0), Err(IncrementalError::ZeroWeight));
        let a = nl.add_module(2).expect("weight ok");
        let b = nl.add_module(3).expect("weight ok");
        assert_eq!((a, b), (0, 1));
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
        for _ in 0..120 {
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
            assert_incidence_matches_pins(&nl);
        }
    }

    /// The fingerprint hashes exactly the pairs of live nets that share
    /// a module, recomputed here from the pin lists alone.
    #[test]
    fn dual_fingerprint_hashes_every_shared_module_pair() {
        let brute = |nl: &DynamicNetlist| {
            let nets: Vec<u32> = nl.live_nets().collect();
            let mut acc = 0x9e37_79b9_7f4a_7c15u64;
            for (i, &a) in nets.iter().enumerate() {
                let pa = nl.net_pins(a).unwrap_or(&[]);
                for &b in &nets[i + 1..] {
                    let pb = nl.net_pins(b).unwrap_or(&[]);
                    if pb.iter().any(|m| pa.contains(m)) {
                        acc = mix64(acc ^ mix64(u64::from(a) << 32 | u64::from(b)));
                    }
                }
            }
            mix64(acc)
        };
        let mut nl = paper_netlist();
        assert_eq!(nl.dual_fingerprint(), brute(&nl));
        nl.pin_change(0, 9, true).expect("module 9 not on net 0");
        nl.remove_net(3).expect("live");
        nl.add_net(&[1, 4, 7], 1).expect("valid");
        assert_eq!(nl.dual_fingerprint(), brute(&nl));
        let empty = DynamicNetlist::new();
        assert_eq!(empty.dual_fingerprint(), brute(&empty));
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
