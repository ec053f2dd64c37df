//! The long-lived partition engine: a netlist held warm under edits.
//!
//! [`PartitionEngine`] holds one loaded value: a [`DynamicNetlist`] (pin
//! lists and a module → incident-net index, kept current under edits —
//! see [`fhp_hypergraph::incremental`]), the side of each module slot,
//! the weighted cut, and the sums an edit would otherwise rescan the
//! instance for. [`apply`](PartitionEngine::apply) takes a typed [`Edit`]
//! and looks that value up once; the edit changes the netlist, the cut
//! and the sums in one place, and is then repaired at the cheapest tier
//! that preserves quality:
//!
//! - **Trivial** — fewer than two live modules, or no live nets: the cut
//!   is forced (0) and no search runs.
//! - **Incremental** — the damaged region (pins of the touched net, the
//!   touched module) is small relative to the instance: the cut is
//!   maintained by delta and a single localized FM pass over the damaged
//!   modules repairs it, with no Algorithm I re-run.
//! - **Full** — the damage fraction exceeds
//!   [`EngineConfig::damage_permille`]: the live netlist is
//!   re-partitioned from scratch with [`Algorithm1`]. Fallbacks are
//!   counted ([`EngineStats::full_recomputes`], the
//!   `engine.full_recomputes` gauge), never silent.
//!
//! The sums are the wrapping sum of per-item hashes behind the
//! [`fingerprint`](PartitionEngine::fingerprint), the live weight of each
//! side, and a count multiset of live module weights (the heaviest sets
//! the balance slack). Each accepted edit and each side flip swaps the
//! old terms of every item it changed for the new ones; a net's terms
//! are its hash and, when its pins span both sides, its weight in the
//! cut. An incremental edit therefore costs the netlist edit (the touched
//! net's pin list and the incidence lists of its pins), O(1) bookkeeping
//! per changed module and O(pins) per changed net, and the localized
//! pass's candidate loop — O(k²·deg) for k damaged modules of degree deg
//! — never a pass over the instance. Load and the trivial and full tiers,
//! which are O(instance) anyway, rescan the sums in one pass;
//! [`verify_state`](PartitionEngine::verify_state) recomputes them from
//! scratch for the oracles.
//!
//! When the full tier's Algorithm I run fails, `apply` returns
//! [`EngineError::Partition`] with the edit applied and its cut exact for
//! the unrepaired assignment; the edit counters do not advance. A unit
//! test forces that path through a test-only switch.
//!
//! Determinism-under-edits contract: the same initial instance plus the
//! same edit sequence yields the same
//! [`fingerprint`](PartitionEngine::fingerprint) after every edit, for
//! every thread count — both repair tiers are built from components that
//! already honor the workspace determinism contract.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use fhp_hypergraph::{DynamicNetlist, Hypergraph, IncrementalError, VertexId};
use fhp_obs::{Gauge, Progress};

use crate::error::PartitionError;
use crate::{Algorithm1, PartitionConfig, PartitionOutcome, Side};

/// One structural edit of the live netlist. Ids are the engine's stable
/// ids (never reused; new ids come back in [`Delta::new_id`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Add a net over existing modules.
    AddNet {
        /// Pin modules (distinct, live).
        pins: Vec<u32>,
        /// Net weight (positive).
        weight: u64,
    },
    /// Remove a live net.
    RemoveNet {
        /// The net to remove.
        net: u32,
    },
    /// Add an isolated module.
    AddModule {
        /// Module weight (positive).
        weight: u64,
    },
    /// Remove an isolated module.
    RemoveModule {
        /// The module to remove.
        module: u32,
    },
    /// Change a module's weight.
    ReweightModule {
        /// The module to reweight.
        module: u32,
        /// The new weight (positive).
        weight: u64,
    },
    /// Add (`add == true`) or remove one pin of a net.
    PinChange {
        /// The net whose pin set changes.
        net: u32,
        /// The module being attached/detached.
        module: u32,
        /// `true` to add the pin, `false` to remove it.
        add: bool,
    },
}

/// Which repair tier an edit took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// Degenerate state (fewer than two live modules or no live nets):
    /// the cut is forced, no search ran.
    Trivial,
    /// Localized FM refinement seeded from the previous assignment.
    Incremental,
    /// Full from-scratch re-partition of the live netlist.
    Full,
}

impl RepairKind {
    /// Stable lowercase label (the serve protocol's `repair` field).
    pub const fn as_str(self) -> &'static str {
        match self {
            RepairKind::Trivial => "trivial",
            RepairKind::Incremental => "incremental",
            RepairKind::Full => "full",
        }
    }
}

/// What one applied edit did to the engine state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    /// 0-based index of this edit since load.
    pub edit_index: u64,
    /// Weighted cut after repair.
    pub cut_after: u64,
    /// The repair tier that ran.
    pub repair: RepairKind,
    /// Modules in the damaged region the repair was seeded from.
    pub damaged_modules: usize,
    /// State fingerprint after the edit (see
    /// [`PartitionEngine::fingerprint`]).
    pub fingerprint: u64,
    /// The stable id allocated by `AddNet` / `AddModule`.
    pub new_id: Option<u32>,
}

/// Monotonic engine counters, mirrored into the `engine.*` gauges when a
/// [`Progress`] registry is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Edits applied since load.
    pub edits: u64,
    /// Edits repaired incrementally.
    pub incremental_hits: u64,
    /// Edits that fell back to a full recompute.
    pub full_recomputes: u64,
}

/// Engine tuning: the inner [`PartitionConfig`] (used at load and for
/// full recomputes) and the damage threshold that picks the repair tier.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    partition: PartitionConfig,
    damage_permille: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineConfig {
    /// Defaults: 8 starts, damage threshold 250‰ (an edit touching more
    /// than a quarter of the live modules goes straight to a full
    /// recompute).
    pub fn new() -> Self {
        Self {
            partition: PartitionConfig::new().starts(8),
            damage_permille: 250,
        }
    }

    /// Replaces the inner partition configuration.
    pub fn partition(mut self, config: PartitionConfig) -> Self {
        self.partition = config;
        self
    }

    /// Sets the damage threshold in permille of live modules. An edit
    /// whose damaged region exceeds it falls back to a full recompute;
    /// `0` forces full recompute on every edit, `1000` never falls back.
    pub fn damage_permille(mut self, permille: u32) -> Self {
        self.damage_permille = permille.min(1000);
        self
    }

    /// The inner partition configuration.
    pub fn partition_value(&self) -> &PartitionConfig {
        &self.partition
    }
}

/// An engine operation that could not proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// No instance is loaded yet ([`PartitionEngine::load`] first).
    NotLoaded,
    /// The structural edit was rejected; engine state is unchanged.
    Structure(IncrementalError),
    /// The (re)partition itself failed (e.g. instance over the size cap).
    /// From [`apply`](PartitionEngine::apply) the structural edit stays
    /// applied, unrepaired.
    Partition(PartitionError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotLoaded => write!(f, "no instance loaded"),
            Self::Structure(e) => write!(f, "edit rejected: {e}"),
            Self::Partition(e) => write!(f, "partition failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<IncrementalError> for EngineError {
    fn from(e: IncrementalError) -> Self {
        Self::Structure(e)
    }
}

/// What the structural half of an accepted edit damaged: the extent that
/// picks the repair tier, and the seed set for localized repair.
struct StructuralOutcome {
    /// Modules in the damaged region (drives the repair-tier choice).
    damaged: usize,
    /// Stable id allocated by `AddNet` / `AddModule`.
    new_id: Option<u32>,
    /// Modules whose incidence changed — the localized repair's seeds.
    touched: Vec<u32>,
}

/// The sums the edit path keeps current instead of rescanning the
/// instance: the fingerprint's hash sum and the live balance. Every
/// update takes the changed item's old term out and puts its new term in
/// (the add/remove pair below for a module,
/// [`Loaded::swap_net_terms`] for a net).
#[derive(Debug, Default)]
struct Sums {
    /// Wrapping sum of [`module_hash`] over live modules and [`net_hash`]
    /// over live nets.
    hash_sum: u64,
    /// Live module weight per side, indexed by [`Side::index`].
    side_weight: [u64; 2],
    /// Live module weight → number of live modules of that weight; the
    /// largest key is the heaviest live module.
    weights: BTreeMap<u64, usize>,
}

impl Sums {
    /// The sums of a netlist and side assignment, in one pass.
    fn of(nl: &DynamicNetlist, sides: &[Side]) -> Self {
        let mut sums = Self::default();
        for m in nl.live_modules() {
            let side = sides.get(m as usize).copied().unwrap_or(Side::Left);
            sums.add_module(m, nl.module_weight(m).unwrap_or(0), side);
        }
        for e in nl.live_nets() {
            let term = net_hash(
                e,
                nl.net_weight(e).unwrap_or(0),
                nl.net_pins(e).unwrap_or(&[]),
            );
            sums.hash_sum = sums.hash_sum.wrapping_add(term);
        }
        sums
    }

    /// The heaviest live module's weight, 0 with no live modules.
    fn heaviest(&self) -> u64 {
        self.weights.last_key_value().map_or(0, |(&w, _)| w)
    }

    fn add_module(&mut self, m: u32, weight: u64, side: Side) {
        self.hash_sum = self.hash_sum.wrapping_add(module_hash(m, weight, side));
        // fhp-audit: allow(panic-site) — a two-element array indexed by a side
        self.side_weight[side.index()] += weight;
        *self.weights.entry(weight).or_insert(0) += 1;
    }

    fn remove_module(&mut self, m: u32, weight: u64, side: Side) {
        self.hash_sum = self.hash_sum.wrapping_sub(module_hash(m, weight, side));
        // fhp-audit: allow(panic-site) — a two-element array indexed by a side
        self.side_weight[side.index()] -= weight;
        if let Entry::Occupied(mut count) = self.weights.entry(weight) {
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
    }
}

/// A long-lived partitioner: loads an instance once, absorbs edits, and
/// answers cut/fingerprint queries without re-running the batch pipeline
/// unless the damage threshold says so. See the module docs for the
/// repair tiers and the determinism contract.
#[derive(Debug)]
pub struct PartitionEngine {
    config: EngineConfig,
    /// `None` until [`load`](PartitionEngine::load).
    loaded: Option<Loaded>,
    stats: EngineStats,
    progress: Option<Arc<Progress>>,
}

impl PartitionEngine {
    /// An empty engine; [`load`](Self::load) an instance before editing.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            loaded: None,
            stats: EngineStats::default(),
            progress: None,
        }
    }

    /// Attaches a live gauge registry; the engine keeps the `engine.*`
    /// gauges current on every apply.
    pub fn progress(mut self, progress: Option<Arc<Progress>>) -> Self {
        self.progress = progress;
        self
    }

    /// Whether an instance is loaded.
    pub fn is_loaded(&self) -> bool {
        self.loaded.is_some()
    }

    /// Loads an instance and computes the initial partition with the
    /// configured [`Algorithm1`] run (not counted as a full recompute).
    /// Replaces any previously loaded state and resets the edit counters.
    ///
    /// # Errors
    ///
    /// [`EngineError::Partition`] if the configuration is invalid (checked
    /// on every load, even where the instance is too small to run) or the
    /// initial partition fails for a non-benign reason (too-few-vertices
    /// degenerates to the trivial partition instead). The engine is then
    /// unchanged.
    pub fn load(&mut self, h: &Hypergraph) -> Result<Delta, EngineError> {
        self.config
            .partition
            .validate()
            .map_err(EngineError::Partition)?;
        let Ok(nl) = DynamicNetlist::from_hypergraph(h);
        let mut sides = vec![Side::Left; h.num_vertices()];
        let mut cut = 0;
        if h.num_vertices() >= 2 && h.num_edges() > 0 {
            let run = run_algorithm1(self.config.partition, self.progress.clone(), h);
            if let Some(outcome) = run.map_err(EngineError::Partition)? {
                sides.copy_from_slice(outcome.bipartition.as_slice());
                cut = outcome.report.weighted_cut;
            }
        }
        let sums = Sums::of(&nl, &sides);
        self.loaded = Some(Loaded {
            nl,
            sides,
            cut,
            sums,
        });
        self.stats = EngineStats::default();
        self.sync_gauges();
        Ok(Delta {
            edit_index: 0,
            cut_after: cut,
            repair: RepairKind::Full,
            damaged_modules: h.num_vertices(),
            fingerprint: self.fingerprint(),
            new_id: None,
        })
    }

    /// Applies one edit and repairs the cut at the cheapest adequate
    /// tier. The edit's cut delta and its fingerprint and balance terms
    /// land with it, only after the netlist accepts it, so an incremental
    /// edit never rescans the instance (see the module docs for its
    /// cost).
    ///
    /// # Errors
    ///
    /// [`EngineError::NotLoaded`] before [`load`](Self::load) and
    /// [`EngineError::Structure`] when the netlist rejects the edit; both
    /// leave the engine unchanged. [`EngineError::Partition`] if a full
    /// recompute fails: the edit stays applied, with the cut exact for
    /// the unrepaired assignment, and the edit counters do not advance.
    pub fn apply(&mut self, edit: &Edit) -> Result<Delta, EngineError> {
        let loaded = self.loaded.as_mut().ok_or(EngineError::NotLoaded)?;
        let outcome = loaded.apply_structural(edit)?;
        // The edit is in with its exact cut; everything from here is
        // repair, which cannot fail structurally.
        let live = loaded.nl.num_live_modules();
        let repair = if live < 2 || loaded.nl.num_live_nets() == 0 {
            loaded.reset();
            RepairKind::Trivial
        } else if outcome.damaged.saturating_mul(1000)
            > (self.config.damage_permille as usize).saturating_mul(live)
        {
            loaded
                .repair_full(self.config.partition, self.progress.clone())
                .map_err(EngineError::Partition)?;
            RepairKind::Full
        } else {
            loaded.repair_incremental(&outcome.touched);
            RepairKind::Incremental
        };
        let (cut_after, fingerprint) = (loaded.cut, loaded.fingerprint());
        self.stats.edits += 1;
        match repair {
            RepairKind::Incremental => self.stats.incremental_hits += 1,
            RepairKind::Full => self.stats.full_recomputes += 1,
            RepairKind::Trivial => {}
        }
        self.sync_gauges();
        Ok(Delta {
            edit_index: self.stats.edits - 1,
            cut_after,
            repair,
            damaged_modules: outcome.damaged,
            fingerprint,
            new_id: outcome.new_id,
        })
    }

    fn sync_gauges(&self) {
        if let Some(p) = &self.progress {
            p.set(Gauge::EngineEdits, self.stats.edits);
            p.set(Gauge::EngineIncrementalHits, self.stats.incremental_hits);
            p.set(Gauge::EngineFullRecomputes, self.stats.full_recomputes);
            p.record_min(Gauge::BestCut, self.cut());
        }
    }

    /// Current weighted cut of the live netlist (0 before load).
    pub fn cut(&self) -> u64 {
        self.loaded.as_ref().map_or(0, |l| l.cut)
    }

    /// The engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The side of a live module, `None` if unknown/dead or not loaded.
    pub fn side_of(&self, module: u32) -> Option<Side> {
        let loaded = self.loaded.as_ref()?;
        loaded.nl.module_weight(module)?;
        loaded.sides.get(module as usize).copied()
    }

    /// The live netlist, `None` before load.
    pub fn netlist(&self) -> Option<&DynamicNetlist> {
        self.loaded.as_ref().map(|l| &l.nl)
    }

    /// Compacts the live state into an ordinary [`Hypergraph`] plus the
    /// compact → stable id maps, `None` before load. The same shape as
    /// [`DynamicNetlist::materialize`].
    pub fn materialize(&self) -> Option<(Hypergraph, Vec<u32>, Vec<u32>)> {
        self.netlist().map(DynamicNetlist::materialize)
    }

    /// The state fingerprint, in O(1): `mix64(S ^ mix64(cut))`, where `S`
    /// is the maintained wrapping sum of one SplitMix64 hash per live
    /// module (id, weight, side) and one per live net (id, weight, sorted
    /// pins). A sum does not depend on the order its terms arrived in, so
    /// two engines with the same live content, sides and cut agree
    /// whatever edit histories led there. The dual graph needs no term
    /// of its own: it is a function of the net pin sets. Equal
    /// fingerprints after the same edit sequence at different thread
    /// counts is the determinism-under-edits contract. `0` before load.
    pub fn fingerprint(&self) -> u64 {
        self.loaded.as_ref().map_or(0, Loaded::fingerprint)
    }

    /// Recomputes the maintained fingerprint sum, side weights and weight
    /// multiset from scratch, with the same per-item hashes, and reports
    /// the first divergence from the maintained state. O(instance): the
    /// verification path of the `incremental` oracle and the engine
    /// tests. `Ok` before load.
    ///
    /// # Errors
    ///
    /// A description of the first maintained value that differs from its
    /// recomputation.
    pub fn verify_state(&self) -> Result<(), String> {
        self.loaded.as_ref().map_or(Ok(()), Loaded::verify_state)
    }
}

/// The loaded instance: the live netlist, the side of each module slot,
/// the weighted cut and the sums. An edit changes all four in place.
#[derive(Debug)]
struct Loaded {
    nl: DynamicNetlist,
    /// Side per module **slot** (tombstoned slots keep their last side;
    /// only live slots are meaningful).
    sides: Vec<Side>,
    /// Current weighted cut of the live netlist.
    cut: u64,
    /// Fingerprint sum and balance of the live state.
    sums: Sums,
}

impl Loaded {
    /// The recorded side of a module slot (`Left` for unknown slots).
    fn side_at(&self, m: u32) -> Side {
        self.sides.get(m as usize).copied().unwrap_or(Side::Left)
    }

    /// Net `e`'s terms: its fingerprint hash, and its weight when its pins
    /// span both sides (its share of the cut). `(0, 0)` for a dead net.
    fn net_terms(&self, e: u32) -> (u64, u64) {
        let (Some(pins), Some(weight)) = (self.nl.net_pins(e), self.nl.net_weight(e)) else {
            return (0, 0);
        };
        let spans = pins.split_first().is_some_and(|(&first, rest)| {
            let side = self.side_at(first);
            rest.iter().any(|&p| self.side_at(p) != side)
        });
        (net_hash(e, weight, pins), if spans { weight } else { 0 })
    }

    /// Replaces one net's terms `before` with its terms `after`.
    fn swap_net_terms(&mut self, before: (u64, u64), after: (u64, u64)) {
        self.sums.hash_sum = self
            .sums
            .hash_sum
            .wrapping_sub(before.0)
            .wrapping_add(after.0);
        self.cut = self.cut.saturating_sub(before.1).saturating_add(after.1);
    }

    /// Applies the structural half of an edit together with its exact cut
    /// delta under the unchanged assignment and its fingerprint and
    /// balance terms. A rejected edit changes nothing. New module slots
    /// join the lighter side.
    fn apply_structural(&mut self, edit: &Edit) -> Result<StructuralOutcome, IncrementalError> {
        match edit {
            Edit::AddNet { pins, weight } => {
                let id = self.nl.add_net(pins, *weight)?;
                self.swap_net_terms((0, 0), self.net_terms(id));
                Ok(StructuralOutcome {
                    damaged: pins.len(),
                    new_id: Some(id),
                    touched: pins.clone(),
                })
            }
            Edit::RemoveNet { net } => {
                let before = self.net_terms(*net);
                let touched = self
                    .nl
                    .net_pins(*net)
                    .map(<[u32]>::to_vec)
                    .unwrap_or_default();
                self.nl.remove_net(*net)?;
                self.swap_net_terms(before, (0, 0));
                Ok(StructuralOutcome {
                    damaged: touched.len(),
                    new_id: None,
                    touched,
                })
            }
            Edit::AddModule { weight } => {
                let side = Side::lighter(self.sums.side_weight);
                let id = self.nl.add_module(*weight)?;
                self.sides.push(side);
                self.sums.add_module(id, *weight, side);
                Ok(StructuralOutcome {
                    damaged: 1,
                    new_id: Some(id),
                    touched: Vec::new(),
                })
            }
            Edit::RemoveModule { module } => {
                // Only isolated modules are removable, so no net's
                // spanning status can change.
                let (side, weight) = (self.side_at(*module), self.nl.module_weight(*module));
                self.nl.remove_module(*module)?;
                self.sums.remove_module(*module, weight.unwrap_or(0), side);
                Ok(StructuralOutcome {
                    damaged: 0,
                    new_id: None,
                    touched: Vec::new(),
                })
            }
            Edit::ReweightModule { module, weight } => {
                // A weight change never moves a net across the cut.
                let (side, old) = (self.side_at(*module), self.nl.module_weight(*module));
                self.nl.reweight_module(*module, *weight)?;
                self.sums.remove_module(*module, old.unwrap_or(0), side);
                self.sums.add_module(*module, *weight, side);
                Ok(StructuralOutcome {
                    damaged: 1,
                    new_id: None,
                    touched: Vec::new(),
                })
            }
            Edit::PinChange { net, module, add } => {
                let before = self.net_terms(*net);
                self.nl.pin_change(*net, *module, *add)?;
                self.swap_net_terms(before, self.net_terms(*net));
                // The pins after the edit plus the module, counted once:
                // an add and a remove of one pin damage the same region.
                let mut touched = self.nl.net_pins(*net).unwrap_or(&[]).to_vec();
                if !touched.contains(module) {
                    touched.push(*module);
                }
                Ok(StructuralOutcome {
                    damaged: touched.len(),
                    new_id: None,
                    touched,
                })
            }
        }
    }

    /// Every module slot on the left, the cut 0 and the sums rescanned:
    /// the trivial tier, and a full tier with too few vertices to cut.
    fn reset(&mut self) {
        self.sides.fill(Side::Left);
        self.cut = 0;
        self.sums = Sums::of(&self.nl, &self.sides);
    }

    /// Localized repair: one FM pass over the damaged modules only. The
    /// cut arrives already exact (maintained by delta in
    /// [`apply_structural`](Self::apply_structural)); this pass then
    /// greedily flips damaged modules whose move strictly lowers the cut,
    /// under the same adaptive balance slack as
    /// [`refine::refine`](crate::refine::refine) (twice the heaviest live
    /// module, widened to the current imbalance), each module at most
    /// once. The side weights and the heaviest module come from the sums;
    /// each round re-scores the k unmoved candidates, so the pass is
    /// O(k²·deg) and never touches the rest of the instance.
    fn repair_incremental(&mut self, touched: &[u32]) {
        let mut candidates: Vec<u32> = touched
            .iter()
            .copied()
            .filter(|&m| self.nl.module_weight(m).is_some())
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return;
        }
        // The balance slack mirrors refine::refine's adaptive floor.
        let [left, right] = self.sums.side_weight;
        let tolerance = left
            .abs_diff(right)
            .max(self.sums.heaviest().saturating_mul(2));
        let mut moved = vec![false; candidates.len()];
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (i, (&m, &done)) in candidates.iter().zip(&moved).enumerate() {
                if done {
                    continue;
                }
                let w = self.nl.module_weight(m).unwrap_or(0);
                let from = self.side_at(m);
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                let [mine, other] = [from, !from].map(|s| self.sums.side_weight[s.index()]);
                let new_imbalance = (mine - w).abs_diff(other + w);
                if new_imbalance > tolerance {
                    continue;
                }
                let gain = self.flip_gain(m);
                if gain <= 0 {
                    continue;
                }
                let gain = gain as u64; // fhp-audit: allow(as-cast-truncation) — checked positive above
                if best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, i));
                }
            }
            let Some((gain, i)) = best else { break };
            let m = candidates[i]; // fhp-audit: allow(panic-site) — i was produced by enumerate() over candidates
            let w = self.nl.module_weight(m).unwrap_or(0);
            let from = self.side_at(m);
            self.sums.remove_module(m, w, from);
            self.sums.add_module(m, w, from.opposite());
            if let Some(slot) = self.sides.get_mut(m as usize) {
                *slot = from.opposite();
            }
            self.cut = self.cut.saturating_sub(gain);
            moved[i] = true; // fhp-audit: allow(panic-site) — i was produced by enumerate() over the same-length moved
        }
    }

    /// The cut reduction from flipping module `m` to the other side
    /// (negative when the flip would worsen the cut): for each incident
    /// net, moving the last same-side pin away uncuts it, moving any pin
    /// out of a one-sided net cuts it.
    fn flip_gain(&self, m: u32) -> i64 {
        let mut gain = 0i64;
        let my_side = self.side_at(m);
        for &e in self.nl.incident_nets(m).unwrap_or(&[]) {
            let Some(pins) = self.nl.net_pins(e) else {
                continue;
            };
            if pins.len() < 2 {
                continue;
            }
            let same = pins.iter().filter(|&&p| self.side_at(p) == my_side).count();
            let w = self.nl.net_weight(e).unwrap_or(0) as i64; // fhp-audit: allow(as-cast-truncation) — net weights are far below i64::MAX
            if same == pins.len() {
                gain -= w; // was uncut, the flip cuts it
            } else if same == 1 {
                gain += w; // m is the lone pin on its side: the flip uncuts it
            }
        }
        gain
    }

    /// Fallback repair: re-partition the compacted live netlist from
    /// scratch with the configured [`Algorithm1`] run.
    fn repair_full(
        &mut self,
        config: PartitionConfig,
        progress: Option<Arc<Progress>>,
    ) -> Result<(), PartitionError> {
        #[cfg(test)]
        if tests::FAIL_FULL_TIER.with(std::cell::Cell::get) {
            return Err(PartitionError::AllStartsFailed {
                error: "the full tier was set to fail".to_string(),
            });
        }
        let (h, module_ids, _nets) = self.nl.materialize();
        let Some(outcome) = run_algorithm1(config, progress, &h)? else {
            self.reset();
            return Ok(());
        };
        for (compact, &stable) in module_ids.iter().enumerate() {
            if let Some(slot) = self.sides.get_mut(stable as usize) {
                *slot = outcome.bipartition.side(VertexId::new(compact));
            }
        }
        self.cut = outcome.report.weighted_cut;
        self.sums = Sums::of(&self.nl, &self.sides);
        Ok(())
    }

    /// The state fingerprint: see [`PartitionEngine::fingerprint`].
    fn fingerprint(&self) -> u64 {
        mix64(self.sums.hash_sum ^ mix64(self.cut))
    }

    /// Rebuilds the sums from scratch and names the first maintained value
    /// that differs: see [`PartitionEngine::verify_state`].
    fn verify_state(&self) -> Result<(), String> {
        let kept = &self.sums;
        let fresh = Sums::of(&self.nl, &self.sides);
        if kept.hash_sum != fresh.hash_sum {
            return Err(format!(
                "fingerprint sum diverged: maintained {:#018x}, recomputed {:#018x}",
                kept.hash_sum, fresh.hash_sum
            ));
        }
        if kept.side_weight != fresh.side_weight {
            let ([kl, kr], [fl, fr]) = (kept.side_weight, fresh.side_weight);
            return Err(format!(
                "side weights diverged: maintained {kl}/{kr}, recomputed {fl}/{fr}"
            ));
        }
        if kept.heaviest() != fresh.heaviest() {
            return Err(format!(
                "heaviest module weight diverged: maintained {}, recomputed {}",
                kept.heaviest(),
                fresh.heaviest()
            ));
        }
        if kept.weights != fresh.weights {
            return Err("module weight multiset diverged below the heaviest weight".to_string());
        }
        Ok(())
    }
}

/// One configured [`Algorithm1`] run; `None` when `h` has too few vertices
/// to cut, which the engine answers with the trivial partition.
fn run_algorithm1(
    config: PartitionConfig,
    progress: Option<Arc<Progress>>,
    h: &Hypergraph,
) -> Result<Option<PartitionOutcome>, PartitionError> {
    match Algorithm1::new(config).progress(progress).run(h) {
        Ok(outcome) => Ok(Some(outcome)),
        Err(PartitionError::TooFewVertices { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The fingerprint term of one live module.
fn module_hash(m: u32, weight: u64, side: Side) -> u64 {
    mix64(mix64(mix64(u64::from(m)) ^ weight) ^ u64::from(side == Side::Right))
}

/// The fingerprint term of one live net; `pins` sorted ascending. Bit 32
/// of the id separates net terms from module terms.
fn net_hash(e: u32, weight: u64, pins: &[u32]) -> u64 {
    let head = mix64(mix64(u64::from(e) | 1 << 32) ^ weight);
    pins.iter().fold(head, |h, &p| mix64(h ^ u64::from(p)))
}

/// SplitMix64's finalizer (the same avalanche the workspace fingerprints
/// use).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bipartition;
    use fhp_hypergraph::intersection::paper_example;
    use rand::rngs::SplitMix64;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Set by a test to make the full tier fail where it starts, as a
        /// failed Algorithm I run would.
        pub(super) static FAIL_FULL_TIER: Cell<bool> = const { Cell::new(false) };
    }

    fn loaded_engine() -> PartitionEngine {
        let mut engine = PartitionEngine::new(EngineConfig::new());
        engine.load(&paper_example()).expect("paper example loads");
        engine
    }

    /// The engine's cut must always equal a recount on the materialized
    /// instance.
    fn assert_cut_consistent(engine: &PartitionEngine) {
        let (h, module_ids, _nets) = engine.materialize().expect("loaded");
        let bp = Bipartition::from_fn(h.num_vertices(), |v| {
            engine
                .side_of(module_ids[v.index()])
                .expect("live module has a side")
        });
        assert_eq!(
            engine.cut(),
            crate::metrics::weighted_cut(&h, &bp),
            "engine cut vs recount"
        );
    }

    #[test]
    fn apply_before_load_is_rejected() {
        let mut engine = PartitionEngine::new(EngineConfig::new());
        assert_eq!(
            engine.apply(&Edit::AddModule { weight: 1 }),
            Err(EngineError::NotLoaded)
        );
        assert!(!engine.is_loaded());
        assert_eq!(engine.fingerprint(), 0);
    }

    #[test]
    fn load_then_single_net_edits_stay_consistent() {
        let mut engine = loaded_engine();
        assert!(engine.is_loaded());
        assert_cut_consistent(&engine);
        let d = engine
            .apply(&Edit::AddNet {
                pins: vec![0, 11],
                weight: 2,
            })
            .expect("valid edit");
        assert_eq!(d.repair, RepairKind::Incremental);
        let net = d.new_id.expect("AddNet allocates an id");
        assert_cut_consistent(&engine);
        let d = engine.apply(&Edit::RemoveNet { net }).expect("live net");
        assert_eq!(d.repair, RepairKind::Incremental);
        assert_cut_consistent(&engine);
        assert_eq!(engine.stats().edits, 2);
        assert_eq!(engine.stats().incremental_hits, 2);
        assert_eq!(engine.stats().full_recomputes, 0);
    }

    #[test]
    fn rejected_edit_leaves_state_unchanged() {
        let mut engine = loaded_engine();
        // A one-pin net, so removing its pin is the last-pin rejection.
        let lone = engine
            .apply(&Edit::AddNet {
                pins: vec![4],
                weight: 1,
            })
            .expect("valid edit")
            .new_id
            .expect("AddNet allocates an id");
        let rejected = [
            (
                Edit::RemoveNet { net: 999 },
                IncrementalError::UnknownNet(999),
            ),
            (
                Edit::PinChange {
                    net: 999,
                    module: 0,
                    add: true,
                },
                IncrementalError::UnknownNet(999),
            ),
            (
                Edit::AddNet {
                    pins: vec![0, 99],
                    weight: 1,
                },
                IncrementalError::UnknownModule(99),
            ),
            (
                Edit::ReweightModule {
                    module: 99,
                    weight: 1,
                },
                IncrementalError::UnknownModule(99),
            ),
            (
                Edit::RemoveModule { module: 99 },
                IncrementalError::UnknownModule(99),
            ),
            (
                Edit::PinChange {
                    net: 0,
                    module: 0,
                    add: true,
                },
                IncrementalError::DuplicatePin { net: 0, module: 0 },
            ),
            (
                Edit::PinChange {
                    net: 0,
                    module: 5,
                    add: false,
                },
                IncrementalError::MissingPin { net: 0, module: 5 },
            ),
            (
                Edit::PinChange {
                    net: lone,
                    module: 4,
                    add: false,
                },
                IncrementalError::LastPin { net: lone },
            ),
            (
                Edit::RemoveModule { module: 0 },
                IncrementalError::ModuleInUse { module: 0 },
            ),
            (Edit::AddModule { weight: 0 }, IncrementalError::ZeroWeight),
            (
                Edit::ReweightModule {
                    module: 0,
                    weight: 0,
                },
                IncrementalError::ZeroWeight,
            ),
            (
                Edit::AddNet {
                    pins: vec![0, 1],
                    weight: 0,
                },
                IncrementalError::ZeroWeight,
            ),
        ];
        let fp = engine.fingerprint();
        let cut = engine.cut();
        for (edit, error) in rejected {
            assert_eq!(
                engine.apply(&edit),
                Err(EngineError::Structure(error)),
                "{edit:?}"
            );
            assert_eq!(engine.fingerprint(), fp, "{edit:?}");
            assert_eq!(engine.cut(), cut, "{edit:?}");
            assert_eq!(engine.verify_state(), Ok(()), "{edit:?}");
        }
        assert_eq!(engine.stats().edits, 1);
    }

    #[test]
    fn pin_add_and_remove_damage_the_same_region() {
        let mut engine = loaded_engine();
        let pin = |add| Edit::PinChange {
            net: 0,
            module: 5,
            add,
        };
        let added = engine.apply(&pin(true)).expect("module 5 is not on net 0");
        let removed = engine.apply(&pin(false)).expect("module 5 is on net 0 now");
        // Net 0's pins {0, 1, 10} plus module 5, counted once.
        assert_eq!(added.damaged_modules, 4);
        assert_eq!(removed.damaged_modules, 4);
    }

    #[test]
    fn different_histories_to_the_same_state_fingerprint_equal() {
        let engine = |script: &[Edit]| {
            let mut engine = loaded_engine();
            for edit in script {
                engine.apply(edit).expect("scripted edit");
            }
            engine
        };
        // One history grows net 9 a pin at a time and detours through a
        // module that is added and removed again and a reweight that is
        // undone; the other adds the finished net in one edit.
        let a = engine(&[
            Edit::AddNet {
                pins: vec![11, 0],
                weight: 2,
            },
            Edit::AddModule { weight: 3 },
            Edit::ReweightModule {
                module: 2,
                weight: 7,
            },
            Edit::PinChange {
                net: 9,
                module: 5,
                add: true,
            },
            Edit::RemoveModule { module: 12 },
            Edit::ReweightModule {
                module: 2,
                weight: 1,
            },
        ]);
        let b = engine(&[Edit::AddNet {
            pins: vec![0, 5, 11],
            weight: 2,
        }]);
        let (ha, modules, nets) = a.materialize().expect("loaded");
        assert_eq!(Some((ha, modules.clone(), nets)), b.materialize());
        for &m in &modules {
            assert_eq!(a.side_of(m), b.side_of(m), "side of module {m}");
        }
        assert_eq!(a.cut(), b.cut());
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.verify_state().expect("a's maintained state");
        b.verify_state().expect("b's maintained state");
    }

    /// A random valid edit of `kind` (0..6, one per [`Edit`] variant)
    /// against the live netlist; `None` when the kind has no valid target
    /// right now. One added net in twenty is wide (8 pins).
    fn random_edit(nl: &DynamicNetlist, kind: u32, rng: &mut SplitMix64) -> Option<Edit> {
        let modules: Vec<u32> = nl.live_modules().collect();
        let nets: Vec<u32> = nl.live_nets().collect();
        let pick = |items: &[u32], rng: &mut SplitMix64| items[rng.gen_range(0..items.len())];
        match kind {
            0 => {
                let want = if rng.gen_range(0..20) == 0 {
                    8
                } else {
                    rng.gen_range(2..=4)
                };
                let mut pins: Vec<u32> = Vec::new();
                while pins.len() < want.min(modules.len()) {
                    let m = pick(&modules, rng);
                    if !pins.contains(&m) {
                        pins.push(m);
                    }
                }
                Some(Edit::AddNet {
                    pins,
                    weight: rng.gen_range(1..=3),
                })
            }
            1 if !nets.is_empty() => Some(Edit::RemoveNet {
                net: pick(&nets, rng),
            }),
            2 => Some(Edit::AddModule {
                weight: rng.gen_range(1..=4),
            }),
            3 => {
                let isolated: Vec<u32> = modules
                    .iter()
                    .copied()
                    .filter(|&m| nl.incident_nets(m).is_some_and(<[u32]>::is_empty))
                    .collect();
                (!isolated.is_empty()).then(|| Edit::RemoveModule {
                    module: pick(&isolated, rng),
                })
            }
            4 => Some(Edit::ReweightModule {
                module: pick(&modules, rng),
                weight: rng.gen_range(1..=5),
            }),
            5 if !nets.is_empty() => {
                let net = pick(&nets, rng);
                let pins = nl.net_pins(net).unwrap_or(&[]);
                let module = pick(&modules, rng);
                if !pins.contains(&module) {
                    Some(Edit::PinChange {
                        net,
                        module,
                        add: true,
                    })
                } else {
                    (pins.len() >= 2).then_some(Edit::PinChange {
                        net,
                        module,
                        add: false,
                    })
                }
            }
            _ => None,
        }
    }

    /// Applies one walk edit and checks the maintained state against its
    /// recomputation (and, every 25 edits, the cut against a recount).
    fn walk_step(engine: &mut PartitionEngine, edit: &Edit) -> RepairKind {
        let delta = engine.apply(edit).expect("walk edits are valid");
        engine
            .verify_state()
            .unwrap_or_else(|e| panic!("edit {} ({edit:?}): {e}", delta.edit_index));
        assert_eq!(delta.fingerprint, engine.fingerprint());
        if delta.edit_index.is_multiple_of(25) {
            assert_cut_consistent(engine);
        }
        delta.repair
    }

    #[test]
    fn seeded_edit_walk_keeps_the_maintained_state_exact() {
        let h = fhp_gen::scaling_instance(2_000, 5).expect("instance generates");
        // At 5 permille of ~1200 live modules an edit damaging more than
        // six modules (a wide net) takes the full tier.
        let config = EngineConfig::new()
            .partition(PartitionConfig::new().starts(2).seed(5))
            .damage_permille(5);
        let mut engine = PartitionEngine::new(config);
        engine.load(&h).expect("instance loads");
        engine.verify_state().expect("state after load");
        let mut rng = SplitMix64::seed_from_u64(0x5eed);
        let mut kinds = [0usize; 6];
        let mut repairs = Vec::new();
        let mut mixed = |engine: &mut PartitionEngine, count: usize, repairs: &mut Vec<_>| {
            while kinds.iter().sum::<usize>() < count {
                let kind = rng.gen_range(0..6);
                let nl = engine.netlist().expect("loaded");
                if let Some(edit) = random_edit(nl, kind, &mut rng) {
                    kinds[kind as usize] += 1;
                    repairs.push(walk_step(engine, &edit));
                }
            }
        };
        mixed(&mut engine, 500, &mut repairs);
        // Drain every net: the last removal leaves no live net, which is
        // the trivial tier; then keep editing from the empty netlist.
        let nets: Vec<u32> = engine.netlist().expect("loaded").live_nets().collect();
        for net in nets {
            repairs.push(walk_step(&mut engine, &Edit::RemoveNet { net }));
        }
        mixed(&mut engine, 560, &mut repairs);
        assert_cut_consistent(&engine);
        assert!(kinds.iter().all(|&k| k > 0), "edit kinds {kinds:?}");
        for tier in [
            RepairKind::Trivial,
            RepairKind::Incremental,
            RepairKind::Full,
        ] {
            assert!(repairs.contains(&tier), "no {tier:?} repair in the walk");
        }
    }

    #[test]
    fn zero_damage_threshold_forces_full_recompute() {
        let mut engine = PartitionEngine::new(EngineConfig::new().damage_permille(0));
        engine.load(&paper_example()).expect("loads");
        let d = engine
            .apply(&Edit::AddNet {
                pins: vec![0, 1],
                weight: 1,
            })
            .expect("valid edit");
        assert_eq!(d.repair, RepairKind::Full);
        assert_eq!(engine.stats().full_recomputes, 1);
        assert_cut_consistent(&engine);
    }

    #[test]
    fn a_failed_full_tier_keeps_the_edit_with_an_exact_cut() {
        let mut engine = PartitionEngine::new(EngineConfig::new().damage_permille(0));
        engine.load(&paper_example()).expect("loads");
        let across = (1..12)
            .find(|&m| engine.side_of(m) != engine.side_of(0))
            .expect("the paper example's partition uses both sides");
        let cut = engine.cut();
        FAIL_FULL_TIER.with(|fail| fail.set(true));
        let failed = engine.apply(&Edit::AddNet {
            pins: vec![0, across],
            weight: 2,
        });
        FAIL_FULL_TIER.with(|fail| fail.set(false));
        assert!(
            matches!(failed, Err(EngineError::Partition(_))),
            "{failed:?}"
        );
        // The edit stays applied as net 9, unrepaired: the cut grew by the
        // new net's weight and matches a recount under the engine's sides.
        let nl = engine.netlist().expect("loaded");
        assert_eq!(nl.net_pins(9), Some(&[0, across][..]));
        assert_eq!(engine.cut(), cut + 2);
        assert_cut_consistent(&engine);
        engine
            .verify_state()
            .expect("maintained state after the failure");
        assert_eq!(engine.stats().edits, 0);
        // The next edit repairs normally.
        let d = engine.apply(&Edit::RemoveNet { net: 9 }).expect("live net");
        assert_eq!(d.repair, RepairKind::Full);
        assert_eq!(d.edit_index, 0);
        assert_eq!(engine.stats().full_recomputes, 1);
        assert_cut_consistent(&engine);
        engine
            .verify_state()
            .expect("maintained state after the repair");
    }

    #[test]
    fn load_refuses_an_invalid_config_even_without_a_run() {
        // One module, no nets, and the paper example: only the last needs
        // an Algorithm I run, but every load checks the configuration.
        let one = fhp_hypergraph::HypergraphBuilder::with_vertices(1).build();
        let netless = fhp_hypergraph::HypergraphBuilder::with_vertices(3).build();
        for h in [one, netless, paper_example()] {
            let config = EngineConfig::new().partition(PartitionConfig::new().starts(0));
            let mut engine = PartitionEngine::new(config);
            assert!(
                matches!(
                    engine.load(&h),
                    Err(EngineError::Partition(PartitionError::InvalidConfig { .. }))
                ),
                "{} modules",
                h.num_vertices()
            );
            assert!(!engine.is_loaded());
        }
    }

    #[test]
    fn shrinking_to_degenerate_state_is_trivial_repair() {
        let mut engine = PartitionEngine::new(EngineConfig::new());
        let h = fhp_hypergraph::Netlist::parse("a: 1 2\n")
            .expect("parses")
            .hypergraph()
            .clone();
        engine.load(&h).expect("loads");
        let d = engine.apply(&Edit::RemoveNet { net: 0 }).expect("live net");
        assert_eq!(d.repair, RepairKind::Trivial);
        assert_eq!(engine.cut(), 0);
        assert_eq!(d.fingerprint, engine.fingerprint());
    }

    #[test]
    fn same_edit_sequence_same_fingerprints_across_thread_counts() {
        let script = [
            Edit::AddNet {
                pins: vec![0, 4, 9],
                weight: 2,
            },
            Edit::AddModule { weight: 3 },
            Edit::PinChange {
                net: 0,
                module: 9,
                add: true,
            },
            Edit::ReweightModule {
                module: 2,
                weight: 5,
            },
            Edit::RemoveNet { net: 3 },
            Edit::PinChange {
                net: 0,
                module: 9,
                add: false,
            },
        ];
        let run = |threads: usize| -> Vec<u64> {
            let config =
                EngineConfig::new().partition(PartitionConfig::new().starts(8).threads(threads));
            let mut engine = PartitionEngine::new(config);
            let mut fps = vec![engine.load(&paper_example()).expect("loads").fingerprint];
            for edit in &script {
                fps.push(engine.apply(edit).expect("scripted edit").fingerprint);
            }
            fps
        };
        let t1 = run(1);
        assert_eq!(t1, run(2));
        assert_eq!(t1, run(8));
    }

    #[test]
    fn gauges_mirror_engine_stats() {
        let progress = Arc::new(Progress::new());
        let mut engine =
            PartitionEngine::new(EngineConfig::new()).progress(Some(Arc::clone(&progress)));
        engine.load(&paper_example()).expect("loads");
        engine
            .apply(&Edit::AddNet {
                pins: vec![0, 1],
                weight: 1,
            })
            .expect("valid");
        engine.apply(&Edit::AddModule { weight: 2 }).expect("valid");
        assert_eq!(progress.get(Gauge::EngineEdits), 2);
        assert_eq!(
            progress.get(Gauge::EngineIncrementalHits) + progress.get(Gauge::EngineFullRecomputes),
            2
        );
    }
}
