//! The invariant oracles: every structural claim of the paper (and of
//! this workspace's own contracts), re-derived from scratch.
//!
//! Each oracle recomputes its claim without reusing the code path under
//! test — cut sizes are recounted pin by pin, bipartiteness is re-proved
//! by an independent 2-coloring, the within-1 completion bound is checked
//! against [`fhp_core::complete_cut::brute_force_min_losers`], the dualization
//! kernel against the naive pair-spray builder, Algorithm I's searches
//! over the incidence lists against the same searches over `G`'s CSR, and
//! thread invariance by literally running the engine at 1, 2 and 8
//! workers. A failed check is a [`Violation`]; the harness feeds the
//! instance to the shrinker and reports a minimal reproduction.
//!
//! Oracles never panic on degenerate inputs: instances too small or
//! disconnected for a given claim are skipped (the claim is vacuous), and
//! legitimate [`PartitionError`]s are skips, not violations — only a
//! *wrong answer* fails. A panic raised inside an oracle by the code under
//! test is that oracle's violation too.

use std::collections::BTreeMap;

use fhp_baselines::{Exhaustive, FiducciaMattheyses, KernighanLin, SimulatedAnnealing};
use fhp_core::boundary::BoundaryDecomposition;
use fhp_core::complete_cut::{
    brute_force_min_losers, complete, complete_min_degree, CompletionScratch,
};
use fhp_core::dual_bfs::{
    random_longest_path_endpoints, two_front_bfs, two_front_bfs_with_policy, FrontPolicy,
};
use fhp_core::moves::{random_balanced_start, MoveState};
use fhp_core::multilevel::{coarsen_cap, coarsen_sequence};
use fhp_core::multiway::recursive_bisection;
use fhp_core::{
    Algorithm1, Bipartition, Bipartitioner, CompletionStrategy, Edit, EngineConfig, EngineError,
    MultilevelConfig, PartitionConfig, PartitionEngine, PartitionError, PartitionOutcome, Side,
};
use fhp_hypergraph::{
    bfs, hgr, DualIncidence, Dualizer, DynamicNetlist, Graph, Hypergraph, IntersectionGraph,
};
use rand::rngs::SplitMix64;
use rand::{Rng, SeedableRng};

/// A failed oracle check: which oracle, and what it saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The oracle that fired (stable machine-friendly name).
    pub oracle: &'static str,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "oracle `{}`: {}", self.oracle, self.detail)
    }
}

impl std::error::Error for Violation {}

/// What a full oracle pass over one instance did.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    /// Individual assertions evaluated (for the run counters).
    pub checks: u64,
    /// The first violation found, if any. Oracles short-circuit so the
    /// shrinker has one stable property to minimize against.
    pub violation: Option<Violation>,
}

/// Largest instance the exhaustive optimum participates in the
/// differential harness for (`2^(n-1)` cuts are enumerated).
pub const EXHAUSTIVE_DIFF_LIMIT: usize = 12;

/// Largest boundary graph the König completion is checked against the
/// enumerated optimum for.
pub const KONIG_CHECK_LIMIT: usize = 12;

/// Largest connected boundary graph the paper's within-1 greedy bound is
/// asserted on. The bound as stated is *refuted* from 10 vertices up
/// (connected gap-2 counterexamples exist — see
/// [`fhp_core::complete_cut::brute_force_min_losers`]), so the oracle pins exactly
/// the regime where property testing has established it: `n ≤ 9`.
pub const WITHIN_ONE_LIMIT: usize = 9;

/// Thread counts the invariance oracle replays the engine at.
pub const INVARIANCE_THREADS: [usize; 3] = [1, 2, 8];

/// Per-oracle check counts, keyed by oracle name (deterministic order).
pub type OracleCounts = BTreeMap<&'static str, u64>;

/// Runs every oracle against one instance.
///
/// `seed` keys the derived randomness (start endpoints, baseline seeds);
/// `threads` is the base worker count for single runs (the invariance
/// oracle always sweeps [`INVARIANCE_THREADS`] regardless). `counts`
/// accumulates per-oracle check totals for the run report.
pub fn check_instance(
    h: &Hypergraph,
    seed: u64,
    threads: usize,
    counts: &mut OracleCounts,
) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    let oracles: [(&'static str, OracleFn); 11] = [
        ("differential", oracle_differential),
        ("dual_incidence", oracle_dual_incidence),
        ("pipeline_stages", oracle_pipeline_stages),
        ("thread_invariance", oracle_thread_invariance),
        ("repeated_paths", oracle_repeated_paths),
        ("dualize_kernel", oracle_dualize_kernel),
        ("move_state", oracle_move_state),
        ("multiway", oracle_multiway),
        ("multilevel", oracle_multilevel),
        ("hgr_roundtrip", oracle_hgr_roundtrip),
        ("incremental", oracle_incremental),
    ];
    for (name, oracle) in oracles {
        let ctx = Ctx {
            h,
            seed,
            threads,
            oracle: name,
        };
        // A panic inside an oracle (the code under test asserting on a
        // broken invariant) is that oracle's violation, which the
        // shrinker can minimize, not the end of the run.
        let result = std::panic::catch_unwind(|| oracle(&ctx)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a non-string panic".to_string());
            Err(ctx.fail(format!("panicked: {msg}")))
        });
        match result {
            Ok(checks) => {
                outcome.checks += checks;
                *counts.entry(name).or_insert(0) += checks;
            }
            Err(v) => {
                outcome.violation = Some(v);
                break;
            }
        }
    }
    outcome
}

/// Test-only fault injection: when armed, [`check_instance`]'s
/// differential oracle tampers with Algorithm I's outcome — module 0 is
/// flipped while the report stays stale — so the harness's own
/// end-to-end test can watch an oracle fire and the shrinker minimize a
/// real failure. Compiled out of non-test builds.
#[cfg(test)]
pub(crate) mod fault {
    use std::cell::Cell;

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms or disarms the planted bug on this thread.
    pub(crate) fn set_armed(on: bool) {
        ARMED.with(|f| f.set(on));
    }

    pub(crate) fn armed() -> bool {
        ARMED.with(|f| f.get())
    }

    /// Applies the planted bug to an outcome if armed.
    pub(crate) fn tamper(mut out: fhp_core::PartitionOutcome) -> fhp_core::PartitionOutcome {
        if armed() && !out.bipartition.is_empty() {
            out.bipartition.flip(fhp_hypergraph::VertexId::new(0));
        }
        out
    }
}

struct Ctx<'a> {
    h: &'a Hypergraph,
    seed: u64,
    threads: usize,
    oracle: &'static str,
}

type OracleFn = for<'a> fn(&Ctx<'a>) -> Result<u64, Violation>;

impl Ctx<'_> {
    fn fail(&self, detail: String) -> Violation {
        Violation {
            oracle: self.oracle,
            detail,
        }
    }

    fn ensure(&self, ok: bool, detail: impl Fn() -> String) -> Result<u64, Violation> {
        if ok {
            Ok(1)
        } else {
            Err(self.fail(detail()))
        }
    }
}

/// The ground-truth cut size: one pass over every hyperedge, counting
/// those with a pin on each side. Shares no code with
/// `fhp_core::metrics`.
pub fn recompute_cut(h: &Hypergraph, bp: &Bipartition) -> usize {
    h.edges().filter(|&e| edge_crosses_slow(h, bp, e)).count()
}

/// The ground-truth weighted cut, same independent recount.
pub fn recompute_weighted_cut(h: &Hypergraph, bp: &Bipartition) -> u64 {
    h.edges()
        .filter(|&e| edge_crosses_slow(h, bp, e))
        .map(|e| h.edge_weight(e))
        .sum()
}

fn edge_crosses_slow(h: &Hypergraph, bp: &Bipartition, e: fhp_hypergraph::EdgeId) -> bool {
    let mut left = false;
    let mut right = false;
    for &p in h.pins(e) {
        match bp.side(p) {
            Side::Left => left = true,
            Side::Right => right = true,
        }
    }
    left && right
}

/// Re-derives a [`PartitionOutcome`]'s report from the bipartition alone
/// and returns the first inconsistency. This is the oracle behind the
/// CLI `--check` flag.
pub fn check_outcome_consistency(h: &Hypergraph, out: &PartitionOutcome) -> Result<u64, Violation> {
    let fail = |detail: String| Violation {
        oracle: "report_consistency",
        detail,
    };
    let bp = &out.bipartition;
    if bp.len() != h.num_vertices() {
        return Err(fail(format!(
            "bipartition covers {} of {} modules",
            bp.len(),
            h.num_vertices()
        )));
    }
    let mut checks = 1;
    let cut = recompute_cut(h, bp);
    if cut != out.report.cut_size {
        return Err(fail(format!(
            "reported cut {} but pin-by-pin recount is {cut}",
            out.report.cut_size
        )));
    }
    checks += 1;
    let weighted = recompute_weighted_cut(h, bp);
    if weighted != out.report.weighted_cut {
        return Err(fail(format!(
            "reported weighted cut {} but recount is {weighted}",
            out.report.weighted_cut
        )));
    }
    checks += 1;
    let counts = (bp.count(Side::Left), bp.count(Side::Right));
    if counts != out.report.counts {
        return Err(fail(format!(
            "reported side counts {:?} but recount is {counts:?}",
            out.report.counts
        )));
    }
    checks += 1;
    if counts.0 + counts.1 != h.num_vertices() {
        return Err(fail(format!(
            "side counts {counts:?} do not sum to {} modules",
            h.num_vertices()
        )));
    }
    checks += 1;
    let weights = (bp.weight_on(h, Side::Left), bp.weight_on(h, Side::Right));
    if weights != out.report.weights {
        return Err(fail(format!(
            "reported side weights {:?} but recount is {weights:?}",
            out.report.weights
        )));
    }
    checks += 1;
    if weights.0 + weights.1 != h.total_vertex_weight() {
        return Err(fail(format!(
            "side weights {weights:?} do not sum to total {}",
            h.total_vertex_weight()
        )));
    }
    checks += 1;
    Ok(checks)
}

/// A partition error that legitimately ends an oracle early (tiny or
/// degenerate instance) versus one that is itself a finding.
fn is_benign(e: &PartitionError) -> bool {
    matches!(
        e,
        PartitionError::TooFewVertices { .. } | PartitionError::TooLarge { .. }
    )
}

/// Differential harness: Algorithm I against KL, FM, SA and (small
/// instances) the exhaustive optimum, all on the same hypergraph.
/// Impossible orderings — a heuristic beating the enumerated optimum, a
/// report disagreeing with the pin-by-pin recount, a winning start whose
/// recorded cut differs from the returned one — are violations.
fn oracle_differential(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let mut checks = 0;

    let optimum = if h.num_vertices() <= EXHAUSTIVE_DIFF_LIMIT {
        match Exhaustive::unconstrained().min_cut_size(h) {
            Ok(c) => Some(c),
            Err(e) if is_benign(&e) => None,
            Err(e) => return Err(ctx.fail(format!("exhaustive failed: {e}"))),
        }
    } else {
        None
    };

    // Algorithm I, with the full report cross-checked.
    let config = PartitionConfig::new()
        .starts(8)
        .seed(ctx.seed)
        .threads(ctx.threads);
    match Algorithm1::new(config).run(h) {
        Err(e) if is_benign(&e) => return Ok(checks),
        Err(e) => return Err(ctx.fail(format!("alg1 failed: {e}"))),
        Ok(out) => {
            #[cfg(test)]
            let out = fault::tamper(out);
            checks += check_outcome_consistency(h, &out).map_err(|v| ctx.fail(v.detail))?;
            if let Some(chosen) = out.stats.chosen_start {
                let recorded = out.stats.per_start.get(chosen).and_then(|s| s.cut_size);
                checks += ctx.ensure(recorded == Some(out.report.cut_size), || {
                    format!(
                        "winning start {chosen} recorded cut {recorded:?} but the run returned {}",
                        out.report.cut_size
                    )
                })?;
                let best = out.stats.per_start.iter().filter_map(|s| s.cut_size).min();
                checks += ctx.ensure(best == Some(out.report.cut_size), || {
                    format!(
                        "returned cut {} is not the best per-start cut {best:?}",
                        out.report.cut_size
                    )
                })?;
            }
            if let Some(opt) = optimum {
                checks += ctx.ensure(out.report.cut_size >= opt, || {
                    format!(
                        "alg1 cut {} beats the exhaustive optimum {opt}",
                        out.report.cut_size
                    )
                })?;
            }
        }
    }

    // The move-based baselines: every returned cut is recounted and must
    // not beat the enumerated optimum.
    let baselines: [(&str, Box<dyn Bipartitioner>); 3] = [
        ("kl", Box::new(KernighanLin::new(ctx.seed))),
        ("fm", Box::new(FiducciaMattheyses::new(ctx.seed))),
        ("sa", Box::new(SimulatedAnnealing::fast(ctx.seed))),
    ];
    for (name, alg) in baselines {
        let bp = match alg.bipartition(h) {
            Ok(bp) => bp,
            Err(e) if is_benign(&e) => continue,
            Err(e) => return Err(ctx.fail(format!("{name} failed: {e}"))),
        };
        checks += ctx.ensure(bp.len() == h.num_vertices(), || {
            format!(
                "{name} covered {} of {} modules",
                bp.len(),
                h.num_vertices()
            )
        })?;
        let cut = recompute_cut(h, &bp);
        if let Some(opt) = optimum {
            checks += ctx.ensure(cut >= opt, || {
                format!("{name} cut {cut} beats the exhaustive optimum {opt}")
            })?;
        }
    }
    Ok(checks)
}

/// Re-derives one full single-start pipeline pass — dualize, dual-front
/// BFS, boundary decomposition, Complete-Cut — and checks every claim the
/// paper makes about the intermediate structures.
fn oracle_pipeline_stages(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    // The naive builder's CSR, independent of the view it is held to.
    let ig = IntersectionGraph::build_naive_with_threshold(h, None);
    let g = ig.graph();
    let view = DualIncidence::new(h, None).map_err(|e| ctx.fail(format!("view failed: {e}")))?;
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x5157_4c50);
    let Some((u, v)) = random_longest_path_endpoints(&view, &mut rng) else {
        return Ok(0); // no path to grow fronts from: the claims are vacuous
    };
    let cut = two_front_bfs(&view, u, v);
    let dec = BoundaryDecomposition::new(&view, &cut);
    let mut checks = 0;

    // Boundary membership re-derived from the raw G-cut.
    for gv in g.vertices() {
        let has_cross = g
            .neighbors(gv)
            .iter()
            .any(|&w| cut.side_of(w) != cut.side_of(gv));
        checks += ctx.ensure(dec.gprime_index(gv).is_some() == has_cross, || {
            format!("G-vertex {gv}: boundary membership disagrees with the cut definition")
        })?;
    }

    // No-crossing: every non-boundary signal's modules all landed on the
    // signal's side of the G-cut.
    for gv in g.vertices() {
        if dec.gprime_index(gv).is_some() {
            continue;
        }
        let side = cut.side_of(gv);
        for &p in h.pins(ig.edge_of(gv)) {
            checks += ctx.ensure(
                dec.partial().get(p.index()).copied().flatten() == Some(side),
                || {
                    format!(
                        "non-boundary signal {gv} crosses: module {p} not committed to {side:?}"
                    )
                },
            )?;
        }
    }

    // G′ is bipartite: every edge crosses the G-cut sides, and an
    // independent BFS 2-coloring finds no odd cycle.
    let gprime = dec.gprime();
    for (a, b) in gprime.edges() {
        checks += ctx.ensure(dec.side_of(a) != dec.side_of(b), || {
            format!("G′ edge ({a}, {b}) joins two vertices on the same side")
        })?;
    }
    checks += ctx.ensure(two_colorable(gprime), || {
        "G′ contains an odd cycle: not bipartite".to_string()
    })?;

    // Complete-Cut: winners independent, loser accounting exact, the
    // assembled partition's crossing signals are exactly a subset of the
    // losers (so cut ≤ losers), the production completion agrees with the
    // reference, and the greedy is within 1 of the enumerated optimum in
    // the regime where that bound is established. One scratch serves every
    // strategy, as one arena serves every start.
    let mut scratch = CompletionScratch::new();
    let mut assembled = Bipartition::all_left(0);
    for strategy in [
        CompletionStrategy::MinDegree,
        CompletionStrategy::EngineerWeighted,
        CompletionStrategy::ExactKonig,
    ] {
        let done = complete(strategy, &view, &dec);
        checks += ctx.ensure(
            done.num_winners() + done.num_losers() == dec.boundary_len(),
            || format!("{strategy:?}: winners + losers != |B|"),
        )?;
        for (a, b) in gprime.edges() {
            checks += ctx.ensure(!(done.is_winner(a) && done.is_winner(b)), || {
                format!("{strategy:?}: adjacent G′ vertices {a} and {b} both won")
            })?;
        }

        // Assemble the completed partition exactly as the paper describes:
        // partial commitments, then each winner pulls its modules.
        let mut placed: Vec<Option<Side>> = dec.partial().to_vec();
        for b in 0..dec.boundary_len() as u32 {
            if !done.is_winner(b) {
                continue;
            }
            let side = dec.side_of(b);
            for &p in h.pins(ig.edge_of(dec.g_vertex(b))) {
                match placed.get(p.index()).copied().flatten() {
                    None => {
                        if let Some(slot) = placed.get_mut(p.index()) {
                            *slot = Some(side);
                        }
                    }
                    Some(s) => {
                        checks += ctx.ensure(s == side, || {
                            format!(
                                "{strategy:?}: winner {b} needs module {p} on {side:?} \
                                 but it is committed to {s:?}"
                            )
                        })?;
                    }
                }
            }
        }
        let bp = Bipartition::from_fn(h.num_vertices(), |i| {
            placed
                .get(i.index())
                .copied()
                .flatten()
                .unwrap_or(Side::Left)
        });
        for e in h.edges() {
            if !edge_crosses_slow(h, &bp, e) {
                continue;
            }
            let crossing_is_loser = ig
                .g_vertex_of(e)
                .and_then(|gv| dec.gprime_index(gv))
                .is_some_and(|b| !done.is_winner(b));
            checks += ctx.ensure(crossing_is_loser, || {
                format!("{strategy:?}: crossing signal {e} is not a boundary loser")
            })?;
        }
        checks += ctx.ensure(recompute_cut(h, &bp) <= done.num_losers(), || {
            format!(
                "{strategy:?}: completed cut {} exceeds the loser bound {}",
                recompute_cut(h, &bp),
                done.num_losers()
            )
        })?;

        // What Algorithm I runs: the same winners, and every module the
        // reference commits on the same side — except the lightest module,
        // which the final step moves across when a side would otherwise
        // be empty, leaving it alone on its side.
        scratch.complete_into(strategy, &view, &dec, &mut assembled);
        checks += ctx.ensure(scratch.completion() == &done, || {
            format!(
                "{strategy:?}: CompletionScratch::complete_into picked other winners than complete"
            )
        })?;
        let sides = assembled.as_slice();
        let moved: Vec<usize> = placed
            .iter()
            .enumerate()
            .filter(|&(i, p)| p.is_some_and(|s| sides.get(i) != Some(&s)))
            .map(|(i, _)| i)
            .collect();
        let lightest = h.vertices().min_by_key(|&v| h.vertex_weight(v));
        let agrees = match moved.as_slice() {
            [] => true,
            [m] => lightest.is_some_and(|l| {
                l.index() == *m && sides.get(*m).is_some_and(|&s| assembled.count(s) == 1)
            }),
            _ => false,
        };
        checks += ctx.ensure(agrees, || {
            format!("{strategy:?}: complete_into moved committed modules {moved:?} across")
        })?;
    }

    // The enumerated optimum pins both the exact König completion and
    // the paper's within-1 claim for the greedy (n ≤ 9 regime only; the
    // stated bound has connected counterexamples from n = 10 up).
    let n = gprime.num_vertices();
    if n > 0 && n <= KONIG_CHECK_LIMIT {
        let exact = brute_force_min_losers(gprime);
        let konig = complete(CompletionStrategy::ExactKonig, &view, &dec).num_losers();
        checks += ctx.ensure(konig == exact, || {
            format!("König completion found {konig} losers, enumeration found {exact}")
        })?;
        let greedy = complete_min_degree(gprime).num_losers();
        checks += ctx.ensure(greedy >= exact, || {
            format!("greedy found {greedy} losers, below the enumerated optimum {exact}")
        })?;
        if n <= WITHIN_ONE_LIMIT && bfs::is_connected(gprime) {
            checks += ctx.ensure(greedy <= exact + 1, || {
                format!(
                    "greedy completion {greedy} vs optimum {exact}: within-1 bound \
                     broken on a connected G′ with {n} ≤ {WITHIN_ONE_LIMIT} vertices"
                )
            })?;
        }
    }
    Ok(checks)
}

/// Thresholds the `dual_incidence` oracle reads `G` at.
const DUAL_THRESHOLDS: [Option<usize>; 2] = [None, Some(3)];

/// BFS sources the `dual_incidence` oracle samples per threshold; the
/// sweeps run between consecutive sources and between a random longest
/// path's endpoints.
const DUAL_SOURCES: usize = 4;

/// Algorithm I's `G` read off the incidence lists ([`DualIncidence`])
/// against the explicit `G` (the CSR of
/// [`IntersectionGraph::build_naive_with_threshold`]), at each of
/// [`DUAL_THRESHOLDS`]: every G-vertex's neighbour set; the component
/// table against [`csr_components`]; the BFS visit order and distances
/// from sampled sources; both sweep policies' sides and boundary marks
/// against [`csr_sweep`]; and the whole [`BoundaryDecomposition`] —
/// boundary list, G′'s CSR and partial bipartition — against
/// [`csr_decomposition`].
fn oracle_dual_incidence(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let mut checks = 0;
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x4455_414c);
    let mut levels = bfs::BfsLevels::empty();
    let mut expanded = Vec::new();
    let mut row: Vec<u32> = Vec::new();
    for threshold in DUAL_THRESHOLDS {
        // Dualizer::build writes its rows from the lists the view reads,
        // so the view is held to the naive builder's CSR rather than to a
        // copy of itself.
        let ig = IntersectionGraph::build_naive_with_threshold(h, threshold);
        let view =
            DualIncidence::new(h, threshold).map_err(|e| ctx.fail(format!("view failed: {e}")))?;
        let g = ig.graph();
        let n = g.num_vertices();
        checks += ctx.ensure(view.num_g_vertices() == n, || {
            format!(
                "threshold {threshold:?}: the view has {} G-vertices, the CSR {n}",
                view.num_g_vertices()
            )
        })?;
        for x in g.vertices() {
            row.clear();
            for &m in view.pins(x) {
                row.extend(view.nets_of(m).iter().filter(|&&y| y != x));
            }
            row.sort_unstable();
            row.dedup();
            checks += ctx.ensure(row == g.neighbors(x), || {
                format!(
                    "threshold {threshold:?}: G-vertex {x}'s neighbours through its modules \
                     are {row:?}, the CSR row {:?}",
                    g.neighbors(x)
                )
            })?;
        }
        let (component_of, lens) = csr_components(g);
        checks += ctx.ensure(view.components() == component_of, || {
            format!(
                "threshold {threshold:?}: component table {:?}, by repeated CSR BFS {component_of:?}",
                view.components()
            )
        })?;
        let view_lens: Vec<usize> = (0..view.num_components())
            .filter_map(|c| u32::try_from(c).ok())
            .map(|c| view.component_len(c))
            .collect();
        checks += ctx.ensure(view_lens == lens, || {
            format!("threshold {threshold:?}: component sizes {view_lens:?}, by CSR BFS {lens:?}")
        })?;
        let Ok(n) = u32::try_from(n) else {
            return Err(ctx.fail(format!("{n} G-vertices overflow u32 ids")));
        };
        if n < 2 {
            continue;
        }
        let sources: Vec<u32> = (0..DUAL_SOURCES).map(|_| rng.gen_range(0..n)).collect();
        for &s in &sources {
            bfs::bfs_dual_into(&view, s, &mut levels, &mut expanded);
            let csr = bfs::bfs(g, s);
            checks += ctx.ensure(
                levels.visit_order() == csr.visit_order() && levels.raw_dist() == csr.raw_dist(),
                || {
                    format!(
                        "threshold {threshold:?}: BFS from {s} visits {:?}, the CSR BFS {:?}",
                        levels.visit_order(),
                        csr.visit_order()
                    )
                },
            )?;
        }
        let mut seeds: Vec<(u32, u32)> = sources
            .windows(2)
            .filter_map(|w| match *w {
                [a, b] if a != b => Some((a, b)),
                _ => None,
            })
            .collect();
        seeds.extend(random_longest_path_endpoints(&view, &mut rng));
        for (u, v) in seeds {
            for policy in [FrontPolicy::SmallerFirst, FrontPolicy::Alternate] {
                let tag = || format!("threshold {threshold:?}, {policy:?} sweep ({u}, {v})");
                let cut = two_front_bfs_with_policy(&view, u, v, policy);
                let reference = csr_sweep(g, u, v, policy);
                let got: Vec<(Side, bool)> = g
                    .vertices()
                    .map(|x| (cut.side_of(x), cut.is_boundary(x)))
                    .collect();
                checks += ctx.ensure(got == reference, || {
                    format!(
                        "{}: (side, boundary) per G-vertex {got:?}, the CSR sweep {reference:?}",
                        tag()
                    )
                })?;
                let dec = BoundaryDecomposition::new(&view, &cut);
                let (boundary, gprime, partial) = csr_decomposition(h, &ig, &reference);
                checks += ctx.ensure(dec.boundary_g_vertices() == boundary, || {
                    format!(
                        "{}: boundary {:?}, from the CSR {boundary:?}",
                        tag(),
                        dec.boundary_g_vertices()
                    )
                })?;
                checks += ctx.ensure(dec.gprime() == &gprime, || {
                    format!(
                        "{}: G′ edges {:?}, from the CSR {:?}",
                        tag(),
                        dec.gprime().edges().collect::<Vec<_>>(),
                        gprime.edges().collect::<Vec<_>>()
                    )
                })?;
                checks += ctx.ensure(dec.partial() == partial, || {
                    format!(
                        "{}: partial bipartition {:?}, from the CSR {partial:?}",
                        tag(),
                        dec.partial()
                    )
                })?;
            }
        }
    }
    Ok(checks)
}

/// `G`'s connected components by repeated BFS over its CSR, the
/// reference for [`DualIncidence`]'s component table: each vertex's
/// component, numbered in order of the lowest vertex (a BFS from each
/// vertex no earlier search reached), and each component's size.
fn csr_components(g: &Graph) -> (Vec<u32>, Vec<usize>) {
    let mut component_of = vec![u32::MAX; g.num_vertices()];
    let mut lens = Vec::new();
    let mut levels = bfs::BfsLevels::empty();
    for s in g.vertices() {
        if component_of.get(s as usize) != Some(&u32::MAX) {
            continue;
        }
        let c = u32::try_from(lens.len()).unwrap_or(u32::MAX);
        bfs::bfs_into(g, s, &mut levels);
        for &x in levels.visit_order() {
            if let Some(slot) = component_of.get_mut(x as usize) {
                *slot = c;
            }
        }
        lens.push(levels.visit_order().len());
    }
    (component_of, lens)
}

/// The two-front sweep over `G`'s CSR, the reference the
/// `dual_incidence` oracle holds Algorithm I's sweep to: each vertex's
/// `(side, boundary)`. A front expanding `w` claims `w`'s unclaimed
/// neighbours and marks `w` boundary if a neighbour belongs to the other
/// front; the components neither seed reaches go whole to the side with
/// fewer vertices, left on ties.
fn csr_sweep(g: &Graph, u: u32, v: u32, policy: FrontPolicy) -> Vec<(Side, bool)> {
    let mut owner: Vec<Option<Side>> = vec![None; g.num_vertices()];
    let mut boundary = vec![false; g.num_vertices()];
    let mut left = CsrFront::seeded(Side::Left, u, &mut owner);
    let mut right = CsrFront::seeded(Side::Right, v, &mut owner);
    let alternate = policy == FrontPolicy::Alternate;
    let mut round = 0usize;
    while !left.queue.is_empty() || !right.queue.is_empty() {
        let odd = round % 2 == 1;
        let right_first = if alternate {
            odd
        } else {
            right.claimed < left.claimed || (right.claimed == left.claimed && odd)
        };
        let (first, second) = if right_first {
            (&mut right, &mut left)
        } else {
            (&mut left, &mut right)
        };
        // smaller-first expands one front, then re-evaluates which is
        // smaller, unless a front ran dry
        let mut both = true;
        if !first.queue.is_empty() {
            first.expand(g, &mut owner, &mut boundary);
            both = alternate || first.queue.is_empty() || second.queue.is_empty();
        }
        if both && !second.queue.is_empty() {
            second.expand(g, &mut owner, &mut boundary);
        }
        round += 1;
    }
    let mut stack = Vec::new();
    for s in g.vertices() {
        if owner.get(s as usize).copied().flatten().is_some() {
            continue;
        }
        let front = if left.claimed <= right.claimed {
            &mut left
        } else {
            &mut right
        };
        front.claim(s, &mut owner);
        stack.push(s);
        while let Some(w) = stack.pop() {
            for &x in g.neighbors(w) {
                if owner.get(x as usize).copied().flatten().is_none() {
                    front.claim(x, &mut owner);
                    stack.push(x);
                }
            }
        }
    }
    owner
        .iter()
        .zip(&boundary)
        .map(|(o, &b)| (o.unwrap_or(Side::Left), b))
        .collect()
}

/// One front of [`csr_sweep`]: its side, the vertices it expands next,
/// and how many vertices it has claimed.
struct CsrFront {
    side: Side,
    queue: Vec<u32>,
    claimed: usize,
}

impl CsrFront {
    fn seeded(side: Side, seed: u32, owner: &mut [Option<Side>]) -> Self {
        let mut front = Self {
            side,
            queue: vec![seed],
            claimed: 0,
        };
        front.claim(seed, owner);
        front
    }

    fn claim(&mut self, x: u32, owner: &mut [Option<Side>]) {
        if let Some(o) = owner.get_mut(x as usize) {
            *o = Some(self.side);
        }
        self.claimed += 1;
    }

    /// Expands every queued vertex in order, queueing what it claims.
    fn expand(&mut self, g: &Graph, owner: &mut [Option<Side>], boundary: &mut [bool]) {
        let mut next = Vec::new();
        for w in std::mem::take(&mut self.queue) {
            for &x in g.neighbors(w) {
                match owner.get(x as usize).copied().flatten() {
                    None => {
                        self.claim(x, owner);
                        next.push(x);
                    }
                    Some(s) if s != self.side => {
                        if let Some(b) = boundary.get_mut(w as usize) {
                            *b = true;
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        self.queue = next;
    }
}

/// The boundary decomposition of a CSR sweep's labels: the boundary
/// G-vertices ascending, `G′` over their indices with `G`'s cross edges,
/// and the partial bipartition the other kept nets commit.
fn csr_decomposition(
    h: &Hypergraph,
    ig: &IntersectionGraph,
    labels: &[(Side, bool)],
) -> (Vec<u32>, Graph, Vec<Option<Side>>) {
    let g = ig.graph();
    let side_of = |x: u32| labels.get(x as usize).map(|l| l.0);
    let is_boundary = |x: u32| labels.get(x as usize).is_some_and(|l| l.1);
    let boundary: Vec<u32> = g.vertices().filter(|&x| is_boundary(x)).collect();
    let index = |x: u32| {
        boundary
            .binary_search(&x)
            .ok()
            .and_then(|i| u32::try_from(i).ok())
    };
    let cross: Vec<(u32, u32)> = g
        .edges()
        .filter(|&(a, b)| side_of(a) != side_of(b))
        .filter_map(|(a, b)| Some((index(a)?, index(b)?)))
        .collect();
    let gprime = Graph::from_edges(boundary.len(), cross);
    let mut partial = vec![None; h.num_vertices()];
    for x in g.vertices().filter(|&x| !is_boundary(x)) {
        for &p in h.pins(ig.edge_of(x)) {
            if let Some(slot) = partial.get_mut(p.index()) {
                *slot = side_of(x);
            }
        }
    }
    (boundary, gprime, partial)
}

/// Independent bipartiteness proof: BFS 2-coloring with no conflicts.
fn two_colorable(g: &Graph) -> bool {
    let n = g.num_vertices();
    let mut color: Vec<Option<bool>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for s in g.vertices() {
        if color.get(s as usize).copied().flatten().is_some() {
            continue;
        }
        if let Some(slot) = color.get_mut(s as usize) {
            *slot = Some(false);
        }
        queue.push_back(s);
        while let Some(x) = queue.pop_front() {
            let cx = color.get(x as usize).copied().flatten().unwrap_or(false);
            for &y in g.neighbors(x) {
                match color.get(y as usize).copied().flatten() {
                    None => {
                        if let Some(slot) = color.get_mut(y as usize) {
                            *slot = Some(!cx);
                        }
                        queue.push_back(y);
                    }
                    Some(cy) => {
                        if cy == cx {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

/// Thread invariance: the engine's outcome fingerprint — partition, cut,
/// per-start cuts, chosen start, contained errors — is identical at 1, 2
/// and 8 workers.
fn oracle_thread_invariance(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let mut fingerprints = Vec::new();
    for threads in INVARIANCE_THREADS {
        let config = PartitionConfig::new()
            .starts(6)
            .seed(ctx.seed)
            .threads(threads);
        match Algorithm1::new(config).run(h) {
            Ok(out) => fingerprints.push((threads, out.fingerprint())),
            Err(e) if is_benign(&e) => return Ok(0),
            Err(e) => return Err(ctx.fail(format!("alg1 at {threads} threads failed: {e}"))),
        }
    }
    let mut checks = 0;
    let mut it = fingerprints.iter();
    if let Some((t0, first)) = it.next() {
        for (t, fp) in it {
            checks += ctx.ensure(fp == first, || {
                format!("fingerprint at {t} threads differs from {t0} threads")
            })?;
        }
    }
    Ok(checks)
}

/// Starts of the multi-start run the `repeated_paths` oracle checks.
const REPEATED_PATHS_STARTS: usize = 6;

/// Path reuse: a start that draws an earlier start's longest path takes
/// that start's cut instead of sweeping. Start `i` of a run seeded with
/// `seed` draws from `SplitMix64::for_start(seed, i)`, which is the stream
/// of the only start of a 1-start run seeded with `seed ^ i` — a run with
/// no earlier start to reuse. So at 1, 2 and 8 workers every start's cut
/// must equal its own 1-start run's, and the winner's partition must equal
/// the partition of the winner's 1-start run.
fn oracle_repeated_paths(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let mut alone = Vec::with_capacity(REPEATED_PATHS_STARTS);
    for i in 0..REPEATED_PATHS_STARTS {
        let config = PartitionConfig::new().starts(1).seed(ctx.seed ^ i as u64);
        match Algorithm1::new(config).run(h) {
            Ok(out) => alone.push(out),
            Err(e) if is_benign(&e) => return Ok(0),
            Err(e) => return Err(ctx.fail(format!("1-start run of start {i} failed: {e}"))),
        }
    }
    let mut checks = 0;
    for threads in INVARIANCE_THREADS {
        let config = PartitionConfig::new()
            .starts(REPEATED_PATHS_STARTS)
            .seed(ctx.seed)
            .threads(threads);
        let out = match Algorithm1::new(config).run(h) {
            Ok(out) => out,
            Err(e) if is_benign(&e) => return Ok(0),
            Err(e) => return Err(ctx.fail(format!("alg1 at {threads} threads failed: {e}"))),
        };
        for (i, single) in alone.iter().enumerate() {
            let got = out.stats.per_start.get(i).and_then(|s| s.cut_size);
            let want = single.stats.per_start.first().and_then(|s| s.cut_size);
            checks += ctx.ensure(got == want, || {
                format!(
                    "start {i} at {threads} threads cut {got:?}, \
                     its own 1-start run (seed {}) cut {want:?}",
                    ctx.seed ^ i as u64
                )
            })?;
        }
        if let Some(chosen) = out.stats.chosen_start {
            let own = alone.get(chosen).map(|single| &single.bipartition);
            checks += ctx.ensure(own == Some(&out.bipartition), || {
                format!(
                    "winning start {chosen} at {threads} threads returned a partition \
                     its own 1-start run does not"
                )
            })?;
        }
    }
    Ok(checks)
}

/// [`Dualizer::build`] against the naive pair-spray builder at each
/// threshold: the same CSR, the same kept/filtered mapping for every
/// hyperedge, stats that balance (`pairs_generated = unique_edges +
/// duplicates_merged`), and the naive builder's pair count.
fn oracle_dualize_kernel(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let mut checks = 0;
    for threshold in [None, Some(3), Some(8)] {
        let naive = IntersectionGraph::build_naive_with_threshold(h, threshold);
        let built = Dualizer::new()
            .threshold(threshold)
            .build(h)
            .map_err(|e| ctx.fail(format!("dualizer failed: {e}")))?;
        checks += ctx.ensure(built.graph() == naive.graph(), || {
            format!("graph (threshold {threshold:?}) differs from the naive builder")
        })?;
        for e in h.edges() {
            checks += ctx.ensure(built.g_vertex_of(e) == naive.g_vertex_of(e), || {
                format!("kept/filtered mapping of {e} (threshold {threshold:?}) differs")
            })?;
        }
        let s = built.stats();
        checks += ctx.ensure(
            s.pairs_generated == s.unique_edges + s.duplicates_merged,
            || format!("stats (threshold {threshold:?}) do not balance: {s:?}"),
        )?;
        checks += ctx.ensure(s.pairs_generated == naive.stats().pairs_generated, || {
            format!(
                "{} pairs generated (threshold {threshold:?}), the naive builder {}",
                s.pairs_generated,
                naive.stats().pairs_generated
            )
        })?;
    }
    Ok(checks)
}

/// The incremental move engine against ground truth: predicted gains
/// must match realized cut deltas, and the engine's internal state must
/// reconcile with a from-scratch recount after a random walk of flips.
fn oracle_move_state(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    if h.num_vertices() == 0 {
        return Ok(0);
    }
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x6d76_7374);
    let bp = random_balanced_start(h, &mut rng);
    let mut st = MoveState::new(h, bp);
    let mut checks = 0;
    for _ in 0..h.num_vertices().min(32) {
        let v = fhp_hypergraph::VertexId::new(rng.gen_range(0..h.num_vertices()));
        let gain = st.gain(v);
        let before = st.cut() as i64;
        st.apply_flip(v);
        checks += ctx.ensure(st.cut() as i64 == before - gain, || {
            format!(
                "flip of {v}: predicted gain {gain} but cut went {before} -> {}",
                st.cut()
            )
        })?;
    }
    st.verify().map_err(|e| ctx.fail(e.to_string()))?;
    checks += 1;
    checks += ctx.ensure(
        st.cut() == recompute_weighted_cut(h, st.partition()),
        || {
            format!(
                "move engine cut {} but independent recount {}",
                st.cut(),
                recompute_weighted_cut(h, st.partition())
            )
        },
    )?;
    Ok(checks)
}

/// k-way invariants: every module in exactly one block, blocks
/// near-balanced, the recomputed k-way cut and connectivity consistent,
/// and the whole decomposition thread-invariant.
fn oracle_multiway(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let mut checks = 0;
    for k in [3usize, 4] {
        if k > h.num_vertices() {
            continue;
        }
        let mut first: Option<Vec<u32>> = None;
        for threads in INVARIANCE_THREADS {
            let seed = ctx.seed;
            let mp = recursive_bisection(h, k, |region| {
                Box::new(Algorithm1::new(
                    PartitionConfig::new()
                        .starts(4)
                        .seed(seed ^ region)
                        .threads(threads),
                ))
            })
            .map_err(|e| ctx.fail(format!("recursive_bisection k={k} failed: {e}")))?;

            checks += check_multipartition(ctx, h, k, &mp)?;

            let labels: Vec<u32> = h.vertices().map(|v| mp.block_of(v)).collect();
            match &first {
                None => first = Some(labels),
                Some(expected) => {
                    checks += ctx.ensure(&labels == expected, || {
                        format!("k={k} decomposition at {threads} threads differs from 1 thread")
                    })?;
                }
            }
        }
    }
    Ok(checks)
}

/// The k-way structural checks shared by the oracle and the dedicated
/// multiway test suite.
pub fn check_multipartition(
    ctx_or_h: impl MultiwayCtx,
    h: &Hypergraph,
    k: usize,
    mp: &fhp_core::multiway::Multipartition,
) -> Result<u64, Violation> {
    let fail = |detail: String| ctx_or_h.violation(detail);
    let mut checks = 0;
    if mp.len() != h.num_vertices() {
        return Err(fail(format!(
            "multipartition covers {} of {} modules",
            mp.len(),
            h.num_vertices()
        )));
    }
    checks += 1;
    if mp.num_blocks() != k {
        return Err(fail(format!("asked for k={k}, got {}", mp.num_blocks())));
    }
    checks += 1;
    // every module placed exactly once, every label in range
    let sizes = mp.block_sizes();
    if sizes.iter().sum::<usize>() != h.num_vertices() {
        return Err(fail("block sizes do not sum to the module count".into()));
    }
    checks += 1;
    // per-part balance: each level of the recursion rounds up at most
    // once, so tolerate log2(k) + 2 slack over the ideal.
    let ideal = h.num_vertices() as f64 / k as f64;
    for (b, &s) in sizes.iter().enumerate() {
        if s == 0 {
            return Err(fail(format!("block {b} is empty")));
        }
        if (s as f64) > ideal + (k as f64).log2() + 2.0 {
            return Err(fail(format!(
                "block {b} holds {s} modules vs ideal {ideal:.1}"
            )));
        }
        checks += 2;
    }
    // recomputed k-way cut: nets spanning more than one block
    let recut = h
        .edges()
        .filter(|&e| {
            let mut blocks: Vec<u32> = h.pins(e).iter().map(|&p| mp.block_of(p)).collect();
            blocks.sort_unstable();
            blocks.dedup();
            blocks.len() > 1
        })
        .count();
    if recut != mp.cut_size(h) {
        return Err(fail(format!(
            "reported k-way cut {} but recount is {recut}",
            mp.cut_size(h)
        )));
    }
    checks += 1;
    // connectivity λ−1 sum dominates the cut count
    if mp.connectivity(h) < mp.cut_size(h) as u64 {
        return Err(fail(format!(
            "connectivity {} below cut count {}",
            mp.connectivity(h),
            mp.cut_size(h)
        )));
    }
    checks += 1;
    Ok(checks)
}

/// Source of a multiway violation: either a full oracle context or a bare
/// oracle name (for the dedicated test suite).
pub trait MultiwayCtx {
    /// Wraps a failure detail in a [`Violation`].
    fn violation(&self, detail: String) -> Violation;
}

impl MultiwayCtx for &Ctx<'_> {
    fn violation(&self, detail: String) -> Violation {
        self.fail(detail)
    }
}

impl MultiwayCtx for &'static str {
    fn violation(&self, detail: String) -> Violation {
        Violation {
            oracle: self,
            detail,
        }
    }
}

/// Multilevel V-cycle invariants, re-derived from scratch:
///
/// - the returned outcome's report survives [`check_outcome_consistency`];
/// - the multilevel cut never exceeds the flat Algorithm I cut at the
///   same seed and start count (the engine's flat guard makes this a
///   construction guarantee, not a heuristic hope — and the recorded
///   `flat_cut` must match our own flat run);
/// - every level's recorded cut matches a pin-by-pin recount of that
///   level's partition on an *independently reconstructed* coarsening
///   sequence ([`coarsen_sequence`] is deterministic);
/// - per-cycle cuts never increase (the keep-if-strictly-better rule);
/// - the final partition is a valid cut and, when the V-cycle's own
///   partition was returned, its weight imbalance stays inside the
///   refiner's balance envelope: `max(2·cap, 2·heaviest, imbalance of
///   the refined coarsest partition)`.
fn oracle_multilevel(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let ml = MultilevelConfig::new().max_coarse_size(12).vcycles(2);
    let base = PartitionConfig::new()
        .starts(6)
        .seed(ctx.seed)
        .threads(ctx.threads);
    let flat_out = match Algorithm1::new(base).run(h) {
        Ok(o) => o,
        Err(e) if is_benign(&e) => return Ok(0),
        Err(e) => return Err(ctx.fail(format!("flat alg1 failed: {e}"))),
    };
    let out = match Algorithm1::new(base.multilevel(Some(ml))).run(h) {
        Ok(o) => o,
        Err(e) if is_benign(&e) => return Ok(0),
        Err(e) => return Err(ctx.fail(format!("multilevel alg1 failed: {e}"))),
    };
    let mut checks = check_outcome_consistency(h, &out).map_err(|v| ctx.fail(v.detail))?;
    checks += ctx.ensure(out.bipartition.is_valid_cut(), || {
        "multilevel returned a one-sided assignment".to_string()
    })?;
    checks += ctx.ensure(out.report.cut_size <= flat_out.report.cut_size, || {
        format!(
            "multilevel cut {} exceeds the flat cut {} at the same seed",
            out.report.cut_size, flat_out.report.cut_size
        )
    })?;

    let Some(stats) = out.stats.multilevel.as_ref() else {
        return Err(
            ctx.fail("multilevel mode ran but the outcome carries no MultilevelStats".to_string())
        );
    };
    checks += ctx.ensure(stats.flat_cut == flat_out.report.cut_size, || {
        format!(
            "recorded flat guard cut {} differs from our flat run's {}",
            stats.flat_cut, flat_out.report.cut_size
        )
    })?;

    // Reconstruct the first cycle's coarsening sequence independently and
    // recount every recorded level cut on it.
    let levels = match coarsen_sequence(h, &ml) {
        Ok(l) => l,
        Err(e) => return Err(ctx.fail(format!("coarsen_sequence failed: {e}"))),
    };
    checks += ctx.ensure(stats.levels == levels.len(), || {
        format!(
            "engine built {} levels, independent coarsening builds {}",
            stats.levels,
            levels.len()
        )
    })?;
    let mut chain: Vec<&Hypergraph> = vec![h];
    chain.extend(levels.iter().map(|c| c.coarse()));
    let sizes: Vec<usize> = chain.iter().map(|g| g.num_vertices()).collect();
    checks += ctx.ensure(stats.level_sizes == sizes, || {
        format!(
            "recorded level sizes {:?} differ from reconstruction {sizes:?}",
            stats.level_sizes
        )
    })?;
    checks += ctx.ensure(
        stats.level_partitions.len() == chain.len() && stats.level_cuts.len() == chain.len(),
        || {
            format!(
                "expected {} per-level partitions/cuts, found {}/{}",
                chain.len(),
                stats.level_partitions.len(),
                stats.level_cuts.len()
            )
        },
    )?;
    // level_partitions runs coarsest -> finest; chain runs finest -> coarsest
    for (j, (bp, &recorded)) in stats
        .level_partitions
        .iter()
        .zip(stats.level_cuts.iter())
        .enumerate()
    {
        let Some(&level_h) = chain.get(chain.len() - 1 - j) else {
            return Err(ctx.fail(format!("level {j} has no reconstructed hypergraph")));
        };
        checks += ctx.ensure(bp.len() == level_h.num_vertices(), || {
            format!(
                "level {j} partition covers {} of {} vertices",
                bp.len(),
                level_h.num_vertices()
            )
        })?;
        let recount = recompute_cut(level_h, bp);
        checks += ctx.ensure(recount == recorded, || {
            format!("level {j} recorded cut {recorded} but pin-by-pin recount is {recount}")
        })?;
    }
    checks += ctx.ensure(
        Some(&stats.coarsest_cut) == stats.level_cuts.first(),
        || {
            format!(
                "coarsest_cut {} disagrees with level_cuts.first() {:?}",
                stats.coarsest_cut,
                stats.level_cuts.first()
            )
        },
    )?;
    checks += ctx.ensure(stats.cycle_cuts.first() == stats.level_cuts.last(), || {
        format!(
            "first cycle cut {:?} disagrees with the finest level cut {:?}",
            stats.cycle_cuts.first(),
            stats.level_cuts.last()
        )
    })?;
    let cycles_monotone = stats
        .cycle_cuts
        .iter()
        .zip(stats.cycle_cuts.iter().skip(1))
        .all(|(a, b)| b <= a);
    checks += ctx.ensure(cycles_monotone, || {
        format!("per-cycle cuts regressed: {:?}", stats.cycle_cuts)
    })?;
    let last_cycle = stats.cycle_cuts.last().copied().unwrap_or(usize::MAX);
    if stats.used_flat_guard {
        checks += ctx.ensure(out.report.cut_size <= last_cycle, || {
            format!(
                "flat guard fired but returned cut {} is worse than the V-cycle's {last_cycle}",
                out.report.cut_size
            )
        })?;
    } else {
        checks += ctx.ensure(out.report.cut_size == last_cycle, || {
            format!(
                "returned cut {} differs from the last cycle's {last_cycle}",
                out.report.cut_size
            )
        })?;
        // Balance envelope: every refinement ran at a tolerance of at most
        // max(2·cap, 2·heaviest) widened by its start imbalance, and
        // projection preserves side weights, so the final imbalance cannot
        // exceed the envelope seeded by the refined coarsest partition.
        let heaviest = h.vertices().map(|v| h.vertex_weight(v)).max().unwrap_or(1);
        let Some((coarsest_bp, &coarsest_h)) = stats.level_partitions.first().zip(chain.last())
        else {
            return Err(ctx.fail("no coarsest level to check balance against".to_string()));
        };
        let seed_imbalance = imbalance_slow(coarsest_h, coarsest_bp);
        let envelope = (2 * coarsen_cap(h, &ml))
            .max(2 * heaviest)
            .max(seed_imbalance);
        let final_imbalance = imbalance_slow(h, &out.bipartition);
        checks += ctx.ensure(final_imbalance <= envelope, || {
            format!(
                "final weight imbalance {final_imbalance} escapes the refiner's \
                 balance envelope {envelope}"
            )
        })?;
    }
    Ok(checks)
}

/// Seeded edit scripts the incremental oracle replays per instance.
pub const INCREMENTAL_SCRIPTS: usize = 2;

/// Edits per generated script.
pub const INCREMENTAL_SCRIPT_LEN: usize = 12;

/// Thread counts the incremental oracle's engine pair runs at; the whole
/// edit history must fingerprint identically on both.
pub const INCREMENTAL_ENGINE_THREADS: [usize; 2] = [1, 8];

/// Replay-eval budget for minimizing a diverging edit script.
const INCREMENTAL_SHRINK_EVALS: usize = 64;

/// The incremental-vs-scratch differential: seeded edit scripts are
/// replayed through [`PartitionEngine`]s at two thread counts, and after
/// **every** edit the engine's view is diffed against a from-scratch
/// rebuild — every live module's incident nets against the materialized
/// netlist's pins, the maintained cut against a pin-by-pin recount,
/// the maintained fingerprint sum and balance against
/// [`PartitionEngine::verify_state`] (after rejected edits too), the
/// fingerprints across thread counts, and rejected edits against
/// identical rejections. On divergence the script itself is greedily
/// minimized (drop-one-edit passes under a replay budget) and embedded in
/// the violation, so reproductions carry both the shrunk instance and the
/// shrunk edit history.
fn oracle_incremental(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let mut checks = 0;
    for script_index in 0..INCREMENTAL_SCRIPTS {
        let mut rng = SplitMix64::seed_from_u64(
            ctx.seed ^ 0x696e_6372u64 ^ (script_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let script = generate_edit_script(h, INCREMENTAL_SCRIPT_LEN, &mut rng);
        match replay_edit_script(h, ctx.seed, &script) {
            Ok(c) => checks += c,
            Err(detail) => {
                let minimized = minimize_edit_script(h, ctx.seed, script);
                return Err(ctx.fail(format!(
                    "incremental vs scratch diverged: {detail}; minimized script \
                     ({} edits): {minimized:?}",
                    minimized.len()
                )));
            }
        }
    }
    Ok(checks)
}

fn sample_distinct(items: &[u32], k: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut picked = Vec::new();
    let mut tries = 0;
    while picked.len() < k && tries < 32 {
        tries += 1;
        // fhp-audit: allow(panic-site) — gen_range is bounded by the slice length, checked non-empty
        let x = items[rng.gen_range(0..items.len())];
        if !picked.contains(&x) {
            picked.push(x);
        }
    }
    picked
}

/// Applies an edit to the generation replica (plain [`DynamicNetlist`],
/// no partition machinery), so scripts stay structurally valid.
fn apply_to_replica(nl: &mut DynamicNetlist, edit: &Edit) -> Result<(), String> {
    let r = match edit {
        Edit::AddNet { pins, weight } => nl.add_net(pins, *weight).map(|_| ()),
        Edit::RemoveNet { net } => nl.remove_net(*net),
        Edit::AddModule { weight } => nl.add_module(*weight).map(|_| ()),
        Edit::RemoveModule { module } => nl.remove_module(*module),
        Edit::ReweightModule { module, weight } => nl.reweight_module(*module, *weight),
        Edit::PinChange { net, module, add } => nl.pin_change(*net, *module, *add),
    };
    r.map_err(|e| e.to_string())
}

/// Generates a seeded, mostly-valid edit script against a replica of the
/// instance. Roughly one edit in eight is an intentionally invalid
/// request (a dead net id), pinning that both engines reject identically.
fn generate_edit_script(h: &Hypergraph, len: usize, rng: &mut SplitMix64) -> Vec<Edit> {
    let Ok(mut replica) = DynamicNetlist::from_hypergraph(h);
    let mut script = Vec::with_capacity(len);
    let mut guard = 0;
    while script.len() < len && guard < len * 24 {
        guard += 1;
        if rng.gen_bool(0.125) {
            script.push(Edit::RemoveNet {
                // fhp-audit: allow(as-cast-truncation) — slot counts fit u32 by the stable-id representation
                net: replica.net_slots() as u32 + 7,
            });
            continue;
        }
        let modules: Vec<u32> = replica.live_modules().collect();
        let nets: Vec<u32> = replica.live_nets().collect();
        let edit = match rng.gen_range(0u32..6) {
            0 if !modules.is_empty() => {
                let want = rng.gen_range(2usize..=4).min(modules.len());
                let pins = sample_distinct(&modules, want, rng);
                Some(Edit::AddNet {
                    pins,
                    weight: rng.gen_range(1u64..=3),
                })
            }
            1 if !nets.is_empty() => Some(Edit::RemoveNet {
                // fhp-audit: allow(panic-site) — gen_range is bounded by the slice length, checked non-empty
                net: nets[rng.gen_range(0..nets.len())],
            }),
            2 => Some(Edit::AddModule {
                weight: rng.gen_range(1u64..=3),
            }),
            3 => {
                let isolated: Vec<u32> = modules
                    .iter()
                    .copied()
                    .filter(|&m| replica.incident_nets(m).is_some_and(<[u32]>::is_empty))
                    .collect();
                if isolated.is_empty() {
                    None
                } else {
                    Some(Edit::RemoveModule {
                        // fhp-audit: allow(panic-site) — gen_range is bounded by the slice length, checked non-empty
                        module: isolated[rng.gen_range(0..isolated.len())],
                    })
                }
            }
            4 if !modules.is_empty() => Some(Edit::ReweightModule {
                // fhp-audit: allow(panic-site) — gen_range is bounded by the slice length, checked non-empty
                module: modules[rng.gen_range(0..modules.len())],
                weight: rng.gen_range(1u64..=5),
            }),
            5 if !nets.is_empty() => {
                // fhp-audit: allow(panic-site) — gen_range is bounded by the slice length, checked non-empty
                let net = nets[rng.gen_range(0..nets.len())];
                let pins = replica.net_pins(net).unwrap_or(&[]).to_vec();
                if rng.gen_bool(0.5) {
                    let spare: Vec<u32> = modules
                        .iter()
                        .copied()
                        .filter(|m| !pins.contains(m))
                        .collect();
                    if spare.is_empty() {
                        None
                    } else {
                        Some(Edit::PinChange {
                            net,
                            // fhp-audit: allow(panic-site) — gen_range is bounded by the slice length, checked non-empty
                            module: spare[rng.gen_range(0..spare.len())],
                            add: true,
                        })
                    }
                } else if pins.len() >= 2 {
                    Some(Edit::PinChange {
                        net,
                        // fhp-audit: allow(panic-site) — gen_range is bounded by the slice length, checked non-empty
                        module: pins[rng.gen_range(0..pins.len())],
                        add: false,
                    })
                } else {
                    None
                }
            }
            _ => None,
        };
        let Some(edit) = edit else { continue };
        if apply_to_replica(&mut replica, &edit).is_err() {
            continue;
        }
        script.push(edit);
    }
    script
}

/// Diffs the netlist's maintained module → net incidence against the
/// materialized hypergraph, whose incidence the builder derives from the
/// pin lists alone: every live module's `incident_nets` must equal its
/// `edges_of`, mapped back to stable net ids.
fn incidence_matches_pins(
    nl: &DynamicNetlist,
    mat: &Hypergraph,
    module_ids: &[u32],
    net_ids: &[u32],
) -> Result<u64, String> {
    let mut checks = 0;
    for (v, &module) in mat.vertices().zip(module_ids) {
        let expected: Vec<u32> = mat
            .edges_of(v)
            .iter()
            // fhp-audit: allow(panic-site) — materialize returns one stable id per compact net
            .map(|e| net_ids[e.index()])
            .collect();
        let got = nl
            .incident_nets(module)
            .ok_or_else(|| format!("netlist has no incidence for live module {module}"))?;
        if got != expected.as_slice() {
            return Err(format!(
                "incidence of module {module} diverges: netlist {got:?}, pins {expected:?}"
            ));
        }
        checks += 1;
    }
    Ok(checks)
}

/// Replays one edit script through engines at [`INCREMENTAL_ENGINE_THREADS`]
/// and diffs engine state against scratch rebuilds after every edit.
/// Returns the check count, or a divergence description.
fn replay_edit_script(h: &Hypergraph, seed: u64, script: &[Edit]) -> Result<u64, String> {
    let mut engines = Vec::new();
    for threads in INCREMENTAL_ENGINE_THREADS {
        let config = EngineConfig::new()
            .partition(PartitionConfig::new().starts(4).seed(seed).threads(threads));
        let mut engine = PartitionEngine::new(config);
        engine
            .load(h)
            .map_err(|e| format!("engine load at {threads} threads failed: {e}"))?;
        engines.push(engine);
    }
    let mut checks = 0;
    // fhp-audit: allow(panic-site) — engines holds one entry per thread count, at least one
    if engines[1..]
        // fhp-audit: allow(panic-site) — engines holds one entry per thread count, at least one
        .iter()
        // fhp-audit: allow(panic-site) — engines holds one entry per thread count, at least one
        .any(|e| e.fingerprint() != engines[0].fingerprint())
    {
        return Err("initial load fingerprints differ across thread counts".to_string());
    }
    checks += 1;
    for engine in &engines {
        engine
            .verify_state()
            .map_err(|e| format!("maintained state after load diverged: {e}"))?;
        checks += 1;
    }
    for (i, edit) in script.iter().enumerate() {
        let results: Vec<Result<fhp_core::Delta, EngineError>> =
            engines.iter_mut().map(|e| e.apply(edit)).collect();
        // fhp-audit: allow(panic-site) — one result per engine, at least one
        if results[1..].iter().any(|r| r != &results[0]) {
            return Err(format!(
                "edit {i} ({edit:?}): outcomes differ across thread counts: {results:?}"
            ));
        }
        checks += 1;
        // Accepted or rejected, the maintained fingerprint sum and
        // balance must equal their recomputation.
        for engine in &engines {
            engine
                .verify_state()
                .map_err(|e| format!("edit {i} ({edit:?}): maintained state diverged: {e}"))?;
            checks += 1;
        }
        // fhp-audit: allow(panic-site) — engines holds one entry per thread count, at least one
        let engine = &engines[0];
        // fhp-audit: allow(panic-site) — one result per engine, at least one
        match &results[0] {
            Err(_) => {
                // A rejected edit must leave every engine's state
                // untouched — fingerprints still agree below.
            }
            Ok(delta) => {
                if delta.fingerprint != engine.fingerprint() {
                    return Err(format!(
                        "edit {i} ({edit:?}): delta fingerprint {} but engine reports {}",
                        delta.fingerprint,
                        engine.fingerprint()
                    ));
                }
                checks += 1;
                let Some(nl) = engine.netlist() else {
                    return Err(format!("edit {i}: engine lost its netlist"));
                };
                let Some((mat, module_ids, net_ids)) = engine.materialize() else {
                    return Err(format!("edit {i}: engine cannot materialize"));
                };
                let bp = Bipartition::from_fn(mat.num_vertices(), |v| {
                    // fhp-audit: allow(panic-site) — materialize returns one stable id per compact vertex
                    engine.side_of(module_ids[v.index()]).unwrap_or(Side::Left)
                });
                let recount = recompute_weighted_cut(&mat, &bp);
                if recount != delta.cut_after || recount != engine.cut() {
                    return Err(format!(
                        "edit {i} ({edit:?}): engine cut {} / delta {} but scratch recount {recount}",
                        engine.cut(),
                        delta.cut_after
                    ));
                }
                checks += 1;
                checks += incidence_matches_pins(nl, &mat, &module_ids, &net_ids)
                    .map_err(|e| format!("edit {i} ({edit:?}): {e}"))?;
            }
        }
        // fhp-audit: allow(panic-site) — engines holds one entry per thread count, at least one
        if engines[1..]
            // fhp-audit: allow(panic-site) — engines holds one entry per thread count, at least one
            .iter()
            // fhp-audit: allow(panic-site) — engines holds one entry per thread count, at least one
            .any(|e| e.fingerprint() != engines[0].fingerprint())
        {
            return Err(format!(
                "edit {i} ({edit:?}): fingerprints drifted across thread counts"
            ));
        }
        checks += 1;
    }
    Ok(checks)
}

/// Greedy drop-one-edit minimization of a diverging script, under a
/// replay budget. The divergence need not stay the *same* failure — any
/// failing subsequence is a smaller reproduction.
fn minimize_edit_script(h: &Hypergraph, seed: u64, script: Vec<Edit>) -> Vec<Edit> {
    let mut current = script;
    let mut evals = 0;
    let mut progressed = true;
    while progressed && evals < INCREMENTAL_SHRINK_EVALS {
        progressed = false;
        let mut i = 0;
        while i < current.len() && evals < INCREMENTAL_SHRINK_EVALS {
            let mut candidate = current.clone();
            candidate.remove(i);
            evals += 1;
            if replay_edit_script(h, seed, &candidate).is_err() {
                current = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
    }
    current
}

/// Independent weight-imbalance recount (shares no code with
/// `fhp_core::metrics`).
fn imbalance_slow(h: &Hypergraph, bp: &Bipartition) -> u64 {
    let left = bp.weight_on(h, Side::Left);
    let right = bp.weight_on(h, Side::Right);
    left.abs_diff(right)
}

/// `.hgr` round-trip: writing and re-parsing the instance reproduces it
/// exactly, and parsing byte-corrupted variants returns errors rather
/// than panicking.
fn oracle_hgr_roundtrip(ctx: &Ctx<'_>) -> Result<u64, Violation> {
    let h = ctx.h;
    let text = hgr::write_hgr(h);
    let mut checks = 0;
    match hgr::parse_hgr(&text) {
        Ok(parsed) => {
            checks += ctx.ensure(&parsed == h, || {
                "write_hgr -> parse_hgr round trip changed the hypergraph".to_string()
            })?;
        }
        Err(e) => {
            return Err(ctx.fail(format!("write_hgr produced unparseable text: {e}")));
        }
    }
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x6867_7221);
    for _ in 0..4 {
        let mutated = crate::gen::mutate_hgr(&text, &mut rng);
        checks += check_parse_never_panics(ctx.oracle, &mutated)?;
    }
    Ok(checks)
}

/// Runs the parser on hostile bytes inside `catch_unwind`; a panic is a
/// violation, any `Ok`/`Err` result is a pass.
pub fn check_parse_never_panics(oracle: &'static str, text: &str) -> Result<u64, Violation> {
    let outcome = std::panic::catch_unwind(|| match hgr::parse_hgr(text) {
        Ok(h) => (true, h.num_vertices(), h.num_edges()),
        Err(_) => (false, 0, 0),
    });
    match outcome {
        Ok(_) => Ok(1),
        Err(_) => Err(Violation {
            oracle,
            detail: format!("parse_hgr panicked on a {}-byte mutated input", text.len()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhp_hypergraph::intersection::paper_example;

    fn counts() -> OracleCounts {
        OracleCounts::new()
    }

    #[test]
    fn paper_example_passes_every_oracle() {
        let h = paper_example();
        let mut c = counts();
        let out = check_instance(&h, 1, 1, &mut c);
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.checks > 50, "only {} checks ran", out.checks);
        // every oracle contributed
        for name in [
            "differential",
            "dual_incidence",
            "pipeline_stages",
            "thread_invariance",
            "repeated_paths",
            "dualize_kernel",
            "move_state",
            "multiway",
            "multilevel",
            "hgr_roundtrip",
            "incremental",
        ] {
            assert!(c.get(name).copied().unwrap_or(0) > 0, "oracle {name} idle");
        }
    }

    #[test]
    fn recompute_cut_matches_metrics_on_random_partitions() {
        use fhp_core::metrics;
        let h = paper_example();
        let mut rng = SplitMix64::seed_from_u64(9);
        for _ in 0..20 {
            let bp = Bipartition::from_fn(h.num_vertices(), |_| {
                if rng.gen_bool(0.5) {
                    Side::Left
                } else {
                    Side::Right
                }
            });
            assert_eq!(recompute_cut(&h, &bp), metrics::cut_size(&h, &bp));
            assert_eq!(
                recompute_weighted_cut(&h, &bp),
                metrics::weighted_cut(&h, &bp)
            );
        }
    }

    #[test]
    fn consistency_oracle_catches_a_tampered_outcome() {
        let h = paper_example();
        let mut out = Algorithm1::new(PartitionConfig::new().starts(4))
            .run(&h)
            .expect("paper example partitions");
        assert!(check_outcome_consistency(&h, &out).is_ok());
        // tamper: flip one module without updating the report
        out.bipartition.flip(fhp_hypergraph::VertexId::new(0));
        let err = check_outcome_consistency(&h, &out).expect_err("tamper must be caught");
        assert_eq!(err.oracle, "report_consistency");
    }

    #[test]
    fn edit_scripts_are_seed_deterministic_and_replay_clean() {
        let h = paper_example();
        let mut rng_a = SplitMix64::seed_from_u64(77);
        let mut rng_b = SplitMix64::seed_from_u64(77);
        let a = generate_edit_script(&h, INCREMENTAL_SCRIPT_LEN, &mut rng_a);
        let b = generate_edit_script(&h, INCREMENTAL_SCRIPT_LEN, &mut rng_b);
        assert_eq!(a, b, "same seed must yield the same script");
        assert!(!a.is_empty());
        let checks = replay_edit_script(&h, 77, &a).expect("replay stays consistent");
        assert!(checks > a.len() as u64);
    }

    #[test]
    fn two_colorable_rejects_odd_cycles() {
        let triangle = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert!(!two_colorable(&triangle));
        let square = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(two_colorable(&square));
        assert!(two_colorable(&Graph::empty(0)));
    }
}
