//! Property battery for the coarsening layer: contraction followed by
//! projection must preserve the weighted cut *exactly*, and contraction
//! must never grow the hypergraph. Instances come from all seven
//! `fhp-verify` generator families plus proptest-driven seeds, so the
//! multilevel engine's foundation is pinned on the same distribution the
//! oracle harness fuzzes.
//!
//! The cut recount here is local to this file on purpose — it shares no
//! code with `fhp_core::metrics` or the engine under test.

use std::collections::BTreeMap;

use fhp_hypergraph::contract::{heavy_pair_clustering, heavy_pair_clustering_within, Contraction};
use fhp_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};
use fhp_verify::gen::Family;
use proptest::prelude::*;

/// Ground-truth weighted cut of a boolean side labelling, recounted pin
/// by pin.
fn weighted_cut(h: &Hypergraph, side: &[bool]) -> u64 {
    h.edges()
        .filter(|&e| {
            let mut left = false;
            let mut right = false;
            for &p in h.pins(e) {
                match side.get(p.index()) {
                    Some(true) => left = true,
                    _ => right = true,
                }
            }
            left && right
        })
        .map(|e| h.edge_weight(e))
        .sum()
}

/// A deterministic pseudo-random side labelling for `n` vertices.
fn labelling(n: usize, seed: u64) -> Vec<bool> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 63) == 1
        })
        .collect()
}

/// The shared per-instance battery: contract at a cap, then check
/// monotonicity and exact weighted-cut preservation under projection for
/// several independent coarse labellings.
fn check_contraction(h: &Hypergraph, cap: u64, seed: u64) {
    let clusters = heavy_pair_clustering(h, cap);
    let c = Contraction::try_contract(h, &clusters).expect("dense cluster map");
    let coarse = c.coarse();

    // contraction never grows the hypergraph, and conserves vertex weight
    assert!(coarse.num_vertices() <= h.num_vertices(), "cap {cap}");
    assert!(coarse.num_edges() <= h.num_edges(), "cap {cap}");
    assert_eq!(coarse.total_vertex_weight(), h.total_vertex_weight());
    assert_eq!(c.projection_map().len(), h.num_vertices());

    // projection preserves the weighted cut exactly, whatever the coarse
    // labelling (parallel coarse edges merge, so only the *weighted*
    // count is invariant — the unweighted one legitimately shrinks)
    for round in 0..4u64 {
        let coarse_side = labelling(coarse.num_vertices(), seed ^ round);
        let fine_side = c.project(&coarse_side);
        assert_eq!(
            weighted_cut(coarse, &coarse_side),
            weighted_cut(h, &fine_side),
            "cap {cap} round {round}"
        );
    }
}

/// Partition-respecting clustering never merges across groups, so group
/// labels survive contraction verbatim — the invariant V-cycles 2+ rely
/// on to re-coarsen without disturbing the incumbent partition.
fn check_respecting(h: &Hypergraph, cap: u64, seed: u64) {
    let groups: Vec<u32> = labelling(h.num_vertices(), seed)
        .into_iter()
        .map(u32::from)
        .collect();
    let clusters = heavy_pair_clustering_within(h, cap, &groups);
    let c = Contraction::try_contract(h, &clusters).expect("dense cluster map");
    let mut coarse_group: Vec<Option<u32>> = vec![None; c.coarse().num_vertices()];
    for (v, &cl) in c.projection_map().iter().enumerate() {
        let g = groups[v];
        match coarse_group[cl as usize] {
            None => coarse_group[cl as usize] = Some(g),
            Some(existing) => assert_eq!(
                existing, g,
                "cluster {cl} mixes groups {existing} and {g} (cap {cap})"
            ),
        }
    }
    // the projected group labelling preserves the weighted "group cut" too
    let coarse_side: Vec<bool> = coarse_group.iter().map(|g| g == &Some(1)).collect();
    let fine_side: Vec<bool> = groups.iter().map(|&g| g == 1).collect();
    assert_eq!(
        weighted_cut(c.coarse(), &coarse_side),
        weighted_cut(h, &fine_side)
    );
}

fn family_cap(h: &Hypergraph, divisor: u64) -> u64 {
    (h.total_vertex_weight() / divisor.max(1)).max(2)
}

#[test]
fn every_family_preserves_cut_under_projection() {
    for family in Family::ALL {
        for index in 0..3u64 {
            let inst = match family.generate(42, index) {
                Ok(i) => i,
                Err(e) => panic!("{family:?} instance {index} failed to generate: {e}"),
            };
            let h = &inst.hypergraph;
            if h.num_vertices() < 2 {
                continue;
            }
            for divisor in [4, 12, 60] {
                check_contraction(h, family_cap(h, divisor), 42 ^ index);
                check_respecting(h, family_cap(h, divisor), 42 ^ index);
            }
        }
    }
}

#[test]
fn iterated_contraction_is_monotone_down_to_the_stop_size() {
    // the exact loop shape the multilevel engine runs: contract until the
    // size stalls, checking monotone vertex/edge counts at every level
    for family in [Family::Circuit, Family::Hub, Family::Grid] {
        let inst = family.generate(7, 0).expect("instance");
        let mut current = inst.hypergraph.clone();
        let cap = family_cap(&current, 16);
        let mut sizes = vec![current.num_vertices()];
        loop {
            let clusters = heavy_pair_clustering(&current, cap);
            let c = Contraction::try_contract(&current, &clusters).expect("dense");
            let next = c.coarse().clone();
            assert!(next.num_vertices() <= current.num_vertices());
            assert!(next.num_edges() <= current.num_edges());
            if next.num_vertices() >= current.num_vertices() || next.num_vertices() <= 16 {
                break;
            }
            sizes.push(next.num_vertices());
            current = next;
        }
        assert!(
            sizes.windows(2).all(|w| w[1] < w[0]),
            "{family:?}: {sizes:?}"
        );
    }
}

/// The greedy matching as a map from partner to summed rating: the
/// reference the dense-array match must reproduce exactly. `group_of`
/// restricts pairs as `heavy_pair_clustering_within` does.
fn map_clustering(h: &Hypergraph, max_cluster_weight: u64, group_of: Option<&[u32]>) -> Vec<u32> {
    const UNMATCHED: u32 = u32::MAX;
    let can_pair = |v: VertexId, u: VertexId| {
        group_of.is_none_or(|g| g.get(v.index()).is_some() && g.get(v.index()) == g.get(u.index()))
    };
    let mut cluster_of = vec![UNMATCHED; h.num_vertices()];
    let mut next = 0u32;
    let mut affinity: BTreeMap<VertexId, f64> = BTreeMap::new();
    for v in h.vertices() {
        if cluster_of[v.index()] != UNMATCHED {
            continue;
        }
        affinity.clear();
        for &e in h.edges_of(v) {
            let size = h.edge_size(e);
            if size < 2 {
                continue;
            }
            let rating = h.edge_weight(e) as f64 / (size - 1) as f64;
            for &u in h.pins(e) {
                if u != v && cluster_of[u.index()] == UNMATCHED && can_pair(v, u) {
                    *affinity.entry(u).or_insert(0.0) += rating;
                }
            }
        }
        let partner = affinity
            .iter()
            .filter(|(u, _)| h.vertex_weight(**u) + h.vertex_weight(v) <= max_cluster_weight)
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&u, _)| u);
        cluster_of[v.index()] = next;
        if let Some(u) = partner {
            cluster_of[u.index()] = next;
        }
        next += 1;
    }
    cluster_of
}

/// A random hypergraph with weighted vertices, mostly small nets and a
/// few wide ones. Net weights come from a short list with repeats and
/// zeros, so equal ratings and zero ratings are common.
fn random_weighted(seed: u64) -> Hypergraph {
    let mut state = seed ^ 0x2545_f491_4f6c_dd1d;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let n = 2 + next(60) as usize;
    let mut b = HypergraphBuilder::new();
    for _ in 0..n {
        b.add_weighted_vertex(1 + next(3));
    }
    for _ in 0..next(3 * n as u64) + 1 {
        let size = if next(8) == 0 {
            1 + next(n as u64) as usize
        } else {
            1 + next(4) as usize
        };
        let pins: Vec<VertexId> = (0..size)
            .map(|_| VertexId::new(next(n as u64) as usize))
            .collect();
        let weight = [0, 0, 1, 1, 2, 3, 6][next(7) as usize];
        b.add_weighted_edge(pins, weight).expect("pins exist");
    }
    b.build()
}

#[test]
fn dense_match_picks_the_same_partners_as_a_rating_map() {
    for seed in 0..300u64 {
        let h = random_weighted(seed);
        let groups: Vec<u32> = labelling(h.num_vertices(), seed)
            .into_iter()
            .map(u32::from)
            .collect();
        for cap in [2, 3, 4, 1_000] {
            assert_eq!(
                heavy_pair_clustering(&h, cap),
                map_clustering(&h, cap, None),
                "seed {seed} cap {cap}"
            );
            assert_eq!(
                heavy_pair_clustering_within(&h, cap, &groups),
                map_clustering(&h, cap, Some(&groups)),
                "seed {seed} cap {cap}, within groups"
            );
        }
    }
}

#[test]
fn a_zero_weight_net_still_offers_a_partner() {
    // 0's only net weighs 0: its one candidate rates 0 and still wins
    let mut b = HypergraphBuilder::with_vertices(3);
    let v = VertexId::new;
    b.add_weighted_edge([v(0), v(2)], 0).unwrap();
    b.add_weighted_edge([v(1), v(2)], 0).unwrap();
    let h = b.build();
    assert_eq!(heavy_pair_clustering(&h, 10), [0, 1, 0]);
    assert_eq!(map_clustering(&h, 10, None), [0, 1, 0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn projection_preserves_weighted_cut(
        family_idx in 0usize..Family::ALL.len(),
        seed in 0u64..1_000,
        index in 0u64..4,
        divisor in 2u64..40,
    ) {
        let family = Family::ALL[family_idx];
        let Ok(inst) = family.generate(seed, index) else {
            return Ok(()); // generator rejected the draw: vacuous
        };
        let h = &inst.hypergraph;
        if h.num_vertices() < 2 {
            return Ok(());
        }
        check_contraction(h, family_cap(h, divisor), seed ^ index);
    }

    #[test]
    fn respecting_clustering_keeps_groups_intact(
        family_idx in 0usize..Family::ALL.len(),
        seed in 0u64..1_000,
        divisor in 2u64..40,
    ) {
        let family = Family::ALL[family_idx];
        let Ok(inst) = family.generate(seed, 0) else {
            return Ok(());
        };
        let h = &inst.hypergraph;
        if h.num_vertices() < 2 {
            return Ok(());
        }
        check_respecting(h, family_cap(h, divisor), seed);
    }
}
