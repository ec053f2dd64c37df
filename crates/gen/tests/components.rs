//! `Hypergraph::connected_components` labels components by union-find.
//! These tests hold its labels to a DFS kept here as the reference: a
//! scan over the vertex ids that starts a new component at each vertex no
//! earlier search reached, so components are numbered by their lowest
//! vertex.

use fhp_gen::{DisconnectedClusters, PlantedBisection, RandomHypergraph};
use fhp_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};

/// Component labels by DFS from each unreached vertex in id order.
fn dfs_components(h: &Hypergraph) -> (Vec<u32>, usize) {
    let mut comp = vec![u32::MAX; h.num_vertices()];
    let mut count = 0u32;
    let mut stack = Vec::new();
    for start in h.vertices() {
        if comp[start.index()] != u32::MAX {
            continue;
        }
        comp[start.index()] = count;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &e in h.edges_of(v) {
                for &u in h.pins(e) {
                    if comp[u.index()] == u32::MAX {
                        comp[u.index()] = count;
                        stack.push(u);
                    }
                }
            }
        }
        count += 1;
    }
    (comp, count as usize)
}

fn assert_matches_dfs(name: &str, h: &Hypergraph) {
    assert_eq!(h.connected_components(), dfs_components(h), "{name}");
}

#[test]
fn random_instances_label_like_the_dfs() {
    for seed in 0..12 {
        for (n, m) in [(40, 10), (60, 35), (200, 120)] {
            let h = RandomHypergraph::new(n, m)
                .edge_size_range(2, 5)
                .connected(false)
                .seed(seed)
                .generate()
                .unwrap();
            assert_matches_dfs(&format!("random {n}x{m} seed {seed}"), &h);
        }
        let h = RandomHypergraph::new(80, 160)
            .connected(true)
            .seed(seed)
            .generate()
            .unwrap();
        assert_eq!(h.connected_components().1, 1);
        assert_matches_dfs(&format!("connected random seed {seed}"), &h);
    }
}

#[test]
fn planted_instances_label_like_the_dfs() {
    for (seed, cut) in [(1, 0), (2, 0), (3, 2), (4, 5)] {
        let inst = PlantedBisection::new(60, 150)
            .cut_size(cut)
            .seed(seed)
            .generate()
            .unwrap();
        assert_matches_dfs(&format!("planted c={cut} seed {seed}"), inst.hypergraph());
    }
}

#[test]
fn pathological_instances_have_k_components_labelled_like_the_dfs() {
    for k in [2, 3, 7] {
        for seed in 0..3 {
            let h = DisconnectedClusters::new(k, 9)
                .seed(seed)
                .generate()
                .unwrap();
            assert_eq!(h.connected_components().1, k);
            assert_matches_dfs(&format!("{k} clusters seed {seed}"), &h);
        }
    }
}

#[test]
fn isolated_vertices_are_components_of_their_own() {
    // isolated 0, 3 and 7; {1, 5, 6} through two signals; {2, 4}; 8 alone
    let mut b = HypergraphBuilder::with_vertices(9);
    b.add_edge([VertexId::new(5), VertexId::new(6)]).unwrap();
    b.add_edge([VertexId::new(4), VertexId::new(2)]).unwrap();
    b.add_edge([VertexId::new(6), VertexId::new(1)]).unwrap();
    let h = b.build();
    let (comp, count) = h.connected_components();
    assert_eq!(comp, [0, 1, 2, 3, 2, 1, 1, 4, 5]);
    assert_eq!(count, 6);
    assert_matches_dfs("isolated", &h);
    assert_matches_dfs("edgeless", &HypergraphBuilder::with_vertices(5).build());
    assert_matches_dfs("empty", &HypergraphBuilder::new().build());
}
