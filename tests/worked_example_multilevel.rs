//! Golden multilevel V-cycle on the paper's §2 worked example (the
//! Figure 1–4 netlist): the exact coarsening sequence, the matched pairs
//! each level merges, the coarsest-level partition, the per-level refined
//! cuts, and the final cut are all pinned as literals — the V-cycle
//! counterpart of `worked_example.rs`.
//!
//! If a change is *intended* to alter these values (a different rating
//! rule, tie-break, or stop rule), re-derive them by printing the
//! quantities below and update the constants in the same commit.

use fhp::core::multilevel::{coarsen_cap, coarsen_sequence};
use fhp::core::{Algorithm1, MultilevelConfig, PartitionConfig};
use fhp::hypergraph::intersection::paper_example;

/// Heavy-edge matching on the 12-module example at cluster cap 2 (stop
/// size 6 ⇒ cap = 12/6 = 2, so only pairs merge). Rating `w/(|e|−1)`
/// with ties to the lowest vertex id matches modules (1,2), (3,5),
/// (4,6), (7,9); modules 8, 10, 11, 12 stay singletons.
const GOLDEN_LEVEL0_MAP: [u32; 12] = [0, 0, 1, 2, 1, 2, 3, 4, 3, 5, 6, 7];

/// Second-level matching at cap 3 (stop size 4 ⇒ cap = 12/4 = 3): the
/// 8 coarse clusters merge down to 5.
const GOLDEN_LEVEL1_MAP: [u32; 8] = [0, 1, 2, 3, 1, 2, 0, 4];

fn config(stop: usize) -> MultilevelConfig {
    MultilevelConfig::new().max_coarse_size(stop)
}

#[test]
fn golden_coarsening_sequence() {
    let h = paper_example();
    assert_eq!(coarsen_cap(&h, &config(6)), 2);
    assert_eq!(coarsen_cap(&h, &config(4)), 3);

    // stop size 6: one level, then the pair matching stalls at 8 > 6
    let levels = coarsen_sequence(&h, &config(6)).expect("coarsens");
    assert_eq!(levels.len(), 1);
    assert_eq!(levels[0].projection_map(), GOLDEN_LEVEL0_MAP);
    assert_eq!(levels[0].coarse().num_vertices(), 8);
    assert_eq!(levels[0].coarse().num_edges(), 8);

    // stop size 4: the larger cap lets a second level form, 12 → 8 → 5
    let levels = coarsen_sequence(&h, &config(4)).expect("coarsens");
    assert_eq!(levels.len(), 2);
    assert_eq!(levels[0].projection_map(), GOLDEN_LEVEL0_MAP);
    assert_eq!(levels[1].projection_map(), GOLDEN_LEVEL1_MAP);
    assert_eq!(levels[1].coarse().num_vertices(), 5);
    assert_eq!(levels[1].coarse().num_edges(), 4);
}

#[test]
fn golden_matched_pairs_of_the_first_level() {
    // re-derive the pair list from the cluster map: exactly these module
    // pairs (1-based ids as the paper numbers them) merge at level 0
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); 8];
    for (module, &cluster) in GOLDEN_LEVEL0_MAP.iter().enumerate() {
        members[cluster as usize].push(module + 1);
    }
    assert_eq!(
        members,
        [
            vec![1, 2],
            vec![3, 5],
            vec![4, 6],
            vec![7, 9],
            vec![8],
            vec![10],
            vec![11],
            vec![12],
        ]
    );
}

#[test]
fn golden_vcycle_stop_size_six() {
    let h = paper_example();
    let out = Algorithm1::new(
        PartitionConfig::new()
            .starts(10)
            .seed(0)
            .multilevel(Some(config(6))),
    )
    .run(&h)
    .expect("valid");
    let s = out.stats.multilevel.as_ref().expect("multilevel ran");
    assert_eq!(s.levels, 1);
    assert_eq!(s.level_sizes, vec![12, 8]);
    assert_eq!(s.coarsest_cut, 2);
    assert_eq!(s.level_cuts, vec![2, 2]);
    assert_eq!(s.level_partitions[0].to_string(), "LRRRRRLL");
    assert_eq!(s.level_partitions[1].to_string(), "LLRRRRRRRRLL");
    assert_eq!(s.cycle_cuts, vec![2]);
    // the V-cycle's own partition ties the flat cut of 2 but is less
    // balanced (4/8), so the flat guard's 6/6 partition wins the tie
    assert_eq!(s.flat_cut, 2);
    assert!(s.used_flat_guard);
    assert_eq!(out.bipartition.to_string(), "LLLLRRRRRRLL");
    assert_eq!(out.report.cut_size, 2);
    assert_eq!(out.report.counts, (6, 6));
}

#[test]
fn golden_vcycle_stop_size_four() {
    let h = paper_example();
    let out = Algorithm1::new(
        PartitionConfig::new()
            .starts(10)
            .seed(0)
            .multilevel(Some(config(4))),
    )
    .run(&h)
    .expect("valid");
    let s = out.stats.multilevel.as_ref().expect("multilevel ran");
    assert_eq!(s.levels, 2);
    assert_eq!(s.level_sizes, vec![12, 8, 5]);
    // every level refines to the optimum balanced cut of 2
    assert_eq!(s.level_cuts, vec![2, 2, 2]);
    assert_eq!(s.level_partitions[0].to_string(), "LRRRR");
    assert_eq!(s.level_partitions[1].to_string(), "LRRRRRLR");
    assert_eq!(s.level_partitions[2].to_string(), "LLRRRRRRRRLR");
    assert_eq!(s.cycle_cuts, vec![2]);
    assert_eq!(s.flat_cut, 2);
    assert!(s.used_flat_guard);
    assert_eq!(out.bipartition.to_string(), "LLLLRRRRRRLL");
    assert_eq!(out.report.cut_size, 2);
}

#[test]
fn golden_values_stable_across_threads() {
    let h = paper_example();
    let run = |threads| {
        Algorithm1::new(
            PartitionConfig::new()
                .starts(10)
                .seed(0)
                .threads(threads)
                .multilevel(Some(config(4))),
        )
        .run(&h)
        .expect("valid")
    };
    let base = run(1);
    for threads in [2, 8] {
        let out = run(threads);
        assert_eq!(out.fingerprint(), base.fingerprint(), "threads {threads}");
        assert_eq!(out.stats.multilevel, base.stats.multilevel);
    }
}
