//! Property tests for the move engine and the baseline partitioners.

use fhp_baselines::{FiducciaMattheyses, KernighanLin, Multilevel, Refined, SimulatedAnnealing};
use fhp_core::moves::{random_balanced_start, MoveState};
use fhp_core::{metrics, Bipartitioner, PartitionConfig};
use fhp_gen::RandomHypergraph;
use fhp_hypergraph::{Hypergraph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

prop_compose! {
    fn arb_hypergraph()(
        nv in 4usize..40,
        extra in 0usize..40,
        max_size in 2usize..5,
        seed in 0u64..500,
    ) -> Hypergraph {
        let max_size = max_size.min(nv);
        let chain = nv.saturating_sub(1).div_ceil(max_size.max(2) - 1);
        RandomHypergraph::new(nv, chain + extra)
            .edge_size_range(2, max_size)
            .connected(true)
            .seed(seed)
            .generate()
            .expect("valid config")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn move_state_gains_predict_flips(
        h in arb_hypergraph(),
        flips in proptest::collection::vec(0usize..40, 1..40),
        seed in 0u64..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut st = MoveState::new(&h, random_balanced_start(&h, &mut rng));
        for f in flips {
            let v = VertexId::new(f % h.num_vertices());
            let before = st.cut() as i64;
            let gain = st.gain(v);
            st.apply_flip(v);
            prop_assert_eq!(st.cut() as i64, before - gain);
        }
        // full recomputation agrees with the incremental state
        prop_assert_eq!(st.cut(), metrics::weighted_cut(&h, st.partition()));
        let (wl, wr) = st.side_weights();
        prop_assert_eq!(wl + wr, h.total_vertex_weight());
    }

    #[test]
    fn swap_deltas_are_antisymmetric_across_application(
        h in arb_hypergraph(),
        seed in 0u64..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut st = MoveState::new(&h, random_balanced_start(&h, &mut rng));
        let left = st.partition().vertices_on(fhp_core::Side::Left);
        let right = st.partition().vertices_on(fhp_core::Side::Right);
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        let (a, b) = (left[0], right[0]);
        let delta = st.swap_delta(a, b);
        let before = st.cut() as i64;
        st.apply_swap(a, b);
        prop_assert_eq!(st.cut() as i64, before + delta);
        // swapping back restores the cut exactly
        let delta_back = st.swap_delta(b, a);
        st.apply_swap(b, a);
        prop_assert_eq!(st.cut() as i64, before);
        prop_assert_eq!(delta_back, -delta);
    }

    #[test]
    fn refinement_is_monotone(h in arb_hypergraph(), seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = random_balanced_start(&h, &mut rng);
        let before = metrics::weighted_cut(&h, &start);
        let refined = FiducciaMattheyses::new(seed).refine(&h, start);
        prop_assert!(metrics::weighted_cut(&h, &refined) <= before);
        prop_assert!(refined.is_valid_cut());
    }

    #[test]
    fn all_baselines_agree_on_contract(h in arb_hypergraph(), seed in 0u64..20) {
        let partitioners: Vec<Box<dyn Bipartitioner>> = vec![
            Box::new(KernighanLin::new(seed).max_passes(4)),
            Box::new(FiducciaMattheyses::new(seed).max_passes(4)),
            Box::new(SimulatedAnnealing::fast(seed)),
            Box::new(Multilevel::new(seed)),
            Box::new(Refined::alg1(PartitionConfig::new().starts(2), seed)),
        ];
        for p in partitioners {
            let bp = p.bipartition(&h).expect("valid instance");
            prop_assert!(bp.is_valid_cut(), "{}", p.name());
            prop_assert_eq!(bp.len(), h.num_vertices());
        }
    }
}
