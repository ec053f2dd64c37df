//! Golden outcomes of the move-based layer: the exact bipartition every
//! baseline returns on fixed instances and seeds, plus the `fm.*`, `kl.*`
//! and `sa.*` counters it records.
//!
//! The other baseline tests check properties (a valid cut, never worse
//! than the start, within the balance slack); these pin the outputs
//! themselves, so a refactor of the FM pass, the restart loops or the
//! tuning constants that changes any cut, tie-break or pass count fails
//! here. The expected lines in `golden/baseline_outcomes.txt` were
//! recorded when `FmRefiner` still carried its pass cap and tolerance as
//! settable values, at their defaults.

use fhp_baselines::{
    FiducciaMattheyses, KernighanLin, Multilevel, RandomCut, Refined, SimulatedAnnealing,
    SpectralBisection,
};
use fhp_core::moves::random_balanced_start;
use fhp_core::{refine, Bipartitioner, PartitionConfig};
use fhp_gen::{CircuitNetlist, PlantedBisection, Technology};
use fhp_hypergraph::intersection::paper_example;
use fhp_hypergraph::Hypergraph;
use fhp_obs::Collector;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EXPECTED: &str = include_str!("golden/baseline_outcomes.txt");
const SEEDS: [u64; 2] = [1, 7];

fn instances() -> Vec<(&'static str, Hypergraph)> {
    let circuit = |tech, modules, signals, seed| {
        CircuitNetlist::new(tech, modules, signals)
            .seed(seed)
            .generate()
            .expect("valid circuit parameters")
    };
    let planted = PlantedBisection::new(100, 140)
        .cut_size(3)
        .edge_size_range(2, 3)
        .seed(2)
        .generate()
        .expect("valid planted parameters");
    vec![
        ("paper", paper_example()),
        ("hybrid", circuit(Technology::Hybrid, 120, 200, 5)),
        ("stdcell", circuit(Technology::StdCell, 200, 320, 3)),
        ("pcb", circuit(Technology::Pcb, 90, 140, 8)),
        ("planted", planted.hypergraph().clone()),
    ]
}

/// One golden line: instance, partitioner, seed, the bipartition's
/// `Display` string and every counter the collector recorded, in order.
fn line(instance: &str, label: &str, seed: Option<u64>, bp: &str, collector: &Collector) -> String {
    let seed = seed.map_or_else(|| "-".to_string(), |s| s.to_string());
    let mut out = format!("{instance} {label} {seed} {bp}");
    for e in collector.snapshot() {
        if let Some(v) = e.counter_value() {
            out.push_str(&format!(" {}={v}", e.name));
        }
    }
    out
}

fn outcomes() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, h) in instances() {
        let mut run = |label: &str, seed: Option<u64>, p: &dyn Bipartitioner, c: &Collector| {
            let bp = p
                .bipartition(&h)
                .expect("instance has at least two vertices");
            lines.push(line(name, label, seed, &bp.to_string(), c));
        };
        let off = Collector::disabled();
        run("spectral", None, &SpectralBisection::new(), &off);
        for s in SEEDS {
            for restarts in [1, 3] {
                let c = Collector::enabled();
                let fm = FiducciaMattheyses::new(s)
                    .restarts(restarts)
                    .collector(c.clone());
                run(&format!("fm-r{restarts}"), Some(s), &fm, &c);
            }
            for restarts in [1, 2] {
                let c = Collector::enabled();
                let kl = KernighanLin::new(s).restarts(restarts).collector(c.clone());
                run(&format!("kl-r{restarts}"), Some(s), &kl, &c);
            }
            let c = Collector::enabled();
            run(
                "sa-fast",
                Some(s),
                &SimulatedAnnealing::fast(s).collector(c.clone()),
                &c,
            );
            let c = Collector::enabled();
            run(
                "sa-thorough",
                Some(s),
                &SimulatedAnnealing::thorough(s).collector(c.clone()),
                &c,
            );
            let alg1_fm = Refined::alg1(PartitionConfig::new().starts(4), s);
            run("alg1+fm", Some(s), &alg1_fm, &off);
            let random_fm = Refined::new(Box::new(RandomCut::balanced(s)));
            run("random+fm", Some(s), &random_fm, &off);
            run("multilevel", Some(s), &Multilevel::new(s), &off);
        }
        for s in SEEDS {
            let start = random_balanced_start(&h, &mut StdRng::seed_from_u64(s));
            let bp = refine::refine(&h, start);
            lines.push(line(name, "refine", Some(s), &bp.to_string(), &off));
        }
    }
    lines
}

#[test]
fn move_based_outcomes_match_the_golden_file() {
    let actual = outcomes();
    let expected: Vec<&str> = EXPECTED.lines().collect();
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "number of golden lines");
    assert_eq!(actual.len(), 105);
}
