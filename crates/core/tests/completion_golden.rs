//! Golden outcomes of the completion step: for fixed sweep seeds `(u, v)`,
//! the winners each strategy picks and the bipartition it assembles.
//!
//! The values were recorded before the min-degree greedy and the
//! engineer's method became one greedy, from the two separate loops and
//! the old assembly (partial bipartition, then the winners' modules, then
//! the lighter-side pass), so they pin that the merge changed no
//! outcome. One warm scratch serves every case, which also pins that a
//! reused scratch carries nothing from one sweep into the next.

use fhp_core::boundary::BoundaryDecomposition;
use fhp_core::complete_cut::{complete, CompletionScratch, CompletionStrategy};
use fhp_core::dual_bfs::two_front_bfs_with_policy;
use fhp_core::{Bipartition, FrontPolicy};
use fhp_gen::{CircuitNetlist, Technology};
use fhp_hypergraph::{intersection::paper_example, Hypergraph, IntersectionGraph};

use CompletionStrategy::{EngineerWeighted, ExactKonig, MinDegree};
use FrontPolicy::{Alternate, SmallerFirst};

/// `((u, v), front policy, strategy, winners as 0/1 per G′ vertex, the
/// assembled bipartition as L/R per module)`.
type Case = (
    (u32, u32),
    FrontPolicy,
    CompletionStrategy,
    &'static str,
    &'static str,
);

const PAPER: &[Case] = &[
    ((0, 8), SmallerFirst, MinDegree, "11100", "LLLLLRRRRRLL"),
    (
        (0, 8),
        SmallerFirst,
        EngineerWeighted,
        "11001",
        "LLLLRRRRRRLL",
    ),
    ((0, 8), SmallerFirst, ExactKonig, "11001", "LLLLRRRRRRLL"),
    ((0, 8), Alternate, MinDegree, "1100", "LLLLRRRRRRLL"),
    ((0, 8), Alternate, EngineerWeighted, "1100", "LLLLRRRRRRLL"),
    ((0, 8), Alternate, ExactKonig, "0011", "LLRRRRRRRRLL"),
    ((8, 0), SmallerFirst, MinDegree, "11100", "RRRRRLLLLLRR"),
    (
        (8, 0),
        SmallerFirst,
        EngineerWeighted,
        "11001",
        "RRRRLLLLLLRR",
    ),
    ((8, 0), SmallerFirst, ExactKonig, "11100", "RRRRRLLLLLRR"),
    ((1, 7), SmallerFirst, MinDegree, "1001111", "LLLLRRRRRRLL"),
    (
        (1, 7),
        SmallerFirst,
        EngineerWeighted,
        "0101111",
        "LLRLRRRRRRLL",
    ),
    ((1, 7), SmallerFirst, ExactKonig, "0101111", "LLRLRRRRRRLL"),
    ((1, 7), Alternate, MinDegree, "100111", "LLLLLRRRRRLL"),
    (
        (1, 7),
        Alternate,
        EngineerWeighted,
        "001111",
        "LLLLRRRRRRLL",
    ),
    ((1, 7), Alternate, ExactKonig, "001111", "LLLLRRRRRRLL"),
    ((3, 5), Alternate, MinDegree, "101100", "LLLLLRRRRRLL"),
    (
        (3, 5),
        Alternate,
        EngineerWeighted,
        "101001",
        "LLLLRRRRRRLL",
    ),
    ((3, 5), Alternate, ExactKonig, "010011", "LRLRRRRRRRRL"),
];

/// A 48-module hybrid netlist (module weights 1–6) whose G has 60
/// vertices. The `(3, 17)` min-degree and König completions commit every
/// module to the left, so their partition is the lightest module (25)
/// moved across.
const HYBRID: &[Case] = &[
    (
        (0, 59),
        SmallerFirst,
        MinDegree,
        "00010110011101100011111111101101110111101111110001110011101",
        "RRLRRRRRRRRRRRRRLRRLRRLLRRRRRRRRRRLRRRRRRRRRRLRR",
    ),
    (
        (0, 59),
        SmallerFirst,
        EngineerWeighted,
        "10000111100010011100011001111000111000010001111111001110010",
        "RRLRRRLRLLRRRRRRLLRLLLLLRLRLLRLLLLLLLLLLRRLRLLRL",
    ),
    (
        (0, 59),
        SmallerFirst,
        ExactKonig,
        "00011110011101100011111111101101110111101111100001110011101",
        "RRLRRRRRRRRRRRRRRRRLRRLLRRRRRRRRRRLRRRRRRRRRRLRR",
    ),
    (
        (59, 0),
        SmallerFirst,
        MinDegree,
        "1100101000000001110101110111100111011100100111111100001001",
        "LLRLLLRLRRLLLLLLRRRRRLRRRRLLLLLLLRLLLLLLLLLLRRLR",
    ),
    (
        (59, 0),
        SmallerFirst,
        EngineerWeighted,
        "1000011110101101001011100110000111001111000111001100111100",
        "LLLLLLLLRRLLLLLLRRRRRRRRRRRRRLRLRRRRLRRRLRRLRRLR",
    ),
    (
        (59, 0),
        SmallerFirst,
        ExactKonig,
        "1100001110101001110011110111000111001101000111111100101001",
        "LLRLLLRLRRLLLLLLRRRRRRRRRRRRRLRLLRLLLLLLLLRLRRLR",
    ),
    (
        (3, 17),
        SmallerFirst,
        MinDegree,
        "1111110111111",
        "LLLLLLLLLLLLLLLLLLLLLLLLLRLLLLLLLLLLLLLLLLLLLLLL",
    ),
    (
        (3, 17),
        SmallerFirst,
        EngineerWeighted,
        "0000001000000",
        "LLRLLLLLLLLLLLLLLLLLLLLLLLLLLLLLLLRLLLLRLLLLLLLL",
    ),
    (
        (3, 17),
        SmallerFirst,
        ExactKonig,
        "1111110111111",
        "LLLLLLLLLLLLLLLLLLLLLLLLLRLLLLLLLLLLLLLLLLLLLLLL",
    ),
    (
        (30, 1),
        SmallerFirst,
        MinDegree,
        "101100110101011000111011111111111100111100011111010101",
        "LLLLLLLLLLLLLLLLLLLLLLLLLLLLLLLLLLRLLLLLLLLLLLLL",
    ),
    (
        (30, 1),
        SmallerFirst,
        EngineerWeighted,
        "010011101010100111000101100000000010001111101000111010",
        "LLRLLLLLRRLLLLLLRRRRRRRRLRRRRRRRRRRRRRRRLRLLLRLL",
    ),
    (
        (7, 55),
        SmallerFirst,
        MinDegree,
        "110111111111110111111111101111111111111010011110111111111",
        "RRRRRRRRRRRRRRLLRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRR",
    ),
    (
        (7, 55),
        SmallerFirst,
        EngineerWeighted,
        "110001100101011011100101010010111101110101101101100100010",
        "LLLLRRLRRLLLRLLLRLRRLLRLRRLLLLRRRRRRRRRRRRRRRRRR",
    ),
];

fn check(name: &str, h: &Hypergraph, cases: &[Case], scratch: &mut CompletionScratch) {
    let ig = IntersectionGraph::build(h);
    let mut out = Bipartition::all_left(0);
    for &((u, v), policy, strategy, winners, sides) in cases {
        let cut = two_front_bfs_with_policy(ig.graph(), u, v, policy);
        let dec = BoundaryDecomposition::new(h, &ig, &cut);
        scratch.complete_into(strategy, h, &ig, &dec, &mut out);
        let got: String = scratch
            .completion()
            .winners()
            .iter()
            .map(|&w| if w { '1' } else { '0' })
            .collect();
        let case = format!("{name} ({u}, {v}) {policy:?} {strategy:?}");
        assert_eq!(got, winners, "{case}: winners");
        assert_eq!(out.to_string(), sides, "{case}: bipartition");
        assert_eq!(
            &complete(strategy, h, &ig, &dec),
            scratch.completion(),
            "{case}: the reference entry point picks other winners"
        );
    }
}

#[test]
fn every_strategy_reproduces_its_recorded_winners_and_bipartition() {
    let mut scratch = CompletionScratch::new();
    check("paper", &paper_example(), PAPER, &mut scratch);
    let hybrid = CircuitNetlist::new(Technology::Hybrid, 48, 60)
        .seed(5)
        .generate()
        .expect("a valid hybrid netlist");
    assert_eq!(IntersectionGraph::build(&hybrid).num_g_vertices(), 60);
    assert!(hybrid.vertices().any(|v| hybrid.vertex_weight(v) > 1));
    check("hybrid", &hybrid, HYBRID, &mut scratch);
}
