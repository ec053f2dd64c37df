//! Table 2 — cutsize and CPU comparison on the named instance suite.
//!
//! Paper: Algorithm I vs simulated annealing vs "MinCut-KL" on Bd1–Bd3,
//! IC1, IC2 and Diff1–Diff3, with a CPU-ratio row of 1.0 / 110 / 120. The
//! published cutsize cells are normalized (and partly illegible in the
//! scan), so this reproduction prints raw cutsizes plus each baseline's
//! ratio to Algorithm I. Below the table it prints, from the table's own
//! cells, how far each of the paper's prose claims holds: parity-or-better
//! on the circuit-like rows, the planted optimum on the difficult rows, and
//! a CPU advantage over both baselines.

use fhp_baselines::{KernighanLin, SimulatedAnnealing};
use fhp_core::{metrics, Algorithm1, Bipartitioner, PartitionConfig};
use fhp_gen::PaperInstance;

use crate::util::{banner, fmt_duration, mean, timed, Table};

pub fn run(quick: bool) {
    banner("Table 2: Alg I vs SA vs MinCut-KL on the named instances");
    println!("Alg I: paper preset (50 random longest paths, threshold 10)\n");

    let mut table = Table::new([
        "Example (Mods,Sigs)",
        "Alg I",
        "SA",
        "KL",
        "SA/AlgI",
        "KL/AlgI",
        "t(Alg I)",
        "t(SA)",
        "t(KL)",
    ]);
    let mut sa_ratio_cpu: Vec<f64> = Vec::new();
    let mut kl_ratio_cpu: Vec<f64> = Vec::new();
    // (rows where Alg I holds the claim, rows) for each cut claim
    let mut circuit_rows = (0usize, 0usize);
    let mut planted_rows = (0usize, 0usize);

    for inst in PaperInstance::ALL {
        if quick && inst == PaperInstance::Ic2 {
            continue;
        }
        let named = inst.generate();
        let h = named.hypergraph();
        let (m, s) = inst.size();

        let (a, ta) = timed(|| {
            Algorithm1::new(PartitionConfig::paper().seed(1))
                .run(h)
                .expect("valid instance")
        });
        let (sa_bp, tsa) = timed(|| {
            let sa = if quick {
                SimulatedAnnealing::fast(1)
            } else {
                SimulatedAnnealing::thorough(1)
            };
            sa.bipartition(h).expect("valid instance")
        });
        let (kl_bp, tkl) = timed(|| {
            KernighanLin::new(1)
                .restarts(if quick { 1 } else { 4 })
                .bipartition(h)
                .expect("valid instance")
        });

        let ca = a.report.cut_size;
        let cs = metrics::cut_size(h, &sa_bp);
        let ck = metrics::cut_size(h, &kl_bp);
        sa_ratio_cpu.push(tsa.as_secs_f64() / ta.as_secs_f64());
        kl_ratio_cpu.push(tkl.as_secs_f64() / ta.as_secs_f64());

        let suffix = match inst.planted_cut() {
            Some(c) => {
                planted_rows.0 += usize::from(ca == c);
                planted_rows.1 += 1;
                format!(" [planted {c}]")
            }
            None => {
                circuit_rows.0 += usize::from(ca <= cs.min(ck));
                circuit_rows.1 += 1;
                String::new()
            }
        };
        table.row([
            format!("{} ({m},{s}){suffix}", inst.name()),
            ca.to_string(),
            cs.to_string(),
            ck.to_string(),
            ratio(cs, ca),
            ratio(ck, ca),
            fmt_duration(ta),
            fmt_duration(tsa),
            fmt_duration(tkl),
        ]);
    }
    table.print();

    println!();
    let (sa_cpu, kl_cpu) = (mean(&sa_ratio_cpu), mean(&kl_ratio_cpu));
    let mut cpu = Table::new(["CPU (ratio of runtimes, averaged)", "Alg I", "SA", "KL"]);
    cpu.row([
        "this reproduction".to_string(),
        "1.0".to_string(),
        format!("{sa_cpu:.1}"),
        format!("{kl_cpu:.1}"),
    ]);
    cpu.row([
        "paper (1989 implementations)".to_string(),
        "1.0".to_string(),
        "110".to_string(),
        "120".to_string(),
    ]);
    cpu.print();
    println!("\nshape checks, read from the cells above:");
    println!(
        "  Alg I <= min(SA, KL) on the circuit rows: {} of {}",
        circuit_rows.0, circuit_rows.1
    );
    println!(
        "  Alg I = the planted cut on the Diff rows: {} of {}",
        planted_rows.0, planted_rows.1
    );
    let fastest = sa_cpu > 1.0 && kl_cpu > 1.0;
    println!("  both mean CPU ratios exceed 1 (Alg I fastest): {fastest}");
    println!(
        "Absolute ratios differ from 1989: the baselines here are tuned\n\
         practical implementations, and quality settings trade directly\n\
         against their runtime."
    );
}

fn ratio(x: usize, base: usize) -> String {
    if base == 0 {
        if x == 0 {
            "1.00".into()
        } else {
            "inf".into()
        }
    } else {
        format!("{:.2}", x as f64 / base as f64)
    }
}
