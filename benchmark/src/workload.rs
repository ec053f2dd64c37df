//! The four workloads: the inputs each generates from `--seed`, and the
//! configuration the program under test runs them with.

use fhp_core::{MultilevelConfig, PartitionConfig};
use fhp_gen::{scaling_instance, CircuitNetlist, Technology};
use fhp_hypergraph::{hgr, Hypergraph};
use fhp_obs::writer::put;

/// The partitioner's seed on every workload: only the inputs vary with
/// `--seed`.
pub const PARTITION_SEED: u64 = 1;

/// Worker threads `fhp serve` runs with on `serve-edit` (the benchmark
/// host has 2 vCPUs); the batch workloads run on one.
pub const THREADS: usize = 2;

/// Multi-starts `fhp serve` runs per `partition` (its default).
pub const SERVE_STARTS: usize = 8;

/// Full size, or the roughly 100× smaller smoke size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Inputs about 100× smaller, for the smoke test.
    Smoke,
}

impl Scale {
    fn shrink(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Smoke => (n / 100).max(8),
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's configuration: 50 starts, threshold 10, in-memory
    /// dualizer, one worker. Dominated by the per-start layers.
    Alg1Multistart,
    /// One start on a large instance with the streaming dualizer: parse
    /// and dualization dominate, with bounded memory.
    Alg1Stream,
    /// Multilevel V-cycle on wide-net hybrid netlists: coarsening and FM
    /// refinement dominate.
    MultilevelHybrid,
    /// `fhp serve` under a closed-loop client making small netlist edits
    /// mixed with reads.
    ServeEdit,
}

/// Standard-cell signals per `alg1-multistart` instance.
const MULTISTART_SIGNALS: usize = 50_000;
/// Standard-cell signals per `alg1-stream` instance.
const STREAM_SIGNALS: usize = 250_000;
/// The streaming dualizer's pair cap on `alg1-stream` (2^16 pairs, about
/// 26 passes per dualization).
const STREAM_PAIR_CAP: usize = 1 << 16;
/// Hybrid signals and modules per `multilevel-hybrid` instance.
const HYBRID_SIGNALS: usize = 10_000;
const HYBRID_MODULES: usize = 6_000;
/// Standard-cell signals per `serve-edit` instance: the largest instance
/// whose `partition` request fits under serve's 1 MiB line cap.
const SERVE_SIGNALS: usize = 40_000;

impl Workload {
    /// Every workload, in the order `run` cycles through them.
    pub const ALL: [Workload; 4] = [
        Workload::Alg1Multistart,
        Workload::Alg1Stream,
        Workload::MultilevelHybrid,
        Workload::ServeEdit,
    ];

    /// The workload's name, as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Alg1Multistart => "alg1-multistart",
            Workload::Alg1Stream => "alg1-stream",
            Workload::MultilevelHybrid => "multilevel-hybrid",
            Workload::ServeEdit => "serve-edit",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` ({})", names.join("|"))
            })
    }

    /// Whether the workload partitions a batch input in a child process
    /// (otherwise it drives `fhp serve`).
    pub fn is_batch(self) -> bool {
        self != Workload::ServeEdit
    }

    /// The layers the workload exercises; its traced run reports 0 for
    /// every other layer's metrics.
    pub fn layers(self) -> &'static [&'static str] {
        const ALG1: &[&str] = &[
            "hgr",
            "intersection",
            "dual_bfs",
            "complete_cut",
            "runner",
            "algorithm1",
            "trace",
            "host",
        ];
        const MULTILEVEL: &[&str] = &[
            "hgr",
            "intersection",
            "dual_bfs",
            "complete_cut",
            "runner",
            "algorithm1",
            "multilevel",
            "trace",
            "host",
        ];
        const SERVE: &[&str] = &["json", "serve", "incremental", "engine", "trace", "host"];
        match self {
            Workload::Alg1Multistart | Workload::Alg1Stream => ALG1,
            Workload::MultilevelHybrid => MULTILEVEL,
            Workload::ServeEdit => SERVE,
        }
    }

    /// Instances generated per seed. One run measures all of them, so
    /// its numbers average over the instance family rather than hang on
    /// one instance's structure (multilevel run time varies about 16%
    /// from one hybrid instance to the next).
    pub fn instances(self) -> usize {
        match self {
            Workload::Alg1Multistart | Workload::Alg1Stream => 4,
            Workload::MultilevelHybrid => 12,
            Workload::ServeEdit => 2,
        }
    }

    /// Instance `index` of the family generated from `seed`; its
    /// generator seed is `1000 · seed + index`.
    pub fn instance(self, seed: u64, index: usize, scale: Scale) -> Result<Hypergraph, String> {
        let seed = seed.wrapping_mul(1000).wrapping_add(index as u64);
        let generated = match self {
            Workload::Alg1Multistart => scaling_instance(scale.shrink(MULTISTART_SIGNALS), seed),
            Workload::Alg1Stream => scaling_instance(scale.shrink(STREAM_SIGNALS), seed),
            Workload::ServeEdit => scaling_instance(scale.shrink(SERVE_SIGNALS), seed),
            Workload::MultilevelHybrid => CircuitNetlist::new(
                Technology::Hybrid,
                scale.shrink(HYBRID_MODULES),
                scale.shrink(HYBRID_SIGNALS),
            )
            .seed(seed)
            .generate(),
        };
        generated.map_err(|e| format!("{}: cannot generate an instance: {e}", self.name()))
    }

    /// The bytes the program receives for every instance of `seed`:
    /// `.hgr` text for batch workloads, the NDJSON `partition` request
    /// line (no newline) for `serve-edit`.
    pub fn inputs(self, seed: u64, scale: Scale) -> Result<Vec<String>, String> {
        (0..self.instances())
            .map(|i| {
                let h = self.instance(seed, i, scale)?;
                Ok(if self.is_batch() {
                    hgr::write_hgr(&h)
                } else {
                    partition_request(&h)
                })
            })
            .collect()
    }

    /// The partitioner configuration of a batch workload (also the inner
    /// configuration `fhp serve` runs, for `serve-edit`).
    pub fn config(self, scale: Scale) -> PartitionConfig {
        // One thread on every batch workload. At two, a run's speed hangs
        // on both shared vCPUs, which the single-threaded host probe cannot
        // follow: over 20 s windows, the probe-scaled run time of
        // alg1-multistart spread 0.11 at 2 threads and 0.04 at 1, and the
        // V-cycle's run-to-run CV was 15% at 2 threads and 7% at 1.
        let base = PartitionConfig::new().seed(PARTITION_SEED).threads(1);
        match self {
            Workload::Alg1Multistart => PartitionConfig::paper().seed(PARTITION_SEED).threads(1),
            Workload::Alg1Stream => base
                .starts(1)
                .edge_size_threshold(Some(10))
                .streaming_dualize(true)
                .pair_cap(Some(scale.shrink(STREAM_PAIR_CAP))),
            Workload::MultilevelHybrid => base
                .starts(8)
                .edge_size_threshold(Some(10))
                .multilevel(Some(MultilevelConfig::new())),
            Workload::ServeEdit => base.threads(THREADS).starts(SERVE_STARTS),
        }
    }
}

/// The `partition` request that loads `h` into `fhp serve` (request id 0,
/// module weights included, partitioner seed [`PARTITION_SEED`]).
pub fn partition_request(h: &Hypergraph) -> String {
    let mut out = String::with_capacity(h.num_pins() * 7 + h.num_vertices() * 2 + 64);
    put(
        &mut out,
        format_args!(
            "{{\"id\":0,\"verb\":\"partition\",\"seed\":{PARTITION_SEED},\"modules\":{},\"nets\":[",
            h.num_vertices()
        ),
    );
    for (i, e) in h.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, p) in h.pins(e).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            put(&mut out, format_args!("{}", p.index()));
        }
        out.push(']');
    }
    out.push_str("],\"weights\":[");
    for (i, v) in h.vertices().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put(&mut out, format_args!("{}", h.vertex_weight(v)));
    }
    out.push_str("]}");
    out
}

/// FNV-1a over `bytes`: a compact identity for generated inputs.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
