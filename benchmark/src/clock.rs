//! The benchmark's clock, its host-speed probe, and peak-memory readings.

// fhp-audit: allow(wallclock-in-fingerprint) — the benchmark's own timer; readings are measurements, never program input
use std::time::Instant;

/// A started timer.
#[derive(Clone, Copy, Debug)]
// fhp-audit: allow(wallclock-in-fingerprint) — the benchmark's own timer
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self(Instant::now()) // fhp-audit: allow(wallclock-in-fingerprint) — the benchmark's own timer
    }

    /// Seconds since [`start`](Self::start).
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Milliseconds since [`start`](Self::start).
    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }
}

/// SplitMix64: the benchmark's own deterministic generator (edit scripts
/// and the host probe), independent of the program's RNG streams.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// What the host probe reads, in milliseconds, on a quiet 2-vCPU VM: the
/// host speed every end-to-end time is scaled to.
pub const REFERENCE_PROBE_MS: f64 = 6.0;

/// The host probe: a fixed amount of CPU and memory work — sorting 2^18
/// random words (2 MiB) — timed once, in milliseconds. It runs only the
/// benchmark's own code, so a change to the program cannot move it; a
/// reading taken while the host is contended is higher.
pub fn probe_ms() -> f64 {
    let sw = Stopwatch::start();
    let mut rng = SplitMix(7);
    let mut words: Vec<u64> = (0..1 << 18).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    std::hint::black_box(&words);
    sw.ms()
}

/// A measured time scaled to the reference host speed: `raw` times
/// [`REFERENCE_PROBE_MS`] over `probe_ms`, the probe reading taken just
/// before the timed call. The shared host's speed drifts by a third over
/// tens of seconds, and the probe and the program slow down together
/// (smoothed over a few seconds, their times correlate at 0.96–0.98), so
/// scaling cancels most of that drift.
pub fn at_reference(raw: f64, probe_ms: f64) -> f64 {
    raw * REFERENCE_PROBE_MS / probe_ms
}

/// The peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .map(|rest| rest.trim().trim_end_matches("kB").trim())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = kib
        .parse()
        .map_err(|_| format!("{path}: unreadable VmHWM `{kib}`"))?;
    Ok(kib / 1024.0)
}
