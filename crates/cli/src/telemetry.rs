//! The live-telemetry front end `fhp` and `fhp serve` share: the
//! `--progress`, `--metrics` and `--metrics-interval` flags, the gauge
//! registry, metrics file and sampler they start, and the canonical
//! snapshot written when the process is done.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use fhp_obs::{Progress, Sampler};

/// The telemetry flags.
#[derive(Clone, Default)]
pub(crate) struct TelemetryArgs {
    /// `--progress`: render live `[progress]` lines to stderr.
    progress: bool,
    /// `--metrics FILE`: where the canonical snapshot goes.
    metrics: Option<String>,
    /// `--metrics-interval MS`: also stream timestamped samples into the
    /// metrics file every `MS` milliseconds.
    metrics_interval: Option<u64>,
}

impl TelemetryArgs {
    /// Takes `flag` if it is a telemetry flag, reading its operand through
    /// `value`; `Ok(false)` leaves any other flag to the caller.
    pub(crate) fn take(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--progress" => self.progress = true,
            "--metrics" => self.metrics = Some(value()?),
            "--metrics-interval" => {
                let ms: u64 = value()?
                    .parse()
                    .map_err(|_| "metrics interval must be a positive integer (ms)".to_string())?;
                if ms == 0 {
                    return Err("metrics interval must be at least 1 ms".to_string());
                }
                self.metrics_interval = Some(ms);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks the flags against each other once they are all taken.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.metrics_interval.is_some() && self.metrics.is_none() {
            return Err("--metrics-interval requires --metrics".to_string());
        }
        Ok(())
    }

    /// Whether any live telemetry was asked for.
    pub(crate) fn enabled(&self) -> bool {
        self.progress || self.metrics.is_some()
    }

    /// Starts the gauge registry (when [`enabled`](Self::enabled)) and,
    /// for `--progress` or a sampled metrics file, the sampler thread.
    /// `--metrics` without an interval skips the sampler and only writes
    /// the deterministic snapshot at [`Telemetry::finish`].
    ///
    /// # Errors
    ///
    /// `cannot create FILE: …` when the sampled metrics file cannot be
    /// created.
    pub(crate) fn start(&self) -> Result<Telemetry, String> {
        let progress = self.enabled().then(|| Arc::new(Progress::new()));
        let mut sink: Option<Box<dyn Write + Send>> = None;
        if let (Some(_), Some(path)) = (self.metrics_interval, self.metrics.as_deref()) {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            sink = Some(Box::new(std::io::BufWriter::new(file)));
        }
        let sampler = progress.as_ref().and_then(|p| {
            (self.progress || sink.is_some()).then(|| {
                let interval = Duration::from_millis(self.metrics_interval.unwrap_or(500));
                Sampler::spawn(Arc::clone(p), interval, self.progress, sink.take())
            })
        });
        Ok(Telemetry {
            args: self.clone(),
            progress,
            sampler,
        })
    }
}

/// Started telemetry: the gauge registry the engine updates and the
/// sampler rendering it.
pub(crate) struct Telemetry {
    args: TelemetryArgs,
    progress: Option<Arc<Progress>>,
    sampler: Option<Sampler>,
}

impl Telemetry {
    /// The gauge registry, `None` when no telemetry was asked for.
    pub(crate) fn progress(&self) -> Option<&Arc<Progress>> {
        self.progress.as_ref()
    }

    /// Syncs the allocator gauges, stops the sampler, and writes the
    /// canonical snapshot to the `--metrics` file: appended after the
    /// sample stream when sampling, else the whole file, byte-identical
    /// across thread counts.
    ///
    /// # Errors
    ///
    /// `cannot write FILE: …` when the snapshot cannot be written.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        if let Some(p) = &self.progress {
            p.sync_alloc_gauges();
        }
        if let Some(s) = self.sampler.take() {
            s.finish();
        }
        let (Some(path), Some(p)) = (&self.args.metrics, &self.progress) else {
            return Ok(());
        };
        let file = if self.args.metrics_interval.is_some() {
            std::fs::OpenOptions::new().append(true).open(path)
        } else {
            std::fs::File::create(path)
        };
        file.and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            fhp_obs::progress::write_canonical_snapshot(p, &mut out)
        })
        .map_err(|e| format!("cannot write {path}: {e}"))
    }
}
