//! Multi-run experiment execution: perturbed runs in parallel, aggregated
//! into means and standard deviations (the error bars of Section 5.2).

use specsim_base::CycleDelta;
use specsim_coherence::types::ProtocolError;

use crate::config::SystemConfig;
use crate::dirsys::DirectorySystem;
use crate::metrics::RunMetrics;
use crate::snoopsys::SnoopingSystem;

/// How long and how many times to run each design point.
///
/// The defaults are sized so the whole benchmark suite completes in minutes
/// on a laptop; set the `SPECSIM_CYCLES` and `SPECSIM_SEEDS` environment
/// variables to run longer/more-replicated experiments (closer to the
/// paper's multi-second full-system runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Simulated cycles per run.
    pub cycles: CycleDelta,
    /// Number of perturbed runs (distinct seeds) per design point.
    pub seeds: u64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self {
            cycles: 150_000,
            seeds: 3,
        }
    }
}

impl ExperimentScale {
    /// A faster scale for smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            cycles: 40_000,
            seeds: 2,
        }
    }

    /// Reads the scale from the environment (`SPECSIM_CYCLES`,
    /// `SPECSIM_SEEDS`), falling back to the defaults for unset variables.
    ///
    /// # Panics
    ///
    /// If a variable is set to anything but a whole number; the message
    /// names the variable and its value.
    #[must_use]
    pub fn from_env() -> Self {
        let var = |name| std::env::var(name).ok();
        Self::from_vars(
            var("SPECSIM_CYCLES").as_deref(),
            var("SPECSIM_SEEDS").as_deref(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The pure half of [`ExperimentScale::from_env`]: the scale for the
    /// values of `SPECSIM_CYCLES` and `SPECSIM_SEEDS` (`None` when unset),
    /// or a message naming the variable whose value is not a whole number.
    pub fn from_vars(cycles: Option<&str>, seeds: Option<&str>) -> Result<Self, String> {
        let parse = |name: &str, value: Option<&str>, default: u64| match value {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}={v:?} is not a whole number")),
        };
        let defaults = Self::default();
        Ok(Self {
            cycles: parse("SPECSIM_CYCLES", cycles, defaults.cycles)?,
            seeds: parse("SPECSIM_SEEDS", seeds, defaults.seeds)?,
        })
    }

    /// The seeds used for the perturbed runs.
    #[must_use]
    pub fn seed_list(&self, base: u64) -> Vec<u64> {
        (0..self.seeds.max(1)).map(|i| base + 1 + i).collect()
    }
}

/// Mean ± standard deviation of a measured quantity over perturbed runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Measurement {
    /// Mean over the runs.
    pub mean: f64,
    /// Sample standard deviation over the runs (one error-bar half-width).
    pub std_dev: f64,
    /// Number of runs aggregated.
    pub runs: u64,
}

impl Measurement {
    /// Aggregates a slice of observations with Welford's numerically stable
    /// recurrence (all zero for no observations).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let (mut mean, mut m2) = (0.0, 0.0);
        for (i, &x) in samples.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        let runs = samples.len() as u64;
        Self {
            mean,
            std_dev: if runs < 2 {
                0.0
            } else {
                (m2 / (runs - 1) as f64).sqrt()
            },
            runs,
        }
    }

    /// Formats as `mean ± std`.
    #[must_use]
    pub fn display(&self) -> String {
        format!("{:.3} ±{:.3}", self.mean, self.std_dev)
    }
}

/// Runs one independent simulation per seed, sharded over at most
/// `available_parallelism` scoped worker threads instead of one thread per
/// seed (large `SPECSIM_SEEDS` sweeps would otherwise oversubscribe the
/// machine). Each worker owns a contiguous slice of the result vector, so
/// results land in seed order and every run is a pure function of its seed —
/// the output is identical to running the seeds sequentially.
fn run_seeds_sharded<T, F>(seeds: &[u64], run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, seeds.len().max(1));
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(seeds.len(), || None);
    let chunk = seeds.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        for (seed_chunk, slot_chunk) in seeds.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            let run = &run;
            scope.spawn(move || {
                for (&seed, slot) in seed_chunk.iter().zip(slot_chunk.iter_mut()) {
                    *slot = Some(run(seed));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("worker filled every slot"))
        .collect()
}

/// Runs the directory system once per seed (sharded across worker threads)
/// and returns the per-run metrics in seed order.
pub fn measure_directory(
    cfg: &SystemConfig,
    scale: ExperimentScale,
) -> Result<Vec<RunMetrics>, ProtocolError> {
    let seeds = scale.seed_list(cfg.seed);
    run_seeds_sharded(&seeds, |seed| {
        let mut sys = DirectorySystem::new(cfg.with_seed(seed));
        sys.run_for(scale.cycles)
    })
    .into_iter()
    .collect()
}

/// Runs the snooping system once per seed (sharded across worker threads)
/// and returns the per-run metrics in seed order.
pub fn measure_snooping(
    cfg: &SystemConfig,
    scale: ExperimentScale,
) -> Result<Vec<RunMetrics>, ProtocolError> {
    let seeds = scale.seed_list(cfg.seed);
    run_seeds_sharded(&seeds, |seed| {
        let mut sys = SnoopingSystem::new(cfg.with_seed(seed));
        sys.run_for(scale.cycles)
    })
    .into_iter()
    .collect()
}

/// Mean ± std of `f` over the runs, sampled in run order.
#[must_use]
pub fn measurement_of(runs: &[RunMetrics], f: impl Fn(&RunMetrics) -> f64) -> Measurement {
    let samples: Vec<f64> = runs.iter().map(f).collect();
    Measurement::from_samples(&samples)
}

/// The mean of `f` over the runs, summed in run order (0 for no runs).
#[must_use]
pub fn run_mean(runs: &[RunMetrics], f: impl Fn(&RunMetrics) -> f64) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len().max(1) as f64
}

/// `numerator / denominator`, or 0 when the denominator is 0. Every ratio
/// the experiments report follows this one convention: a design point
/// normalized to a baseline that committed nothing reads 0, and so does a
/// rate over no cycles or a mean over no events. That 0 looks like a
/// measured 0, so a caller comparing ratios checks the denominator itself.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Convenience: the throughput measurement over a set of per-run metrics.
#[must_use]
pub fn throughput_measurement(runs: &[RunMetrics]) -> Measurement {
    measurement_of(runs, RunMetrics::throughput)
}

/// Detected mis-speculations (all kinds) per million simulated cycles in
/// one run.
#[must_use]
pub fn misspec_per_mcycle(m: &RunMetrics) -> f64 {
    let total: u64 = m.misspeculations.iter().map(|(_, n)| n).sum();
    ratio(total as f64 * 1e6, m.cycles as f64)
}

/// Mean cycles one recovery cost (lost work plus recovery latency) over
/// all recoveries of the runs, 0 when none happened.
#[must_use]
pub fn mean_recovery_cost(runs: &[RunMetrics]) -> f64 {
    let recoveries: u64 = runs.iter().map(RunMetrics::total_recoveries).sum();
    let cost: u64 = runs
        .iter()
        .map(|r| r.lost_work_cycles + r.recovery_latency_cycles)
        .sum();
    ratio(cost as f64, recoveries as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scale_from_vars_parses_counts_and_names_a_bad_value() {
        let defaults = ExperimentScale::default();
        assert_eq!(ExperimentScale::from_vars(None, None), Ok(defaults));
        assert_eq!(
            ExperimentScale::from_vars(Some("8000"), Some("1")),
            Ok(ExperimentScale {
                cycles: 8_000,
                seeds: 1
            })
        );
        assert_eq!(
            ExperimentScale::from_vars(None, Some("7")),
            Ok(ExperimentScale {
                seeds: 7,
                ..defaults
            })
        );
        assert_eq!(
            ExperimentScale::from_vars(Some("8k"), None),
            Err("SPECSIM_CYCLES=\"8k\" is not a whole number".to_string())
        );
        assert_eq!(
            ExperimentScale::from_vars(Some("8000"), Some("-3")),
            Err("SPECSIM_SEEDS=\"-3\" is not a whole number".to_string())
        );
    }

    #[test]
    fn measurement_aggregates_mean_and_stddev() {
        let m = Measurement::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(m.runs, 3);
        assert!((m.mean - 2.0).abs() < 1e-12);
        assert!((m.std_dev - 1.0).abs() < 1e-12);
        assert!(m.display().contains('±'));
        // The textbook sample: mean 5, sample variance 32/7.
        let m = Measurement::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.runs, 8);
        assert!((m.mean - 5.0).abs() < 1e-12);
        assert!((m.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        // No samples, or one, have no spread.
        assert_eq!(Measurement::from_samples(&[]), Measurement::default());
        assert_eq!(Measurement::from_samples(&[4.5]).std_dev, 0.0);
    }

    proptest! {
        #[test]
        fn welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
            let m = Measurement::from_samples(&xs);
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((m.mean - mean).abs() < 1e-6 * mean.abs().max(1.0));
            prop_assert!((m.std_dev.powi(2) - var).abs() < 1e-5 * var.abs().max(1.0));
        }
    }

    #[test]
    fn scale_seed_list_is_deterministic_and_distinct() {
        let s = ExperimentScale {
            cycles: 1,
            seeds: 4,
        };
        assert_eq!(s.seed_list(10), vec![11, 12, 13, 14]);
    }

    #[test]
    fn quick_scale_is_smaller_than_default() {
        assert!(ExperimentScale::quick().cycles < ExperimentScale::default().cycles);
    }

    #[test]
    fn sharded_runner_returns_results_in_seed_order() {
        // More seeds than cores: several seeds share a worker, and the
        // result order must still follow the seed list.
        let seeds: Vec<u64> = (0..37).collect();
        let results = run_seeds_sharded(&seeds, |seed| seed * 10);
        assert_eq!(results, seeds.iter().map(|s| s * 10).collect::<Vec<_>>());
        // Degenerate cases.
        assert!(run_seeds_sharded(&[], |seed: u64| seed).is_empty());
        assert_eq!(run_seeds_sharded(&[5], |seed| seed + 1), vec![6]);
    }
}
