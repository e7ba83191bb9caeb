//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Each `benches/*.rs` target is a plain binary (`harness = false`) that runs
//! one experiment from [`specsim::experiments`] and prints the same rows or
//! series the paper reports; the sweeps that write a `BENCH_*.json`
//! artifact all go through [`run_sweep`]. The experiment scale (cycles per
//! run, perturbed runs per design point) is controlled with the
//! `SPECSIM_CYCLES` and `SPECSIM_SEEDS` environment variables; the
//! defaults keep `cargo bench` under a few minutes.

use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

use specsim::experiments::sweep::{json_object, Cell, Sweep, SweepConfig};
pub use specsim::experiments::ExperimentScale;

/// Prints a standard header for one reproduced artifact and returns a timer.
pub fn start(artifact: &str, scale: ExperimentScale) -> Instant {
    banner(&format!(
        "Reproducing: {artifact}\n\
         scale: {} cycles per run, {} perturbed runs per design point\n\
         (override with SPECSIM_CYCLES / SPECSIM_SEEDS)",
        scale.cycles, scale.seeds
    ))
}

/// Prints `header` between two rules and returns a timer.
fn banner(header: &str) -> Instant {
    let rule = "================================================================";
    println!("{rule}\n{header}\n{rule}");
    Instant::now()
}

/// Prints the standard footer with the elapsed wall-clock time.
pub fn finish(started: Instant) {
    println!("\n[done in {:.1} s]\n", started.elapsed().as_secs_f64());
}

/// Reproduces one paper figure or table at the environment's scale
/// ([`ExperimentScale::from_env`]): prints the header with that scale, the
/// text `run` returns and the footer. A failed run prints its error and
/// exits with failure.
pub fn run_figure<E: Display>(
    artifact: &str,
    run: impl FnOnce(ExperimentScale) -> Result<String, E>,
) -> ExitCode {
    let scale = ExperimentScale::from_env();
    report(start(artifact, scale), run(scale))
}

/// Reproduces one artifact that reads no experiment scale (a fixed scenario,
/// or a table that simulates nothing) as [`run_figure`] does, without the
/// scale line in its header.
pub fn run_fixed<E: Display>(artifact: &str, run: impl FnOnce() -> Result<String, E>) -> ExitCode {
    report(banner(&format!("Reproducing: {artifact}")), run())
}

/// Prints a run's text and the footer, or its error; the exit code says
/// which.
fn report<E: Display>(started: Instant, result: Result<String, E>) -> ExitCode {
    let code = match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("protocol error: {e}");
            ExitCode::FAILURE
        }
    };
    finish(started);
    code
}

/// Runs one `BENCH_*.json` sweep end to end. With `SPECSIM_BENCH_QUICK` set
/// it runs the CI-sized `quick()` config, otherwise `C::default()`; it
/// prints the config, runs it, prints the table and writes the artifact to
/// `path`. A failed run or write exits with failure, and a failed run
/// leaves any previous artifact untouched.
pub fn run_sweep<C, E>(
    path: &str,
    quick: fn() -> C,
    run: impl FnOnce(&C) -> Result<Sweep<C>, E>,
) -> ExitCode
where
    C: SweepConfig + Default,
    E: Display,
{
    let cfg = if std::env::var("SPECSIM_BENCH_QUICK").is_ok() {
        quick()
    } else {
        C::default()
    };
    let started = banner(&format!(
        "Reproducing: {}\n{cfg:?}\n(SPECSIM_BENCH_QUICK=1 for the CI-sized sweep; \
         SPECSIM_CYCLES / SPECSIM_SEEDS scale the full one)",
        C::TITLE
    ));
    let code = match run(&cfg) {
        Ok(sweep) => {
            println!("{}", sweep.render());
            write_artifact(path, &sweep.to_json())
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            ExitCode::FAILURE
        }
    };
    finish(started);
    code
}

/// Writes an artifact, turning a failed write into a failure exit code.
pub fn write_artifact(path: &str, json: &str) -> ExitCode {
    match std::fs::write(path, json) {
        Ok(()) => {
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `BENCH_kernel.json` payload: a flat `name → ns per simulated cycle`
/// object, two decimals per value.
#[must_use]
pub fn kernel_json(entries: &[(&str, f64)]) -> String {
    let fields: Vec<(&str, Cell)> = entries
        .iter()
        .map(|&(name, ns)| (name, Cell::Rounded(ns, 2)))
        .collect();
    json_object(&fields, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    use specsim::experiments::{HeavyTrafficConfig, HeavyTrafficData};

    #[test]
    fn header_and_footer_do_not_panic() {
        let t = start("smoke", ExperimentScale::quick());
        finish(t);
    }

    #[test]
    fn a_failed_figure_exits_with_failure() {
        let ok = |_| -> Result<String, &str> { Ok("table\n".to_string()) };
        assert_eq!(run_figure("smoke", ok), ExitCode::SUCCESS);
        let failed = |_| -> Result<String, &str> { Err("injected protocol error") };
        assert_eq!(run_figure("smoke", failed), ExitCode::FAILURE);
        let fixed = || -> Result<String, &str> { Err("injected protocol error") };
        assert_eq!(run_fixed("smoke", fixed), ExitCode::FAILURE);
    }

    #[test]
    fn a_failed_sweep_exits_with_failure_and_writes_nothing() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("specsim-sweep-{}.json", std::process::id()));
        let path = path.to_str().expect("temp path is UTF-8");
        let failed = |_: &HeavyTrafficConfig| -> Result<HeavyTrafficData, &str> {
            Err("injected protocol error")
        };
        assert_eq!(
            run_sweep(path, HeavyTrafficConfig::quick, failed),
            ExitCode::FAILURE
        );
        assert!(!std::path::Path::new(path).exists());

        // A failed write fails too; a good run and write succeeds.
        let empty = |cfg: &HeavyTrafficConfig| -> Result<HeavyTrafficData, &str> {
            Ok(Sweep {
                config: cfg.clone(),
                rows: vec![],
            })
        };
        let unwritable = dir.join("specsim-no-such-dir").join("sweep.json");
        let unwritable = unwritable.to_str().expect("temp path is UTF-8");
        assert_eq!(
            run_sweep(unwritable, HeavyTrafficConfig::quick, empty),
            ExitCode::FAILURE
        );
        assert_eq!(
            run_sweep(path, HeavyTrafficConfig::quick, empty),
            ExitCode::SUCCESS
        );
        let written = std::fs::read_to_string(path).expect("artifact written");
        std::fs::remove_file(path).expect("remove the test artifact");
        assert!(written.contains("\"workload\": \"oltp\"") && written.contains("\"rows\": ["));
    }

    #[test]
    fn kernel_json_keeps_the_flat_two_decimal_layout() {
        let json = kernel_json(&[
            ("network/torus_1000_cycles_random_traffic", 1035.186),
            ("network/torus_20000_cycles_sparse_traffic", 26.98),
            ("directory_system/oltp_5000_cycles", 430.5249),
        ]);
        assert_eq!(
            json,
            "{\n  \"network/torus_1000_cycles_random_traffic\": 1035.19,\n  \
             \"network/torus_20000_cycles_sparse_traffic\": 26.98,\n  \
             \"directory_system/oltp_5000_cycles\": 430.52\n}\n"
        );
    }

    /// `from_env` is what every bench target calls; until now it was only
    /// exercised indirectly via `cargo bench`. The cases run in one test
    /// function because they share process-global environment variables.
    #[test]
    fn experiment_scale_reads_the_environment() {
        let defaults = ExperimentScale::default();

        // Unset variables fall back to the defaults.
        std::env::remove_var("SPECSIM_CYCLES");
        std::env::remove_var("SPECSIM_SEEDS");
        assert_eq!(ExperimentScale::from_env(), defaults);

        // Valid overrides are applied, independently of each other.
        std::env::set_var("SPECSIM_CYCLES", "123456");
        assert_eq!(
            ExperimentScale::from_env(),
            ExperimentScale {
                cycles: 123_456,
                seeds: defaults.seeds
            }
        );
        std::env::set_var("SPECSIM_SEEDS", "7");
        assert_eq!(
            ExperimentScale::from_env(),
            ExperimentScale {
                cycles: 123_456,
                seeds: 7
            }
        );

        // Unparsable values are tested on `ExperimentScale::from_vars`:
        // set here, they would make every other test in this binary that
        // reads the scale fail.

        std::env::remove_var("SPECSIM_CYCLES");
        std::env::remove_var("SPECSIM_SEEDS");
    }
}
