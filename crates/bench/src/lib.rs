//! Shared experiment-harness plumbing: compile+PnR+simulate runners and
//! result records serialized into `results/`.

pub mod cli;
pub mod json;
pub mod trace;

use plasticine_arch::{ChipSpec, SystemSpec};
use plasticine_sim::{simulate, simulate_system, SimConfig, SimOutcome};
use sara_core::compile::{compile, Compiled, CompilerOptions};
use sara_core::shard::ShardPlan;
use sara_ir::interp::{Interp, InterpStats};
use sara_ir::Program;
use sara_util::Json;
use std::path::PathBuf;

pub use cli::{parse_profile_dir_flag, profile_dir};

/// One full run of a program through the SARA stack.
#[derive(Debug)]
pub struct Run {
    pub compiled: Compiled,
    pub outcome: SimOutcome,
    /// Reference interpreter statistics (dynamic op/byte counts).
    pub interp: InterpStats,
    /// Chip assignment, crossing streams and cut traffic (all on chip 0
    /// for a 1-chip system).
    pub plan: ShardPlan,
}

impl Run {
    /// Cycles to completion.
    pub fn cycles(&self) -> u64 {
        self.outcome.cycles
    }

    /// Throughput in FLOP/cycle.
    pub fn flops_per_cycle(&self) -> f64 {
        self.interp.total_ops() as f64 / self.outcome.cycles as f64
    }

    /// Wall-clock seconds at the chip's clock.
    pub fn seconds(&self, chip: &ChipSpec) -> f64 {
        self.outcome.cycles as f64 / (chip.clock_ghz * 1e9)
    }

    /// Physical units used.
    pub fn pus(&self) -> usize {
        self.compiled.report.total_pus()
    }
}

/// Simulator configuration for bench runs: the wakeup-driven active-list
/// scheduler by default, or the dense reference scheduler when
/// `SARA_SIM_DENSE=1` (the two are cycle-for-cycle equivalent; the
/// override exists to measure the engine speedup, see EXPERIMENTS.md).
pub fn sim_config() -> SimConfig {
    if std::env::var_os("SARA_SIM_DENSE").is_some_and(|v| v == "1") {
        SimConfig::dense()
    } else {
        SimConfig::default()
    }
}

/// Compile, shard, place-and-route per chip, and simulate a program on a
/// system (see `sara_pnr::place_and_route_system` and
/// `plasticine_sim::simulate_system`; a 1-chip system takes the
/// single-chip pipeline bit-for-bit). When a profile directory is
/// configured the run is profiled (cycle counts are bit-identical either
/// way) and writes `<dir>/<tag>.profile.json` (counters) and
/// `<dir>/<tag>.trace.json` (Chrome trace, opens in Perfetto).
///
/// # Errors
///
/// Returns a human-readable description of the failing phase, including
/// artifact I/O.
pub fn run(
    tag: &str,
    p: &Program,
    system: &SystemSpec,
    opts: &CompilerOptions,
) -> Result<Run, String> {
    let dir = profile_dir();
    let cfg = SimConfig { profile: dir.is_some(), ..sim_config() };
    let interp = Interp::new(p).run().map_err(|e| format!("interp: {e}"))?.stats;
    let mut compiled = compile(p, &system.chip, opts).map_err(|e| format!("compile: {e}"))?;
    let plan =
        sara_pnr::place_and_route_system(&mut compiled.vudfg, &compiled.assignment, system, 17)
            .map_err(|e| format!("pnr: {e}"))?
            .plan;
    let outcome =
        simulate_system(&compiled.vudfg, system, &plan, &cfg).map_err(|e| format!("sim: {e}"))?;
    if let (Some(dir), Some(prof)) = (dir, &outcome.profile) {
        std::fs::create_dir_all(&dir).map_err(|e| format!("profile dir: {e}"))?;
        std::fs::write(dir.join(format!("{tag}.profile.json")), json::profile_json(prof).pretty())
            .map_err(|e| format!("write profile json: {e}"))?;
        std::fs::write(
            dir.join(format!("{tag}.trace.json")),
            trace::chrome_trace(tag, prof).pretty(),
        )
        .map_err(|e| format!("write chrome trace: {e}"))?;
    }
    Ok(Run { compiled, outcome, interp, plan })
}

/// Compile and simulate through the vanilla-Plasticine (PC) baseline.
pub fn run_pc(p: &Program, chip: &ChipSpec) -> Result<Run, String> {
    let interp = Interp::new(p).run().map_err(|e| format!("interp: {e}"))?.stats;
    let mut compiled = sara_baselines::pc::compile_pc(p, chip).map_err(|e| format!("pc: {e}"))?;
    sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, chip, 17)
        .map_err(|e| format!("pnr: {e}"))?;
    sara_baselines::pc::apply_hierarchical_control(&mut compiled);
    let outcome =
        simulate(&compiled.vudfg, chip, &sim_config()).map_err(|e| format!("sim: {e}"))?;
    Ok(Run { plan: ShardPlan::single(&compiled.vudfg), compiled, outcome, interp })
}

/// Write a result set to `results/<name>.json` (repo root), returning the
/// path. `SARA_BENCH_RESULTS_DIR` redirects the output directory (used by
/// the smoke tests to avoid overwriting full sweep results).
///
/// # Errors
///
/// A human-readable description when the directory cannot be created or
/// the file cannot be written.
pub fn save_json(name: &str, value: &Json) -> Result<PathBuf, String> {
    let dir = std::env::var_os("SARA_BENCH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create results dir {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.pretty())
        .map_err(|e| format!("cannot write results file {}: {e}", path.display()))?;
    Ok(path)
}

/// [`save_json`] for the fig/table binaries: exits with a one-line
/// diagnostic (code 1) instead of a panic backtrace on I/O failure.
pub fn save_json_or_exit(name: &str, value: &Json) -> PathBuf {
    save_json(name, value).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// True when `SARA_BENCH_SMOKE` is set: binaries shrink their sweeps to a
/// few seconds total so `cargo test` can exercise them end-to-end.
pub fn smoke() -> bool {
    std::env::var_os("SARA_BENCH_SMOKE").is_some()
}

/// Geometric mean of positive factors.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn run_small_workload() {
        let w = sara_workloads::by_name("dotprod").unwrap();
        let system = SystemSpec::single(ChipSpec::small_8x8());
        let r = run("dotprod", &w.program, &system, &CompilerOptions::default()).unwrap();
        assert!(r.cycles() > 0);
        assert!(r.pus() > 0);
        assert!(r.flops_per_cycle() > 0.0);
        assert_eq!(r.plan.count, 1);
    }
}
