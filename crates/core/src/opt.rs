//! Performance and resource optimizations (paper §III-C): the switches
//! that select them. The passes themselves live where each is naturally
//! expressed (see [`optimize`]).

use crate::vudfg::Vudfg;
use serde::{Deserialize, Serialize};

/// Which optimizations are enabled. Fig 10 ablates `retime` and
/// `retime_m` (plus the CMMC switches `reduce` and `relax`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptConfig {
    /// Route-through elimination: forwarding memories between lock-step
    /// producer/consumer pairs are removed.
    pub rtelm: bool,
    /// Retiming: insert buffer units on delay-imbalanced paths to keep
    /// full pipeline throughput.
    pub retime: bool,
    /// Use scratchpads (PMUs) as retiming buffers instead of chained
    /// compute-unit FIFOs.
    pub retime_m: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { rtelm: true, retime: true, retime_m: true }
    }
}

impl OptConfig {
    /// Everything off (the ablation baseline).
    pub fn none() -> Self {
        OptConfig { rtelm: false, retime: false, retime_m: false }
    }
}

/// Statistics of one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptStats {
    pub rtelm_removed: usize,
}

/// No VUDFG-level pass is left to run here: [`crate::compile()`] does not
/// call this, and it returns empty statistics. It stays only for the
/// stage-by-stage compile of the `pipebench` benchmark, which calls it.
///
/// The §III-C passes are distributed across the pipeline where each is
/// naturally expressed:
/// * `rtelm` rewrites the IR before lowering ([`crate::opt_ir::rtelm`]);
/// * `retime`/`retime_m` run during assignment, where post-partitioning
///   path delays are known ([`crate::assign`]);
/// * memory strength reduction and crossbar elimination have no switch:
///   they hold by construction (see the [`crate::opt_ir`] module docs).
pub fn optimize(_g: &mut Vudfg, _cfg: &OptConfig) -> OptStats {
    OptStats::default()
}
