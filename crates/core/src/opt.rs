//! Performance and resource optimizations (paper §III-C): placeholder
//! module shell; the individual passes live in submodules added during
//! compilation-flow construction.

use crate::vudfg::Vudfg;
use serde::{Deserialize, Serialize};

/// Which optimizations are enabled (the Fig 10 ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptConfig {
    /// Memory strength reduction: scratchpads with constant-address
    /// accessors become FIFOs (input buffers).
    pub msr: bool,
    /// Route-through elimination: forwarding memories between lock-step
    /// producer/consumer pairs are removed.
    pub rtelm: bool,
    /// Retiming: insert buffer units on delay-imbalanced paths to keep
    /// full pipeline throughput.
    pub retime: bool,
    /// Use scratchpads (PMUs) as retiming buffers instead of chained
    /// compute-unit FIFOs.
    pub retime_m: bool,
    /// Duplicate cheap bank-address computation instead of forwarding it
    /// across the crossbar datapath.
    pub xbar_elm: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { msr: true, rtelm: true, retime: true, retime_m: true, xbar_elm: true }
    }
}

impl OptConfig {
    /// Everything off (the ablation baseline).
    pub fn none() -> Self {
        OptConfig { msr: false, rtelm: false, retime: false, retime_m: false, xbar_elm: false }
    }
}

/// Statistics of one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptStats {
    pub rtelm_removed: usize,
}

/// Apply the enabled VUDFG-level optimizations in place and return
/// statistics.
///
/// The §III-C passes are distributed across the pipeline where each is
/// naturally expressed:
/// * `rtelm` rewrites the IR before lowering ([`crate::opt_ir::rtelm`]);
/// * `msr` is structural — constant/affine addresses statically resolve
///   to point-to-point streams at banking time (see [`crate::opt_ir`]
///   module docs);
/// * `xbar_elm` is a lowering wiring decision (bank-address computation is
///   duplicated into each lane's request unit rather than forwarded);
/// * `retime`/`retime_m` run during assignment, where post-partitioning
///   path delays are known ([`crate::assign`]).
pub fn optimize(_g: &mut Vudfg, _cfg: &OptConfig) -> OptStats {
    OptStats::default()
}
