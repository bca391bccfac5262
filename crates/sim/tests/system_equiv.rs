//! Linked multi-chip scheduler equivalence: on a 4-chip system the
//! active-list scheduler must be cycle-for-cycle indistinguishable from
//! the dense reference, link slip included.
//!
//! Every registry workload is placed once on `SystemSpec::grid(small_8x8,
//! 4)` and simulated under three shard plans: the planner's own plan, and
//! a forced 4-way split by unit index at link bandwidth 1 and at 4. The
//! planner keeps most designs whole on chip 0, so the forced split is
//! what puts packets on the links; at bandwidth 1 they contend and slip.
//! Each run is repeated with the profiler off and on, and active and
//! dense must agree on cycles, firings (total and per unit), DRAM
//! statistics, the final DRAM image and the profile.
//!
//! Equivalence alone cannot catch the oracle drifting together with the
//! active loop, so the split-plan cycle counts are also pinned to a
//! golden table captured from the original dense-only multi-chip loop.

use plasticine_arch::{ChipSpec, LinkSpec, SystemSpec};
use plasticine_sim::{simulate_system, SimConfig, SimOutcome};
use sara_core::compile::{compile, CompilerOptions};
use sara_core::shard::ShardPlan;
use sara_core::vudfg::{StreamId, Vudfg};

/// Split-plan cycle counts `(workload, bandwidth 1, bandwidth 4)` on
/// `4x small_8x8`, PnR seed 7, default compiler options — captured from
/// the dense-only multi-chip loop before both schedulers took it over.
const GOLDEN_SPLIT: &[(&str, u64, u64)] = &[
    ("dotprod", 608, 608),
    ("outerprod", 819, 803),
    ("gemm", 1145, 1145),
    ("mlp", 2343, 2315),
    ("lstm", 2279, 2231),
    ("snet", 3749, 3749),
    ("logreg", 1661, 1645),
    ("sgd", 1661, 1645),
    ("kmeans", 2320, 2317),
    ("gda", 4286, 4285),
    ("tpchq6", 598, 598),
    ("bs", 499, 499),
    ("sort", 7557, 7429),
    ("ms", 5242, 5044),
    ("pr", 3194, 3167),
    ("rf", 1046, 721),
];

/// Chips in the simulated system.
const CHIPS: u32 = 4;

/// Unit `i` of `n` goes to chip `i * CHIPS / n`: contiguous index ranges,
/// so every producer/consumer pair straddling a range boundary crosses.
fn index_split(g: &Vudfg) -> ShardPlan {
    let n = g.units.len().max(1);
    let chip_of: Vec<u32> = (0..g.units.len()).map(|i| (i * CHIPS as usize / n) as u32).collect();
    let crossings = g
        .streams
        .iter()
        .enumerate()
        .filter(|(_, s)| chip_of[s.src.index()] != chip_of[s.dst.index()])
        .map(|(i, _)| StreamId(i as u32))
        .collect();
    ShardPlan { count: CHIPS, chip_of, crossings, cut_traffic: 0.0 }
}

/// Run `plan` under both schedulers with the profiler off and on; assert
/// every pair bit-identical and return the cycle count.
fn check(what: &str, g: &Vudfg, system: &SystemSpec, plan: &ShardPlan) -> u64 {
    let run = |cfg: &SimConfig| -> SimOutcome {
        simulate_system(g, system, plan, cfg).unwrap_or_else(|e| panic!("{what}: {e}"))
    };
    let mut cycles = Vec::new();
    for cfg in [SimConfig::default(), SimConfig::profiled()] {
        let a = run(&cfg);
        let d = run(&SimConfig { dense: true, ..cfg });
        let tag = format!("{what} [profile {}]", a.profile.is_some());
        assert_eq!(a.cycles, d.cycles, "{tag}: cycle divergence");
        assert_eq!(a.stats.firings, d.stats.firings, "{tag}: total firings");
        assert_eq!(a.stats.unit_firings, d.stats.unit_firings, "{tag}: per-unit firings");
        assert_eq!(a.stats.dram, d.stats.dram, "{tag}: dram stats");
        assert_eq!(a.dram_final, d.dram_final, "{tag}: dram image");
        assert_eq!(format!("{:?}", a.profile), format!("{:?}", d.profile), "{tag}: profile");
        cycles.push(a.cycles);
    }
    assert_eq!(cycles[0], cycles[1], "{what}: profiling perturbed timing");
    cycles[0]
}

#[test]
fn linked_system_active_matches_dense_with_link_slip() {
    let chip = ChipSpec::small_8x8();
    let system = |bandwidth| SystemSpec {
        link: LinkSpec { bandwidth, ..LinkSpec::default() },
        ..SystemSpec::grid(chip.clone(), CHIPS)
    };
    let mut measured = Vec::new();
    for w in sara_workloads::all_small() {
        let name = w.name;
        let mut c = compile(&w.program, &chip, &CompilerOptions::default()).expect(name);
        let pnr = sara_pnr::place_and_route_system(&mut c.vudfg, &c.assignment, &system(4), 7)
            .unwrap_or_else(|e| panic!("{name}: pnr: {e}"));
        check(&format!("{name} planner plan"), &c.vudfg, &system(4), &pnr.plan);

        let split = index_split(&c.vudfg);
        assert!(!split.crossings.is_empty(), "{name}: the index split must cross");
        let bw1 = check(&format!("{name} split, bw 1"), &c.vudfg, &system(1), &split);
        let bw4 = check(&format!("{name} split, bw 4"), &c.vudfg, &system(4), &split);
        measured.push((name, bw1, bw4));
    }
    assert_eq!(measured, GOLDEN_SPLIT, "split-plan cycle counts drifted from the golden table");
    assert!(
        measured.iter().any(|&(_, bw1, bw4)| bw1 != bw4),
        "bandwidth 1 changed no cycle count: the link-slip path never ran"
    );
}
