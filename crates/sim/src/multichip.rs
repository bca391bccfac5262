//! Linked multi-chip simulation: every chip of a [`SystemSpec`] advances
//! under one global clock, with cross-chip streams rate-limited by a
//! credit-based inter-chip link model.
//!
//! The simulated graph is the *original* compiled VUDFG — the shard plan
//! only assigns each unit a chip. The run goes through the same setup and
//! the same two schedulers as one chip ([`crate::engine`]), so
//! [`SimConfig::dense`] selects the dense reference or the active list
//! exactly as for [`simulate`]. What changes at a chip boundary:
//!
//! * **DRAM** — each chip owns a [`ramulator_lite::DramSim`]; a unit's
//!   requests go to its own chip's controller, so memory bandwidth scales
//!   with chip count. All controllers back one shared word image (a
//!   partitioned-bandwidth shared-address-space model — remote rows cost
//!   link traffic only through the streams that carry them, a deliberate
//!   simplification documented in DESIGN.md).
//! * **Links** — crossing streams share the directed physical links of
//!   their routes under a per-link bandwidth limit (see [`crate::link`]).
//!   A packet that slips is held in flight, and the active scheduler
//!   wakes its consumer at the delayed delivery cycle.
//!
//! Fault injection is rejected — the fault plan addresses single-chip
//! state. The sanitizer and profiler work as on one chip, with DRAM
//! checks run per controller and DRAM statistics summed.
//!
//! A 1-chip system delegates to [`simulate`] outright, so the
//! single-chip path — and its golden cycle counts — is untouched by
//! construction.

use crate::engine::{run, simulate, SimConfig, SimError, SimOutcome};
use crate::link::Links;
use plasticine_arch::SystemSpec;
use sara_core::shard::ShardPlan;
use sara_core::vudfg::Vudfg;

/// Simulate a compiled, system-placed VUDFG on every chip of `system`
/// under one global clock.
///
/// `plan` is the shard plan `sara-pnr`'s system placement produced for
/// this graph (it assigns every unit a chip and lists the crossing
/// streams). A 1-chip system delegates to [`simulate`] and is
/// bit-identical to the single-chip path.
///
/// # Errors
///
/// [`SimError::Config`] when the plan does not cover the graph or a
/// fault plan is supplied; otherwise as [`simulate`].
pub fn simulate_system(
    g: &Vudfg,
    system: &SystemSpec,
    plan: &ShardPlan,
    cfg: &SimConfig,
) -> Result<SimOutcome, SimError> {
    if system.count <= 1 {
        return simulate(g, &system.chip, cfg);
    }
    if cfg.faults.is_some() {
        return Err(SimError::Config {
            message: "fault injection is single-chip only; run --faults without --system".into(),
        });
    }
    if plan.chip_of.len() != g.units.len() {
        return Err(SimError::Config {
            message: format!(
                "shard plan covers {} units but the graph has {}",
                plan.chip_of.len(),
                g.units.len()
            ),
        });
    }
    if let Some(&c) = plan.chip_of.iter().find(|&&c| c >= system.count) {
        return Err(SimError::Config {
            message: format!(
                "shard plan places a unit on chip {c} of a {}-chip system",
                system.count
            ),
        });
    }
    let links = Links::new(g, system, plan);
    run(g, cfg, system.chip.dram, system.count as usize, plan.chip_of.clone(), Some(links))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::claim_route;
    use plasticine_arch::ChipSpec;
    use sara_core::compile::compile;
    use sara_pnr::place_and_route_system;
    use std::collections::HashMap;

    /// A hand-rolled plan splitting the graph in half by unit index.
    /// The planner itself keeps designs that fit one chip whole, so the
    /// link-model tests force crossings with an adversarial plan rather
    /// than depending on planner policy.
    fn halved_plan(g: &Vudfg, count: u32) -> ShardPlan {
        let n = g.units.len();
        let chip_of: Vec<u32> = (0..n).map(|i| if i < n / 2 { 0 } else { count - 1 }).collect();
        let crossings = g
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| chip_of[s.src.index()] != chip_of[s.dst.index()])
            .map(|(i, _)| sara_core::vudfg::StreamId(i as u32))
            .collect();
        ShardPlan { count, chip_of, crossings, cut_traffic: 0.0 }
    }

    fn system_outcome(workload: &str, count: u32, link_bw: u32) -> SimOutcome {
        let w = sara_workloads::by_name(workload).unwrap();
        let chip = ChipSpec::small_8x8();
        let mut system = SystemSpec::grid(chip.clone(), count);
        system.link.bandwidth = link_bw;
        let mut compiled = compile(&w.program, &chip, &Default::default()).unwrap();
        let pnr =
            place_and_route_system(&mut compiled.vudfg, &compiled.assignment, &system, 7).unwrap();
        let plan = if count > 1 { halved_plan(&compiled.vudfg, count) } else { pnr.plan };
        assert!(count <= 1 || !plan.crossings.is_empty(), "the halved plan must cross");
        simulate_system(&compiled.vudfg, &system, &plan, &SimConfig::default()).unwrap()
    }

    #[test]
    fn one_chip_system_delegates_to_the_single_chip_engine() {
        let w = sara_workloads::by_name("dotprod").unwrap();
        let chip = ChipSpec::small_8x8();
        let system = SystemSpec::single(chip.clone());
        let mut compiled = compile(&w.program, &chip, &Default::default()).unwrap();
        let pnr =
            place_and_route_system(&mut compiled.vudfg, &compiled.assignment, &system, 7).unwrap();
        let single = simulate(&compiled.vudfg, &chip, &SimConfig::default()).unwrap();
        let sys =
            simulate_system(&compiled.vudfg, &system, &pnr.plan, &SimConfig::default()).unwrap();
        assert_eq!(sys.cycles, single.cycles);
        assert_eq!(sys.dram_final, single.dram_final);
    }

    #[test]
    fn two_chip_run_computes_the_same_answer() {
        let w = sara_workloads::by_name("dotprod").unwrap();
        let chip = ChipSpec::small_8x8();
        let mut reference = compile(&w.program, &chip, &Default::default()).unwrap();
        let rpnr = place_and_route_system(
            &mut reference.vudfg,
            &reference.assignment,
            &SystemSpec::single(chip.clone()),
            7,
        )
        .unwrap();
        let expect = simulate_system(
            &reference.vudfg,
            &SystemSpec::single(chip),
            &rpnr.plan,
            &SimConfig::default(),
        )
        .unwrap();
        let got = system_outcome("dotprod", 2, 4);
        assert_eq!(got.dram_final, expect.dram_final, "sharding must not change results");
        assert!(got.cycles > 0);
    }

    #[test]
    fn starved_links_slow_the_crossings_down() {
        let fast = system_outcome("gemm", 2, 64);
        let slow = system_outcome("gemm", 2, 1);
        assert_eq!(fast.dram_final, slow.dram_final, "bandwidth is a timing knob only");
        assert!(
            slow.cycles >= fast.cycles,
            "1 pkt/cycle links ({}) cannot beat 64 pkt/cycle links ({})",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn fault_plans_are_rejected_on_multi_chip_systems() {
        let w = sara_workloads::by_name("dotprod").unwrap();
        let chip = ChipSpec::small_8x8();
        let system = SystemSpec::grid(chip.clone(), 2);
        let mut compiled = compile(&w.program, &chip, &Default::default()).unwrap();
        let pnr =
            place_and_route_system(&mut compiled.vudfg, &compiled.assignment, &system, 7).unwrap();
        let cfg = SimConfig {
            faults: Some(crate::fault::seeded_plan(&compiled.vudfg, 1, 11)),
            ..SimConfig::default()
        };
        let err = simulate_system(&compiled.vudfg, &system, &pnr.plan, &cfg).unwrap_err();
        assert!(matches!(err, SimError::Config { .. }), "{err}");
    }

    #[test]
    fn link_slots_serialize_contending_packets() {
        let mut usage = HashMap::new();
        // A one-leg route over link 1, link bandwidth 2: two packets
        // pass at their requested cycle, the third slips by one, the
        // fifth by two.
        let route = [1u64];
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 0);
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 0);
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 1);
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 1);
        assert_eq!(claim_route(&mut usage, &route, 10, 2, 40), 2);
        // On a two-leg route the leg-1 slip already serializes the
        // packets, so leg 2 grants them on time: total slip stays 1.
        let legs = [1u64, (1u64 << 32) | 3];
        let mut usage2 = HashMap::new();
        assert_eq!(claim_route(&mut usage2, &legs, 5, 1, 40), 0);
        assert_eq!(claim_route(&mut usage2, &legs, 5, 1, 40), 1);
    }
}
