//! # sara-pnr
//!
//! Placement and routing of a compiled VUDFG onto the Plasticine grid
//! (phase two of the paper's Fig 3 — "well studied in previous CGRA
//! mapping work", so this crate implements the standard approach):
//!
//! 1. merge groups / VMUs / AGs become *placeables* typed PCU/PMU/AG;
//! 2. an initial breadth-first placement is refined by simulated
//!    annealing minimizing total Manhattan wirelength;
//! 3. streams are routed in dimension order (X then Y); per-link usage
//!    yields a congestion estimate;
//! 4. each stream's latency is written back into the VUDFG:
//!    `hops × hop_latency + congestion penalty` (intra-unit streams get
//!    latency 1).
//!
//! ```no_run
//! # use sara_ir::Program;
//! # use plasticine_arch::ChipSpec;
//! # use sara_core::compile::{compile, CompilerOptions};
//! # fn demo(p: &Program) -> Result<(), Box<dyn std::error::Error>> {
//! let chip = ChipSpec::sara_20x20();
//! let mut compiled = compile(p, &chip, &CompilerOptions::default())?;
//! let pnr = sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, &chip, 42)?;
//! println!("wirelength {}", pnr.wirelength);
//! # Ok(())
//! # }
//! ```

use plasticine_arch::{ChipSpec, PuType, SystemSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sara_core::assign::Assignment;
use sara_core::shard::{self, ShardPlan};
use sara_core::vudfg::{UnitId, Vudfg};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// PnR failure: more placeables of a type than grid slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PnrError {
    pub what: PuType,
    pub needed: usize,
    pub available: usize,
}

impl fmt::Display for PnrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "placement failed: need {} {} slots, chip has {}",
            self.needed, self.what, self.available
        )
    }
}

impl std::error::Error for PnrError {}

/// Grid coordinate. AG columns sit at `x = -1` and `x = cols`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pos {
    pub x: i32,
    pub y: i32,
}

impl Pos {
    /// Manhattan distance.
    pub fn dist(self, o: Pos) -> u32 {
        (self.x - o.x).unsigned_abs() + (self.y - o.y).unsigned_abs()
    }
}

/// Placement and routing result.
#[derive(Debug, Clone)]
pub struct PnrResult {
    /// Position of each placeable group.
    pub positions: HashMap<Placeable, Pos>,
    /// Position of each unit (via its group).
    pub unit_pos: HashMap<UnitId, Pos>,
    /// Total Manhattan wirelength over inter-unit streams.
    pub wirelength: u64,
    /// Maximum link usage (congestion proxy).
    pub max_link_use: u32,
    /// Annealing iterations performed.
    pub iterations: u64,
}

/// What gets one grid slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placeable {
    /// A merge group of compute units.
    Group(usize),
    /// A unit placed alone (VMU, AG, or compute not in the merge plan).
    Solo(UnitId),
}

/// Place the design and write routed latencies into the VUDFG streams.
///
/// # Errors
///
/// Fails when a unit class exceeds the chip's slot count.
pub fn place_and_route(
    g: &mut Vudfg,
    asg: &Assignment,
    chip: &ChipSpec,
    seed: u64,
) -> Result<PnrResult, PnrError> {
    // ---- collect placeables ----
    let mut placeable_of_unit: HashMap<UnitId, Placeable> = HashMap::new();
    let mut kinds: HashMap<Placeable, PuType> = HashMap::new();
    for u in g.unit_ids() {
        let t = asg.pu_type.get(&u).copied().unwrap_or(PuType::Pcu);
        let p = match asg.merge.group_of(u) {
            Some(grp) => Placeable::Group(grp),
            None => Placeable::Solo(u),
        };
        placeable_of_unit.insert(u, p);
        kinds.entry(p).or_insert(t);
    }
    // Response units ride with a PMU: place them with the VMU they listen
    // to when possible.
    for u in g.unit_ids() {
        if let Some(src) = asg.pmu_host(g, u) {
            let host = placeable_of_unit[&src];
            placeable_of_unit.insert(u, host);
        }
    }

    let mut slots: HashMap<PuType, Vec<Pos>> = HashMap::new();
    for y in 0..chip.rows as i32 {
        for x in 0..chip.cols as i32 {
            if let plasticine_arch::GridSlot::Pu(t) = chip.slot(y as u32, x as u32) {
                slots.entry(t).or_default().push(Pos { x, y });
            }
        }
    }
    // AG slots along left/right edges.
    let mut ag_slots = Vec::new();
    for i in 0..chip.ags {
        let y = (i / 2) as i32 % chip.rows.max(1) as i32;
        let x = if i % 2 == 0 { -1 } else { chip.cols as i32 };
        ag_slots.push(Pos { x, y });
    }
    slots.insert(PuType::Ag, ag_slots);

    // ---- capacity check ----
    let mut want: HashMap<PuType, Vec<Placeable>> = HashMap::new();
    for (p, t) in &kinds {
        // only placeables actually used by some unit
        want.entry(*t).or_default().push(*p);
    }
    for (t, list) in &mut want {
        list.sort_by_key(|p| match p {
            Placeable::Group(g) => (*g, 0),
            Placeable::Solo(u) => (u.index(), 1),
        });
        let have = slots.get(t).map(|s| s.len()).unwrap_or(0);
        // AG units time-share the physical DRAM interfaces (the
        // assignment phase accounts `streams_per_ag` logical streams per
        // AG), so AG overflow packs round-robin instead of failing.
        if list.len() > have && *t != PuType::Ag {
            return Err(PnrError { what: *t, needed: list.len(), available: have });
        }
    }

    // ---- nets (inter-placeable streams with multiplicity) ----
    let mut nets: HashMap<(Placeable, Placeable), u32> = HashMap::new();
    for s in &g.streams {
        let (a, b) = (placeable_of_unit[&s.src], placeable_of_unit[&s.dst]);
        if a != b {
            *nets.entry((a, b)).or_insert(0) += 1;
        }
    }

    // ---- initial placement: in declaration order onto slot order ----
    let mut positions: HashMap<Placeable, Pos> = HashMap::new();
    for (t, list) in &want {
        let n_slots = slots[t].len();
        for (i, p) in list.iter().enumerate() {
            positions.insert(*p, slots[t][i % n_slots]);
        }
    }

    // ---- simulated annealing ----
    let wl = |pos: &HashMap<Placeable, Pos>| -> u64 {
        nets.iter().map(|((a, b), m)| pos[a].dist(pos[b]) as u64 * *m as u64).sum()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cur = wl(&positions);
    let mut iterations = 0u64;
    for t in [PuType::Pcu, PuType::Pmu, PuType::Ag] {
        let Some(list) = want.get(&t) else { continue };
        let all = &slots[&t];
        if list.is_empty() || all.len() < 2 {
            continue;
        }
        // occupancy map for this type
        let n_iters = (list.len() as u64 * 200).clamp(200, 50_000);
        let mut temp = (cur as f64 / nets.len().max(1) as f64).max(4.0);
        for _ in 0..n_iters {
            iterations += 1;
            let p = list[rng.gen_range(0..list.len())];
            let target = all[rng.gen_range(0..all.len())];
            // find who occupies target (linear over list; lists are small)
            let occupant = list.iter().find(|q| positions[*q] == target).copied();
            let old_p = positions[&p];
            // swap
            positions.insert(p, target);
            if let Some(o) = occupant {
                positions.insert(o, old_p);
            }
            let new = wl(&positions);
            let accept =
                new <= cur || rng.gen::<f64>() < (-((new - cur) as f64) / temp.max(1e-9)).exp();
            if accept {
                cur = new;
            } else {
                positions.insert(p, old_p);
                if let Some(o) = occupant {
                    positions.insert(o, target);
                }
            }
            temp *= 0.9995;
        }
    }

    // ---- routing: X-then-Y, count link usage ----
    let mut link_use: HashMap<(Pos, Pos), u32> = HashMap::new();
    let mut route = |a: Pos, b: Pos, m: u32| {
        let mut cur = a;
        while cur.x != b.x {
            let nxt = Pos { x: cur.x + (b.x - cur.x).signum(), y: cur.y };
            *link_use.entry((cur, nxt)).or_insert(0) += m;
            cur = nxt;
        }
        while cur.y != b.y {
            let nxt = Pos { x: cur.x, y: cur.y + (b.y - cur.y).signum() };
            *link_use.entry((cur, nxt)).or_insert(0) += m;
            cur = nxt;
        }
    };
    for ((a, b), m) in &nets {
        route(positions[a], positions[b], *m);
    }
    let max_link_use = link_use.values().copied().max().unwrap_or(0);

    // ---- latency write-back ----
    let unit_pos: HashMap<UnitId, Pos> =
        placeable_of_unit.iter().map(|(u, p)| (*u, positions[p])).collect();
    // congestion penalty: links loaded beyond 4 virtual channels slow the
    // streams crossing them; approximate per-stream by endpoint distance
    // share.
    for s in &mut g.streams {
        let (a, b) = (placeable_of_unit[&s.src], placeable_of_unit[&s.dst]);
        if a == b {
            s.latency = 1;
        } else {
            let hops = positions[&a].dist(positions[&b]).max(1);
            let congest = if max_link_use > 8 { (max_link_use / 8).min(4) } else { 0 };
            s.latency = hops * chip.hop_latency + congest;
        }
    }
    Ok(PnrResult { positions, unit_pos, wirelength: cur, max_link_use, iterations })
}

/// Multi-chip placement result: the sharding plan plus one
/// [`PnrResult`] per chip (empty chips get empty results).
#[derive(Debug, Clone)]
pub struct SystemPnr {
    /// Where every unit lives.
    pub plan: ShardPlan,
    /// Per-chip placement, indexed by chip.
    pub chips: Vec<PnrResult>,
}

impl SystemPnr {
    /// Total on-chip wirelength over all chips.
    pub fn wirelength(&self) -> u64 {
        self.chips.iter().map(|c| c.wirelength).sum()
    }
}

/// Place a design onto a multi-chip system: shard the graph
/// ([`shard::plan_shards`]), run [`place_and_route`] per chip on its
/// shard, write routed on-chip latencies back into the original graph,
/// and give every chip-crossing stream its link latency
/// (`route hops × link latency`) and a FIFO at least as deep as the
/// link's credit window (never shallower than compiled — token-stream
/// init credits must keep fitting).
///
/// A 1-chip system delegates to [`place_and_route`] with the same seed:
/// the single-chip path stays bit-identical.
///
/// # Errors
///
/// Fails when some shard exceeds its chip's slot counts (the plan
/// respects capacity when any balanced cut does, so this surfaces only
/// genuinely oversized designs).
pub fn place_and_route_system(
    g: &mut Vudfg,
    asg: &Assignment,
    system: &SystemSpec,
    seed: u64,
) -> Result<SystemPnr, PnrError> {
    if system.count <= 1 {
        let r = place_and_route(g, asg, &system.chip, seed)?;
        return Ok(SystemPnr { plan: ShardPlan::single(g), chips: vec![r] });
    }
    let plan = shard::plan_shards(g, asg, system);
    let mut shards = shard::extract_shards(g, asg, &plan);
    let mut chips = Vec::with_capacity(shards.len());
    for sh in &mut shards {
        let r = place_and_route(
            &mut sh.vudfg,
            &sh.assignment,
            &system.chip,
            seed.wrapping_add(u64::from(sh.chip)),
        )?;
        for (lsid, &(gsid, internal)) in sh.stream_map.iter().enumerate() {
            if internal {
                g.stream_mut(gsid).latency = sh.vudfg.streams[lsid].latency;
            }
        }
        chips.push(r);
    }
    for &sid in &plan.crossings {
        let hops = {
            let s = g.stream(sid);
            system.route_hops(plan.chip_of[s.src.index()], plan.chip_of[s.dst.index()]).max(1)
        };
        let s = g.stream_mut(sid);
        s.latency = hops * system.link.latency.max(1);
        s.depth = s.depth.max(system.link.fifo_depth);
    }
    Ok(SystemPnr { plan, chips })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_core::assign::{assign, AssignOptions};
    use sara_core::vudfg::{DfgNode, NodeOp, StreamKind, UnitKind, Vcu, VcuRole};
    use sara_ir::BinOp;

    fn chain_vudfg(n: usize) -> Vudfg {
        let mut g = Vudfg::new("chain");
        let mut prev = None;
        for i in 0..n {
            let dfg =
                (0..6).map(|_| DfgNode { op: NodeOp::Bin(BinOp::Add), ins: vec![] }).collect();
            let u = g.add_unit(
                format!("u{i}"),
                UnitKind::Vcu(Vcu {
                    levels: vec![],
                    dfg,
                    width: 1,
                    role: VcuRole::Merge,
                    token_pops: vec![],
                    token_pushes: vec![],
                    producer_gate_mask: vec![],
                    epoch_emit: None,
                }),
            );
            if let Some(p) = prev {
                g.connect(p, u, StreamKind::Scalar, 8, "s");
            }
            prev = Some(u);
        }
        g
    }

    #[test]
    fn chain_places_and_routes() {
        let mut g = chain_vudfg(6);
        let chip = ChipSpec::tiny_4x4();
        let asg = assign(&mut g, &chip, &AssignOptions::default()).unwrap();
        let r = place_and_route(&mut g, &asg, &chip, 7).unwrap();
        assert!(r.wirelength > 0);
        // all streams got routed latencies
        for s in &g.streams {
            assert!(s.latency >= 1);
        }
        // deterministic for equal seeds
        let mut g2 = chain_vudfg(6);
        let asg2 = assign(&mut g2, &chip, &AssignOptions::default()).unwrap();
        let r2 = place_and_route(&mut g2, &asg2, &chip, 7).unwrap();
        assert_eq!(r.wirelength, r2.wirelength);
    }

    #[test]
    fn capacity_overflow_detected() {
        let mut g = chain_vudfg(60); // 60 PCU-class units on a 4x4 grid (8 PCUs)
        let chip = ChipSpec::tiny_4x4();
        let asg = assign(&mut g, &chip, &AssignOptions::default()).unwrap();
        let err = place_and_route(&mut g, &asg, &chip, 7).unwrap_err();
        assert_eq!(err.what, PuType::Pcu);
        assert!(err.needed > err.available);
    }

    #[test]
    fn annealing_reduces_wirelength_vs_random() {
        // ring topology benefits from locality
        let mut g = chain_vudfg(8);
        let chip = ChipSpec::tiny_4x4();
        let asg = assign(&mut g, &chip, &AssignOptions::default()).unwrap();
        let r = place_and_route(&mut g, &asg, &chip, 3).unwrap();
        // 7 nets (chain may merge into fewer placeables); wirelength must
        // be bounded by a loose constant for a tight chain on a 4x4 grid
        assert!(r.wirelength <= 40, "wl {}", r.wirelength);
    }

    #[test]
    fn pos_distance() {
        assert_eq!(Pos { x: 0, y: 0 }.dist(Pos { x: 3, y: 4 }), 7);
        assert_eq!(Pos { x: -1, y: 2 }.dist(Pos { x: 2, y: 0 }), 5);
    }

    #[test]
    fn one_chip_system_matches_single_chip_pnr_exactly() {
        let chip = ChipSpec::tiny_4x4();
        let mut g1 = chain_vudfg(6);
        let asg1 = assign(&mut g1, &chip, &AssignOptions::default()).unwrap();
        let r1 = place_and_route(&mut g1, &asg1, &chip, 7).unwrap();
        let mut g2 = chain_vudfg(6);
        let asg2 = assign(&mut g2, &chip, &AssignOptions::default()).unwrap();
        let sys = SystemSpec::single(chip);
        let r2 = place_and_route_system(&mut g2, &asg2, &sys, 7).unwrap();
        assert_eq!(r2.chips.len(), 1);
        assert_eq!(r1.wirelength, r2.wirelength());
        let lat1: Vec<u32> = g1.streams.iter().map(|s| s.latency).collect();
        let lat2: Vec<u32> = g2.streams.iter().map(|s| s.latency).collect();
        assert_eq!(lat1, lat2, "routed latencies must match the single-chip path");
        let dep1: Vec<u32> = g1.streams.iter().map(|s| s.depth).collect();
        let dep2: Vec<u32> = g2.streams.iter().map(|s| s.depth).collect();
        assert_eq!(dep1, dep2, "no depth widening on one chip");
    }

    #[test]
    fn two_chip_system_splits_and_links_the_crossings() {
        // 12 PCU-class units overflow one tiny chip's 8 PCU slots, so
        // the planner must split the chain across both chips.
        let chip = ChipSpec::tiny_4x4();
        let sys = SystemSpec::grid(chip.clone(), 2);
        let mut g = chain_vudfg(12);
        let asg = assign(&mut g, &chip, &AssignOptions::default()).unwrap();
        let r = place_and_route_system(&mut g, &asg, &sys, 7).unwrap();
        assert_eq!(r.chips.len(), 2);
        assert!(!r.plan.crossings.is_empty(), "a chain split across chips must cross");
        for &sid in &r.plan.crossings {
            let s = g.stream(sid);
            assert_eq!(s.latency, sys.link.latency, "adjacent chips: one link hop");
            assert!(s.depth >= sys.link.fifo_depth, "crossing FIFO at least the credit window");
        }
        // Both chips actually host units.
        let used: std::collections::HashSet<u32> = r.plan.chip_of.iter().copied().collect();
        assert_eq!(used.len(), 2, "{:?}", r.plan.chip_of);
    }
}
