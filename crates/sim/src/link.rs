//! Inter-chip link regulator of the linked multi-chip model.
//!
//! A stream whose endpoints sit on different chips (a *crossing*;
//! `sara-pnr` already gave it `hops × link.latency` wire latency and at
//! least `link.fifo_depth` slots) shares each directed physical link on
//! its X-then-Y route with every other crossing. At most
//! [`LinkSpec::bandwidth`](plasticine_arch::LinkSpec::bandwidth) packets
//! enter a link per cycle; excess packets slip cycle by cycle, modeled by
//! extending the in-flight delay of the just-pushed packet (head-of-line
//! blocking preserves FIFO order, so token/credit semantics are
//! untouched). Both schedulers call [`Links::after_step`] right after
//! every unit step, so link grants follow the same unit-index order
//! either way.

use crate::stream::StreamRt;
use plasticine_arch::SystemSpec;
use sara_core::shard::ShardPlan;
use sara_core::vudfg::Vudfg;
use std::collections::HashMap;

/// How often (in cycles) the link-usage calendars drop entries older
/// than the current cycle.
const LINK_PRUNE_PERIOD: u64 = 4096;

/// Per-directed-link traversal calendar: cycle → packets granted entry.
/// Lazily populated; pruned behind the clock so memory stays bounded by
/// link backlog, not run length.
type LinkUsage = HashMap<u64, u32>;

/// A crossing stream and the directed physical links of its route.
struct Crossing {
    stream: usize,
    route: Vec<u64>,
    /// Push count already charged against the links.
    seen: u64,
}

/// The crossing-stream table plus the per-link usage calendars.
pub(crate) struct Links {
    /// Crossings grouped by producer unit: after a unit's step, only its
    /// own crossing outputs can have gained packets.
    out: Vec<Vec<Crossing>>,
    usage: HashMap<u64, LinkUsage>,
    bandwidth: u32,
    leg_latency: u64,
    pruned_at: u64,
}

impl Links {
    /// The regulator for `plan`'s crossings on `system`.
    pub(crate) fn new(g: &Vudfg, system: &SystemSpec, plan: &ShardPlan) -> Self {
        let mut out: Vec<Vec<Crossing>> = (0..g.units.len()).map(|_| Vec::new()).collect();
        for &sid in &plan.crossings {
            let s = g.stream(sid);
            let (src, dst) = (s.src.index(), s.dst.index());
            let route: Vec<u64> = system
                .route_links(plan.chip_of[src], plan.chip_of[dst])
                .into_iter()
                .map(|(a, b)| (u64::from(a) << 32) | u64::from(b))
                .collect();
            if !route.is_empty() {
                out[src].push(Crossing { stream: sid.index(), route, seen: 0 });
            }
        }
        Links {
            out,
            usage: HashMap::new(),
            bandwidth: system.link.bandwidth.max(1),
            leg_latency: u64::from(system.link.latency.max(1)),
            pruned_at: 0,
        }
    }

    /// Charge every packet unit `i`'s step at `now` pushed onto a crossing
    /// stream against its route, oldest first. A packet that cannot get a
    /// slot on time is held in flight by the wait; `slipped(t, s)` gets
    /// its new delivery cycle `t` on stream `s`.
    pub(crate) fn after_step(
        &mut self,
        i: usize,
        now: u64,
        streams: &mut [StreamRt],
        mut slipped: impl FnMut(u64, usize),
    ) {
        if self.out[i].is_empty() {
            return;
        }
        if now >= self.pruned_at + LINK_PRUNE_PERIOD {
            for cal in self.usage.values_mut() {
                cal.retain(|&cycle, _| cycle >= now);
            }
            self.pruned_at = now;
        }
        for c in &mut self.out[i] {
            let s = &mut streams[c.stream];
            let fresh = (s.pushed - c.seen) as usize;
            for back in (0..fresh).rev() {
                let extra = claim_route(
                    &mut self.usage,
                    &c.route,
                    now + 1,
                    self.bandwidth,
                    self.leg_latency,
                );
                if extra > 0 {
                    if let Some(t) = s.fault_delay_in_flight(back, extra) {
                        slipped(t, c.stream);
                    }
                }
            }
            c.seen = s.pushed;
        }
    }
}

/// Walk a route's links in order, claiming one bandwidth slot per link
/// at the earliest cycle with capacity at or after the packet's arrival
/// there. Returns the total contention slip in cycles (0 when every
/// link had a free slot on time).
pub(crate) fn claim_route(
    usage: &mut HashMap<u64, LinkUsage>,
    route: &[u64],
    first_entry: u64,
    bandwidth: u32,
    leg_latency: u64,
) -> u64 {
    let mut entry = first_entry;
    let mut slip = 0u64;
    for &link in route {
        let cal = usage.entry(link).or_default();
        let mut at = entry;
        loop {
            let used = cal.entry(at).or_insert(0);
            if *used < bandwidth {
                *used += 1;
                break;
            }
            at += 1;
        }
        slip += at - entry;
        entry = at + leg_latency;
    }
    slip
}
