//! Resource usage reports produced by assignment, and the human-readable
//! bottleneck summary rendered from a simulation profile.

use crate::profile::{DramEpoch, SimProfile, StallReason};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Physical resource usage of a compiled program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceReport {
    /// Pattern compute units consumed (main/request/merge/retime VCUs
    /// after partitioning and merging).
    pub pcus: usize,
    /// Pattern memory units consumed (VMU banks × multibuffering fits in
    /// one PMU; response/sync logic rides along with its PMU).
    pub pmus: usize,
    /// Address generators consumed.
    pub ags: usize,
    /// Total streams.
    pub streams: usize,
    /// Token (control) streams.
    pub token_streams: usize,
    /// Retiming units inserted to balance pipeline paths.
    pub retime_units: usize,
}

impl ResourceReport {
    /// Total physical units.
    pub fn total_pus(&self) -> usize {
        self.pcus + self.pmus + self.ags
    }

    /// Whether the design fits a chip with the given unit counts.
    pub fn fits(&self, pcus: usize, pmus: usize, ags: usize) -> bool {
        self.pcus <= pcus && self.pmus <= pmus && self.ags <= ags
    }
}

/// Render a top-N bottleneck summary of a simulation profile: the
/// worst-stalled VCUs with their per-reason breakdown, the
/// most-backpressured streams, and the DRAM picture. Percentages are
/// relative to total simulated cycles.
pub fn bottleneck_summary(p: &SimProfile, top_n: usize) -> String {
    let mut out = String::new();
    let pct = |c: u64| 100.0 * c as f64 / p.cycles.max(1) as f64;

    let _ = writeln!(out, "bottlenecks over {} cycles:", p.cycles);
    let worst = p.worst_stalled_vcus();
    if worst.is_empty() {
        let _ = writeln!(out, "  no VCU stalls recorded");
    } else {
        let _ = writeln!(out, "  worst-stalled VCUs (top {}):", top_n.min(worst.len()));
        for v in worst.iter().take(top_n) {
            let mut reasons = String::new();
            for r in StallReason::ALL {
                let c = v.stalled(r);
                if c > 0 {
                    let _ = write!(reasons, " {}={:.1}%", r.label(), pct(c));
                }
            }
            let _ = writeln!(
                out,
                "    {:<24} stalled {:>5.1}% active {:>5.1}% ({} firings){reasons}",
                v.label,
                pct(v.stalled_total()),
                pct(v.active_cycles),
                v.firings
            );
        }
    }

    let backed = p.most_backpressured_streams();
    if backed.is_empty() {
        let _ = writeln!(out, "  no stream backpressure recorded");
    } else {
        let _ = writeln!(out, "  most-backpressured streams (top {}):", top_n.min(backed.len()));
        for s in backed.iter().take(top_n) {
            let _ = writeln!(
                out,
                "    {:<40} full {:>5.1}% hwm {}/{} ({} pushes)",
                s.label,
                pct(s.backpressure_cycles),
                s.occupancy_hwm,
                s.slots,
                s.pushes
            );
        }
    }

    let (bytes, hits, misses) = p.dram_epochs.iter().fold((0u64, 0u64, 0u64), |acc, e| {
        (acc.0 + e.total_bytes(), acc.1 + e.row_hits, acc.2 + e.row_misses)
    });
    if bytes > 0 {
        let peak_epoch_bytes = p.dram_epochs.iter().map(DramEpoch::total_bytes).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "  dram: {:.1} B/cycle avg, {:.1} B/cycle peak epoch, {:.0}% row hits",
            bytes as f64 / p.cycles.max(1) as f64,
            peak_epoch_bytes as f64 / p.epoch_cycles.max(1) as f64,
            100.0 * hits as f64 / (hits + misses).max(1) as f64
        );
    }
    out
}

/// The profile scalars a simulated design point keeps: the fraction of
/// VCU cycles stalled on DRAM, and the top-3 [`bottleneck_summary`].
pub fn profile_scalars(p: &SimProfile) -> (f64, String) {
    let total: u64 = p.vcus.iter().map(|v| v.total_cycles()).sum();
    let dram: u64 = p.vcus.iter().map(|v| v.stalled(StallReason::DramBlocked)).sum();
    let dram_blocked_frac = if total == 0 { 0.0 } else { dram as f64 / total as f64 };
    (dram_blocked_frac, bottleneck_summary(p, 3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{StallReason, StreamProfile, VcuProfile};

    #[test]
    fn totals_and_fits() {
        let r = ResourceReport { pcus: 10, pmus: 5, ags: 2, ..Default::default() };
        assert_eq!(r.total_pus(), 17);
        assert!(r.fits(10, 5, 2));
        assert!(!r.fits(9, 5, 2));
    }

    #[test]
    fn summary_names_worst_vcus_streams_and_dram() {
        let mut stalled = [0u64; 4];
        stalled[StallReason::DramBlocked.index()] = 60;
        let p = SimProfile {
            cycles: 100,
            epoch_cycles: 10,
            vcus: vec![
                VcuProfile {
                    label: "vcu_hot".into(),
                    firings: 40,
                    active_cycles: 40,
                    idle_cycles: 0,
                    stalled_cycles: stalled,
                    segments: Vec::new(),
                    segments_truncated: false,
                },
                VcuProfile {
                    label: "vcu_cold".into(),
                    firings: 100,
                    active_cycles: 100,
                    idle_cycles: 0,
                    stalled_cycles: [0; 4],
                    segments: Vec::new(),
                    segments_truncated: false,
                },
            ],
            streams: vec![StreamProfile {
                label: "a -> b [data]".into(),
                slots: 8,
                occupancy_hwm: 8,
                backpressure_cycles: 30,
                pushes: 50,
                pops: 50,
            }],
            dram_epochs: vec![DramEpoch {
                start_cycle: 0,
                read_bytes: 400,
                write_bytes: 100,
                row_hits: 9,
                row_misses: 1,
            }],
        };
        let s = bottleneck_summary(&p, 3);
        assert!(s.contains("vcu_hot"), "{s}");
        assert!(!s.contains("vcu_cold"), "{s}");
        assert!(s.contains("dram-blocked=60.0%"), "{s}");
        assert!(s.contains("a -> b [data]"), "{s}");
        assert!(s.contains("full  30.0%"), "{s}");
        assert!(s.contains("90% row hits"), "{s}");
    }

    #[test]
    fn summary_handles_quiet_profiles() {
        let p = SimProfile {
            cycles: 10,
            epoch_cycles: 10,
            vcus: Vec::new(),
            streams: Vec::new(),
            dram_epochs: Vec::new(),
        };
        let s = bottleneck_summary(&p, 5);
        assert!(s.contains("no VCU stalls"), "{s}");
        assert!(s.contains("no stream backpressure"), "{s}");
        assert!(!s.contains("dram:"), "{s}");
    }
}
