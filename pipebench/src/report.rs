//! The metric catalog, the per-run report, and its output: a human
//! summary with per-program rows, a JSON record under `out/`, and the
//! one-line JSON result that ends the output.

use crate::pipeline::Exact;
use sara_util::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by every workload in an
/// untraced run. Mirrors `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p90", "ms"),
    ("req_per_s", "1/s"),
    ("design_cycles_geomean", "cycles"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by a traced run. A layer
/// that does no work in a workload reports 0. Mirrors `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("ir.interp_ms", "ms"),
    ("core.rtelm_ms", "ms"),
    ("core.lower_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.assign_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.units", "count"),
    ("core.streams", "count"),
    ("core.pcus", "count"),
    ("core.pmus", "count"),
    ("core.ags", "count"),
    ("pnr.place_ms", "ms"),
    ("pnr.iterations", "count"),
    ("pnr.us_per_iteration", "us"),
    ("pnr.wirelength", "count"),
    ("pnr.max_link_use", "count"),
    ("shard.plan_ms", "ms"),
    ("shard.extract_ms", "ms"),
    ("pnr.system_ms", "ms"),
    ("pnr.shard_ms_max", "ms"),
    ("shard.crossings", "count"),
    ("shard.cut_traffic", "elements"),
    ("shard.chips_used", "count"),
    ("shard.whole_on_chip0", "count"),
    ("sim.active_ms", "ms"),
    ("sim.profiled_ms", "ms"),
    ("sim.system_ms", "ms"),
    ("sim.cycles", "cycles"),
    ("sim.firings", "count"),
    ("sim.profile_overhead", "ratio"),
    ("sim.dram_blocked_frac", "fraction"),
    ("sarad.keys_us", "us"),
    ("server.ping_us", "us"),
    ("sarad.compile_ms", "ms"),
    ("sarad.place_ms", "ms"),
    ("sarad.sim_ms", "ms"),
    ("sarad.reopen_ms", "ms"),
    ("sarad.hit_us_p50", "us"),
    ("sarad.disk_hit_ms_p50", "ms"),
    ("sarad.hit_ratio.compile", "fraction"),
    ("sarad.hit_ratio.place", "fraction"),
    ("sarad.hit_ratio.sim", "fraction"),
    ("store.disk_hits", "count"),
    ("store.evictions", "count"),
    ("store.bytes", "B"),
    ("store.corrupt_detected", "count"),
    ("store.save_failures", "count"),
    ("sarad.degraded", "count"),
    ("self.bench_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.pnr_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.sarad_ms", "ms"),
    ("trace.req_ms_mean", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unaccounted_frac", "fraction"),
    ("host.calib_mops", "Mops/s"),
    ("host.calib_drift", "fraction"),
    ("host.nproc", "count"),
];

/// Calibration drift past this share flags the run (the bound of the
/// timing metrics in `BENCHMARK.json`).
pub const CALIB_FLAG: f64 = 0.25;

/// One row per program (or program variant) of a workload.
#[derive(Debug, Clone, Default)]
pub struct Row {
    pub name: String,
    pub requests: usize,
    pub p50_ms: f64,
    pub total_ms: f64,
    /// The row's exact counts (first seed slot).
    pub exact: Exact,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions (first few are printed).
    pub errors: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Metrics printed for the reader but not part of the result line.
    pub extra: Vec<(String, f64, &'static str)>,
    pub rows: Vec<Row>,
    /// Exact counts keyed by design (`program@pnr_seed`, or a variant);
    /// a later run with the same seed must reproduce them.
    pub exact: BTreeMap<String, Exact>,
    pub host: Json,
    /// Per-layer self-time table of a traced run.
    pub self_table: String,
}

impl Report {
    pub fn new(workload: &str, seed: u64, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            extra: Vec::new(),
            rows: Vec::new(),
            exact: BTreeMap::new(),
            host: Json::Null,
            self_table: String::new(),
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Record exact counts for a design, failing the request when an
    /// earlier request of the same design disagreed.
    pub fn exact_check(&mut self, key: String, ex: Exact) -> bool {
        match self.exact.get(&key) {
            Some(prev) if *prev != ex => {
                self.fail(format!(
                    "{key}: exact counts changed between requests: {prev:?} vs {ex:?}"
                ));
                false
            }
            Some(_) => true,
            None => {
                self.exact.insert(key, ex);
                true
            }
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human summary, printed before the result line.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {} seed {} ({})",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        let _ = writeln!(s, "host {}", self.host.pretty().replace('\n', " "));
        let _ = writeln!(
            s,
            "{:<22} {:>8} {:>10} {:>10} {:>8} {:>10} {:>9} {:>10} {:>9}",
            "program",
            "requests",
            "p50_ms",
            "total_ms",
            "units",
            "cycles",
            "iters",
            "wirelength",
            "crossings"
        );
        let total: f64 = self.rows.iter().map(|r| r.total_ms).sum();
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<22} {:>8} {:>10.3} {:>10.1} {:>8} {:>10} {:>9} {:>10} {:>9}   {:>5.1}% of time",
                r.name,
                r.requests,
                r.p50_ms,
                r.total_ms,
                r.exact.units,
                r.exact.cycles,
                r.exact.iterations,
                r.exact.wirelength,
                r.exact.crossings,
                100.0 * r.total_ms / total.max(1e-12),
            );
        }
        let _ = writeln!(s, "{} of {} requests failed", self.failed, self.attempted);
        for e in &self.errors {
            let _ = writeln!(s, "  error: {e}");
        }
        let metrics: Vec<(&str, f64, &str)> = if self.traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, self.layer.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n, self.e2e.get(n).copied().unwrap_or(f64::NAN), u))
                .collect()
        };
        for (n, v, u) in metrics {
            let _ = writeln!(s, "{n:<26} {v:>16.6} {u}");
        }
        for (n, v, u) in &self.extra {
            let _ = writeln!(s, "{n:<26} {v:>16.6} {u}");
        }
        if !self.self_table.is_empty() {
            s.push_str(&self.self_table);
        }
        s
    }

    /// The machine-readable record written under `out/`.
    pub fn record(&self) -> Json {
        let mut metrics = Json::object();
        let own = if self.traced { &self.layer } else { &self.e2e };
        for (n, v) in own {
            metrics = metrics.set(n, *v);
        }
        for (n, v, _) in &self.extra {
            metrics = metrics.set(n, *v);
        }
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                let mut j = Json::object()
                    .set("name", r.name.as_str())
                    .set("requests", r.requests)
                    .set("p50_ms", r.p50_ms)
                    .set("total_ms", r.total_ms);
                for (f, v) in Exact::FIELDS.iter().zip(r.exact.values()) {
                    j = j.set(f, v);
                }
                j
            })
            .collect();
        Json::object()
            .set("workload", self.workload.as_str())
            .set("seed", self.seed)
            .set("traced", self.traced)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set(
                "errors",
                Json::Array(self.errors.iter().map(|e| Json::from(e.as_str())).collect()),
            )
            .set("host", self.host.clone())
            .set("metrics", metrics)
            .set("rows", Json::Array(rows))
    }

    /// The last stdout line: `correct`, `attempted`, `failed` and the
    /// metrics of this mode, each `{value, unit}`.
    pub fn result_line(&self, correct: bool) -> Result<String, String> {
        let (names, values): (&[(&str, &str)], &BTreeMap<&str, f64>) =
            if self.traced { (&PER_LAYER, &self.layer) } else { (&END_TO_END, &self.e2e) };
        let mut parts = Vec::new();
        for &(n, u) in names {
            let v = match values.get(n) {
                Some(v) => *v,
                None if self.traced => 0.0,
                None => return Err(format!("metric {n} was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric {n} is not finite ({v})"));
            }
            parts.push(format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog here and `BENCHMARK.json` must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (f("name"), f("unit"))
                })
                .collect()
        };
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::new("cold_registry", 1, true);
        r.attempted = 3;
        r.layer.insert("ir.interp_ms", 1.25);
        let line = r.result_line(true).unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("ir.interp_ms").and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            m.get("host.nproc").and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
