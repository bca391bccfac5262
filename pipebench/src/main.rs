//! `pipebench` — the SARA stack's end-to-end pipeline benchmark.
//!
//! ```text
//! pipebench --workload cold_registry|multichip_4x|sarad_mixed|sim_replay
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets its workload up (several times; `setup_s` is the
//! median), then measures a single-threaded closed loop for `--seconds`
//! (whole passes, at least `MIN_PASSES`), checks every request's output,
//! and prints a human summary with per-program rows followed by one JSON
//! result line. `--trace 1` records spans around every layer call and
//! reports the per-layer metrics instead of the end-to-end ones; the
//! Chrome trace and a JSON record of the run land in `pipebench/out/`.
//! See `pipebench/README.md` for the metric catalog.

mod cold;
mod common;
mod pipeline;
mod probe;
mod replay;
mod report;
mod sarad_mixed;
mod trace;
mod util;

use common::Args;
use report::{Report, CALIB_FLAG};
use sara_core::artifact::stable_hash_hex;
use sara_util::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["cold_registry", "multichip_4x", "sarad_mixed", "sim_replay"];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: pipebench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&v.as_str()) => workload = Some(v.clone()),
            "--workload" => usage(&format!("unknown workload {v}")),
            "--seed" => seed = Some(v.parse().unwrap_or_else(|_| usage("--seed: not an integer"))),
            "--seconds" => match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => usage("--seconds: expected a number in (0, 600]"),
            },
            "--trace" => match v.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace: expected 0 or 1"),
            },
            other => usage(&format!("unknown argument {other}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Args { workload, seed, seconds, trace }
        }
        _ => usage("--workload, --seed, --seconds and --trace are all required"),
    }
}

/// Exact counts must repeat bit-for-bit across runs of the same build
/// with the same seed: compare with the counts an earlier run of this
/// build, workload and seed left in `out/exact/<build>/`, then store the
/// union. The record is keyed by a hash of the benchmark executable, so
/// a changed program (which may legitimately change a count) starts a
/// record of its own; its counts show in the per-layer metrics and in
/// `design_cycles_geomean` rather than failing the run.
fn determinism_guard(args: &Args, rep: &Report) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("cannot read the benchmark executable: {e}"))?;
    let build = stable_hash_hex(&exe);
    let dir = Path::new("exact").join(&build[..16]);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path: PathBuf = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let mut known: Vec<(String, Json)> = match std::fs::read_to_string(&path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Object(fields)) => fields,
            _ => return Err(format!("{}: unreadable exact-count record", path.display())),
        },
        Err(_) => Vec::new(),
    };
    let mut mismatches = Vec::new();
    for (key, ex) in &rep.exact {
        let now = Json::Array(ex.values().iter().map(|&v| Json::from(v)).collect());
        match known.iter().find(|(k, _)| k == key) {
            Some((_, before)) if *before != now => mismatches.push(key.clone()),
            Some(_) => {}
            None => known.push((key.clone(), now)),
        }
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "exact counts differ from an earlier run of this build with seed {}: {}",
            args.seed,
            mismatches.join(", ")
        ));
    }
    std::fs::write(&path, Json::Object(known).pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = parse_args();
    // Everything the run writes (traces, records, the sarad cache and
    // socket) lives in `pipebench/out/`; relative paths keep the socket
    // path short.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::env::set_current_dir(&out)) {
        eprintln!("error: cannot use {}: {e}", out.display());
        return ExitCode::FAILURE;
    }

    let nproc = util::nproc();
    let pinned = util::pin_to_current_cpu();
    let calib_start = util::calibrate();
    let mut rep = Report::new(&args.workload, args.seed, args.trace);
    let run = match args.workload.as_str() {
        "cold_registry" => cold::run(&args, false, &mut rep),
        "multichip_4x" => cold::run(&args, true, &mut rep),
        "sarad_mixed" => sarad_mixed::run(&args, &mut rep),
        "sim_replay" => replay::run(&args, &mut rep),
        _ => unreachable!("workload names are checked when parsing"),
    };
    let calib_end = util::calibrate();
    let drift = calib_end / calib_start - 1.0;
    rep.host = Json::object()
        .set("calib_mops_start", calib_start)
        .set("calib_mops_end", calib_end)
        .set("calib_drift", drift)
        .set("calib_flagged", drift.abs() > CALIB_FLAG)
        .set("nproc", nproc)
        .set("pinned_cpu", pinned.map_or_else(|e| Json::from(e.as_str()), Json::from))
        .set("build_profile", util::build_profile());
    rep.layer.insert("host.calib_mops", calib_start);
    rep.layer.insert("host.calib_drift", drift);
    rep.layer.insert("host.nproc", nproc as f64);
    match util::peak_rss_mb() {
        Ok(mb) => {
            rep.e2e.insert("peak_rss_mb", mb);
        }
        Err(e) => rep.errors.push(e),
    }

    let mut fatal: Vec<String> = Vec::new();
    if let Err(e) = run {
        fatal.push(e);
    }
    if let Err(e) = determinism_guard(&args, &rep) {
        fatal.push(e);
    }
    rep.extra.push(("fail_frac".into(), rep.fail_frac(), "fraction"));
    print!("{}", rep.summary());
    if drift.abs() > CALIB_FLAG {
        println!(
            "FLAG: host calibration moved {:+.1}% during the run ({calib_start:.0} -> {calib_end:.0} Mops/s); \
             the run is kept but its timings are suspect",
            100.0 * drift
        );
    }
    let record =
        format!("run-{}-seed{}-trace{}.json", args.workload, args.seed, u8::from(args.trace));
    if let Err(e) = std::fs::write(&record, rep.record().pretty()) {
        fatal.push(format!("cannot write {record}: {e}"));
    }
    for e in &fatal {
        eprintln!("error: {e}");
    }
    if !fatal.is_empty() || rep.attempted == 0 {
        return ExitCode::FAILURE;
    }
    let correct = rep.failed == 0;
    match rep.result_line(correct) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
