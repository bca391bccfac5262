//! `sara-fuzz` — seeded differential fuzzing of the compile→simulate
//! pipeline with automatic case minimization.
//!
//! ```text
//! sara-fuzz [--cases N] [--seed S] [--artifact-dir DIR] [--max-cycles N]
//!           [--min-budget N] [--no-minimize] [--plant] [--fault-mode]
//!           [--fault-plans N]
//! sara-fuzz --replay FILE [--max-cycles N]
//! ```
//!
//! Each case is generated from `seed + index`, so any case from a run can
//! be regenerated in isolation. Failures (panics, simulator errors on
//! interpreter-accepted programs, scheduler divergences, wrong results)
//! are minimized by delta debugging and written to the artifact
//! directory as replayable `.sara` text files plus a human-readable
//! report. Typed compiler/PnR rejections are counted but are *not*
//! failures — they are the graceful path this harness exists to enforce.
//!
//! Exit codes: 0 = no failures, 1 = failures found (artifacts written),
//! 2 = bad usage.
//!
//! `--plant` prepends a known-good built-in program as case 0; combined
//! with a tiny `--max-cycles` it deterministically produces a failure,
//! which the smoke tests use to prove the minimizer end to end.
//!
//! `--fault-mode` additionally replays every *passing* case under
//! `--fault-plans` (default 2) seeded fault-injection plans with the
//! invariant sanitizer enabled, enforcing the fault model's contract:
//! every injected fault recovers or yields a typed diagnosis — a panic or
//! an undiagnosed hang is a failure and writes a replayable artifact.

use plasticine_sim::fault::FaultOutcome;
use plasticine_sim::SimConfig;
use sara_fuzz::gen;
use sara_fuzz::minimize::{minimize, size_of};
use sara_fuzz::oracle::{silence_panics, FaultVerdict, Oracle, Verdict};
use sara_fuzz::textio;
use std::path::{Path, PathBuf};

struct Args {
    cases: u64,
    seed: u64,
    artifact_dir: PathBuf,
    max_cycles: Option<u64>,
    min_budget: usize,
    minimize: bool,
    plant: bool,
    replay: Option<PathBuf>,
    fault_mode: bool,
    fault_plans: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: sara-fuzz [--cases N] [--seed S] [--artifact-dir DIR] [--max-cycles N]\n\
         \x20                [--min-budget N] [--no-minimize] [--plant] [--fault-mode]\n\
         \x20                [--fault-plans N]\n\
         \x20      sara-fuzz --replay FILE [--max-cycles N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        cases: 200,
        seed: 0x5A7A,
        artifact_dir: PathBuf::from("fuzz-artifacts"),
        max_cycles: None,
        min_budget: 300,
        minimize: true,
        plant: false,
        replay: None,
        fault_mode: false,
        fault_plans: 2,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> String {
        match argv.get(i + 1) {
            Some(v) => v.clone(),
            None => {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            }
        }
    };
    let parse_u64 = |v: &str, flag: &str| -> u64 {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects an integer, got {v:?}");
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--cases" => {
                a.cases = parse_u64(&value(&argv, i, "--cases"), "--cases");
                i += 1;
            }
            "--seed" => {
                a.seed = parse_u64(&value(&argv, i, "--seed"), "--seed");
                i += 1;
            }
            "--artifact-dir" => {
                a.artifact_dir = PathBuf::from(value(&argv, i, "--artifact-dir"));
                i += 1;
            }
            "--max-cycles" => {
                a.max_cycles = Some(parse_u64(&value(&argv, i, "--max-cycles"), "--max-cycles"));
                i += 1;
            }
            "--min-budget" => {
                a.min_budget = parse_u64(&value(&argv, i, "--min-budget"), "--min-budget") as usize;
                i += 1;
            }
            "--no-minimize" => a.minimize = false,
            "--plant" => a.plant = true,
            "--fault-mode" => a.fault_mode = true,
            "--fault-plans" => {
                a.fault_plans = parse_u64(&value(&argv, i, "--fault-plans"), "--fault-plans");
                i += 1;
            }
            "--replay" => {
                a.replay = Some(PathBuf::from(value(&argv, i, "--replay")));
                i += 1;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    a
}

fn oracle_for(args: &Args, relax: bool) -> Oracle {
    let mut sim_cfg = SimConfig::default();
    if let Some(mc) = args.max_cycles {
        sim_cfg.max_cycles = mc;
    }
    Oracle { sim_cfg, relax_credits: relax, ..Oracle::default() }
}

/// A fixed, known-compiling program (a two-stage scaled copy) used by
/// `--plant` to produce a deterministic failure under a tiny cycle
/// budget.
fn planted_program() -> sara_ir::Program {
    use sara_ir::{BinOp, DType, LoopSpec, MemInit, Program};
    let mut p = Program::new("planted");
    let root = p.root();
    let src = p.dram("src", &[32], DType::F64, MemInit::LinSpace { start: 0.0, step: 1.0 });
    let dst = p.dram("dst", &[32], DType::F64, MemInit::Zero);
    let buf = p.sram("buf", &[8], DType::F64);
    let la = p.add_loop(root, "A", LoopSpec::new(0, 4, 1)).unwrap();
    let li = p.add_loop(la, "in", LoopSpec::new(0, 8, 1)).unwrap();
    let hb = p.add_leaf(li, "ld").unwrap();
    let ia = p.idx(hb, la).unwrap();
    let ij = p.idx(hb, li).unwrap();
    let t = p.c_i64(hb, 8).unwrap();
    let b = p.bin(hb, BinOp::Mul, ia, t).unwrap();
    let addr = p.bin(hb, BinOp::Add, b, ij).unwrap();
    let v = p.load(hb, src, &[addr]).unwrap();
    let c = p.c_f64(hb, 2.0).unwrap();
    let y = p.bin(hb, BinOp::Mul, v, c).unwrap();
    p.store(hb, buf, &[ij], y).unwrap();
    let lo = p.add_loop(la, "out", LoopSpec::new(0, 8, 1)).unwrap();
    let ho = p.add_leaf(lo, "st").unwrap();
    let ia2 = p.idx(ho, la).unwrap();
    let ij2 = p.idx(ho, lo).unwrap();
    let x = p.load(ho, buf, &[ij2]).unwrap();
    let t2 = p.c_i64(ho, 8).unwrap();
    let b2 = p.bin(ho, BinOp::Mul, ia2, t2).unwrap();
    let a2 = p.bin(ho, BinOp::Add, b2, ij2).unwrap();
    p.store(ho, dst, &[a2], x).unwrap();
    p
}

fn replay(path: &Path, args: &Args) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    let p = match textio::from_text(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot parse {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    let oracle = oracle_for(args, false);
    let v = oracle.run(&p);
    match &v {
        Verdict::Pass { cycles } => {
            println!("replay {}: PASS ({cycles} cycles)", path.display());
            std::process::exit(0);
        }
        Verdict::Reject { stage, reason } => {
            println!("replay {}: REJECT at {stage}: {reason}", path.display());
            std::process::exit(0);
        }
        Verdict::Failure { kind, detail } => {
            println!("replay {}: FAILURE {kind:?}: {detail}", path.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.replay {
        replay(path, &args);
    }
    silence_panics();

    let mut passes = 0u64;
    let mut rejects = 0u64;
    let mut failures = 0u64;
    let mut fault_runs = 0u64;
    let mut fault_recovered = 0u64;
    let mut fault_diagnosed = 0u64;
    let mut reject_stages: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();

    for idx in 0..args.cases + u64::from(args.plant) {
        let planted = args.plant && idx == 0;
        let (program, relax, label) = if planted {
            (planted_program(), false, "planted".to_string())
        } else {
            let case_seed = args.seed.wrapping_add(idx);
            let case = gen::generate(case_seed);
            (case.program, case.cfg.relax_credits, format!("seed {case_seed}"))
        };
        let oracle = oracle_for(&args, relax);
        let verdict = oracle.run(&program);
        match &verdict {
            Verdict::Pass { .. } => {
                passes += 1;
                if args.fault_mode {
                    for k in 0..args.fault_plans {
                        let fault_seed =
                            args.seed.wrapping_mul(1_000_003).wrapping_add(idx * 97 + k);
                        fault_runs += 1;
                        match oracle.run_faulted(&program, fault_seed) {
                            FaultVerdict::Ran { outcome: FaultOutcome::Recovered, .. } => {
                                fault_recovered += 1
                            }
                            FaultVerdict::Ran { plan, outcome: FaultOutcome::Fail, detail } => {
                                failures += 1;
                                let detail = format!("plan [{plan}]: {detail}");
                                eprintln!("case {idx} ({label}): FAULT-MODE FAILURE: {detail}");
                                if let Err(e) = emit_fault_artifact(&args, idx, &program, &detail) {
                                    eprintln!("error: cannot write artifacts: {e}");
                                    std::process::exit(2);
                                }
                            }
                            FaultVerdict::Ran { .. } => fault_diagnosed += 1,
                            FaultVerdict::NotApplicable { .. } => {}
                        }
                    }
                }
            }
            Verdict::Reject { stage, .. } => {
                rejects += 1;
                *reject_stages.entry(stage.to_string()).or_insert(0) += 1;
            }
            Verdict::Failure { kind, detail } => {
                failures += 1;
                let class = verdict.failure_class().unwrap_or_default();
                eprintln!("case {idx} ({label}): FAILURE {kind:?}: {detail}");
                if let Err(e) = emit_artifacts(&args, idx, &program, &oracle, &class, detail) {
                    eprintln!("error: cannot write artifacts: {e}");
                    std::process::exit(2);
                }
            }
        }
    }

    println!(
        "fuzz: {} cases — {passes} pass, {rejects} reject, {failures} failure",
        args.cases + u64::from(args.plant)
    );
    if args.fault_mode {
        println!(
            "fault-mode: {fault_runs} injected runs — {fault_recovered} recovered, \
             {fault_diagnosed} diagnosed"
        );
    }
    for (stage, n) in &reject_stages {
        println!("  rejects at {stage}: {n}");
    }
    if failures > 0 {
        println!("artifacts in {}", args.artifact_dir.display());
        std::process::exit(1);
    }
}

/// Write a fault-mode failure artifact: the program plus the failing
/// plan/diagnosis (fault cases are not minimized — the plan text in the
/// detail replays via `sarac --faults`).
fn emit_fault_artifact(
    args: &Args,
    idx: u64,
    program: &sara_ir::Program,
    detail: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.artifact_dir)
        .map_err(|e| format!("{}: {e}", args.artifact_dir.display()))?;
    let stem = args.artifact_dir.join(format!("fault-{idx:06}"));
    let prog_path = stem.with_extension("sara");
    std::fs::write(&prog_path, textio::to_text(program))
        .map_err(|e| format!("{}: {e}", prog_path.display()))?;
    let report_path = stem.with_extension("report.txt");
    std::fs::write(&report_path, format!("class: fault-mode\ndetail: {detail}\n"))
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    Ok(())
}

/// Write the original program, the minimized reproducer, and a report.
fn emit_artifacts(
    args: &Args,
    idx: u64,
    program: &sara_ir::Program,
    oracle: &Oracle,
    class: &str,
    detail: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.artifact_dir)
        .map_err(|e| format!("{}: {e}", args.artifact_dir.display()))?;
    let stem = args.artifact_dir.join(format!("case-{idx:06}"));
    let orig_path = stem.with_extension("orig.sara");
    std::fs::write(&orig_path, textio::to_text(program))
        .map_err(|e| format!("{}: {e}", orig_path.display()))?;
    let (min_program, min_note) = if args.minimize {
        let m = minimize(program, oracle, class, args.min_budget);
        let note = format!(
            "minimized {} -> {} (size units) in {} oracle calls",
            m.size_before, m.size_after, m.oracle_calls
        );
        (m.program, note)
    } else {
        (program.clone(), format!("not minimized (size {})", size_of(program)))
    };
    let min_path = stem.with_extension("min.sara");
    std::fs::write(&min_path, textio::to_text(&min_program))
        .map_err(|e| format!("{}: {e}", min_path.display()))?;
    let report = format!(
        "class: {class}\ndetail: {detail}\n{min_note}\nreplay: sara-fuzz --replay {}\n",
        min_path.display()
    );
    let report_path = stem.with_extension("report.txt");
    std::fs::write(&report_path, report).map_err(|e| format!("{}: {e}", report_path.display()))?;
    eprintln!("  wrote {} ({min_note})", min_path.display());
    Ok(())
}
