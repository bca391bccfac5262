//! `fault-campaign` — seeded fault-injection campaign over the registry
//! workloads.
//!
//! For each workload the campaign first runs fault-free with the
//! invariant sanitizer enabled (the baseline must pass cleanly), then
//! derives a set of seeded single-fault plans from the compiled graph
//! ([`plasticine_sim::seeded_plan`]) and replays the workload under each.
//! The horizon, the time-box and the outcome classes are the shared
//! recover-or-explain protocol of [`plasticine_sim::fault`]: every faulted
//! run must end recovered, corrupt-detected, sanitizer, watchdog or
//! typed-fault. A panic, an undiagnosed `Timeout`, or a plan the config
//! validator rejects is a **FAIL**. Results are written as a JSON
//! artifact and the exit code is nonzero iff any run failed.
//!
//! ```text
//! fault-campaign [--chip 20x20|16x8|8x8] [--plans N] [--seed S]
//!                [--workload NAME] [--dense] [--out NAME] [--plan FILE]
//! ```
//!
//! `--plan FILE` replays one explicit fault-plan file (see the DSL in
//! `plasticine_sim::fault`) instead of deriving seeded plans.

use plasticine_arch::ChipSpec;
use plasticine_sim::fault::{classify, faulted_config, plan_horizon, FaultOutcome};
use plasticine_sim::{seeded_plan, simulate, FaultPlan, SimConfig};
use sara_bench::cli;
use sara_core::compile::{compile, CompilerOptions};
use sara_util::pool::panic_message;
use sara_util::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};

struct Row {
    workload: String,
    plan: String,
    outcome: FaultOutcome,
    detail: String,
}

impl Row {
    /// A workload that failed before any fault was injected.
    fn fail(workload: &str, plan: &str, detail: String) -> Row {
        let (workload, plan) = (workload.to_string(), plan.to_string());
        Row { workload, plan, outcome: FaultOutcome::Fail, detail }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: fault-campaign [--chip {}] [--plans N] [--seed S]\n\
         \x20                     [--workload NAME] [--dense] [--out NAME] [--plan FILE]",
        ChipSpec::NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args = cli::args();
    let mut chip = ChipSpec::small_8x8();
    let mut plans_per_workload = 6u64;
    let mut seed = 0xFA017u64;
    let mut only: Option<String> = None;
    let mut dense = false;
    let mut out_name = "fault_campaign".to_string();
    let mut plan_file: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chip" => chip = cli::parse_chip_or_exit(&cli::flag_value(&args, &mut i, "--chip")),
            "--plans" => {
                plans_per_workload =
                    cli::flag_value(&args, &mut i, "--plans").parse().unwrap_or_else(|_| usage());
            }
            "--seed" => {
                seed = cli::flag_value(&args, &mut i, "--seed").parse().unwrap_or_else(|_| usage());
            }
            "--workload" => only = Some(cli::flag_value(&args, &mut i, "--workload")),
            "--dense" => dense = true,
            "--out" => out_name = cli::flag_value(&args, &mut i, "--out"),
            "--plan" => plan_file = Some(cli::flag_value(&args, &mut i, "--plan")),
            "--help" | "-h" => usage(),
            other => cli::usage_error(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let explicit_plan = plan_file.map(|f| {
        let text = std::fs::read_to_string(&f).unwrap_or_else(|e| {
            eprintln!("error: cannot read plan file {f}: {e}");
            std::process::exit(2);
        });
        FaultPlan::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    });

    let workloads = sara_workloads::all_small();
    let mut rows: Vec<Row> = Vec::new();

    for (wi, w) in workloads.iter().enumerate() {
        if let Some(name) = &only {
            if w.name != name {
                continue;
            }
        }
        let mut compiled = match compile(&w.program, &chip, &CompilerOptions::default()) {
            Ok(c) => c,
            Err(e) => {
                rows.push(Row::fail(w.name, "", format!("compile error: {e}")));
                continue;
            }
        };
        if let Err(e) =
            sara_pnr::place_and_route(&mut compiled.vudfg, &compiled.assignment, &chip, 42)
        {
            rows.push(Row::fail(w.name, "", format!("pnr error: {e}")));
            continue;
        }
        // Fault-free baseline, sanitizer on: must pass cleanly.
        let base_cfg = SimConfig { sanitize: true, dense, ..SimConfig::default() };
        let baseline = match simulate(&compiled.vudfg, &chip, &base_cfg) {
            Ok(o) => o,
            Err(e) => {
                let detail = format!("fault-free baseline failed: {e}");
                rows.push(Row::fail(w.name, "(baseline, no faults)", detail));
                continue;
            }
        };
        let plans: Vec<FaultPlan> = match &explicit_plan {
            Some(p) => vec![p.clone()],
            None => (0..plans_per_workload)
                .map(|pi| {
                    seeded_plan(
                        &compiled.vudfg,
                        seed ^ ((wi as u64) << 32) ^ pi,
                        plan_horizon(&baseline),
                    )
                })
                .collect(),
        };
        for plan in plans {
            let plan_text = plan.to_string().trim_end().replace('\n', "; ");
            let cfg = faulted_config(&base_cfg, plan, &baseline);
            let result = catch_unwind(AssertUnwindSafe(|| simulate(&compiled.vudfg, &chip, &cfg)))
                .map_err(|e| panic_message(&*e).to_string());
            let (outcome, detail) = classify(result, &baseline);
            println!("{:<10} {:<44} {:<16} {}", w.name, plan_text, outcome.label(), detail);
            rows.push(Row { workload: w.name.to_string(), plan: plan_text, outcome, detail });
        }
    }

    // Summary.
    let mut counts: Vec<(FaultOutcome, u64)> = FaultOutcome::ALL
        .iter()
        .map(|&o| (o, rows.iter().filter(|r| r.outcome == o).count() as u64))
        .collect();
    counts.retain(|(_, n)| *n > 0);
    println!("---");
    println!(
        "campaign: {} runs — {}",
        rows.len(),
        counts.iter().map(|(o, n)| format!("{} {}", n, o.label())).collect::<Vec<_>>().join(", ")
    );

    let json = Json::object()
        .set("seed", Json::Int(seed as i64))
        .set(
            "runs",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::object()
                            .set("workload", Json::Str(r.workload.clone()))
                            .set("plan", Json::Str(r.plan.clone()))
                            .set("outcome", Json::Str(r.outcome.label().to_string()))
                            .set("detail", Json::Str(r.detail.clone()))
                    })
                    .collect(),
            ),
        )
        .set(
            "summary",
            counts.iter().fold(Json::object(), |j, (o, n)| j.set(o.label(), Json::Int(*n as i64))),
        );
    let path = sara_bench::save_json_or_exit(&out_name, &json);
    println!("wrote {}", path.display());
    std::process::exit(i32::from(rows.iter().any(|r| r.outcome == FaultOutcome::Fail)));
}
