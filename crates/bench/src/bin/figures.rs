//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures all            # every experiment, markdown tables
//! figures fig8c          # one experiment
//! figures fig9a --csv    # long-format CSV instead of markdown
//! figures table1         # the resource table
//! ```

use std::env;
use std::process::ExitCode;

use fv_bench::{
    all_figures, chaos_report, elasticity, explain_figures, fig10, fig11a, fig11b, fig12, fig6a,
    fig6b, fig7, fig8, fig9a, fig9b, fig9c, overload_report, plan_ablation, qdepth, scaleout,
    smoke_figures, table1, Figure,
};

const USAGE: &str = "usage: figures <table1|fig6a|fig6b|fig7|fig8a|fig8b|fig8c|fig9a|fig9b|fig9c|fig10|fig11a|fig11b|fig12|scaleout|qdepth|plan_ablation|elasticity|chaos|overload|explain|all|smoke> [--csv]";

fn one(id: &str) -> Option<Figure> {
    Some(match id {
        "fig6a" => fig6a(),
        "fig6b" => fig6b(),
        "fig7" => fig7(),
        "fig8a" => fig8(1.0),
        "fig8b" => fig8(0.5),
        "fig8c" => fig8(0.25),
        "fig9a" => fig9a(),
        "fig9b" => fig9b(),
        "fig9c" => fig9c(),
        "fig10" => fig10(),
        "fig11a" => fig11a(),
        "fig11b" => fig11b(),
        "fig12" => fig12(),
        "scaleout" => scaleout(),
        "qdepth" => qdepth(),
        "plan_ablation" => plan_ablation(),
        "elasticity" => elasticity(),
        _ => return None,
    })
}

/// `figures smoke` gate for the overload baseline (`BENCH_PR10.json`):
/// every swept load point must record goodput, rejection rate,
/// fairness, and a non-zero starvation sentinel — a missing or stale
/// file means `figures overload` was not re-run after a serving-layer
/// change.
fn check_recorded_overload_baseline(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("{path} missing — run `just bench-overload` to record it ({e})"))?;
    if !json.contains("\"bench\": \"overload\"") {
        return Err(format!("{path}: not an overload baseline"));
    }
    for load in fv_bench::OVERLOAD_LOADS {
        let line = json
            .lines()
            .find(|l| l.contains(&format!("\"load\": {load}")))
            .ok_or_else(|| format!("{path}: no point for load {load}"))?;
        for field in [
            "\"goodput_qps\":",
            "\"rejection_rate\":",
            "\"failure_rate\":",
            "\"fairness_index\":",
            "\"min_completed\":",
            "\"gold_p99_us\":",
        ] {
            if !line.contains(field) {
                return Err(format!("{path}: load {load} point has no {field}"));
            }
        }
        // The starvation sentinel must be non-zero at every point.
        if line.contains("\"min_completed\": 0,") || line.contains("\"min_completed\": 0}") {
            return Err(format!("{path}: a tenant starved at load {load}"));
        }
    }
    // The shed ladder must be engaged at the top of the sweep — a
    // highest-load point with zero preemptions means the recorded
    // baseline never actually exercised graceful degradation.
    if let Some(last) = fv_bench::OVERLOAD_LOADS.last() {
        let line = json
            .lines()
            .find(|l| l.contains(&format!("\"load\": {last}")))
            .ok_or_else(|| format!("{path}: no point for load {last}"))?;
        if line.contains("\"shed\": 0,") {
            return Err(format!(
                "{path}: shed ladder never engaged at peak load {last}"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let target = match args.iter().find(|a| !a.starts_with("--")) {
        Some(t) => t.clone(),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let render = |f: &Figure| {
        if csv {
            print!("{}", f.to_csv());
        } else {
            println!("{}", f.to_markdown());
        }
    };

    match target.as_str() {
        "table1" => print!("{}", table1()),
        "chaos" => {
            // Tail latency under deterministic fault injection: render
            // the figure and record the machine-readable chaos baseline.
            let report = chaos_report();
            render(&report.to_figure());
            let json = report.to_json();
            match std::fs::write("BENCH_PR6.json", &json) {
                Ok(()) => eprintln!("wrote BENCH_PR6.json"),
                Err(e) => eprintln!("could not write BENCH_PR6.json: {e}"),
            }
        }
        "overload" => {
            // Graceful degradation past saturation: render the sweep
            // and record the machine-readable overload baseline.
            let report = overload_report();
            render(&report.to_figure());
            let json = report.to_json();
            match std::fs::write("BENCH_PR10.json", &json) {
                Ok(()) => eprintln!("wrote BENCH_PR10.json"),
                Err(e) => eprintln!("could not write BENCH_PR10.json: {e}"),
            }
        }
        "explain" => print!("{}", explain_figures()),
        "all" => {
            print!("{}", table1());
            println!();
            for f in all_figures() {
                render(&f);
            }
        }
        "smoke" => {
            // Every custom experiment at its smallest config — the CI
            // gate (`just bench-smoke`) that keeps the harness honest.
            for f in smoke_figures() {
                render(&f);
            }
            // The recorded overload baseline: every swept load point
            // complete, no tenant starved.
            if let Err(missing) = check_recorded_overload_baseline("BENCH_PR10.json") {
                eprintln!("{missing}");
                return ExitCode::FAILURE;
            }
        }
        id => match one(id) {
            Some(f) => render(&f),
            None => {
                eprintln!("unknown experiment {id:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}
