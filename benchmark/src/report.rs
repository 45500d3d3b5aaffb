//! Result files, the printed report, and `compare`.

use std::process::Command;

use crate::json::Json;
use crate::metrics::{why, Better, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workload::{node_config_json, Scale};

/// One workload's measurements in one run: the reports of its two
/// passes, each taken in a process of its own.
pub struct WorkloadResult {
    pub name: String,
    /// `EndToEndResult::to_json` of the untraced pass.
    pub e2e: Json,
    /// `PerLayerResult::to_json` of the traced pass, if it ran.
    pub layers: Option<Json>,
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("?")
}

impl WorkloadResult {
    /// Anything wrong: failed queries, a moved `sim_digest`, or the two
    /// passes disagreeing on the simulated counters.
    pub fn problems(&self) -> Vec<String> {
        let name = &self.name;
        let mut p = Vec::new();
        if num(&self.e2e, "failed") != 0.0 {
            p.push(format!(
                "{name}: {} of {} queries failed",
                num(&self.e2e, "failed"),
                num(&self.e2e, "attempted")
            ));
        }
        if num(&self.e2e, "digest_mismatches") != 0.0 {
            p.push(format!(
                "{name}: sim_digest moved in {} measured rounds",
                num(&self.e2e, "digest_mismatches")
            ));
        }
        if let Some(l) = &self.layers {
            if num(l, "failed") != 0.0 || num(l, "digest_mismatches") != 0.0 {
                p.push(format!(
                    "{name}: traced pass had {} failed queries, {} digest mismatches",
                    num(l, "failed"),
                    num(l, "digest_mismatches")
                ));
            }
            if text(l, "sim_digest") != text(&self.e2e, "sim_digest") {
                p.push(format!(
                    "{name}: sim_digest differs between the untraced ({}) and traced ({}) pass",
                    text(&self.e2e, "sim_digest"),
                    text(l, "sim_digest")
                ));
            }
        }
        p
    }

    /// The workload's entry in a result file.
    pub fn to_json(&self) -> Json {
        let (traced_rounds, per_layer) = match &self.layers {
            Some(l) => (
                l.get("traced_rounds").cloned().unwrap_or(Json::Null),
                l.get("per_layer").cloned().unwrap_or(Json::Null),
            ),
            None => (Json::from(0u64), Json::Null),
        };
        self.e2e
            .clone()
            .set("traced_rounds", traced_rounds)
            .set("per_layer", per_layer)
    }

    /// Print every metric by name with its unit.
    pub fn print(&self) {
        let e = &self.e2e;
        let value =
            |group: &Json, name: &str| group.get(name).map_or(f64::NAN, |m| num(m, "value"));
        println!("\n== {} ==", self.name);
        println!("   {}", why(&self.name));
        println!(
            "   {} rounds in {:.1} s, {} set-ups, {} queries attempted, {} failed",
            num(e, "rounds"),
            num(e, "measured_s"),
            e.get("setup_samples_s")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len),
            num(e, "attempted"),
            num(e, "failed")
        );
        println!("   end-to-end (tracing off):");
        let e2e = e.get("end_to_end").cloned().unwrap_or(Json::Null);
        for m in END_TO_END {
            let note = if m.name == "round_p99_us" {
                format!(
                    "  (p{} of {} rounds, {} samples beyond{})",
                    num(e, "tail_pct"),
                    num(e, "rounds"),
                    num(e, "tail_samples_beyond"),
                    if num(e, "rounds") >= 1000.0 {
                        "; quietest of 5 consecutive segments"
                    } else {
                        ""
                    }
                )
            } else {
                String::new()
            };
            println!(
                "     {:<34} {:>16.4} {}{}",
                m.name,
                value(&e2e, m.name),
                m.unit,
                note
            );
        }
        println!(
            "     {:<34} {:>16.4} ratio",
            "failed_share",
            value(&e2e, "failed_share")
        );
        println!("     {:<34} {:>16}", "sim_digest", text(e, "sim_digest"));
        if let Some(l) = &self.layers {
            println!(
                "   per-layer ({} traced rounds interleaved with {} untraced, {} spans):",
                num(l, "traced_rounds"),
                num(l, "untraced_rounds"),
                num(l, "spans")
            );
            let layers = l.get("per_layer").cloned().unwrap_or(Json::Null);
            for p in PER_LAYER {
                println!(
                    "     {:<34} {:>16.4} {}",
                    p.name,
                    value(&layers, p.name),
                    p.unit
                );
            }
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and with what the numbers were taken.
pub fn environment() -> Json {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    Json::obj()
        .set("nproc", nproc)
        .set(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        )
        .set("rustc", command_line("rustc", &["--version"]))
        .set("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .set("build", "release")
        .set("client_threads", 1u64)
        .set("loop", "closed, one round outstanding")
}

/// Assemble a result file from one or more runs of the workload set.
pub fn result_file(seed: u64, scale: Scale, runs: &[Vec<WorkloadResult>]) -> Json {
    Json::obj()
        .set("benchmark", "fvbench")
        .set("format", 1u64)
        .set(
            "model",
            "the simulated clock is calibrated from the paper's text, not validated against its figures: the repo holds no paper reference values, so no fidelity error is reported",
        )
        .set("env", environment())
        .set("farview_config", node_config_json())
        .set("seed", seed)
        .set(
            "scale",
            match scale {
                Scale::Full => "full",
                Scale::Smoke => "smoke",
            },
        )
        .set(
            "runs",
            runs.iter()
                .map(|run| {
                    Json::obj().set(
                        "workloads",
                        run.iter().map(WorkloadResult::to_json).collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>(),
        )
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

/// Verdict of one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs overlap: the data cannot tell unchanged from regressed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `compare`.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    /// Widest interquartile spread of either side, as a share of its
    /// median (0 with fewer than two runs a side).
    pub spread: f64,
    pub verdict: Verdict,
}

/// Interquartile range ÷ median, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive).
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)).abs() / med.abs()
    }
}

/// Judge B against A for one metric. `worse_by` is the share of A's
/// median by which B's median is worse (negative = better).
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    exact: bool,
) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    if exact {
        let same = a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits());
        let v = if same {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
        return (ma, mb, 0.0, v);
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = iqr_share(a).max(iqr_share(b));
    let every_b_better = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let verdict = if spread > bound && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ma, mb, spread, verdict)
}

/// One workload's end-to-end values over the runs of a result file.
struct Collected {
    name: String,
    /// Metric name → one value per run.
    metrics: Vec<(String, Vec<f64>)>,
    /// `sim_digest` per run.
    digests: Vec<String>,
}

fn collect(file: &Json) -> Result<Vec<Collected>, String> {
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no `runs`")?;
    let mut out: Vec<Collected> = Vec::new();
    for run in runs {
        let workloads = run
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("run has no `workloads`")?;
        for w in workloads {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            let e2e = w
                .get("end_to_end")
                .and_then(Json::as_obj)
                .ok_or("workload without `end_to_end`")?;
            let at = match out.iter().position(|c| c.name == name) {
                Some(i) => i,
                None => {
                    out.push(Collected {
                        name: name.to_string(),
                        metrics: Vec::new(),
                        digests: Vec::new(),
                    });
                    out.len() - 1
                }
            };
            let entry = &mut out[at];
            for (metric, v) in e2e {
                let value = v
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}.{metric} has no numeric value"))?;
                match entry.metrics.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, vs)) => vs.push(value),
                    None => entry.metrics.push((metric.clone(), vec![value])),
                }
            }
            if let Some(d) = w.get("sim_digest").and_then(Json::as_str) {
                entry.digests.push(d.to_string());
            }
        }
    }
    Ok(out)
}

/// What `compare` found.
pub struct Comparison {
    pub rows: Vec<Row>,
    /// What could not be compared at all, or a moved `sim_digest`:
    /// each one fails the comparison.
    pub failures: Vec<String>,
    /// Context that fails nothing.
    pub notes: Vec<String>,
}

/// Compare result file `b` against `a`: one row per (workload,
/// end-to-end metric), plus `failed_share` and `sim_digest` rows (both
/// exact). `same_seed` makes the simulated metrics exact too.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64)
        && a.get("scale") == b.get("scale");
    let (ca, cb) = (collect(a)?, collect(b)?);
    let mut rows = Vec::new();
    let (mut failures, mut notes) = (Vec::new(), Vec::new());
    for Collected {
        name,
        metrics: metrics_a,
        digests: digests_a,
    } in &ca
    {
        let Some(Collected {
            metrics: metrics_b,
            digests: digests_b,
            ..
        }) = cb.iter().find(|c| c.name == *name)
        else {
            failures.push(format!("{name}: missing from the second file"));
            continue;
        };
        let values = |ms: &[(String, Vec<f64>)], metric: &str| {
            ms.iter()
                .find(|(m, _)| m == metric)
                .map(|(_, v)| v.clone())
                .filter(|v| !v.is_empty())
        };
        let specs = END_TO_END
            .iter()
            .map(|e| {
                (
                    e.name,
                    e.unit,
                    e.better,
                    e.bound,
                    e.exact_per_seed && same_seed,
                )
            })
            .chain([("failed_share", "ratio", Better::Lower, 0.0, true)]);
        for (metric, unit, better, bound, exact) in specs {
            let (Some(va), Some(vb)) = (values(metrics_a, metric), values(metrics_b, metric))
            else {
                failures.push(format!("{name}.{metric}: missing from one file"));
                continue;
            };
            let (ma, mb, spread, verdict) = judge(&va, &vb, better, bound, exact);
            rows.push(Row {
                workload: name.clone(),
                metric,
                unit,
                a: ma,
                b: mb,
                bound: if exact { 0.0 } else { bound },
                spread,
                verdict,
            });
        }
        if same_seed {
            let all: Vec<&String> = digests_a.iter().chain(digests_b).collect();
            if all.windows(2).any(|w| w[0] != w[1]) {
                failures.push(format!("{name}: sim_digest differs ({all:?})"));
            }
        }
    }
    if !same_seed {
        notes.push(
            "seeds or scales differ: simulated metrics compared within their bounds, sim_digest not compared"
                .into(),
        );
    }
    Ok(Comparison {
        rows,
        failures,
        notes,
    })
}

/// Print `compare`'s rows; returns whether everything is `ok`.
pub fn print_comparison(c: &Comparison) -> bool {
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "spread"
    );
    for r in &c.rows {
        // A ratio needs a base: 0 / 0 (failed_share) prints as equal.
        let ratio = if r.a == r.b { 1.0 } else { r.b / r.a };
        println!(
            "{:<12} {:<22} {:>14.4} {:>14.4} {:>9.4} {:>6.1}% {:>6.1}%  {}  [{}; ratio base = A = {:.4}]",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.as_str(),
            r.unit,
            r.a
        );
    }
    for f in &c.failures {
        println!("FAILED: {f}");
    }
    for n in &c.notes {
        println!("note: {n}");
    }
    c.failures.is_empty() && c.rows.iter().all(|r| r.verdict == Verdict::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr_share(&[1.0, 2.0]) - 1.5 / 1.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let tight = |x: f64| vec![x * 0.999, x, x * 1.001];
        // 3 % slower against a 5 % bound: ok. 8 %: regressed.
        assert_eq!(
            judge(&tight(100.0), &tight(103.0), Better::Lower, 0.05, false).3,
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight(100.0), &tight(108.0), Better::Lower, 0.05, false).3,
            Verdict::Regressed
        );
        // Throughput: lower is worse.
        assert_eq!(
            judge(&tight(100.0), &tight(92.0), Better::Higher, 0.05, false).3,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight(100.0), &tight(120.0), Better::Higher, 0.05, false).3,
            Verdict::Ok
        );
        // Spread wider than the bound and overlapping runs: unresolved…
        let noisy = vec![80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, 0.05, false).3,
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        let fast: Vec<f64> = noisy.iter().map(|x| x / 2.0).collect();
        assert_eq!(
            judge(&noisy, &fast, Better::Lower, 0.05, false).3,
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_must_match_to_the_bit() {
        assert_eq!(
            judge(&[1.5, 1.5], &[1.5], Better::Lower, 0.05, true).3,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[1.5], &[1.5000000000000002], Better::Lower, 0.05, true).3,
            Verdict::Regressed
        );
    }
}
