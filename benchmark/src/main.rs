//! `fvbench` — the repo's benchmark.
//!
//! ```text
//! fvbench run       [--workload W] [--seed N] [--trace] [--out FILE] [--repeat K] [--smoke]
//! fvbench selfcheck [--seed N] [--smoke]
//! fvbench compare   A.json B.json
//! fvbench bench     --workload W --seed N --seconds S --trace 0|1     (the driver's contract)
//! ```
//!
//! `bench` is one pass of one workload in this process: under the
//! driver's contract it is time-boxed and prints one JSON line last.
//! `run` measures a fixed number of rounds per workload by running each
//! pass as a `bench` child process, prints every metric by name with
//! its unit, and exits non-zero on any mismatch.

mod json;
mod metrics;
mod oracle;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workload;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use report::WorkloadResult;
use run::Measure;
use workload::Scale;
use workloads::Kind;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 11;

/// Full set-ups per untraced pass; `setup_s` is their median.
const SETUPS: usize = 5;

/// Rounds of the untraced and of the traced pass of `run`, sized so the
/// untraced pass takes ≈25–30 s on the 2-core reference box and p99 has
/// at least ten samples beyond it (≥1000 rounds).
fn rounds(kind: Kind, scale: Scale) -> (usize, usize) {
    match (scale, kind) {
        (Scale::Smoke, _) => (8, 4),
        (Scale::Full, Kind::ScanWire) => (5000, 400),
        (Scale::Full, Kind::AggBatch) => (3200, 300),
        (Scale::Full, Kind::ServeFleet) => (1500, 150),
        (Scale::Full, Kind::TierChurn) => (2500, 300),
    }
}

/// `benchmark/out/<workload>.trace.json` (the directory is git-ignored).
fn trace_path(kind: Kind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.json", kind.name()))
}

struct Args {
    workload: Option<Kind>,
    seed: u64,
    trace: bool,
    out: Option<PathBuf>,
    repeat: usize,
    smoke: bool,
    seconds: Option<f64>,
    rounds: Option<usize>,
    positional: Vec<String>,
}

fn parse_args(args: &[String], trace_takes_value: bool) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        trace: false,
        out: None,
        repeat: 1,
        smoke: false,
        seconds: None,
        rounds: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                a.workload = Some(Kind::from_name(&v).ok_or_else(|| {
                    format!(
                        "unknown workload '{v}' (scan_wire, agg_batch, serve_fleet, tier_churn)"
                    )
                })?);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--rounds" => {
                a.rounds = Some(
                    value("--rounds")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--rounds takes a positive integer")?,
                )
            }
            "--trace" if trace_takes_value => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--trace" => a.trace = true,
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--repeat" => {
                a.repeat = value("--repeat")?
                    .parse()
                    .ok()
                    .filter(|k| (1..=32).contains(k))
                    .ok_or("--repeat takes 1..=32")?
            }
            "--smoke" => a.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

fn scale_of(a: &Args) -> Scale {
    if a.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    }
}

/// Run one pass of one workload in a process of its own (this same
/// executable's `bench` command with a fixed number of rounds) and
/// return its report. A fresh process per pass is what the driver does
/// too: the allocator's state, the page cache of the heap and `VmHWM`
/// start clean, so passes neither disturb nor inherit from each other.
fn pass_in_child(
    kind: Kind,
    seed: u64,
    scale: Scale,
    rounds: usize,
    traced: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let report = trace_path(kind).with_file_name(format!(
        ".pass-{}-{}-{}.json",
        std::process::id(),
        kind.name(),
        u8::from(traced)
    ));
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["bench", "--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--rounds", &rounds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&report);
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    // The child's result line is for the driver; here the report file
    // carries everything.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} pass: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!(
            "the {} pass exited with {}",
            kind.name(),
            out.status
        ));
    }
    let text =
        std::fs::read_to_string(&report).map_err(|e| format!("{}: {e}", report.display()))?;
    let _ = std::fs::remove_file(&report);
    Json::parse(&text).map_err(|e| format!("{}: {e}", report.display()))
}

/// One run of the workload set (or of `only`).
fn run_set(
    only: Option<Kind>,
    seed: u64,
    scale: Scale,
    traced: bool,
    quiet: bool,
) -> Result<Vec<WorkloadResult>, String> {
    let mut results = Vec::new();
    for kind in Kind::ALL
        .into_iter()
        .filter(|k| only.is_none_or(|o| o == *k))
    {
        let (plain_rounds, traced_rounds) = rounds(kind, scale);
        let r = WorkloadResult {
            name: kind.name().to_string(),
            e2e: pass_in_child(kind, seed, scale, plain_rounds, false)?,
            layers: if traced {
                Some(pass_in_child(kind, seed, scale, traced_rounds, true)?)
            } else {
                None
            },
        };
        if !quiet {
            r.print();
        }
        results.push(r);
    }
    Ok(results)
}

fn write_out(path: &PathBuf, file: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let a = parse_args(args, false)?;
    let scale = scale_of(&a);
    let mut runs = Vec::with_capacity(a.repeat);
    let mut problems = Vec::new();
    for i in 0..a.repeat {
        if a.repeat > 1 {
            println!("\n#### run {} of {} ####", i + 1, a.repeat);
        }
        let run = run_set(a.workload, a.seed, scale, a.trace, false)?;
        problems.extend(run.iter().flat_map(WorkloadResult::problems));
        runs.push(run);
    }
    println!(
        "\nsimulated model: unvalidated against the paper's figures (no reference values in the repo); no fidelity error is reported"
    );
    if let Some(path) = &a.out {
        write_out(path, &report::result_file(a.seed, scale, &runs))?;
        println!("wrote {}", path.display());
    }
    if a.trace {
        println!(
            "traces in {}",
            trace_path(Kind::ScanWire)
                .parent()
                .map_or_else(String::new, |p| p.display().to_string())
        );
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    Ok(problems.is_empty())
}

fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    let a = parse_args(args, false)?;
    let scale = scale_of(&a);
    let mut files = Vec::new();
    let mut clean = true;
    for label in ["first", "second"] {
        println!(
            "\n#### selfcheck: {label} set of runs (seed {}) ####",
            a.seed
        );
        let run = run_set(a.workload, a.seed, scale, true, true)?;
        for p in run.iter().flat_map(WorkloadResult::problems) {
            eprintln!("FAILED: {p}");
            clean = false;
        }
        files.push(report::result_file(a.seed, scale, &[run]));
    }
    if let Some(path) = &a.out {
        write_out(path, &files[1])?;
    }
    println!();
    let agree = report::print_comparison(&report::compare(&files[0], &files[1])?);
    println!(
        "\nselfcheck: {}",
        if agree && clean {
            "every end-to-end metric of every workload agrees within its bound; simulated metrics, failed_share and sim_digest agree exactly"
        } else {
            "FAILED"
        }
    );
    Ok(agree && clean)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let a = parse_args(args, false)?;
    let [pa, pb] = a.positional.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    Ok(report::print_comparison(&report::compare(
        &load(pa)?,
        &load(pb)?,
    )?))
}

/// One pass of one workload in this process.
///
/// Under the driver's contract: `--seconds` of measuring, the result as
/// the last line of standard output. `run` and `selfcheck` call it with
/// `--rounds` instead (identical work on both sides of a comparison)
/// and read the full report from `--out`.
fn cmd_bench(args: &[String]) -> Result<bool, String> {
    let a = parse_args(args, true)?;
    let kind = a.workload.ok_or("bench needs --workload")?;
    let scale = scale_of(&a);
    let setups = if scale == Scale::Smoke { 1 } else { SETUPS };
    let measure = |share: f64| match (a.rounds, a.seconds) {
        (Some(n), _) => Ok(Measure::Rounds(n)),
        (None, Some(s)) => Ok(Measure::Seconds(s * share)),
        (None, None) => Err("bench needs --seconds or --rounds"),
    };
    let (line, report) = if a.trace {
        // Under a time box the interleaved rounds get nine tenths; the
        // probes that follow take fixed repetitions (under 2 s).
        let r = run::per_layer(kind, a.seed, scale, measure(0.9)?, Some(&trace_path(kind)))?;
        (run::driver_line_per_layer(&r), r.to_json())
    } else {
        let r = run::end_to_end(kind, a.seed, scale, measure(1.0)?, setups)?;
        (run::driver_line_end_to_end(&r), r.to_json(kind.name()))
    };
    if let Some(path) = &a.out {
        write_out(path, &report)?;
    }
    println!("{}", line.to_compact());
    Ok(true)
}

/// Pin glibc malloc's mmap and trim thresholds.
///
/// Left alone they adjust themselves to the sizes the process happens
/// to free first, and a run then settles — at random, for its whole
/// life — into one of two modes: 1 MiB result and table buffers are
/// recycled on the heap, or every one of them is mmapped, page-faulted
/// in and unmapped again. On the reference box the modes were 13 %
/// (`agg_batch`) to 30 % (`scan_wire`) apart, wider than any bound. The
/// benchmark measures the heap-reuse mode: the other one times the
/// allocator and the kernel, not the system.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's own tuning entry point; it takes two
    // plain integers, touches only allocator parameters, and is called
    // here before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!(
            "usage: fvbench <run|selfcheck|compare|bench> [options]   (see benchmark/README.md)"
        );
        return ExitCode::from(2);
    };
    if cfg!(debug_assertions) && cmd != "compare" {
        eprintln!("fvbench refuses to measure a debug build: use `cargo run --release`");
        return ExitCode::from(2);
    }
    let outcome = match cmd.as_str() {
        "run" => cmd_run(rest),
        "selfcheck" => cmd_selfcheck(rest),
        "compare" => cmd_compare(rest),
        "bench" => cmd_bench(rest),
        other => Err(format!("unknown command '{other}'")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fvbench: {e}");
            ExitCode::from(2)
        }
    }
}
