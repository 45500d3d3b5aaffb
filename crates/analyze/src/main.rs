//! `fv-analyze` — the workspace static-analysis gate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use fv_analyze::baseline::{diff, tightened, Baseline};
use fv_analyze::{find_workspace_root, scan_workspace, site_counts, BASELINE_PATH};

const HELP: &str = "\
fv-analyze — Farview workspace static analysis

USAGE:
    fv-analyze [MODE]

MODES:
    check             (default) run both passes; exit 1 on any
                      regression. Removed panic sites auto-tighten the
                      committed analyze/baseline.toml.
    report            print every counted, waived and test-only panic
                      site plus pass summaries; never fails.
    --write-baseline  rewrite analyze/baseline.toml to match the
                      current tree exactly (use after an intentional,
                      reviewed change).
    --help            this text.

PASSES:
    1. panic-freedom ratchet   unwrap/expect/panic!/unreachable!/todo!/
                               assert!/indexing in datapath crates,
                               diffed against analyze/baseline.toml.
                               Waive a site that upholds a proven
                               invariant with
                               `// fv:allow(panic): <reason>`.
    2. error-taxonomy audit    public fns returning Result must use the
                               typed error enums (FvError, NetError,
                               PipelineError, ...). Waive FFI-style
                               boundaries with
                               `// fv:allow(error): <reason>`.
";

enum Mode {
    Check,
    Report,
    WriteBaseline,
}

fn main() -> ExitCode {
    let mode = match env::args().nth(1).as_deref() {
        None | Some("check") => Mode::Check,
        Some("report") => Mode::Report,
        Some("--write-baseline") => Mode::WriteBaseline,
        Some("--help") | Some("-h") => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("fv-analyze: unknown mode {other:?} (try --help)");
            return ExitCode::FAILURE;
        }
    };

    let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!(
            "fv-analyze: no workspace Cargo.toml above {}",
            cwd.display()
        );
        return ExitCode::FAILURE;
    };

    let files = match scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fv-analyze: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let counts = site_counts(&files);
    let mut failed = false;

    // Malformed waivers are an error in every mode that gates.
    for f in &files {
        for line in &f.scan.malformed_waivers {
            eprintln!(
                "{}:{}: fv:allow waiver without a reason — say why the site is safe",
                f.path, line
            );
            failed = true;
        }
    }

    match mode {
        Mode::WriteBaseline => {
            let b = tightened(&counts);
            let path = root.join(BASELINE_PATH);
            if let Err(e) = fs::write(&path, b.render()) {
                eprintln!("fv-analyze: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} ({} entries, {} sites)",
                BASELINE_PATH,
                b.panic.len(),
                b.panic.values().sum::<usize>()
            );
            return ExitCode::SUCCESS;
        }
        Mode::Report => {
            let mut total = 0usize;
            let mut waived = 0usize;
            let mut test_only = 0usize;
            for f in &files {
                for s in &f.scan.sites {
                    println!("{}:{}: [{}] {}", f.path, s.line, s.kind, s.snippet);
                    total += 1;
                }
                for s in &f.scan.waived {
                    println!("{}:{}: [waived {}] {}", f.path, s.line, s.kind, s.snippet);
                    waived += 1;
                }
                test_only += f.scan.test_sites;
            }
            println!(
                "\npass 1: {} counted panic sites, {} waived, {} in test code",
                total, waived, test_only
            );
            let violations: usize = files.iter().map(|f| f.scan.error_violations.len()).sum();
            for f in &files {
                for v in &f.scan.error_violations {
                    println!(
                        "{}:{}: stringly error {} — {}",
                        f.path, v.line, v.error_type, v.snippet
                    );
                }
            }
            println!("pass 2: {violations} stringly Result returns");
            return ExitCode::SUCCESS;
        }
        Mode::Check => {}
    }

    // --- pass 1: ratchet ---------------------------------------------------
    let baseline_path = root.join(BASELINE_PATH);
    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("fv-analyze: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!(
                "fv-analyze: cannot read {} ({e}); run `fv-analyze --write-baseline` once to seed it",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let d = diff(&baseline, &counts);
    for (key, allowed, current) in &d.regressions {
        eprintln!(
            "pass 1: NEW panic site(s): {key} has {current}, baseline allows {allowed} \
             — return a typed error, or waive a proven invariant with `// fv:allow(panic): <reason>`"
        );
        // Show the offending sites for the regressed file/kind.
        if let Some((path, kind)) = key.rsplit_once(':') {
            for f in files.iter().filter(|f| f.path == path) {
                for s in f.scan.sites.iter().filter(|s| s.kind.name() == kind) {
                    eprintln!("    {}:{}: {}", f.path, s.line, s.snippet);
                }
            }
        }
        failed = true;
    }
    if d.should_tighten() {
        let b = tightened(&counts);
        match fs::write(&baseline_path, b.render()) {
            Ok(()) => {
                for (key, allowed, current) in &d.improvements {
                    println!("pass 1: tightened {key}: {allowed} -> {current}");
                }
                println!("pass 1: baseline auto-tightened; commit {BASELINE_PATH}");
            }
            Err(e) => {
                eprintln!(
                    "fv-analyze: cannot tighten {}: {e}",
                    baseline_path.display()
                );
                failed = true;
            }
        }
    }

    // --- pass 2: error taxonomy --------------------------------------------
    for f in &files {
        for v in &f.scan.error_violations {
            eprintln!(
                "pass 2: {}:{}: public fn returns stringly error `{}` — use a typed error enum \
                 (FvError/NetError/PipelineError/...) or waive with `// fv:allow(error): <reason>`",
                f.path, v.line, v.error_type
            );
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        let sites: usize = counts.values().sum();
        println!(
            "fv-analyze: all passes clean ({} baselined panic sites across {} files)",
            sites,
            files.len()
        );
        ExitCode::SUCCESS
    }
}
