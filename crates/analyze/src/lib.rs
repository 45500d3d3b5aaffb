//! `fv_analyze`: workspace static analysis for the Farview
//! reproduction.
//!
//! Two passes over the source text, offline and dependency-free — it
//! never builds the crates it audits:
//!
//! 1. **Panic-freedom ratchet** ([`scan`], [`baseline`]) — counts
//!    panic sites per datapath source file and diffs against the
//!    committed `analyze/baseline.toml`. New sites fail; removed sites
//!    tighten the baseline.
//! 2. **Error-taxonomy audit** ([`scan`]) — public functions returning
//!    `Result` must use the workspace's typed error enums, not
//!    `String` / `Box<dyn Error>` / `&str`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod scan;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Datapath crates the panic ratchet and error audit cover. `bench`,
/// `workload`, `baseline` and the dependency shims are out of scope —
/// they are harness code, not the datapath.
pub const DATAPATH_CRATES: [&str; 8] = [
    "crates/core",
    "crates/net",
    "crates/pipeline",
    "crates/mem",
    "crates/data",
    "crates/crypto",
    "crates/regex",
    "crates/sim",
];

/// Location of the committed ratchet baseline, workspace-relative.
pub const BASELINE_PATH: &str = "analyze/baseline.toml";

/// One scanned workspace file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Scan results.
    pub scan: scan::FileScan,
}

/// Walk `root` and scan every `src/**/*.rs` of the datapath crates.
/// Integration tests (`tests/`), benches and fixtures are skipped —
/// panics there are the point.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<ScannedFile>> {
    let mut out = Vec::new();
    for krate in DATAPATH_CRATES {
        let src_dir = root.join(krate).join("src");
        let mut files = Vec::new();
        collect_rs(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let src = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(ScannedFile {
                path: rel,
                scan: scan::scan_source(&src),
            });
        }
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Aggregate per-file scans into ratchet keys: `"path:kind"` → count.
pub fn site_counts(files: &[ScannedFile]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for f in files {
        for site in &f.scan.sites {
            *counts
                .entry(format!("{}:{}", f.path, site.kind))
                .or_insert(0) += 1;
        }
    }
    counts
}

/// Find the workspace root: the nearest ancestor of `start` holding a
/// `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
