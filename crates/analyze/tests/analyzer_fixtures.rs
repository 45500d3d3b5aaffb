//! Fixture tests for the `fv-analyze` scanner and ratchet: exact site
//! counts on a known corpus, waiver honoring, and the
//! new-site-fails / removed-site-tightens diff semantics.

use std::collections::BTreeMap;

use fv_analyze::baseline::{diff, tightened, Baseline};
use fv_analyze::scan::{scan_source, SiteKind};

const PANICS: &str = include_str!("fixtures/panics.rs");
const ERRORS: &str = include_str!("fixtures/errors.rs");

fn count(kinds: &[SiteKind], kind: SiteKind) -> usize {
    kinds.iter().filter(|&&k| k == kind).count()
}

#[test]
fn panic_fixture_exact_counts() {
    let scan = scan_source(PANICS);
    let kinds: Vec<SiteKind> = scan.sites.iter().map(|s| s.kind).collect();
    assert_eq!(
        count(&kinds, SiteKind::Unwrap),
        2,
        "unwrap: {:#?}",
        scan.sites
    );
    assert_eq!(count(&kinds, SiteKind::Expect), 1, "expect");
    assert_eq!(count(&kinds, SiteKind::Panic), 1, "panic");
    assert_eq!(count(&kinds, SiteKind::Unreachable), 1, "unreachable");
    assert_eq!(count(&kinds, SiteKind::Todo), 2, "todo/unimplemented");
    assert_eq!(count(&kinds, SiteKind::Assert), 3, "assert family");
    assert_eq!(
        count(&kinds, SiteKind::Index),
        4,
        "indexing: {:#?}",
        scan.sites
    );
    assert_eq!(kinds.len(), 14, "total counted sites");
}

#[test]
fn panic_fixture_waivers_and_test_code() {
    let scan = scan_source(PANICS);
    // One inline waiver on the slice in `indexing`.
    assert_eq!(scan.waived.len(), 1, "waived: {:#?}", scan.waived);
    assert_eq!(scan.waived[0].kind, SiteKind::Index);
    // The #[cfg(test)] module panics freely: xs[0] index, unwrap,
    // panic!, plus the assert_eq.
    assert_eq!(scan.test_sites, 4, "test-code sites");
    assert!(scan.malformed_waivers.is_empty());
}

#[test]
fn error_fixture_exact_violations() {
    let scan = scan_source(ERRORS);
    let types: Vec<&str> = scan
        .error_violations
        .iter()
        .map(|v| v.error_type.as_str())
        .collect();
    assert_eq!(
        scan.error_violations.len(),
        3,
        "violations: {:#?}",
        scan.error_violations
    );
    assert!(types[0] == "String", "got {types:?}");
    assert!(types[1].starts_with("Box<dyn"), "got {types:?}");
    assert!(types[2].contains("&'static str"), "got {types:?}");
}

fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
    pairs.iter().map(|(k, c)| (k.to_string(), *c)).collect()
}

#[test]
fn new_site_fails_the_ratchet() {
    let committed = tightened(&counts(&[("crates/core/src/a.rs:unwrap", 2)]));
    // A developer adds one more unwrap and a brand-new panic! elsewhere.
    let current = counts(&[
        ("crates/core/src/a.rs:unwrap", 3),
        ("crates/net/src/b.rs:panic", 1),
    ]);
    let d = diff(&committed, &current);
    assert_eq!(
        d.regressions,
        vec![
            ("crates/core/src/a.rs:unwrap".to_string(), 2, 3),
            ("crates/net/src/b.rs:panic".to_string(), 0, 1),
        ]
    );
    assert!(d.improvements.is_empty());
}

#[test]
fn removed_site_tightens_the_baseline() {
    let committed = tightened(&counts(&[
        ("crates/core/src/a.rs:unwrap", 2),
        ("crates/core/src/a.rs:index", 1),
    ]));
    // One unwrap was converted to a typed error; the indexing file is
    // untouched.
    let current = counts(&[
        ("crates/core/src/a.rs:unwrap", 1),
        ("crates/core/src/a.rs:index", 1),
    ]);
    let d = diff(&committed, &current);
    assert!(d.regressions.is_empty());
    assert!(d.should_tighten());
    assert_eq!(
        d.improvements,
        vec![("crates/core/src/a.rs:unwrap".to_string(), 2, 1)]
    );
    // The tightened file matches current exactly and round-trips.
    let t = tightened(&current);
    let reparsed = Baseline::parse(&t.render()).expect("canonical render parses");
    assert_eq!(reparsed, t);
    let d2 = diff(&reparsed, &current);
    assert!(d2.regressions.is_empty() && d2.improvements.is_empty());
    // After tightening, reintroducing the site is a regression — the
    // ratchet never loosens.
    let relapsed = counts(&[
        ("crates/core/src/a.rs:unwrap", 2),
        ("crates/core/src/a.rs:index", 1),
    ]);
    assert_eq!(diff(&reparsed, &relapsed).regressions.len(), 1);
}

#[test]
fn fully_fixed_file_drops_out_of_the_baseline() {
    let committed = tightened(&counts(&[("crates/mem/src/x.rs:expect", 1)]));
    let current = counts(&[]);
    let d = diff(&committed, &current);
    assert!(d.regressions.is_empty());
    assert_eq!(
        d.improvements,
        vec![("crates/mem/src/x.rs:expect".to_string(), 1, 0)]
    );
    // The tightened baseline is empty (zero entries are not written).
    assert!(tightened(&current).panic.is_empty());
}

#[test]
fn waiver_without_reason_is_malformed_not_honored() {
    let scan = scan_source("fn f(x: Option<u8>) { x.unwrap(); } // fv:allow(panic):");
    assert_eq!(scan.sites.len(), 1, "reasonless waiver must not suppress");
    assert_eq!(scan.malformed_waivers, vec![1]);
}
