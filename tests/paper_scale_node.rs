//! The paper's node is instantiable: `FarviewConfig::default()` is "two
//! of the four 16 GB channels" (§6.1), and building it, loading a table
//! and querying it costs the host what was written, not 32 GiB.
//!
//! Its own test binary with a single test, so the process's resident set
//! is this test's alone.
#![cfg(target_os = "linux")]

use farview::prelude::*;
use fv_workload::{TableGen, SELECTIVITY_PIVOT};

/// The process's resident set, from `/proc/self/status`.
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("the kernel reports VmRSS");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .expect("VmRSS: <n> kB");
    kib * 1024
}

#[test]
fn two_16_gib_channels_cost_what_is_written() {
    let table = TableGen::paper_default(1 << 20)
        .selectivity_column(0, 0.5)
        .seed(3)
        .build();
    let before = vm_rss_bytes();

    let config = FarviewConfig::default();
    assert_eq!((config.channels, config.channel_bytes), (2, 16 << 30));
    let cluster = FarviewCluster::new(config);
    assert_eq!(cluster.free_pages(), 16_384, "32 GiB of 2 MB pages");

    let qp = cluster.connect().unwrap();
    let (ft, _) = qp.load_table(&table).unwrap();
    assert_eq!(cluster.free_pages(), 16_383);
    assert_eq!(cluster.resident_bytes(), 1 << 20);
    assert_eq!(qp.table_read(&ft).unwrap().payload, table.bytes());
    let q = SelectQuery::all_columns().and_lt(0, SELECTIVITY_PIVOT);
    let half = qp.select(&ft, &q).unwrap();
    assert!(half.row_count() > 0 && half.row_count() < table.row_count());

    let grown = vm_rss_bytes().saturating_sub(before);
    assert!(
        grown < 32 << 20,
        "a 32 GiB node holding 1 MiB grew the process by {} MiB",
        grown >> 20
    );
    qp.free_table(ft).unwrap();
    assert_eq!(
        (cluster.free_pages(), cluster.resident_bytes()),
        (16_384, 0)
    );
}
