//! Multi-tenant fleet scenario generator.
//!
//! The scale-out experiments need something the single-node figures do
//! not: *many tenants* with heterogeneous query mixes hitting a fleet at
//! once. This module generates that deterministically — each tenant gets
//! its own table (controlled group cardinality and selectivity) and a
//! seeded mix of selection / distinct / group-by queries.
//!
//! The generator describes queries as plain data ([`TenantQuery`]) so
//! this crate stays independent of the engine crates; `fv-bench` and the
//! examples lower a [`TenantQuery`] onto a `PipelineSpec`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fv_data::Table;

use crate::TableGen;

/// One query of a tenant's mix, as engine-independent data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantQuery {
    /// `SELECT * WHERE col1 < pivot` — the calibrated selectivity column.
    Select {
        /// Fraction of rows the predicate keeps.
        selectivity: f64,
    },
    /// `SELECT DISTINCT c0`.
    Distinct,
    /// `SELECT c0, SUM(c2) GROUP BY c0`.
    GroupBySum,
    /// `SELECT c0, AVG(c2) GROUP BY c0` — exercises the fleet's
    /// partial-aggregate rewrite (AVG → SUMF64 + COUNT).
    GroupByAvg,
}

/// One tenant: a table plus its query mix.
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// Tenant name (`"tenant0"`, ...).
    pub name: String,
    /// The tenant's base table: 8×8-byte columns; `c0` carries the
    /// group key, `c1` the calibrated selectivity values, `c2` the
    /// aggregation payload.
    pub table: Table,
    /// The column a hash-partitioned deployment should shard on (the
    /// group key, so grouped queries need no cross-shard combining).
    pub partition_key: usize,
    /// Queries, in issue order.
    pub queries: Vec<TenantQuery>,
}

/// Deterministic generator for a multi-tenant fleet scenario.
#[derive(Debug, Clone)]
pub struct FleetScenarioGen {
    tenants: usize,
    rows_per_tenant: usize,
    queries_per_tenant: usize,
    groups: u64,
    seed: u64,
}

impl FleetScenarioGen {
    /// `tenants` tenants with `rows_per_tenant`-row tables.
    pub fn new(tenants: usize, rows_per_tenant: usize) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        assert!(rows_per_tenant > 0, "tenant tables cannot be empty");
        FleetScenarioGen {
            tenants,
            rows_per_tenant,
            queries_per_tenant: 6,
            groups: 32,
            seed: 0xF1EE_7777,
        }
    }

    /// Queries per tenant (default 6).
    pub fn queries_per_tenant(mut self, n: usize) -> Self {
        assert!(n > 0, "tenants must issue at least one query");
        self.queries_per_tenant = n;
        self
    }

    /// Group cardinality of each tenant's key column (default 32).
    pub fn groups(mut self, n: u64) -> Self {
        assert!(n > 0, "need at least one group");
        self.groups = n;
        self
    }

    /// Fix the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build all tenants.
    pub fn build(&self) -> Vec<TenantWorkload> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.tenants)
            .map(|i| {
                let table = TableGen::new(8, self.rows_per_tenant)
                    .seed(self.seed ^ (0xA5A5 + i as u64))
                    .distinct_column(0, self.groups)
                    .selectivity_column(1, 0.5)
                    .sequential_column(2)
                    .build();
                let queries = (0..self.queries_per_tenant)
                    .map(|_| match rng.gen_range(0u32..4) {
                        0 => TenantQuery::Select {
                            selectivity: [0.25, 0.5, 0.75][rng.gen_range(0usize..3)],
                        },
                        1 => TenantQuery::Distinct,
                        2 => TenantQuery::GroupBySum,
                        _ => TenantQuery::GroupByAvg,
                    })
                    .collect();
                TenantWorkload {
                    name: format!("tenant{i}"),
                    table,
                    partition_key: 0,
                    queries,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_shaped() {
        let a = FleetScenarioGen::new(3, 1000).seed(9).build();
        let b = FleetScenarioGen::new(3, 1000).seed(9).build();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.table, y.table);
            assert_eq!(x.queries, y.queries);
            assert_eq!(x.table.row_count(), 1000);
            assert_eq!(x.queries.len(), 6);
        }
        let c = FleetScenarioGen::new(3, 1000).seed(10).build();
        assert_ne!(a[0].table, c[0].table, "seed must matter");
    }

    #[test]
    fn tenants_differ_and_mix_covers_kinds() {
        let tenants = FleetScenarioGen::new(4, 500)
            .queries_per_tenant(24)
            .seed(3)
            .build();
        assert_ne!(tenants[0].table, tenants[1].table);
        let all: Vec<TenantQuery> = tenants
            .iter()
            .flat_map(|t| t.queries.iter().copied())
            .collect();
        assert!(all.iter().any(|q| matches!(q, TenantQuery::Select { .. })));
        assert!(all.contains(&TenantQuery::Distinct));
        assert!(all.contains(&TenantQuery::GroupBySum));
        assert!(all.contains(&TenantQuery::GroupByAvg));
    }

    #[test]
    fn group_cardinality_is_respected() {
        let t = &FleetScenarioGen::new(1, 4000).groups(16).seed(1).build()[0];
        let mut seen = std::collections::HashSet::new();
        for r in t.table.rows() {
            seen.insert(r.value(0).as_u64());
        }
        assert!(seen.len() <= 16);
        assert!(seen.len() >= 12, "should hit most groups");
    }
}
