//! Heavy-tailed multi-tenant serving mix.
//!
//! [`ClosedLoopGen`](crate::ClosedLoopGen) models *one* well-behaved
//! closed-loop client. A serving front end faces the opposite: many
//! concurrent tenants whose demand is heavy-tailed — a few elephants
//! generate most of the offered load while a long tail of mice issue the
//! occasional query — and whose importance differs (priority classes
//! that an overloaded server sheds in order). This module generates that
//! population deterministically as engine-independent data; the serving
//! layer (`farview_core::serve`) and `fv-bench`'s `overload` experiment
//! lower each [`TenantSpec`] onto pipeline specs and a token-bucket
//! admission profile.
//!
//! Like every generator in this crate, the same seed builds the same
//! mix, so an overload run (and any fairness violation it trips) is
//! exactly replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::TenantQuery;

/// Service class of a tenant, in shed order: at a full queue the
/// serving layer sheds [`MixClass::Bronze`] work first, then
/// [`MixClass::Silver`]; [`MixClass::Gold`] is never shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MixClass {
    /// Highest priority: never shed.
    Gold,
    /// Default priority.
    Silver,
    /// Best-effort: first to be shed.
    Bronze,
}

impl MixClass {
    /// Stable name for reports and figures.
    pub fn name(self) -> &'static str {
        match self {
            MixClass::Gold => "gold",
            MixClass::Silver => "silver",
            MixClass::Bronze => "bronze",
        }
    }

    /// Shed rank: higher ranks are shed first.
    pub fn shed_rank(self) -> u8 {
        match self {
            MixClass::Gold => 0,
            MixClass::Silver => 1,
            MixClass::Bronze => 2,
        }
    }
}

/// What one tenant's queries look like: the serving layer uses the
/// shape to bias the generated [`TenantQuery`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryShape {
    /// Mostly wide selections (scan-heavy elephants).
    ScanHeavy,
    /// Mostly distinct / group-by (aggregation dashboards).
    AggHeavy,
    /// The uniform four-way mix of [`ClosedLoopGen`](crate::ClosedLoopGen).
    Mixed,
}

/// One tenant of the serving mix, as engine-independent data.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Dense tenant index (`0..tenants`).
    pub id: usize,
    /// Tenant name (`"tenant0"`, ...).
    pub name: String,
    /// Service class (admission & shed priority).
    pub class: MixClass,
    /// Contracted share weight: the service share the tenant is entitled
    /// to (weighted-DRR quantum, token-bucket rate). The generator draws
    /// weights Zipf-like so the mix is heavy-tailed.
    pub weight: u64,
    /// Arrival-rate weight: a tenant with demand 4 issues queries 4× as
    /// fast as a demand-1 tenant (its closed-loop think time is 4×
    /// shorter). Equal to `weight` for compliant tenants; over-demanders
    /// (see [`TenantMixGen::overdemand`]) ask for more than their
    /// contracted share and exist to be throttled.
    pub demand: u64,
    /// The shape its queries are biased toward.
    pub shape: QueryShape,
    /// The tenant's query stream, cycled by the closed loop.
    pub queries: Vec<TenantQuery>,
}

/// The generated population.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    /// Tenants in id order.
    pub tenants: Vec<TenantSpec>,
}

/// Deterministic generator for a heavy-tailed [`TenantMix`].
///
/// The weight of tenant `i` follows a truncated Zipf(`skew`) law:
/// `weight_i = ceil(max_weight / (i+1)^skew)`, so tenant 0 is the
/// biggest elephant and the tail flattens to weight-1 mice. Classes are
/// drawn 20 % gold / 30 % silver / 50 % bronze; shapes round-robin so
/// every load point exercises every operator family.
#[derive(Debug, Clone)]
pub struct TenantMixGen {
    tenants: usize,
    queries_per_tenant: usize,
    skew: f64,
    max_weight: u64,
    overdemand: Option<(usize, u64)>,
    seed: u64,
}

impl TenantMixGen {
    /// A mix of `tenants` tenants.
    pub fn new(tenants: usize) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        TenantMixGen {
            tenants,
            queries_per_tenant: 8,
            skew: 1.2,
            max_weight: 8,
            overdemand: None,
            seed: 0x7E4A_47FA,
        }
    }

    /// Queries in each tenant's (cycled) stream (default 8).
    pub fn queries_per_tenant(mut self, n: usize) -> Self {
        assert!(n > 0, "tenants must issue at least one query");
        self.queries_per_tenant = n;
        self
    }

    /// Zipf skew of the weight distribution (default 1.2; 0 = uniform).
    pub fn skew(mut self, s: f64) -> Self {
        assert!(s >= 0.0, "skew cannot be negative");
        self.skew = s;
        self
    }

    /// Weight of the biggest elephant (default 8).
    pub fn max_weight(mut self, w: u64) -> Self {
        assert!(w > 0, "weights must be positive");
        self.max_weight = w;
        self
    }

    /// Make every `every`-th tenant an over-demander whose arrival rate
    /// is `factor`× its contracted weight (default: none — compliant
    /// tenants with `demand == weight`).
    pub fn overdemand(mut self, every: usize, factor: u64) -> Self {
        assert!(every > 0, "overdemand cadence must be positive");
        assert!(factor > 0, "overdemand factor must be positive");
        self.overdemand = Some((every, factor));
        self
    }

    /// Fix the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn draw_select(rng: &mut StdRng) -> TenantQuery {
        TenantQuery::Select {
            selectivity: [0.25, 0.5, 0.75][rng.gen_range(0usize..3)],
        }
    }

    fn draw_query(rng: &mut StdRng, shape: QueryShape) -> TenantQuery {
        let roll = rng.gen_range(0u32..4);
        match shape {
            QueryShape::ScanHeavy => match roll {
                0..=2 => Self::draw_select(rng),
                _ => TenantQuery::Distinct,
            },
            QueryShape::AggHeavy => match roll {
                0 => TenantQuery::Distinct,
                1 => TenantQuery::GroupBySum,
                2 => TenantQuery::GroupByAvg,
                _ => Self::draw_select(rng),
            },
            QueryShape::Mixed => match roll {
                0 => Self::draw_select(rng),
                1 => TenantQuery::Distinct,
                2 => TenantQuery::GroupBySum,
                _ => TenantQuery::GroupByAvg,
            },
        }
    }

    /// Build the mix.
    pub fn build(&self) -> TenantMix {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let tenants = (0..self.tenants)
            .map(|i| {
                let weight =
                    ((self.max_weight as f64) / ((i + 1) as f64).powf(self.skew)).ceil() as u64;
                let class = match rng.gen_range(0u32..10) {
                    0..=1 => MixClass::Gold,
                    2..=4 => MixClass::Silver,
                    _ => MixClass::Bronze,
                };
                let shape = match i % 3 {
                    0 => QueryShape::ScanHeavy,
                    1 => QueryShape::AggHeavy,
                    _ => QueryShape::Mixed,
                };
                let queries = (0..self.queries_per_tenant)
                    .map(|_| Self::draw_query(&mut rng, shape))
                    .collect();
                let weight = weight.max(1);
                let demand = match self.overdemand {
                    Some((every, factor)) if (i + 1) % every == 0 => weight * factor,
                    _ => weight,
                };
                TenantSpec {
                    id: i,
                    name: format!("tenant{i}"),
                    class,
                    weight,
                    demand,
                    shape,
                    queries,
                }
            })
            .collect();
        TenantMix { tenants }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_heavy_tailed() {
        let a = TenantMixGen::new(8).seed(5).build();
        let b = TenantMixGen::new(8).seed(5).build();
        assert_eq!(a, b, "same seed, same mix");
        let c = TenantMixGen::new(8).seed(6).build();
        assert_ne!(a, c, "seed must matter");

        // Zipf weights: tenant 0 is the elephant, the tail is mice.
        assert_eq!(a.tenants[0].weight, 8);
        assert!(a.tenants.last().unwrap().weight <= 2);
        assert!(
            a.tenants.windows(2).all(|w| w[0].weight >= w[1].weight),
            "weights decay along the tail"
        );
        // The head holds most of the demand.
        let head: u64 = a.tenants.iter().take(2).map(|t| t.weight).sum();
        let total: u64 = a.tenants.iter().map(|t| t.weight).sum();
        assert!(
            head * 2 >= total,
            "top-2 tenants carry at least half the demand: {head} of {total}"
        );
    }

    #[test]
    fn classes_and_shapes_cover_the_space() {
        let mix = TenantMixGen::new(24).queries_per_tenant(12).seed(3).build();
        for class in [MixClass::Gold, MixClass::Silver, MixClass::Bronze] {
            assert!(
                mix.tenants.iter().any(|t| t.class == class),
                "missing class {class:?}"
            );
        }
        let shapes: std::collections::HashSet<_> = mix.tenants.iter().map(|t| t.shape).collect();
        assert_eq!(shapes.len(), 3, "all three shapes present");
        // Scan-heavy tenants are mostly selects.
        for t in mix
            .tenants
            .iter()
            .filter(|t| t.shape == QueryShape::ScanHeavy)
        {
            let selects = t
                .queries
                .iter()
                .filter(|q| matches!(q, TenantQuery::Select { .. }))
                .count();
            assert!(
                selects * 2 >= t.queries.len(),
                "scan-heavy tenant {} is not scan-heavy: {selects}/{}",
                t.id,
                t.queries.len()
            );
        }
    }

    #[test]
    fn shed_order_is_gold_last() {
        assert!(MixClass::Gold.shed_rank() < MixClass::Silver.shed_rank());
        assert!(MixClass::Silver.shed_rank() < MixClass::Bronze.shed_rank());
        assert_eq!(MixClass::Gold.name(), "gold");
    }

    #[test]
    fn uniform_skew_flattens_weights() {
        let mix = TenantMixGen::new(6).skew(0.0).max_weight(4).seed(1).build();
        assert!(mix.tenants.iter().all(|t| t.weight == 4));
    }
}
