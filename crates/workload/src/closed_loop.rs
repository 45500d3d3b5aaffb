//! Closed-loop client with a configurable queue depth.
//!
//! The throughput experiments need a client that keeps exactly N
//! requests in flight on one queue pair: it posts a doorbell batch of N
//! queries, waits for the batch to drain, and immediately posts the
//! next batch (a closed loop — no think time). This module generates
//! that request stream deterministically as engine-independent data;
//! `fv-bench` lowers each [`TenantQuery`] onto a `PipelineSpec` and
//! drives the batched `farView` verb.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::TenantQuery;

/// The generated closed-loop schedule: the query stream already split
/// into doorbell batches of (at most) the configured queue depth.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopPlan {
    /// The queue depth the client sustains (last batch may be shorter).
    pub depth: usize,
    /// Batches in post order; each inner vector is one doorbell ring.
    pub batches: Vec<Vec<TenantQuery>>,
}

impl ClosedLoopPlan {
    /// The flat query stream, in issue order (what a depth-1 client
    /// would run — the sequential baseline of the `qdepth` experiment).
    pub fn flat(&self) -> Vec<TenantQuery> {
        self.batches.iter().flatten().copied().collect()
    }
}

/// Deterministic generator for a closed-loop query stream.
#[derive(Debug, Clone)]
pub struct ClosedLoopGen {
    queries: usize,
    depth: usize,
    seed: u64,
}

impl ClosedLoopGen {
    /// A closed loop issuing `queries` queries in total.
    pub fn new(queries: usize) -> Self {
        assert!(queries > 0, "a closed loop must issue at least one query");
        ClosedLoopGen {
            queries,
            depth: 1,
            seed: 0xD00B_E115_u64,
        }
    }

    /// Queue depth per doorbell batch (default 1 — the unbatched
    /// baseline).
    pub fn depth(mut self, n: usize) -> Self {
        assert!(n > 0, "queue depth must be at least 1");
        self.depth = n;
        self
    }

    /// Fix the RNG seed. The query *stream* depends only on the seed,
    /// not the depth, so plans of different depths over the same seed
    /// batch the identical queries — what lets the `qdepth` experiment
    /// assert byte-identical results across depths.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the schedule.
    pub fn build(&self) -> ClosedLoopPlan {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let stream: Vec<TenantQuery> = (0..self.queries)
            .map(|_| match rng.gen_range(0u32..4) {
                0 => TenantQuery::Select {
                    selectivity: [0.25, 0.5, 0.75][rng.gen_range(0usize..3)],
                },
                1 => TenantQuery::Distinct,
                2 => TenantQuery::GroupBySum,
                _ => TenantQuery::GroupByAvg,
            })
            .collect();
        ClosedLoopPlan {
            depth: self.depth,
            batches: stream.chunks(self.depth).map(<[_]>::to_vec).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_depth_invariant() {
        let d1 = ClosedLoopGen::new(20).depth(1).seed(7).build();
        let d8 = ClosedLoopGen::new(20).depth(8).seed(7).build();
        assert_eq!(d1.flat(), d8.flat(), "same seed, same query stream");
        assert_eq!(d1.batches.len(), 20);
        assert_eq!(d8.batches.len(), 3, "20 queries at depth 8: 8+8+4");
        assert_eq!(d8.batches[2].len(), 4);
        assert_eq!(d8.flat().len(), 20);
        assert_eq!(d8.depth, 8);
    }

    #[test]
    fn deterministic_and_mixed() {
        let a = ClosedLoopGen::new(64).depth(4).seed(3).build();
        let b = ClosedLoopGen::new(64).depth(4).seed(3).build();
        assert_eq!(a, b);
        let kinds = a.flat();
        assert!(kinds
            .iter()
            .any(|q| matches!(q, TenantQuery::Select { .. })));
        assert!(kinds.contains(&TenantQuery::Distinct));
        assert!(kinds.contains(&TenantQuery::GroupByAvg));
        let c = ClosedLoopGen::new(64).depth(4).seed(4).build();
        assert_ne!(a.flat(), c.flat(), "seed must matter");
    }
}
