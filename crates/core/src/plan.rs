//! Query planning, and the fleet's shard plans, merge and scatter.
//!
//! ```text
//!                 PipelineSpec ──lower──▶ QueryPlan (logical IR)
//!                                             │ optimize()   rule-based:
//!                                             │   · projection pruning
//!                                             │   · predicate-before-projection
//!                                             │   · DISTINCT→GROUP-BY unification
//!                                             │   · cost-gated smart addressing
//!                                             ▼ to_spec()
//!                                        PipelineSpec ──▶ any farView entry point
//! ```
//!
//! The [`QueryPlan`] IR is a list of `LogicalStage`s plus a
//! [`PlanTarget`] (single QPair, doorbell batch of depth N, fleet shard
//! set, or tiered residency). Plans lower from a [`PipelineSpec`]
//! ([`QueryPlan::from_spec`]) or are built stage by stage in *logical*
//! order — where a filter written after a projection refers to projected
//! column indices — and [`QueryPlan::optimize`] normalizes them back
//! into the one physical order the hardware supports, applying the
//! rewrite rules above. [`QueryPlan::explain`] surfaces the applied
//! rules next to per-plan cost estimates from
//! [`fv_sim::PlanCostModel`]. An optimized plan runs wherever its
//! lowered spec does: `plan.optimize(schema)?.to_spec()?`, then any
//! `far_view`. [`QueryPlan::verify`] runs that lowering and the checks
//! the target's entry point runs before it touches a region, and
//! nothing else: a verifiable plan is an executable one.
//!
//! Every query reaches the episode engine as a doorbell batch on one
//! queue pair (a solo `farView` is a depth-1 batch). A fleet query is
//! one such batch per shard: this module holds the *only*
//! implementations of per-shard spec derivation ([`shard_execution`]),
//! client-side gather/merge ([`MergeSpec`]) and the in-order,
//! panic-contained slot loop (`scatter_slots`) that
//! [`FleetQPair::far_view_batch`](crate::FleetQPair::far_view_batch)
//! drives. `DISTINCT` and `GROUP BY` both merge through the same
//! partial-aggregation path ([`fv_pipeline::PartialAggPlan`], with an
//! empty aggregate list for `DISTINCT`).

use fv_data::Schema;
use fv_pipeline::merge::PartialAggPlan;
use fv_pipeline::{
    AggSpec, CompiledPipeline, CryptoSpec, GroupingSpec, JoinSmallSpec, PipelineError,
    PipelineSpec, PredicateExpr, RegexFilter,
};
use fv_sim::{MergeCostModel, PlanCostModel, SimDuration};

use crate::cluster::{check_queue_depth, QueryOutcome, QueryStats};
use crate::error::FvError;
use crate::fleet::{FleetQueryOutcome, Partitioning};
use crate::tiered::{StorageParams, TierLevel};

// ---------------------------------------------------------------------------
// The IR
// ---------------------------------------------------------------------------

/// One logical stage of a [`QueryPlan`].
///
/// Stages apply in list order; every stage's column indices refer to its
/// *input* schema (the base table for the first stage, the previous
/// stage's output after a [`LogicalStage::Project`]). The physical
/// pipeline supports exactly one order (decrypt → filter → regex → join
/// → aggregate → project → compress → encrypt); plans in any other
/// logical order must be normalized by [`QueryPlan::optimize`] before
/// they can lower.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LogicalStage {
    /// Decrypt the scanned bytes (data at rest is encrypted, §5.5).
    Decrypt(CryptoSpec),
    /// Keep tuples satisfying the predicate (§5.3).
    Filter(PredicateExpr),
    /// Keep tuples whose string column matches (§5.3).
    Regex(RegexFilter),
    /// Broadcast join against a shipped build side (§7 extension).
    Join(JoinSmallSpec),
    /// Grouping (§5.4): `GROUP BY keys` with aggregates — or, with
    /// `distinct` set and no aggregates, `SELECT DISTINCT keys`. The two
    /// are one stage kind so the fleet merge has exactly one
    /// partial-aggregation path.
    Aggregate {
        /// Grouping key columns.
        keys: Vec<usize>,
        /// Aggregates per group (empty for `DISTINCT`).
        aggs: Vec<AggSpec>,
        /// Lower back to the streaming `DISTINCT` operator instead of a
        /// hash-table `GROUP BY` flush.
        distinct: bool,
    },
    /// Keep columns, in order (§5.2).
    Project(Vec<usize>),
    /// Compress the result stream (§5.5 extension).
    Compress,
    /// Encrypt the result stream (§5.5).
    Encrypt(CryptoSpec),
}

impl LogicalStage {
    /// Physical pipeline rank (Figure 4's fixed stage order). Stages of
    /// equal rank commute.
    fn rank(&self) -> u8 {
        match self {
            LogicalStage::Decrypt(_) => 0,
            LogicalStage::Filter(_) | LogicalStage::Regex(_) => 1,
            LogicalStage::Join(_) => 2,
            LogicalStage::Aggregate { .. } => 3,
            LogicalStage::Project(_) => 4,
            LogicalStage::Compress => 5,
            LogicalStage::Encrypt(_) => 6,
        }
    }

    fn describe(&self) -> String {
        match self {
            LogicalStage::Decrypt(_) => "decrypt".into(),
            LogicalStage::Filter(p) => format!("filter {p:?}"),
            LogicalStage::Regex(r) => format!("regex c{} ~ {:?}", r.col, r.pattern),
            LogicalStage::Join(j) => format!(
                "join probe c{} vs build c{} ({} B shipped)",
                j.probe_col,
                j.build_key,
                j.upload_bytes()
            ),
            LogicalStage::Aggregate {
                keys,
                aggs,
                distinct,
            } => {
                if *distinct && aggs.is_empty() {
                    format!("distinct {keys:?} (unified group-by, no aggregates)")
                } else {
                    format!("group-by {keys:?} aggs {aggs:?}")
                }
            }
            LogicalStage::Project(cols) => format!("project {cols:?}"),
            LogicalStage::Compress => "compress".into(),
            LogicalStage::Encrypt(_) => "encrypt".into(),
        }
    }
}

/// Where a [`QueryPlan`] executes — the part of the IR the cost model
/// and the verifier read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanTarget {
    /// One `farView` verb on a single queue pair.
    Single,
    /// A doorbell batch of `depth` verbs pipelined on one queue pair.
    Batch {
        /// Queue depth of the batch.
        depth: usize,
    },
    /// Scatter–gather across a fleet shard set. With the elastic
    /// topology the shard count is an epoch-dependent property of the
    /// table's [`Placement`](crate::topology::Placement) — build this
    /// target from a live handle via
    /// [`FleetTable::plan_target`](crate::FleetTable::plan_target) so
    /// it resolves against the epoch snapshot actually being queried.
    Fleet {
        /// Number of shards the table spans at its placement epoch.
        shards: usize,
        /// How the table's rows are assigned to shards.
        partitioning: Partitioning,
    },
    /// A tiered buffer pool in front of block storage.
    Tiered {
        /// Which rung of the disk → far-memory → DRAM ladder the table
        /// is expected on. [`TierLevel::Dram`] costs no staging,
        /// [`TierLevel::FarMemory`] pays only the DRAM write (zero-copy
        /// image restage), [`TierLevel::Disk`] additionally pays the
        /// device read.
        residency: TierLevel,
    },
}

impl std::fmt::Display for PlanTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanTarget::Single => write!(f, "single"),
            PlanTarget::Batch { depth } => write!(f, "batch[depth={depth}]"),
            PlanTarget::Fleet {
                shards,
                partitioning,
            } => write!(f, "fleet[{shards} shards, {partitioning:?}]"),
            PlanTarget::Tiered { residency } => write!(f, "tiered[{residency}]"),
        }
    }
}

/// Optimizer rule names, as recorded in [`Explain::applied`].
pub(crate) mod rules {
    /// Fuse / narrow projections so no stage carries columns nothing
    /// downstream reads.
    pub(crate) const PROJECTION_PRUNING: &str = "projection-pruning";
    /// Move a filter written after a projection back before it,
    /// remapping its column indices into base-table space.
    pub(crate) const PREDICATE_BEFORE_PROJECTION: &str = "predicate-before-projection";
    /// `DISTINCT` is the degenerate `GROUP BY` — both merge through one
    /// partial-aggregation path.
    pub(crate) const DISTINCT_UNIFICATION: &str = "distinct-group-by-unification";
    /// Read only the projected bytes from memory when the per-tuple
    /// gather is estimated cheaper than streaming whole rows.
    pub(crate) const SMART_ADDRESSING: &str = "smart-addressing";
}

/// The planner IR: logical stages plus an execution target.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    stages: Vec<LogicalStage>,
    smart_addressing: bool,
    vectorize: bool,
    target: PlanTarget,
    applied: Vec<&'static str>,
}

impl QueryPlan {
    /// An empty (passthrough) plan for `target`.
    pub fn new(target: PlanTarget) -> Self {
        QueryPlan {
            stages: Vec::new(),
            smart_addressing: false,
            vectorize: false,
            target,
            applied: Vec::new(),
        }
    }

    /// Lower a [`PipelineSpec`] into the IR (stages in the physical
    /// order the spec already implies).
    pub fn from_spec(spec: &PipelineSpec, target: PlanTarget) -> Self {
        let mut stages = Vec::new();
        if let Some(c) = &spec.decrypt_input {
            stages.push(LogicalStage::Decrypt(c.clone()));
        }
        if let Some(p) = &spec.selection {
            stages.push(LogicalStage::Filter(p.clone()));
        }
        if let Some(r) = &spec.regex {
            stages.push(LogicalStage::Regex(r.clone()));
        }
        if let Some(j) = &spec.join {
            stages.push(LogicalStage::Join(j.clone()));
        }
        match &spec.grouping {
            Some(GroupingSpec::Distinct { cols }) => stages.push(LogicalStage::Aggregate {
                keys: cols.clone(),
                aggs: Vec::new(),
                distinct: true,
            }),
            Some(GroupingSpec::GroupBy { keys, aggs }) => stages.push(LogicalStage::Aggregate {
                keys: keys.clone(),
                aggs: aggs.clone(),
                distinct: false,
            }),
            None => {}
        }
        if let Some(cols) = &spec.projection {
            stages.push(LogicalStage::Project(cols.clone()));
        }
        if spec.compress_output {
            stages.push(LogicalStage::Compress);
        }
        if let Some(c) = &spec.encrypt_output {
            stages.push(LogicalStage::Encrypt(c.clone()));
        }
        QueryPlan {
            stages,
            smart_addressing: spec.smart_addressing,
            vectorize: spec.vectorize,
            target,
            applied: Vec::new(),
        }
    }

    // --- builder (logical order) ------------------------------------------

    /// Append a projection stage.
    pub fn project(mut self, cols: Vec<usize>) -> Self {
        self.stages.push(LogicalStage::Project(cols));
        self
    }

    /// Append a filter stage. After a [`QueryPlan::project`], the
    /// predicate's indices refer to the *projected* columns — the
    /// optimizer remaps them back to base-table space.
    pub fn filter(mut self, pred: PredicateExpr) -> Self {
        self.stages.push(LogicalStage::Filter(pred));
        self
    }

    /// Append a regex-selection stage.
    pub fn regex_match(mut self, col: usize, pattern: impl Into<String>) -> Self {
        self.stages.push(LogicalStage::Regex(RegexFilter {
            col,
            pattern: pattern.into(),
        }));
        self
    }

    /// Append a `DISTINCT` stage (the unified aggregate form).
    pub fn distinct(mut self, cols: Vec<usize>) -> Self {
        self.stages.push(LogicalStage::Aggregate {
            keys: cols,
            aggs: Vec::new(),
            distinct: true,
        });
        self
    }

    /// Append a `GROUP BY` stage.
    pub fn group_by(mut self, keys: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        self.stages.push(LogicalStage::Aggregate {
            keys,
            aggs,
            distinct: false,
        });
        self
    }

    /// Append a broadcast-join stage.
    pub fn join_small(mut self, join: JoinSmallSpec) -> Self {
        self.stages.push(LogicalStage::Join(join));
        self
    }

    /// Append an input-decryption stage.
    pub fn decrypt(mut self, key: CryptoSpec) -> Self {
        self.stages.push(LogicalStage::Decrypt(key));
        self
    }

    /// Append an output-encryption stage.
    pub fn encrypt(mut self, key: CryptoSpec) -> Self {
        self.stages.push(LogicalStage::Encrypt(key));
        self
    }

    /// Append an output-compression stage.
    pub fn compress(mut self) -> Self {
        self.stages.push(LogicalStage::Compress);
        self
    }

    /// Request vectorized selection lanes.
    pub fn vectorized(mut self) -> Self {
        self.vectorize = true;
        self
    }

    // --- accessors --------------------------------------------------------

    /// The execution target.
    pub fn target(&self) -> PlanTarget {
        self.target
    }

    // --- lowering ---------------------------------------------------------

    /// Lower the plan back into the [`PipelineSpec`] the hardware loads.
    ///
    /// # Errors
    /// [`FvError::UnsupportedPlan`] when the stages are not in the
    /// physical pipeline order (run [`QueryPlan::optimize`] first) or a
    /// stage kind repeats where the hardware has a single slot.
    pub fn to_spec(&self) -> Result<PipelineSpec, FvError> {
        let mut spec = PipelineSpec::passthrough();
        let mut rank = 0u8;
        // The hardware has one slot per stage kind but the filter.
        let once = |filled: bool, reason| {
            if filled {
                Err(FvError::UnsupportedPlan { reason })
            } else {
                Ok(())
            }
        };
        for stage in &self.stages {
            if stage.rank() < rank {
                return Err(FvError::UnsupportedPlan {
                    reason: "stages are not in the physical pipeline order (decrypt → \
                             filter/regex → join → aggregate → project → compress → encrypt); \
                             optimize() normalizes filters, regexes and projections, but a \
                             stage that consumes another's output cannot move before it",
                });
            }
            rank = stage.rank();
            match stage {
                LogicalStage::Decrypt(c) => {
                    once(spec.decrypt_input.is_some(), "two decrypt stages")?;
                    spec = spec.decrypt(c.clone());
                }
                LogicalStage::Filter(p) => spec = spec.filter(p.clone()),
                LogicalStage::Regex(r) => {
                    once(spec.regex.is_some(), "two regex stages")?;
                    spec = spec.regex_match(r.col, r.pattern.clone());
                }
                LogicalStage::Join(j) => {
                    once(spec.join.is_some(), "two join stages")?;
                    spec = spec.join_small(j.clone());
                }
                LogicalStage::Aggregate {
                    keys,
                    aggs,
                    distinct,
                } => {
                    once(spec.grouping.is_some(), "two grouping stages")?;
                    spec = if *distinct && aggs.is_empty() {
                        spec.distinct(keys.clone())
                    } else {
                        spec.group_by(keys.clone(), aggs.clone())
                    };
                }
                LogicalStage::Project(cols) => {
                    let reason = "two projection stages — optimize() fuses them";
                    once(spec.projection.is_some(), reason)?;
                    spec = spec.project(cols.clone());
                }
                LogicalStage::Compress => {
                    once(spec.compress_output, "two compress stages")?;
                    spec = spec.compress();
                }
                LogicalStage::Encrypt(c) => {
                    once(spec.encrypt_output.is_some(), "two encrypt stages")?;
                    spec = spec.encrypt(c.clone());
                }
            }
        }
        if self.smart_addressing {
            spec = spec.with_smart_addressing();
        }
        if self.vectorize {
            spec = spec.vectorized();
        }
        Ok(spec)
    }

    // --- the verifier -----------------------------------------------------

    /// Verify the plan against the base-table `schema`, returning the
    /// schema of the result the client receives: the plan is optimized
    /// and lowered, then put through the checks its target's entry point
    /// runs before it touches a region — the queue depth of a doorbell
    /// batch, the fleet's shard planning ([`shard_execution`]) and the
    /// compile of the spec that runs ([`CompiledPipeline::compile`]).
    ///
    /// A plan verifies if and only if it executes: `verify` returns the
    /// error the entry point would, and no rule lives here alone.
    pub fn verify(&self, schema: &Schema) -> Result<Schema, FvError> {
        let spec = self.optimize(schema)?.to_spec()?;
        match self.target {
            PlanTarget::Single | PlanTarget::Tiered { .. } => {}
            PlanTarget::Batch { depth } => check_queue_depth(depth)?,
            PlanTarget::Fleet { .. } => {
                let (shard_spec, merge) = shard_execution(&spec, schema)?;
                let shard = CompiledPipeline::compile(shard_spec, schema)?;
                return Ok(match merge {
                    MergeSpec::Aggregate(plan) => plan.out_schema().clone(),
                    MergeSpec::Concat => shard.out_schema().clone(),
                });
            }
        }
        Ok(CompiledPipeline::compile(spec, schema)?
            .out_schema()
            .clone())
    }

    // --- the optimizer ----------------------------------------------------

    /// Run the rule-based optimizer: normalize logical stage order into
    /// the physical one (remapping column indices where the projection
    /// permits), prune projections nothing downstream reads, and choose
    /// smart addressing when the calibrated cost model says the gather
    /// beats streaming whole rows. Every rewrite is
    /// result-preserving: the optimized plan returns byte-identical
    /// payloads on every target (property-tested in
    /// `tests/plan_props.rs`).
    pub fn optimize(&self, schema: &Schema) -> Result<QueryPlan, FvError> {
        let mut plan = self.clone();
        plan.applied.clear();
        if plan
            .stages
            .iter()
            .any(|s| matches!(s, LogicalStage::Aggregate { distinct, .. } if *distinct))
        {
            plan.applied.push(rules::DISTINCT_UNIFICATION);
        }

        // Fixpoint rewriting over adjacent stage pairs.
        loop {
            let mut changed = false;
            let mut i = 0;
            while let (Some(first), Some(second)) = (plan.stages.get(i), plan.stages.get(i + 1)) {
                let rewrite = match (first, second) {
                    // Predicate-before-projection: filter indices remap
                    // through the projection into base space.
                    (LogicalStage::Project(p), LogicalStage::Filter(f)) => {
                        let remapped = remap_predicate(f, p)?;
                        Some((
                            vec![
                                LogicalStage::Filter(remapped),
                                LogicalStage::Project(p.clone()),
                            ],
                            rules::PREDICATE_BEFORE_PROJECTION,
                        ))
                    }
                    // A regex is a selection predicate too: its column
                    // remaps through the projection the same way.
                    (LogicalStage::Project(p), LogicalStage::Regex(r)) => {
                        let col = remap_col(r.col, p)?;
                        Some((
                            vec![
                                LogicalStage::Regex(RegexFilter {
                                    col,
                                    pattern: r.pattern.clone(),
                                }),
                                LogicalStage::Project(p.clone()),
                            ],
                            rules::PREDICATE_BEFORE_PROJECTION,
                        ))
                    }
                    // Projection pruning: project∘project composes into
                    // one stage, dropping columns the outer projection
                    // never reads.
                    (LogicalStage::Project(p), LogicalStage::Project(q)) => {
                        let fused = remap_cols(q, p)?;
                        Some((
                            vec![LogicalStage::Project(fused)],
                            rules::PROJECTION_PRUNING,
                        ))
                    }
                    // Projection pruning: an aggregate defines its own
                    // output columns, so a projection feeding it only
                    // renames inputs — remap the keys/aggregates to base
                    // space and drop the projection.
                    (
                        LogicalStage::Project(p),
                        LogicalStage::Aggregate {
                            keys,
                            aggs,
                            distinct,
                        },
                    ) => {
                        let keys = remap_cols(keys, p)?;
                        let aggs = aggs
                            .iter()
                            .map(|a| {
                                Ok(AggSpec {
                                    col: remap_col(a.col, p)?,
                                    func: a.func,
                                })
                            })
                            .collect::<Result<Vec<_>, FvError>>()?;
                        Some((
                            vec![LogicalStage::Aggregate {
                                keys,
                                aggs,
                                distinct: *distinct,
                            }],
                            rules::PROJECTION_PRUNING,
                        ))
                    }
                    _ => None,
                };
                if let Some((replacement, rule)) = rewrite {
                    plan.stages.splice(i..i + 2, replacement);
                    if !plan.applied.contains(&rule) {
                        plan.applied.push(rule);
                    }
                    changed = true;
                } else {
                    i += 1;
                }
            }
            if !changed {
                break;
            }
        }

        // Cost-gated smart addressing: a pure projection of strictly
        // ascending, distinct columns reads only the projected bytes from
        // memory when the per-tuple gather is clearly cheaper than
        // streaming the whole row. (Ascending + distinct keeps the
        // gathered byte order identical to the packed projection; the
        // margin keeps "optimized is never slower" true under the
        // event-level queueing the estimate does not model.)
        if !plan.smart_addressing && !plan.vectorize {
            if let [LogicalStage::Project(cols)] = plan.stages.as_slice() {
                let ascending = cols.is_sorted_by(|a, b| a < b);
                if ascending && !cols.is_empty() {
                    let cost = PlanCostModel::default();
                    let stream_per_tuple = cost.stream_scan(schema.row_bytes() as u64);
                    let gather_per_tuple = cost.smart_gather(1);
                    if gather_per_tuple * 5 < stream_per_tuple * 4 {
                        plan.smart_addressing = true;
                        plan.applied.push(rules::SMART_ADDRESSING);
                    }
                }
            }
        }

        Ok(plan)
    }

    // --- explain ----------------------------------------------------------

    /// Optimize the plan and report what the optimizer did next to the
    /// calibrated cost estimates of the naive and optimized plans for a
    /// table of `rows` rows.
    pub fn explain(&self, schema: &Schema, rows: u64) -> Result<Explain, FvError> {
        let optimized = self.optimize(schema)?;
        let naive_cost = estimate(self, schema, rows);
        let optimized_cost = estimate(&optimized, schema, rows);
        // Explain only what runs.
        optimized.verify(schema)?;
        Ok(Explain {
            target: optimized.target,
            stages: optimized
                .stages
                .iter()
                .map(LogicalStage::describe)
                .collect(),
            applied: optimized.applied.clone(),
            naive_cost,
            optimized_cost,
            smart_addressing: optimized.smart_addressing,
            rows,
            row_bytes: schema.row_bytes(),
        })
    }
}

// --- column remapping helpers ----------------------------------------------

fn remap_col(col: usize, projection: &[usize]) -> Result<usize, FvError> {
    projection
        .get(col)
        .copied()
        .ok_or(FvError::Pipeline(PipelineError::UnknownColumn {
            col,
            arity: projection.len(),
        }))
}

fn remap_cols(cols: &[usize], projection: &[usize]) -> Result<Vec<usize>, FvError> {
    cols.iter().map(|&c| remap_col(c, projection)).collect()
}

fn remap_predicate(pred: &PredicateExpr, projection: &[usize]) -> Result<PredicateExpr, FvError> {
    Ok(match pred {
        PredicateExpr::True => PredicateExpr::True,
        PredicateExpr::Cmp { col, op, value } => PredicateExpr::Cmp {
            col: remap_col(*col, projection)?,
            op: *op,
            value: value.clone(),
        },
        PredicateExpr::And(xs) => PredicateExpr::And(
            xs.iter()
                .map(|x| remap_predicate(x, projection))
                .collect::<Result<_, _>>()?,
        ),
        PredicateExpr::Or(xs) => PredicateExpr::Or(
            xs.iter()
                .map(|x| remap_predicate(x, projection))
                .collect::<Result<_, _>>()?,
        ),
        PredicateExpr::Not(x) => PredicateExpr::Not(Box::new(remap_predicate(x, projection)?)),
    })
}

// ---------------------------------------------------------------------------
// Cost estimation (fv_sim hooks composed per target)
// ---------------------------------------------------------------------------

/// Coarse calibrated response-time estimate for one plan. Selectivities
/// are unknown at plan time, so data-reducing stages are charged at
/// worst case (everything survives) — conservative for both alternatives
/// of every rewrite the optimizer considers.
fn estimate(plan: &QueryPlan, schema: &Schema, rows: u64) -> SimDuration {
    let cost = PlanCostModel::default();
    let row_bytes = schema.row_bytes() as u64;

    // Walk the stages to find the output row width (worst case: every
    // tuple survives filters).
    let mut widths: Vec<u64> = (0..schema.column_count())
        .map(|c| schema.column_range(c).len() as u64)
        .collect();
    let mut grouped = false;
    for stage in &plan.stages {
        match stage {
            LogicalStage::Project(cols) => {
                widths = cols
                    .iter()
                    .map(|&c| widths.get(c).copied().unwrap_or(8))
                    .collect();
            }
            LogicalStage::Aggregate { keys, aggs, .. } => {
                grouped = true;
                widths = keys
                    .iter()
                    .map(|&c| widths.get(c).copied().unwrap_or(8))
                    .chain(std::iter::repeat_n(8, aggs.len()))
                    .collect();
            }
            LogicalStage::Join(j) => {
                let build_extra = j.build_schema.row_bytes() as u64;
                widths.push(build_extra.saturating_sub(8));
            }
            _ => {}
        }
    }
    let out_row_bytes: u64 = widths.iter().sum::<u64>().max(1);

    let in_bytes_total = rows * row_bytes;
    let gather = plan.smart_addressing.then_some(rows);
    let out_bytes_total = rows * out_row_bytes;

    match plan.target {
        PlanTarget::Single => cost.episode(in_bytes_total, gather, out_bytes_total),
        PlanTarget::Batch { depth } => {
            // The doorbell batch overlaps fixed costs; the serial
            // bottleneck (memory or wire) repeats per in-flight query.
            let memory = match gather {
                Some(t) => cost.smart_gather(t),
                None => cost.stream_scan(in_bytes_total),
            };
            cost.request_fixed() + memory.max(cost.wire(out_bytes_total)) * depth as u64
        }
        PlanTarget::Fleet { shards, .. } => {
            let shard_rows = rows.div_ceil(shards.max(1) as u64);
            let shard_episode = cost.episode(
                shard_rows * row_bytes,
                gather.map(|_| shard_rows),
                shard_rows * out_row_bytes,
            );
            let merge = if grouped {
                cost.merge_hash(rows.min(shard_rows * shards as u64), out_bytes_total)
            } else {
                cost.merge_concat(out_bytes_total)
            };
            cost.fan_out(shard_episode, merge)
        }
        PlanTarget::Tiered { residency } => {
            let staging = match residency {
                TierLevel::Dram => SimDuration::ZERO,
                // Far-resident image: zero-copy open, only the write
                // into the disaggregated buffer pool is paid.
                TierLevel::FarMemory => cost.stream_scan(in_bytes_total),
                TierLevel::Disk => {
                    let dev = StorageParams::default();
                    dev.access_latency
                        + fv_sim::calib::transfer(in_bytes_total, dev.bandwidth)
                        + cost.stream_scan(in_bytes_total)
                }
            };
            staging + cost.episode(in_bytes_total, gather, out_bytes_total)
        }
    }
}

/// What [`QueryPlan::explain`] reports: the optimized stage list, the
/// rules that fired, and the calibrated cost estimates side by side.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Execution target of the plan.
    pub target: PlanTarget,
    /// Optimized stages, rendered human-readably in order.
    pub stages: Vec<String>,
    /// Optimizer rules that fired.
    pub applied: Vec<&'static str>,
    /// Estimated response time of the plan as written.
    pub naive_cost: SimDuration,
    /// Estimated response time after optimization.
    pub optimized_cost: SimDuration,
    /// Whether the optimized plan gathers only projected bytes.
    pub smart_addressing: bool,
    /// Table rows the estimate assumed.
    pub rows: u64,
    /// Input row width in bytes.
    pub row_bytes: usize,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "QueryPlan target={} rows={} row_bytes={}",
            self.target, self.rows, self.row_bytes
        )?;
        writeln!(
            f,
            "  scan[{}]",
            if self.smart_addressing {
                "smart-addressing: projected bytes only"
            } else {
                "stream: whole rows"
            }
        )?;
        for s in &self.stages {
            writeln!(f, "  {s}")?;
        }
        if self.applied.is_empty() {
            writeln!(f, "rules applied: none")?;
        } else {
            writeln!(f, "rules applied: {}", self.applied.join(", "))?;
        }
        writeln!(
            f,
            "estimated cost: naive {} -> optimized {}",
            self.naive_cost, self.optimized_cost
        )
    }
}

// ---------------------------------------------------------------------------
// Shard planning + merge: the one implementation
// ---------------------------------------------------------------------------

/// How one query's per-shard payloads combine client-side.
#[derive(Debug)]
pub enum MergeSpec {
    /// Concatenate shard payloads in shard order (selection /
    /// projection / regex; under row-range partitioning shard order *is*
    /// row order).
    Concat,
    /// Merge through the partial-aggregation path — `GROUP BY` *and*
    /// `DISTINCT` (the latter with an empty aggregate list, reducing the
    /// merge to the order-preserving first-seen union).
    Aggregate(PartialAggPlan),
}

/// Derive the spec each shard runs and the client-side merge for one
/// fleet query — the single implementation every fleet entry point uses.
///
/// `GROUP BY` needs the partial/final aggregate split (`AVG` fans out as
/// `SUMF64` + `COUNT`); `DISTINCT` runs the user's spec verbatim but
/// merges through the same partial-aggregation path; everything else
/// runs verbatim and concatenates.
///
/// # Errors
/// [`FvError::FleetUnsupported`] for result streams with no
/// order-preserving merge (compressed or output-encrypted), and for
/// tables encrypted at rest (`decrypt_input`): a shard holds a slice of
/// the table's ciphertext but no offset into its keystream.
pub fn shard_execution(
    spec: &PipelineSpec,
    schema: &Schema,
) -> Result<(PipelineSpec, MergeSpec), FvError> {
    if spec.compress_output {
        return Err(FvError::FleetUnsupported {
            feature: "compressed",
        });
    }
    if spec.encrypt_output.is_some() {
        return Err(FvError::FleetUnsupported {
            feature: "output-encrypted",
        });
    }
    if spec.decrypt_input.is_some() {
        // Every shard's pipeline starts its CTR stream at offset 0, but
        // a row-range shard's ciphertext begins `lo × row_bytes` into
        // the table's keystream, and a key-hash shard's rows come from
        // all over it: decrypting would return garbage, not an error.
        return Err(FvError::FleetUnsupported {
            feature: "input-decrypted",
        });
    }
    match &spec.grouping {
        Some(GroupingSpec::GroupBy { keys, aggs }) => {
            let plan = PartialAggPlan::new(keys, aggs, schema)?;
            let mut s = spec.clone();
            s.grouping = Some(GroupingSpec::GroupBy {
                keys: keys.clone(),
                aggs: plan.shard_aggs().to_vec(),
            });
            Ok((s, MergeSpec::Aggregate(plan)))
        }
        Some(GroupingSpec::Distinct { cols }) => {
            let plan = PartialAggPlan::for_distinct(cols, schema)?;
            Ok((spec.clone(), MergeSpec::Aggregate(plan)))
        }
        None => Ok((spec.clone(), MergeSpec::Concat)),
    }
}

/// Merge one query's per-shard outcomes client-side — the single
/// gather/merge implementation. Fleet stats aggregate as: counters sum
/// over shards, `response_time` = max over shards + merge time.
///
/// Takes the outcomes *borrowed*: the merge reads every shard payload
/// exactly once (into the merged buffer or the partial-agg hash), so
/// cloning whole `QueryOutcome`s per query at the gather would be pure
/// waste on the hot path.
pub(crate) fn merge_gathered(
    merge: &MergeSpec,
    model: &MergeCostModel,
    outcomes: &[&QueryOutcome],
) -> FleetQueryOutcome {
    let payloads: Vec<&[u8]> = outcomes.iter().map(|o| o.payload.as_slice()).collect();
    let input_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    let (payload, schema, merge_time) = match merge {
        MergeSpec::Aggregate(plan) => {
            let (merged, partial_rows) = plan.merge(&payloads);
            let t = model.hash_merge(partial_rows, input_bytes);
            (merged, plan.out_schema().clone(), t)
        }
        MergeSpec::Concat => {
            // Concatenation in shard order. Under row-range partitioning
            // this *is* the single-node row order.
            #[expect(
                clippy::indexing_slicing,
                reason = "a fleet always scatters over >= 1 shard, so the gather sees >= 1 outcome"
            )]
            let schema = outcomes[0].schema.clone();
            let mut merged = Vec::with_capacity(input_bytes as usize);
            for p in &payloads {
                merged.extend_from_slice(p);
            }
            let t = model.concat(input_bytes);
            (merged, schema, t)
        }
    };

    let per_shard: Vec<QueryStats> = outcomes.iter().map(|o| o.stats).collect();
    let mut stats = QueryStats::default();
    for s in &per_shard {
        stats.response_time = stats.response_time.max(s.response_time);
        stats.bytes_from_memory += s.bytes_from_memory;
        stats.bytes_on_wire += s.bytes_on_wire;
        stats.packets += s.packets;
        stats.tuples_in += s.tuples_in;
        stats.tuples_out += s.tuples_out;
        stats.overflow_tuples += s.overflow_tuples;
        stats.hazard_catches += s.hazard_catches;
        stats.groups_flushed += s.groups_flushed;
        stats.client_postprocess += s.client_postprocess;
        stats.reconfigured |= s.reconfigured;
        stats.sim_events += s.sim_events;
    }
    stats.response_time += merge_time;
    stats.result_bytes = payload.len() as u64;

    FleetQueryOutcome {
        merged: QueryOutcome {
            payload,
            schema,
            stats,
        },
        per_shard,
        merge_time,
    }
}

// ---------------------------------------------------------------------------
// The fleet scatter
// ---------------------------------------------------------------------------

/// Run `run` over every shard slot in slot order, on the calling
/// thread, threading one state through the slots (the fleet keeps its
/// compiled pipelines there), and stop at the first slot that fails.
///
/// A slot whose run panics is contained here: it reports
/// [`FvError::ScatterWorkerPanicked`] instead of unwinding into the
/// caller, so one bad shard episode cannot take down a client
/// mid-fleet-read.
pub(crate) fn scatter_slots<T, R, S>(
    slots: impl IntoIterator<Item = T>,
    state: &mut S,
    mut run: impl FnMut(T, &mut S) -> Result<R, FvError>,
) -> Result<Vec<R>, FvError> {
    slots
        .into_iter()
        .map(|slot| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(slot, state)))
                .unwrap_or(Err(FvError::ScatterWorkerPanicked))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FarviewCluster, FarviewConfig, MAX_QUEUE_DEPTH};
    use fv_data::{Table, TableBuilder, Value};
    use fv_pipeline::AggFunc;

    fn table(cols: usize, rows: u64) -> Table {
        let schema = Schema::uniform_u64(cols);
        let mut b = TableBuilder::with_capacity(schema, rows as usize);
        for i in 0..rows {
            b.push_values(
                (0..cols as u64)
                    .map(|c| Value::U64(i * 7 % 50 + c))
                    .collect(),
            );
        }
        b.build()
    }

    fn run(t: &Table, spec: &PipelineSpec) -> QueryOutcome {
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp = c.connect().unwrap();
        let (ft, _) = qp.load_table(t).unwrap();
        qp.far_view(&ft, spec).unwrap()
    }

    /// The verdict on each plan of a fixed corpus, pinned: the output
    /// column names, or the error its target's entry point returns.
    #[test]
    fn the_plan_corpus_verifies_as_pinned() {
        use fv_data::{Column, ColumnType as T};
        use fv_pipeline::CryptoSpec;
        use PipelineError as P;
        let schema = |cols: &[(&str, T)]| {
            Schema::new(
                cols.iter()
                    .map(|&(n, ty)| Column { name: n.into(), ty })
                    .collect(),
            )
        };
        let base = schema(&[
            ("a", T::U64),
            ("b", T::U64),
            ("c", T::F64),
            ("d", T::Bytes(16)),
            ("e", T::I64),
        ]);
        let mut b = TableBuilder::new(schema(&[("k", T::U64), ("v", T::U64)]));
        for i in 0..16u64 {
            b.push_values(vec![Value::U64(i), Value::U64(i * 100)]);
        }
        let join = JoinSmallSpec::new(0, &b.build(), 0);
        let key = CryptoSpec {
            key: [1; 16],
            iv: [2; 16],
        };
        let s = || QueryPlan::new(PlanTarget::Single);
        let f = || {
            QueryPlan::new(PlanTarget::Fleet {
                shards: 4,
                partitioning: Partitioning::RowRange,
            })
        };
        let smart = |spec: PipelineSpec| {
            QueryPlan::from_spec(&spec.with_smart_addressing(), PlanTarget::Single)
        };
        let agg = |col, func| vec![AggSpec { col, func }];
        let sum = |col| agg(col, AggFunc::Sum);
        let lt = |col| PredicateExpr::lt(col, 9u64);
        let p = |e| Err(FvError::Pipeline(e));
        let unknown = |col, arity| p(P::UnknownColumn { col, arity });
        let grouped = PipelineSpec::passthrough()
            .project(vec![0])
            .distinct(vec![0]);
        let bad_join = JoinSmallSpec {
            probe_col: 2,
            ..join.clone()
        };
        let deep = QueryPlan::new(PlanTarget::Batch {
            depth: MAX_QUEUE_DEPTH + 1,
        });
        #[rustfmt::skip]
        let cases: Vec<(&str, QueryPlan, Result<&str, FvError>)> = vec![
            ("passthrough", s(), Ok("a b c d e")),
            ("filter-project", s().filter(lt(0)).project(vec![0, 2]), Ok("a c")),
            ("filter-after-project", s().project(vec![2, 0]).filter(lt(1)), Ok("c a")),
            ("regex-project", s().regex_match(3, "ab*c").project(vec![3, 0]), Ok("d a")),
            ("distinct", s().distinct(vec![1, 0]), Ok("b a")),
            ("group-by", s().group_by(vec![0], [sum(1), agg(2, AggFunc::Avg), agg(3, AggFunc::Count)].concat()), Ok("a sum_b avg_c count_d")),
            ("join", s().join_small(join.clone()), Ok("a b c d e b_v")),
            ("smart-addressing", smart(PipelineSpec::passthrough().project(vec![4, 0])), Ok("a e")),
            ("fleet-group-by", f().group_by(vec![0], agg(1, AggFunc::Max)), Ok("a max_b")),
            ("compress", s().compress(), Ok("a b c d e")),
            ("encrypt", s().encrypt(key.clone()), Ok("a b c d e")),
            ("decrypt", s().decrypt(key), Ok("a b c d e")),
            ("project-out-of-bounds", s().project(vec![0, 5]), unknown(5, 5)),
            ("filter-after-project-dropped-column", s().project(vec![0, 1]).filter(lt(2)), unknown(2, 2)),
            ("regex-on-u64", s().regex_match(0, "a+"), p(P::RegexOnNonString { col: 0 })),
            ("regex-bad-pattern", s().regex_match(3, "a(b"), p(P::Regex("syntax error at byte 3: unclosed group".into()))),
            ("sum-over-bytes", s().group_by(vec![0], sum(3)), p(P::AggOnBytes { col: 3 })),
            ("aggregate-out-of-bounds", s().group_by(vec![0], sum(7)), unknown(7, 5)),
            ("fleet-aggregate-out-of-bounds", f().group_by(vec![0], sum(7)), unknown(7, 5)),
            ("distinct-empty", s().distinct(vec![]), p(P::EmptyDistinct)),
            ("fleet-distinct-empty", f().distinct(vec![]), p(P::EmptyDistinct)),
            ("join-key-type-mismatch", s().join_small(bad_join), p(P::JoinKeyTypeMismatch { probe: T::F64, build: T::U64 })),
            ("smart-addressing-with-grouping", smart(grouped), p(P::SmartAddressingConflict("grouping"))),
            ("group-by-then-project", s().group_by(vec![0], sum(1)).project(vec![0]), p(P::GroupingProjectionConflict)),
            ("join-then-project", s().join_small(join).project(vec![0, 1]), p(P::JoinConflict("projection"))),
            ("batch-too-deep", deep, Err(FvError::BatchTooDeep { depth: MAX_QUEUE_DEPTH + 1, max: MAX_QUEUE_DEPTH })),
        ];
        for (name, plan, want) in cases {
            let got = plan.verify(&base).map(|s| {
                let names: Vec<&str> = s.columns().iter().map(|c| c.name.as_str()).collect();
                names.join(" ")
            });
            assert_eq!(got, want.map(str::to_string), "{name}");
        }
    }

    /// The verifier refuses the spec features a fleet cannot run with
    /// the shard planner's own error; a single-node target takes all
    /// three.
    #[test]
    fn fleet_refusals_agree_between_verifier_and_shard_planner() {
        let key = fv_pipeline::CryptoSpec {
            key: [1; 16],
            iv: [2; 16],
        };
        let schema = Schema::uniform_u64(3);
        let fleet = PlanTarget::Fleet {
            shards: 4,
            partitioning: crate::Partitioning::RowRange,
        };
        for (spec, feature) in [
            (PipelineSpec::passthrough().compress(), "compressed"),
            (
                PipelineSpec::passthrough().encrypt(key.clone()),
                "output-encrypted",
            ),
            (PipelineSpec::passthrough().decrypt(key), "input-decrypted"),
        ] {
            let refused = FvError::FleetUnsupported { feature };
            assert_eq!(
                shard_execution(&spec, &schema).map(|(s, _)| s),
                Err(refused.clone())
            );
            assert_eq!(
                QueryPlan::from_spec(&spec, fleet).verify(&schema),
                Err(refused)
            );
            assert_eq!(
                QueryPlan::from_spec(&spec, PlanTarget::Single).verify(&schema),
                Ok(schema.clone())
            );
        }
    }

    #[test]
    fn projection_next_to_grouping_or_join_errors_at_lowering() {
        // SELECT a subset of a GROUP BY's output is not a pipeline the
        // hardware has a layout for: the lowered spec fails its own
        // verifier, before any table is loaded.
        let plan = QueryPlan::new(PlanTarget::Single)
            .group_by(
                vec![0],
                vec![AggSpec {
                    col: 1,
                    func: AggFunc::Sum,
                }],
            )
            .project(vec![0]);
        let schema = Schema::uniform_u64(4);
        let conflict = PipelineError::GroupingProjectionConflict;
        let lowered = plan.optimize(&schema).unwrap().to_spec().unwrap();
        assert_eq!(lowered.verify(&schema), Err(conflict.clone()));
        assert_eq!(plan.verify(&schema), Err(FvError::Pipeline(conflict)));

        // A join written after a projection cannot move before it.
        let mut bb = TableBuilder::new(Schema::uniform_u64(2));
        bb.push_values(vec![Value::U64(1), Value::U64(2)]);
        let plan = QueryPlan::new(PlanTarget::Single)
            .project(vec![0, 1])
            .join_small(JoinSmallSpec::new(0, &bb.build(), 0));
        let optimized = plan.optimize(&schema).unwrap();
        assert!(matches!(
            optimized.to_spec(),
            Err(FvError::UnsupportedPlan { .. })
        ));
    }

    #[test]
    fn from_spec_roundtrips_through_the_ir() {
        let specs = [
            PipelineSpec::passthrough(),
            PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(0, 10u64))
                .project(vec![1, 0]),
            PipelineSpec::passthrough().distinct(vec![1, 0]),
            PipelineSpec::passthrough().group_by(
                vec![0],
                vec![AggSpec {
                    col: 1,
                    func: AggFunc::Avg,
                }],
            ),
            PipelineSpec::passthrough().compress().vectorized(),
        ];
        for spec in &specs {
            let plan = QueryPlan::from_spec(spec, PlanTarget::Single);
            assert_eq!(&plan.to_spec().unwrap(), spec, "lossless roundtrip");
        }
    }

    #[test]
    fn filter_after_projection_reorders_and_remaps() {
        // Logical plan: project [2,0,3], then filter on *projected*
        // column 0 — which is base column 2.
        let schema = Schema::uniform_u64(8);
        let plan = QueryPlan::new(PlanTarget::Single)
            .project(vec![2, 0, 3])
            .filter(PredicateExpr::lt(0, 25u64));
        assert!(matches!(
            plan.to_spec(),
            Err(FvError::UnsupportedPlan { .. })
        ));
        let optimized = plan.optimize(&schema).unwrap();
        assert!(optimized
            .applied
            .contains(&rules::PREDICATE_BEFORE_PROJECTION));
        let spec = optimized.to_spec().unwrap();
        assert_eq!(spec.selection, Some(PredicateExpr::lt(2, 25u64)));
        assert_eq!(spec.projection, Some(vec![2, 0, 3]));

        // And the normalized plan computes what the logical plan means.
        let t = table(8, 100);
        let direct = run(
            &t,
            &PipelineSpec::passthrough()
                .filter(PredicateExpr::lt(2, 25u64))
                .project(vec![2, 0, 3]),
        );
        let via_plan = run(&t, &spec);
        assert_eq!(via_plan.payload, direct.payload);
    }

    #[test]
    fn projections_fuse_and_prune() {
        let schema = Schema::uniform_u64(8);
        let plan = QueryPlan::new(PlanTarget::Single)
            .project(vec![3, 1, 2])
            .project(vec![2, 0]);
        let optimized = plan.optimize(&schema).unwrap();
        assert!(optimized.applied.contains(&rules::PROJECTION_PRUNING));
        assert_eq!(
            optimized.stages,
            &[LogicalStage::Project(vec![2, 3])],
            "project∘project composes; column 1 is pruned"
        );

        // Projection feeding an aggregate dissolves into remapped keys.
        let plan = QueryPlan::new(PlanTarget::Single)
            .project(vec![2, 1])
            .group_by(
                vec![0],
                vec![AggSpec {
                    col: 1,
                    func: AggFunc::Sum,
                }],
            );
        let optimized = plan.optimize(&schema).unwrap();
        let spec = optimized.to_spec().unwrap();
        assert_eq!(spec.projection, None);
        assert!(matches!(
            spec.grouping,
            Some(GroupingSpec::GroupBy { ref keys, ref aggs })
                if keys == &[2] && aggs[0].col == 1
        ));
        let t = table(8, 120);
        let direct = run(
            &t,
            &PipelineSpec::passthrough().group_by(
                vec![2],
                vec![AggSpec {
                    col: 1,
                    func: AggFunc::Sum,
                }],
            ),
        );
        assert_eq!(run(&t, &spec).payload, direct.payload);
    }

    #[test]
    fn regex_after_projection_reorders_and_remaps() {
        use fv_data::{Column, ColumnType};
        // Schema: a key column and two string columns.
        let schema = Schema::new(vec![
            Column {
                name: "k".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "s1".into(),
                ty: ColumnType::Bytes(8),
            },
            Column {
                name: "s2".into(),
                ty: ColumnType::Bytes(8),
            },
        ]);
        // Logical plan: project [2, 0], then regex on *projected* column
        // 0 — which is base column 2.
        let plan = QueryPlan::new(PlanTarget::Single)
            .project(vec![2, 0])
            .regex_match(0, "a+");
        let optimized = plan.optimize(&schema).unwrap();
        assert!(optimized
            .applied
            .contains(&rules::PREDICATE_BEFORE_PROJECTION));
        let spec = optimized.to_spec().unwrap();
        let regex = spec.regex.as_ref().expect("regex survives");
        assert_eq!(regex.col, 2, "remapped into base space");
        assert_eq!(spec.projection, Some(vec![2, 0]));
    }

    #[test]
    fn out_of_range_remap_is_an_error() {
        let schema = Schema::uniform_u64(8);
        let plan = QueryPlan::new(PlanTarget::Single)
            .project(vec![1, 2])
            .filter(PredicateExpr::lt(5, 1u64)); // projected col 5 doesn't exist
        assert!(matches!(
            plan.optimize(&schema),
            Err(FvError::Pipeline(PipelineError::UnknownColumn {
                col: 5,
                ..
            }))
        ));
    }

    #[test]
    fn smart_addressing_is_cost_gated() {
        // 512 B rows: the per-tuple gather clearly beats streaming.
        let wide = Schema::uniform_u64(64);
        let plan = QueryPlan::new(PlanTarget::Single).project(vec![8, 9, 10]);
        let optimized = plan.optimize(&wide).unwrap();
        assert!(optimized.smart_addressing);
        assert!(optimized.applied.contains(&rules::SMART_ADDRESSING));

        // 64 B rows: streaming wins; the rule must not fire.
        let narrow = Schema::uniform_u64(8);
        let optimized = QueryPlan::new(PlanTarget::Single)
            .project(vec![1, 2])
            .optimize(&narrow)
            .unwrap();
        assert!(!optimized.smart_addressing);

        // Non-ascending projections change byte order under smart
        // addressing — the rule must skip them.
        let optimized = QueryPlan::new(PlanTarget::Single)
            .project(vec![10, 9])
            .optimize(&wide)
            .unwrap();
        assert!(!optimized.smart_addressing);

        // A filter alongside the projection rules it out too.
        let optimized = QueryPlan::new(PlanTarget::Single)
            .filter(PredicateExpr::lt(0, 1u64))
            .project(vec![8, 9])
            .optimize(&wide)
            .unwrap();
        assert!(!optimized.smart_addressing);
    }

    #[test]
    fn optimized_smart_addressing_is_byte_identical_and_not_slower() {
        let t = table(64, 2048); // 512 B rows
        let naive_spec = PipelineSpec::passthrough().project(vec![8, 9, 10]);
        let plan = QueryPlan::from_spec(&naive_spec, PlanTarget::Single);
        let optimized_spec = plan.optimize(t.schema()).unwrap().to_spec().unwrap();
        assert!(optimized_spec.smart_addressing);
        let naive = run(&t, &naive_spec);
        let optimized = run(&t, &optimized_spec);
        assert_eq!(optimized.payload, naive.payload);
        assert_eq!(optimized.schema, naive.schema);
        assert!(
            optimized.stats.response_time <= naive.stats.response_time,
            "optimizer must never lose: {} vs {}",
            optimized.stats.response_time,
            naive.stats.response_time
        );
    }

    #[test]
    fn explain_reports_rules_and_costs() {
        let wide = Schema::uniform_u64(64);
        let plan = QueryPlan::new(PlanTarget::Fleet {
            shards: 4,
            partitioning: Partitioning::RowRange,
        })
        .project(vec![8, 9, 10]);
        let ex = plan.explain(&wide, 4096).unwrap();
        assert!(ex.applied.contains(&rules::SMART_ADDRESSING));
        assert!(ex.optimized_cost < ex.naive_cost);
        assert!(ex.smart_addressing);
        let rendered = format!("{ex}");
        assert!(rendered.contains("rules applied"));
        assert!(rendered.contains("fleet[4 shards"));

        // A passthrough plan has nothing to do and says so.
        let ex = QueryPlan::new(PlanTarget::Single)
            .explain(&wide, 64)
            .unwrap();
        assert!(ex.applied.is_empty());
        assert_eq!(ex.naive_cost, ex.optimized_cost);
    }

    #[test]
    fn distinct_unification_is_recorded_and_preserved() {
        let schema = Schema::uniform_u64(4);
        let spec = PipelineSpec::passthrough().distinct(vec![1, 0]);
        let plan = QueryPlan::from_spec(
            &spec,
            PlanTarget::Fleet {
                shards: 2,
                partitioning: Partitioning::RowRange,
            },
        );
        let optimized = plan.optimize(&schema).unwrap();
        assert!(optimized.applied.contains(&rules::DISTINCT_UNIFICATION));
        // Lowering keeps the streaming DISTINCT operator.
        assert_eq!(optimized.to_spec().unwrap(), spec);
        // And the shard execution merges through the aggregate path.
        let (shard_spec, merge) = shard_execution(&spec, &schema).unwrap();
        assert_eq!(shard_spec, spec);
        assert!(matches!(merge, MergeSpec::Aggregate(_)));
    }

    /// An optimized plan runs by lowering it and calling `far_view`:
    /// solo and in a doorbell batch, it returns the bytes of the spec it
    /// was built from.
    #[test]
    fn optimized_plans_run_as_their_specs() {
        let t = table(8, 200);
        let c = FarviewCluster::new(FarviewConfig::tiny());
        let qp = c.connect().unwrap();
        let (ft, _) = qp.load_table(&t).unwrap();
        let spec = PipelineSpec::passthrough()
            .filter(PredicateExpr::lt(0, 30u64))
            .project(vec![0, 3]);
        let plan = QueryPlan::from_spec(&spec, PlanTarget::Single);
        let lowered = plan.optimize(ft.schema()).unwrap().to_spec().unwrap();
        let via_plan = qp.far_view(&ft, &lowered).unwrap();
        let via_spec = qp.far_view(&ft, &spec).unwrap();
        assert_eq!(via_plan.payload, via_spec.payload);

        let batch = qp.far_view_batch(&ft, &[lowered.clone(), lowered]).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].payload, via_spec.payload);
        assert_eq!(batch[1].payload, via_spec.payload);
    }

    #[test]
    fn scatter_over_zero_slots_is_empty() {
        let out = scatter_slots(&[] as &[usize], &mut (), |&slot, _| Ok(slot));
        assert_eq!(out, Ok(Vec::new()));
    }

    #[test]
    fn scatter_returns_the_lowest_failing_slots_error() {
        // Two failing slots: the loop reports the lower slot index, runs
        // every slot before it in order, and none after it.
        let slots: Vec<usize> = (0..8).collect();
        for (lo, hi) in [(1, 2), (1, 6), (4, 6), (5, 7), (0, 7)] {
            let mut ran = Vec::new();
            let result = scatter_slots(&slots, &mut ran, |&slot, ran| {
                ran.push(slot);
                if slot == lo || slot == hi {
                    return Err(FvError::NodeDown { node: slot as u64 });
                }
                Ok(slot)
            });
            assert_eq!(
                result,
                Err(FvError::NodeDown { node: lo as u64 }),
                "failing=({lo},{hi})"
            );
            assert_eq!(ran, (0..=lo).collect::<Vec<_>>(), "failing=({lo},{hi})");
        }
    }

    #[test]
    fn scatter_worker_panic_is_a_typed_error() {
        // A panicking slot must surface `ScatterWorkerPanicked` — never
        // unwind into the calling thread — wherever it sits, after the
        // slots before it ran with the state threaded through them.
        let slots: Vec<usize> = (0..8).collect();
        for poisoned in [0usize, 1, 5, 7] {
            let mut ran = Vec::new();
            let result = scatter_slots(&slots, &mut ran, |&slot, ran| {
                if slot == poisoned {
                    panic!("poisoned shard episode");
                }
                ran.push(slot);
                Ok(slot * 2)
            });
            assert_eq!(
                result,
                Err(FvError::ScatterWorkerPanicked),
                "poisoned={poisoned}"
            );
            assert_eq!(
                ran,
                (0..poisoned).collect::<Vec<_>>(),
                "poisoned={poisoned}"
            );
        }
    }
}
