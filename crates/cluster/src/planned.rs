//! Distributed plans as data.
//!
//! A [`PhysicalPlan`] pairs a per-shard [`LogicalPlan`] local phase with
//! a [`MergeStrategy`]. [`Cluster::run_planned`] executes the local phase
//! on every shard and hands the partials to the cluster's one merge
//! executor — the same one [`Cluster::try_run_at`] ends in — so a
//! planner-chosen plan inherits every fault-tolerance property the
//! coordinator proves, and its results stay bit-identical to the
//! single-node engine under any survivable fault pattern.
//! [`handwired_physical`] is the one definition of each hand-wired
//! query's merge.
//!
//! The merge strategies mirror the placement options the paper's rack
//! design exposes: gather-and-merge at one coordinator (cheap for small
//! partials), or an all-to-all hash shuffle to owner nodes (cheap when
//! partial groups are large and the group key is not the sharding key).
//! Q10 genuinely has both options; the planner costs them against the
//! fabric model and picks.

use dpu_pool::Pool;
use dpu_sql::logical::{Finish, LogicalPlan, OpRows};
use dpu_sql::{Column, GroupBySpec, QueryCost, Table};

use crate::coordinator::{Cluster, DistributedQuery, NodeCost, QueryError, QueryId};

/// How per-shard partials combine into the final answer.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeStrategy {
    /// Gather partial aggregates to a coordinator and re-aggregate
    /// (valid whenever the local plan ends in the same group-by).
    Reagg(GroupBySpec),
    /// Gather per-shard top-k candidate lists and merge them under the
    /// engine's total order (valid when the ranked entity lives on
    /// exactly one shard, i.e. its key is co-sharded).
    TopKMerge {
        /// Ranked column.
        value: String,
        /// Keep this many rows.
        k: usize,
        /// Tie-break columns, ascending.
        ties: Vec<String>,
    },
    /// Sum per-shard scalar vectors elementwise (Q6's single revenue,
    /// Q14's promo/total pair). `names` label the shipped partials.
    SumScalars {
        /// Column names of the shipped one-row partial tables.
        names: Vec<String>,
    },
    /// Gather *partial groups* to one coordinator, re-aggregate there,
    /// then take the top-k centrally. Correct for re-keyed aggregations
    /// at any key; cheap only while the partials stay small, since every
    /// byte lands on one RX port.
    GatherTopK {
        /// The grouping the partials carry.
        spec: GroupBySpec,
        /// Ranked column.
        value: String,
        /// Keep this many rows.
        k: usize,
    },
    /// All-to-all hash shuffle of partial groups to owner nodes, owner
    /// re-aggregation + local top-k, then a candidate gather (the
    /// hand-wired Q10 plan).
    ShuffleTopK {
        /// The column partials are hashed on (the re-keyed group key).
        key: String,
        /// The grouping the partials carry.
        spec: GroupBySpec,
        /// Ranked column.
        value: String,
        /// Keep this many rows.
        k: usize,
        /// Tie-break columns, ascending.
        ties: Vec<String>,
    },
}

impl MergeStrategy {
    /// Stable display name for EXPLAIN output.
    pub fn name(&self) -> &'static str {
        match self {
            MergeStrategy::Reagg(_) => "reagg",
            MergeStrategy::TopKMerge { .. } => "topk-merge",
            MergeStrategy::SumScalars { .. } => "sum-scalars",
            MergeStrategy::GatherTopK { .. } => "gather-topk",
            MergeStrategy::ShuffleTopK { .. } => "shuffle-topk",
        }
    }

    /// The one-row table a shard ships for its scalar partials under
    /// [`SumScalars`](MergeStrategy::SumScalars): one 8-byte column per
    /// name.
    ///
    /// # Panics
    ///
    /// Panics under any other strategy or on an arity mismatch.
    pub(crate) fn scalar_partial(&self, values: &[i64]) -> Table {
        let MergeStrategy::SumScalars { names } = self else {
            panic!("scalar output under table merge");
        };
        assert_eq!(names.len(), values.len(), "scalar partial arity");
        Table::new(names.iter().zip(values).map(|(n, &v)| Column::i64(n, vec![v])).collect())
    }
}

/// A fully decided distributed plan: what each shard runs locally and
/// how the partials combine.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Which query this plan answers (keys the single-node reference).
    pub id: QueryId,
    /// The per-shard local phase.
    pub local: LogicalPlan,
    /// The merge.
    pub merge: MergeStrategy,
}

/// The result of a planned run, with the per-shard operator traces the
/// adaptive planner feeds back into its cost model.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    /// The distributed result + cost, same shape as the hand-wired path.
    pub query: DistributedQuery,
    /// Per-shard per-operator actual row counts, in shard order.
    pub shard_traces: Vec<Vec<OpRows>>,
    /// Per-shard local-phase costs, in shard order.
    pub local_costs: Vec<QueryCost>,
}

impl Cluster {
    /// Executes a planner-chosen plan at absolute time `start`: the
    /// plan's local phase per shard, then the same merge executor the
    /// hand-wired queries end in.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_run_at`](Cluster::try_run_at): shard loss
    /// and coordinator loss surface as errors, never as wrong results.
    ///
    /// # Panics
    ///
    /// Panics if the plan's local phase output shape does not match its
    /// merge strategy (e.g. scalar output with a table merge).
    pub fn run_planned(
        &mut self,
        plan: &PhysicalPlan,
        start: f64,
    ) -> Result<PlannedRun, QueryError> {
        assert_eq!(
            matches!(plan.local.finish, Finish::ScalarSums(_)),
            matches!(plan.merge, MergeStrategy::SumScalars { .. }),
            "local-phase output shape does not match the merge strategy"
        );
        let core = self.core().clone();
        let (single_output, single_cost) = self.single_ref(plan.id);
        let scale = core.cfg().scale;
        let locals: Vec<(Table, QueryCost, Vec<OpRows>)> = Pool::global()
            .par_map(core.sharded().shards.iter().collect(), |db| {
                plan.local.execute_costed(db, core.xeon(), scale)
            });
        let per_shard: Vec<NodeCost> =
            locals.iter().map(|(_, c, _)| NodeCost::from_dpu(&c.dpu)).collect();
        let shard_traces: Vec<Vec<OpRows>> = locals.iter().map(|(_, _, t)| t.clone()).collect();
        let local_costs: Vec<QueryCost> = locals.iter().map(|(_, c, _)| *c).collect();
        let partials: Vec<Table> = locals.into_iter().map(|(t, _, _)| t).collect();
        let (output, cost) = self.merge(&plan.merge, &partials, &per_shard, start)?;
        Ok(PlannedRun {
            query: DistributedQuery { id: plan.id, output, single_output, cost, single_cost },
            shard_traces,
            local_costs,
        })
    }
}

/// The physical plan matching each hand-wired query exactly: same local
/// pipeline, same merge. [`Cluster::try_run_at`] takes its merge from
/// here; the planner's `off`/baseline mode and the bit-identity tests
/// anchor on the whole plan.
pub fn handwired_physical(id: QueryId) -> PhysicalPlan {
    use dpu_sql::logical::{
        q10_partial_plan, q12_plan, q14_plan, q18_plan, q1_plan, q3_plan, q5_plan, q6_plan,
    };
    let (local, merge) = match id {
        QueryId::Q1 => {
            let p = q1_plan();
            let Finish::Agg(spec) = p.finish.clone() else { unreachable!() };
            (p, MergeStrategy::Reagg(spec))
        }
        QueryId::Q3 => (
            q3_plan(),
            MergeStrategy::TopKMerge {
                value: "revenue".into(),
                k: 10,
                ties: vec!["l_orderkey".into(), "o_orderdate".into()],
            },
        ),
        QueryId::Q5 => {
            let p = q5_plan();
            let Finish::Agg(spec) = p.finish.clone() else { unreachable!() };
            (p, MergeStrategy::Reagg(spec))
        }
        QueryId::Q6 => (q6_plan(), MergeStrategy::SumScalars { names: vec!["revenue".into()] }),
        QueryId::Q10 => {
            let p = q10_partial_plan();
            let Finish::Agg(spec) = p.finish.clone() else { unreachable!() };
            (
                p,
                MergeStrategy::ShuffleTopK {
                    key: "o_custkey".into(),
                    spec,
                    value: "revenue".into(),
                    k: 20,
                    ties: vec!["o_custkey".into()],
                },
            )
        }
        QueryId::Q12 => {
            let p = q12_plan();
            let Finish::Agg(spec) = p.finish.clone() else { unreachable!() };
            (p, MergeStrategy::Reagg(spec))
        }
        QueryId::Q14 => {
            (q14_plan(), MergeStrategy::SumScalars { names: vec!["promo".into(), "total".into()] })
        }
        QueryId::Q18 => (
            q18_plan(),
            MergeStrategy::TopKMerge {
                value: "o_totalprice".into(),
                k: 100,
                ties: vec!["o_orderkey".into()],
            },
        ),
    };
    PhysicalPlan { id, local, merge }
}

/// Q10 with the gather-everything placement — the alternative the
/// planner weighs against [`handwired_physical`]'s shuffle.
pub fn q10_gather_physical() -> PhysicalPlan {
    let p = dpu_sql::logical::q10_partial_plan();
    let Finish::Agg(spec) = p.finish.clone() else { unreachable!() };
    PhysicalPlan {
        id: QueryId::Q10,
        local: p,
        merge: MergeStrategy::GatherTopK { spec, value: "revenue".into(), k: 20 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::ClusterConfig;
    use crate::fault::FaultPlan;
    use crate::shard::ShardPolicy;
    use dpu_sql::tpch::generate;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(
            generate(1200, 42),
            &ShardPolicy::hash(n),
            ClusterConfig::prototype_slice(n, 10_000),
        )
    }

    #[test]
    fn planned_runs_match_hand_wired_and_single_node() {
        let mut c = cluster(8);
        for id in QueryId::ALL {
            let hand = c.run(id);
            let planned = c.run_planned(&handwired_physical(id), 0.0).unwrap();
            assert_eq!(planned.query.output, hand.output, "{id:?} planned ≠ hand-wired");
            assert!(planned.query.matches_single(), "{id:?} planned ≠ single-node");
            assert!(!planned.shard_traces.is_empty());
            assert_eq!(planned.local_costs.len(), 8);
        }
    }

    #[test]
    fn q10_gather_placement_is_bit_identical_to_shuffle() {
        let mut c = cluster(8);
        let shuffle = c.run_planned(&handwired_physical(QueryId::Q10), 0.0).unwrap();
        let gather = c.run_planned(&q10_gather_physical(), 0.0).unwrap();
        assert_eq!(shuffle.query.output, gather.query.output);
        assert!(gather.query.matches_single());
        // The placements cost differently — that is the planner's choice.
        assert_ne!(
            shuffle.query.cost.fabric_bytes, gather.query.cost.fabric_bytes,
            "shuffle and gather should move different byte volumes"
        );
    }

    #[test]
    fn planned_runs_survive_faults_bit_identically() {
        let mut healthy = cluster(8);
        let mut faulty = Cluster::new(
            generate(1200, 42),
            &ShardPolicy::hash(8),
            ClusterConfig::prototype_slice(8, 10_000).with_replicas(2),
        );
        faulty.set_faults(FaultPlan::none().crash(3, 1e-7).straggle(5, 0.0, 1e9, 0.5));
        for id in QueryId::ALL {
            for plan in [handwired_physical(id)]
                .into_iter()
                .chain((id == QueryId::Q10).then(q10_gather_physical))
            {
                let h = healthy.run_planned(&plan, 0.0).unwrap();
                let f = faulty.run_planned(&plan, 0.0).unwrap();
                assert_eq!(h.query.output, f.query.output, "{id:?} diverged under faults");
                assert!(f.query.matches_single());
            }
        }
    }
}
