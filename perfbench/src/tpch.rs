//! The two TPC-H workloads: `tpch_suite` (large shards, healthy cluster)
//! and `tpch_failover` (cache-resident shards, a crash in every query).

use std::sync::Arc;

use dpu_cluster::{
    Cluster, ClusterConfig, ClusterCore, DistributedQuery, FaultPlan, QueryId, ShardPolicy,
    SingleRefCache,
};
use dpu_planner::Planner;
use dpu_pool::set_global_threads;
use dpu_sql::tpch;

use crate::bench::{host_metrics, timed_phase, Ctx};
use crate::digest::Digest;
use crate::probes;
use crate::stats::{self, P95_SAMPLES};
use crate::trace::Tracer;

/// Cluster nodes (and hash shards).
pub const NODES: usize = 8;
/// Cost queries at SF≈100 cardinalities, as the rack benches do.
pub const SCALE: u64 = 30_000;
const QUERIES: usize = QueryId::ALL.len();
/// Crash patterns of `tpch_failover`: pattern `p` crashes node
/// `(q + p) mod 8` during query `q`'s local phase.
const PATTERNS: usize = NODES;

/// A query's output and cost folded into one digest.
fn digest(q: &DistributedQuery) -> u64 {
    Digest::default().str(q.id.name()).output(&q.output).cost(&q.cost).value()
}

/// Datagen, shard + encode, single-node references and the planner's
/// catalog and plans: one set-up repeat.
fn build(tr: &mut Tracer, orders_n: usize, seed: u64, cfg: ClusterConfig) -> Arc<ClusterCore> {
    let db = tr.span("datagen", "generate", 0, |_| Arc::new(tpch::generate(orders_n, seed)));
    let core = tr.span("shard", "with_shared", 0, |_| {
        ClusterCore::with_shared(
            db,
            &ShardPolicy::hash(NODES),
            cfg,
            Arc::new(SingleRefCache::new()),
        )
    });
    // A no-op at pool width 1, where references are computed on first use
    // (then in the warm-up pass).
    tr.span("single", "warm_single_refs", 0, |_| core.warm_single_refs());
    let planner = tr.span("planner", "catalog", 0, |_| Planner::new(&core));
    for id in QueryId::ALL {
        tr.span("planner", "plan", 0, |_| std::hint::black_box(planner.plan(id)));
    }
    core
}

/// Set-up per-layer metrics, taken from the traced set-up spans.
pub fn setup_layers(ctx: &mut Ctx, core: &ClusterCore) {
    let datagen_ms = ctx.span_median_ms("datagen", None);
    ctx.set("datagen.s", datagen_ms / 1e3);
    ctx.set("datagen.mrows_s", probes::total_rows(core.full()) as f64 / datagen_ms / 1e3);
    ctx.set("shard.s", ctx.span_median_ms("shard", None) / 1e3);
    let comp = core.sharded().compression_report();
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    ctx.set("encode.flat_mb", mib(comp.iter().map(|t| t.flat_bytes()).sum()));
    ctx.set("encode.resident_mb", mib(comp.iter().map(|t| t.packed_bytes()).sum()));
    ctx.set("planner.catalog_s", ctx.span_median_ms("planner", Some("catalog")) / 1e3);
    ctx.set("planner.plan_us", ctx.span_median_ms("planner", Some("plan")) * 1e3);
}

/// The traced run's probes, single-threaded like the timed phase: host
/// kernels and single-node references on this workload's own tables, and
/// the chip.
pub fn probe_layers(ctx: &mut Ctx, core: &ClusterCore) {
    ctx.tr.set_on(true);
    probes::kernels(ctx, core.full());
    probes::single_refs(ctx, core.full(), SCALE);
    ctx.tr.set_on(false);
    crate::chip::probe(ctx);
}

/// Simulated per-query metrics (`sim.<Q>.*`), each averaged over `runs`
/// (one run per crash pattern, or the single healthy run).
pub fn sim_layers(ctx: &mut Ctx, runs: &[Vec<DistributedQuery>]) {
    for (qi, id) in QueryId::ALL.iter().enumerate() {
        let n = runs.len() as f64;
        let mean =
            |f: &dyn Fn(&DistributedQuery) -> f64| runs.iter().map(|r| f(&r[qi])).sum::<f64>() / n;
        let q = id.name();
        ctx.set(format!("sim.{q}.local_ms"), mean(&|d| d.cost.local_seconds * 1e3));
        ctx.set(format!("sim.{q}.fabric_ms"), mean(&|d| d.cost.fabric_seconds * 1e3));
        ctx.set(format!("sim.{q}.merge_ms"), mean(&|d| d.cost.merge_seconds * 1e3));
        ctx.set(format!("sim.{q}.fabric_kb"), mean(&|d| d.cost.fabric_bytes as f64 / 1024.0));
        ctx.set(
            format!("sim.{q}.mem_bound_nodes"),
            mean(&|d| {
                d.cost.per_node.iter().filter(|n| n.mem_seconds > n.cpu_seconds).count() as f64
            }),
        );
        ctx.set(format!("sim.{q}.failovers"), mean(&|d| d.cost.failovers as f64));
    }
}

/// Simulated end-to-end metrics: Σ query time per suite (mean over
/// `runs`) and the geometric mean perf/W gain against the Xeon.
fn sim_metrics(ctx: &mut Ctx, runs: &[Vec<DistributedQuery>], cluster: &Cluster) {
    let suite_ms: Vec<f64> =
        runs.iter().map(|r| r.iter().map(|q| q.cost.total_seconds() * 1e3).sum()).collect();
    let sim_ms = suite_ms.iter().sum::<f64>() / suite_ms.len() as f64;
    let gains: Vec<f64> = runs
        .iter()
        .flatten()
        .map(|q| q.perf_per_watt_gain(cluster.watts(), cluster.xeon()))
        .collect();
    let gain = stats::geomean(&gains);
    ctx.e2e.insert("sim_ms", sim_ms);
    ctx.e2e.insert("sim_gain", gain);
    ctx.set("sim_suite_ms", sim_ms);
    ctx.set("sim_perf_per_watt", gain);
    ctx.say(format!("simulated: suite {sim_ms:.4} ms, perf/W vs Xeon {gain:.4}x (geomean)"));
}

/// The traced run's median coordinator time per query.
pub fn coord_layers(ctx: &mut Ctx) {
    for id in QueryId::ALL {
        let ms = ctx.span_median_ms("coord", Some(id.name()));
        ctx.set(format!("coord.{}.host_ms", id.name()), ms);
    }
}

/// Host headline metrics under the names the tpch workloads use.
fn tpch_headline(ctx: &mut Ctx) {
    if ctx.traced {
        coord_layers(ctx);
    }
    for (from, to) in [
        ("host_rate", "tpch_qps"),
        ("host_op_ms_p50", "tpch_query_ms_p50"),
        ("host_op_ms_p95", "tpch_query_ms_p95"),
    ] {
        if let Some(&v) = ctx.e2e.get(from) {
            ctx.set(to, v);
        }
    }
}

/// Checks a distributed result against its single-node reference and
/// against the warm-up digest.
fn check(q: &DistributedQuery, want: Option<u64>) -> Result<(), String> {
    if !q.matches_single() {
        return Err(format!("{} differs from its single-node reference", q.id.name()));
    }
    match want {
        Some(w) if w != digest(q) => {
            Err(format!("{} digest differs from the warm-up pass", q.id.name()))
        }
        _ => Ok(()),
    }
}

/// `tpch_suite`: 100 000 orders hash-sharded over 8 healthy nodes; the
/// 8-query suite runs repeatedly, one fresh fork per suite pass.
pub fn suite(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let core =
        ctx.setup(|tr, _| build(tr, 100_000, seed, ClusterConfig::prototype_slice(NODES, SCALE)));
    if ctx.traced {
        setup_layers(ctx, &core);
    }

    // Warm-up at the full pool width: the oracle pass and the reference
    // digests the timed phase (at width 1) must reproduce.
    set_global_threads(ctx.width);
    let mut warm = Cluster::from_core(core.clone());
    let mut runs = Vec::new();
    for id in QueryId::ALL {
        match warm.try_run_at(id, 0.0) {
            Ok(q) => {
                ctx.record(check(&q, None));
                runs.push(q);
            }
            Err(e) => {
                ctx.record(Err(format!("{}: {e}", id.name())));
            }
        }
    }
    set_global_threads(1);
    if runs.len() != QUERIES {
        return;
    }
    let want: Vec<u64> = runs.iter().map(digest).collect();
    sim_metrics(ctx, std::slice::from_ref(&runs), &warm);
    if ctx.traced {
        sim_layers(ctx, std::slice::from_ref(&runs));
        probe_layers(ctx, &core);
    }

    let mut fork: Option<Cluster> = None;
    let out = timed_phase(ctx, P95_SAMPLES, QUERIES, |tr, i| {
        let qi = i % QUERIES;
        let id = QueryId::ALL[qi];
        if qi == 0 {
            fork =
                Some(tr.span("fork", "from_core", i as u64, |_| Cluster::from_core(core.clone())));
        }
        let c = fork.as_mut().expect("a fork per suite pass");
        let q = tr
            .span("coord", id.name(), i as u64, |_| c.try_run_at(id, 0.0))
            .map_err(|e| format!("{}: {e}", id.name()))?;
        tr.count("fabric_bytes", q.cost.fabric_bytes as f64);
        tr.span("oracle", id.name(), i as u64, |_| check(&q, Some(want[qi])))?;
        Ok(1.0)
    });
    host_metrics(ctx, &out, "queries");
    tpch_headline(ctx);
}

/// `tpch_failover`: 20 000 orders, k=2 rack-aware replicas over 2 racks
/// at 4:1 oversubscription; every query runs on a fresh fork whose
/// fault plan crashes a rotating node halfway through the fastest
/// node's healthy local phase, so every query fails over.
pub fn failover(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let cfg = ClusterConfig::prototype_slice(NODES, SCALE).with_replicas(2).with_topology(2, 4.0);
    let core = ctx.setup(|tr, _| build(tr, 20_000, seed, cfg.clone()));
    if ctx.traced {
        setup_layers(ctx, &core);
    }

    // Healthy pass fixes each query's crash time; then every crash
    // pattern runs once at the full pool width to give the reference
    // digests.
    set_global_threads(ctx.width);
    let mut crash_at = Vec::new();
    for id in QueryId::ALL {
        match Cluster::from_core(core.clone()).try_run_at(id, 0.0) {
            Ok(q) => {
                let fastest = q.cost.per_node.iter().map(|n| n.seconds()).fold(f64::MAX, f64::min);
                crash_at.push(0.5 * fastest);
                ctx.record(check(&q, None));
            }
            Err(e) => {
                ctx.record(Err(format!("{} (healthy): {e}", id.name())));
            }
        }
    }
    if crash_at.len() != QUERIES {
        set_global_threads(1);
        return;
    }
    let fork = |pattern: usize, qi: usize| {
        let mut c = Cluster::from_core(core.clone());
        c.set_faults(FaultPlan::none().crash((qi + pattern) % NODES, crash_at[qi]));
        c
    };
    let failed_over = |q: &DistributedQuery| -> Result<(), String> {
        if q.cost.failovers == 0 {
            return Err(format!("{} did not fail over", q.id.name()));
        }
        Ok(())
    };
    let mut runs: Vec<Vec<DistributedQuery>> = Vec::new();
    for p in 0..PATTERNS {
        let mut pass = Vec::new();
        for qi in 0..QUERIES {
            match fork(p, qi).try_run_at(QueryId::ALL[qi], 0.0) {
                Ok(q) => {
                    ctx.record(check(&q, None).and_then(|()| failed_over(&q)));
                    pass.push(q);
                }
                Err(e) => {
                    ctx.record(Err(format!("{}: {e}", QueryId::ALL[qi].name())));
                }
            }
        }
        runs.push(pass);
    }
    set_global_threads(1);
    if runs.iter().any(|r| r.len() != QUERIES) {
        return;
    }
    let want: Vec<Vec<u64>> = runs.iter().map(|r| r.iter().map(digest).collect()).collect();
    sim_metrics(ctx, &runs, &fork(0, 0));
    if ctx.traced {
        sim_layers(ctx, &runs);
        probe_layers(ctx, &core);
    }

    let out = timed_phase(ctx, P95_SAMPLES, QUERIES, |tr, i| {
        let (p, qi) = ((i / QUERIES) % PATTERNS, i % QUERIES);
        let id = QueryId::ALL[qi];
        let mut c = tr.span("fork", "from_core", i as u64, |_| fork(p, qi));
        let q = tr
            .span("coord", id.name(), i as u64, |_| c.try_run_at(id, 0.0))
            .map_err(|e| format!("{}: {e}", id.name()))?;
        tr.count("failovers", q.cost.failovers as f64);
        tr.span("oracle", id.name(), i as u64, |_| {
            check(&q, Some(want[p][qi])).and_then(|()| failed_over(&q))
        })?;
        Ok(1.0)
    });
    host_metrics(ctx, &out, "queries");
    tpch_headline(ctx);
}
