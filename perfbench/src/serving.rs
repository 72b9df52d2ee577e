//! `rack_serving`: the two serving event loops over templates built
//! from the `rack_tpch` configuration. A sweep runs a fixed ladder of
//! offered rates through the open-loop multi-tenant loop and a fixed
//! client ladder through the closed-loop pipeline; the timed phase
//! repeats the sweep. Latencies inside the loops are simulated, so
//! generator lateness does not apply.

use std::sync::Arc;

use dpu_cluster::{
    serve_pipeline, serve_tenants, Cluster, ClusterConfig, ClusterCore, DistributedQuery,
    FabricConfig, MultiTenantReport, QueryId, ServeConfig, ServeReport, ShardPolicy,
    SingleRefCache, Template, Tenant, TenantServeConfig, Topology, TraceShape,
};
use dpu_sql::tpch;
use xeon_model::XeonRack;

use crate::bench::{host_metrics, timed_phase, Ctx};
use crate::digest::Digest;
use crate::json;
use crate::stats::P95_SAMPLES;
use crate::tpch::{coord_layers, probe_layers, setup_layers, sim_layers, NODES, SCALE};

/// The `rack_tpch` configuration the templates come from: its database
/// size and data seed. `--seed` drives the serving loops' arrivals.
const ORDERS: usize = 5000;
const TEMPLATE_SEED: u64 = 2026;
/// The committed baseline whose per-query costs the templates must
/// reproduce exactly.
const BASELINE_FILE: &str = "BENCH_rack_tpch.json";

/// Offered rates (total queries per simulated second) of the open-loop
/// ladder, finest around the SLO knee.
const RATES: [f64; 16] =
    [1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 9.0, 10.0, 12.0, 16.0];
/// The named nominal rung `sim_p99_ms` is read at.
const NOMINAL_RATE: f64 = 8.0;
/// Simulated horizon of each open-loop run, seconds.
const OPEN_HORIZON_S: f64 = 300.0;
/// Independent arrival streams per open-loop rung of a timed sweep.
const STREAMS: usize = 32;
/// Streams per open-loop rung of the warm-up ensemble the simulated
/// metrics come from; its first [`STREAMS`] are the timed rung's. A
/// tenant's tail is set by a few long congestion episodes, so over 32
/// streams the SLO capacity still moved by ±15% between seeds.
const SIM_STREAMS: usize = 256;
/// Every tenant's latency SLO, seconds.
const TENANT_SLO_S: f64 = 1.0;
/// Share of a tenant's requests that may miss its SLO (the p99 target).
const MISS_BUDGET: f64 = 0.01;

/// Client counts of the closed-loop ladder.
const CLIENTS: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];
/// The rung the closed-loop per-layer metrics are read at.
const NOMINAL_CLIENTS: usize = 64;
/// The closed-loop SLO, as in `BENCH_rack_serve.json`.
const CLOSED_SLO_S: f64 = 1.5;

const SWEEP: usize = RATES.len() + CLIENTS.len();

/// Four tenants sharing `rate`: tenant 0 is the priority latency class
/// with twice the weight, the other three split the rest evenly.
fn tenants(rate: f64) -> Vec<Tenant> {
    ["latency", "batch1", "batch2", "batch3"]
        .into_iter()
        .enumerate()
        .map(|(i, name)| Tenant {
            name,
            weight: if i == 0 { 2.0 } else { 1.0 },
            priority: u8::from(i == 0),
            slo_seconds: TENANT_SLO_S,
            rate_qps: rate / 4.0,
        })
        .collect()
}

fn open_cfg(seed: u64) -> TenantServeConfig {
    TenantServeConfig {
        duration_seconds: OPEN_HORIZON_S,
        seed,
        trace: TraceShape::Diurnal { period_seconds: 20.0, amplitude: 0.8 },
        preemption: true,
        ..TenantServeConfig::default()
    }
}

fn closed_cfg(seed: u64, clients: usize) -> ServeConfig {
    ServeConfig {
        clients,
        max_batch: 16,
        adaptive: true,
        slo_seconds: Some(CLOSED_SLO_S),
        concurrency: 4,
        seed,
        ..ServeConfig::default()
    }
}

/// Whether one open-loop rung meets the SLO: every tenant has at most
/// [`MISS_BUDGET`] of its answered-or-refused requests over its SLO
/// (a rejected request counts as a miss), and the admitted backlog left
/// at the horizon fits in what the servers hold in flight.
pub fn meets_slo(r: &MultiTenantReport, in_flight: u64) -> bool {
    let backlog: u64 = r.tenants.iter().map(|t| t.admitted - t.completed).sum();
    backlog <= in_flight
        && r.tenants.iter().all(|t| {
            let met = t.slo_attainment * t.completed as f64;
            let asked = (t.completed + t.rejected) as f64;
            met >= (1.0 - MISS_BUDGET) * asked
        })
}

/// The SLO-capacity of a ladder: the highest rung such that it and every
/// rung below it meet the SLO (0 when the first rung misses).
pub fn qps_at_slo(rates: &[f64], meets: &[bool]) -> f64 {
    rates.iter().zip(meets).take_while(|(_, &ok)| ok).last().map_or(0.0, |(&r, _)| r)
}

/// One sweep rung's reports: one per arrival stream for an open-loop
/// rung, one for a closed-loop rung.
enum Rung {
    Open(Vec<MultiTenantReport>),
    Closed(ServeReport),
}

impl Rung {
    /// Simulated arrivals the loop processed.
    fn arrivals(&self) -> u64 {
        match self {
            Rung::Open(v) => v.iter().flat_map(|r| &r.tenants).map(|t| t.arrived).sum(),
            Rung::Closed(r) => r.admitted + r.rejected,
        }
    }

    /// Serving conservation: every arrival is admitted or rejected, and
    /// every admitted request is completed or still backlogged.
    fn conserved(&self) -> Result<(), String> {
        let ok = match self {
            Rung::Open(v) => v.iter().all(|r| {
                r.tenants
                    .iter()
                    .all(|t| t.arrived == t.admitted + t.rejected && t.completed <= t.admitted)
                    && r.completed == r.tenants.iter().map(|t| t.completed).sum::<u64>()
            }),
            Rung::Closed(r) => r.admitted == r.completed + r.backlog,
        };
        if ok {
            Ok(())
        } else {
            Err("serving conservation violated".into())
        }
    }

    /// Digest of every reported field (`Debug` prints floats exactly).
    fn digest(&self) -> u64 {
        match self {
            Rung::Open(r) => Digest::default().str(&format!("{r:?}")).value(),
            Rung::Closed(r) => Digest::default().str(&format!("{r:?}")).value(),
        }
    }

    /// The rung as a timed sweep runs it: its first [`STREAMS`] streams.
    fn timed(&self) -> Rung {
        match self {
            Rung::Open(v) => Rung::Open(v[..STREAMS.min(v.len())].to_vec()),
            Rung::Closed(r) => Rung::Closed(r.clone()),
        }
    }
}

/// What the serving loops need from the set-up.
struct Served {
    core: Arc<ClusterCore>,
    runs: Vec<DistributedQuery>,
    templates: Vec<Template>,
    watts: f64,
    fabric: FabricConfig,
}

impl Served {
    /// Rung `j` of a sweep: the open-loop rates first (`streams` arrival
    /// streams of one rate), then the closed-loop client ladder.
    fn rung(&self, seed: u64, j: usize, streams: usize) -> Rung {
        let rack = XeonRack::rack_42u();
        if let Some(&rate) = RATES.get(j) {
            let topo = Topology::new(NODES, 2, 4.0);
            Rung::Open(
                (0..streams as u64)
                    .map(|stream| {
                        let cfg =
                            open_cfg(seed.wrapping_mul(SIM_STREAMS as u64).wrapping_add(stream));
                        serve_tenants(
                            &self.templates,
                            &tenants(rate),
                            &cfg,
                            Some((&self.fabric, &topo)),
                            None,
                        )
                    })
                    .collect(),
            )
        } else {
            let cfg = closed_cfg(seed, CLIENTS[j - RATES.len()]);
            Rung::Closed(serve_pipeline(
                &self.templates,
                self.watts,
                &rack,
                &cfg,
                None,
                Some((&self.fabric, NODES)),
            ))
        }
    }
}

/// Checks the templates against the per-query costs committed in
/// `BENCH_rack_tpch.json`.
fn check_baseline(runs: &[DistributedQuery]) -> Result<(), String> {
    let text = std::fs::read_to_string(BASELINE_FILE)
        .map_err(|e| format!("{BASELINE_FILE} unreadable: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{BASELINE_FILE}: {e}"))?;
    let queries = doc.get("queries").and_then(json::Value::as_arr).ok_or("no queries list")?;
    if queries.len() != runs.len() {
        return Err(format!("{BASELINE_FILE} lists {} queries", queries.len()));
    }
    for (q, want) in runs.iter().zip(queries) {
        let field = |k: &str| want.get(k).and_then(json::Value::as_f64);
        let c = &q.cost;
        let same = want.get("query").and_then(json::Value::as_str) == Some(q.id.name())
            && field("local_seconds") == Some(c.local_seconds)
            && field("fabric_seconds") == Some(c.fabric_seconds)
            && field("merge_seconds") == Some(c.merge_seconds)
            && field("total_seconds") == Some(c.total_seconds())
            && field("fabric_bytes") == Some(c.fabric_bytes as f64)
            && field("failovers") == Some(c.failovers as f64);
        if !same {
            return Err(format!("{} cost differs from {BASELINE_FILE}", q.id.name()));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let served = ctx.setup(|tr, _| {
        let db =
            tr.span("datagen", "generate", 0, |_| Arc::new(tpch::generate(ORDERS, TEMPLATE_SEED)));
        let core = tr.span("shard", "with_shared", 0, |_| {
            ClusterCore::with_shared(
                db,
                &ShardPolicy::hash(NODES),
                ClusterConfig::prototype_slice(NODES, SCALE),
                Arc::new(SingleRefCache::new()),
            )
        });
        tr.span("single", "warm_single_refs", 0, |_| core.warm_single_refs());
        // Templates exactly as `rack_tpch` builds them: one cluster, the
        // suite in Figure 16 order.
        let mut c = Cluster::from_core(core.clone());
        let runs: Vec<DistributedQuery> = QueryId::ALL
            .iter()
            .filter_map(|&id| tr.span("coord", id.name(), 0, |_| c.try_run_at(id, 0.0).ok()))
            .collect();
        let templates = runs
            .iter()
            .map(|q| Template {
                name: q.id.name(),
                cost: q.cost.clone(),
                xeon_seconds: q.single_cost.xeon.seconds,
            })
            .collect();
        Served { runs, templates, watts: c.watts(), fabric: c.cfg().fabric.clone(), core }
    });
    if ctx.traced {
        setup_layers(ctx, &served.core);
        coord_layers(ctx);
    }
    for q in &served.runs {
        let ok = if q.matches_single() {
            Ok(())
        } else {
            Err(format!("{} template differs from single-node", q.id.name()))
        };
        ctx.record(ok);
    }
    if served.runs.len() != QueryId::ALL.len() {
        ctx.record(Err("a template query failed on a healthy cluster".into()));
        return;
    }
    let r = check_baseline(&served.runs);
    ctx.say(format!(
        "templates vs {BASELINE_FILE}: {}",
        if r.is_ok() { "identical" } else { "DIFFER" }
    ));
    ctx.record(r);

    // Warm-up sweep at the full pool width over the larger ensemble:
    // oracles, every simulated metric (the loops are deterministic) and,
    // from the timed part of each rung, the reference digests.
    dpu_pool::set_global_threads(ctx.width);
    let ensemble: Vec<Rung> = (0..SWEEP).map(|j| served.rung(seed, j, SIM_STREAMS)).collect();
    dpu_pool::set_global_threads(1);
    for r in &ensemble {
        ctx.record(r.conserved());
    }
    sim_metrics(ctx, &ensemble);
    let warm: Vec<Rung> = ensemble.iter().map(Rung::timed).collect();
    drop(ensemble);
    let want: Vec<u64> = warm.iter().map(Rung::digest).collect();
    if ctx.traced {
        sim_layers(ctx, std::slice::from_ref(&served.runs));
        probe_layers(ctx, &served.core);
    }

    let out = timed_phase(ctx, P95_SAMPLES, SWEEP, |tr, i| {
        let j = i % SWEEP;
        let layer = if j < RATES.len() { "serve.open" } else { "serve.closed" };
        let r = tr.span(layer, "rung", i as u64, |_| served.rung(seed, j, STREAMS));
        tr.count("arrivals", r.arrivals() as f64);
        tr.span("oracle", "rung", i as u64, |_| {
            r.conserved()?;
            if r.digest() != want[j] {
                return Err(format!("serving rung {j} digest differs from the warm-up sweep"));
            }
            Ok(())
        })?;
        Ok(r.arrivals() as f64)
    });
    host_metrics(ctx, &out, "simulated arrivals");
    if let Some(&v) = ctx.e2e.get("host_rate") {
        ctx.set("serve_arrivals_per_s", v);
    }
    if ctx.traced {
        let sweeps = (out.ops / SWEEP) as f64;
        for (layer, range) in [("serve.open", 0..RATES.len()), ("serve.closed", RATES.len()..SWEEP)]
        {
            ctx.set(format!("{layer}.host_s"), ctx.span_sum_s(layer) / sweeps);
            let arrivals: u64 = warm[range].iter().map(Rung::arrivals).sum();
            ctx.set(format!("{layer}.arrivals"), arrivals as f64);
        }
    }
}

/// Simulated metrics from the warm-up ensemble. The SLO capacity and the
/// latency-class p99 are means over its arrival streams.
fn sim_metrics(ctx: &mut Ctx, warm: &[Rung]) {
    let open = |rate: usize, stream: usize| match &warm[rate] {
        Rung::Open(v) => &v[stream],
        Rung::Closed(_) => unreachable!("open runs come first"),
    };
    let in_flight = {
        let c = open_cfg(0);
        (c.concurrency * c.max_batch) as u64
    };
    let n = SIM_STREAMS as f64;
    let capacity = (0..SIM_STREAMS)
        .map(|k| {
            let meets: Vec<bool> =
                (0..RATES.len()).map(|r| meets_slo(open(r, k), in_flight)).collect();
            qps_at_slo(&RATES, &meets)
        })
        .sum::<f64>()
        / n;
    let nominal: Vec<&MultiTenantReport> = {
        let r = RATES.iter().position(|&r| r == NOMINAL_RATE).expect("nominal rung");
        (0..SIM_STREAMS).map(|k| open(r, k)).collect()
    };
    let mean =
        |f: &dyn Fn(&MultiTenantReport) -> f64| nominal.iter().map(|r| f(r)).sum::<f64>() / n;
    let p99_ms = mean(&|r| r.tenants[0].p99 * 1e3);
    ctx.e2e.insert("sim_ms", p99_ms);
    ctx.e2e.insert("sim_gain", capacity / NOMINAL_RATE);
    ctx.set("sim_qps_at_slo", capacity);
    ctx.set("sim_p99_ms", p99_ms);
    ctx.say(format!(
        "simulated: SLO capacity {capacity} qps (ladder {RATES:?}, mean of {SIM_STREAMS} \
         arrival streams); latency-class p99 at {NOMINAL_RATE} qps {p99_ms:.4} ms"
    ));

    let arrived: u64 = nominal.iter().flat_map(|r| &r.tenants).map(|t| t.arrived).sum();
    let rejected: u64 = nominal.iter().flat_map(|r| &r.tenants).map(|t| t.rejected).sum();
    ctx.set("sim.serve.rejected_frac", rejected as f64 / arrived.max(1) as f64);
    ctx.set("sim.serve.preemptions", mean(&|r| r.preemptions as f64));
    ctx.set("sim.serve.wasted_s", mean(&|r| r.wasted_seconds));
    ctx.set(
        "sim.serve.fabric_slowdown",
        mean(&|r| {
            if r.mean_fabric_isolated_seconds > 0.0 {
                r.mean_fabric_seconds / r.mean_fabric_isolated_seconds
            } else {
                1.0
            }
        }),
    );
    let j = RATES.len() + CLIENTS.iter().position(|&c| c == NOMINAL_CLIENTS).expect("rung");
    if let Rung::Closed(r) = &warm[j] {
        ctx.set("sim.serve.closed_p99_ms", r.p99 * 1e3);
        ctx.set("sim.serve.mean_batch", r.mean_batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_cluster::TenantReport;

    fn tenant(completed: u64, rejected: u64, attainment: f64, backlog: u64) -> TenantReport {
        TenantReport {
            name: "t",
            arrived: completed + rejected + backlog,
            admitted: completed + backlog,
            rejected,
            completed,
            preempted: 0,
            qps: 0.0,
            mean_latency: 0.0,
            p50: 0.0,
            p99: 0.0,
            slo_attainment: attainment,
        }
    }

    fn report(tenants: Vec<TenantReport>) -> MultiTenantReport {
        MultiTenantReport {
            completed: tenants.iter().map(|t| t.completed).sum(),
            tenants,
            qps: 0.0,
            preemptions: 0,
            wasted_seconds: 0.0,
            mean_fabric_seconds: 0.0,
            mean_fabric_isolated_seconds: 0.0,
            qps_pre_fault: 0.0,
            qps_during_fault: 0.0,
            qps_post_fault: 0.0,
        }
    }

    #[test]
    fn rejections_count_as_slo_misses() {
        assert!(meets_slo(&report(vec![tenant(1000, 0, 0.99, 0)]), 16));
        assert!(!meets_slo(&report(vec![tenant(1000, 0, 0.989, 0)]), 16));
        // 990 of 1000 completions met, plus 20 refusals: 990 < 0.99 × 1020.
        assert!(!meets_slo(&report(vec![tenant(1000, 20, 0.99, 0)]), 16));
        assert!(meets_slo(&report(vec![tenant(1000, 0, 1.0, 0), tenant(500, 5, 1.0, 0)]), 16));
    }

    #[test]
    fn a_growing_backlog_misses() {
        assert!(meets_slo(&report(vec![tenant(1000, 0, 1.0, 16)]), 16));
        assert!(!meets_slo(&report(vec![tenant(1000, 0, 1.0, 9), tenant(10, 0, 1.0, 8)]), 16));
    }

    #[test]
    fn capacity_is_the_top_of_the_unbroken_prefix() {
        let rates = [1.0, 2.0, 4.0, 8.0];
        assert_eq!(qps_at_slo(&rates, &[true, true, true, false]), 4.0);
        assert_eq!(qps_at_slo(&rates, &[true, true, true, true]), 8.0);
        assert_eq!(qps_at_slo(&rates, &[true, false, true, true]), 1.0);
        assert_eq!(qps_at_slo(&rates, &[false, true, true, true]), 0.0);
    }

    #[test]
    fn ladder_names_its_nominal_rungs() {
        assert!(RATES.contains(&NOMINAL_RATE));
        assert!(CLIENTS.contains(&NOMINAL_CLIENTS));
        assert!(RATES.windows(2).all(|w| w[0] < w[1]));
    }
}
