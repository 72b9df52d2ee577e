//! Field-for-field pins of the distributed executor: every query's
//! output digest and full [`ClusterQueryCost`] through the hand-wired
//! path (`try_run_at`), the planned path (`run_planned` on
//! `handwired_physical`) and Q10's gather placement, under a healthy
//! cluster and five fault scenarios. Refactors of the scatter → merge
//! machinery must leave every line of `pins/coordinator_costs.txt`
//! unchanged; a deliberate model change regenerates the lines it moves
//! (print them with
//! `cargo test --release --test coordinator_pins -- --ignored --nocapture`).

use std::sync::{Arc, OnceLock};

use dpu_repro::cluster::{
    handwired_physical, q10_gather_physical, Cluster, ClusterConfig, ClusterCore, DistributedQuery,
    FaultPlan, QueryError, QueryId, QueryOutput, ShardPolicy, SingleRefCache, Speculation,
};
use dpu_repro::pool::Pool;
use dpu_repro::sql::tpch;

const NODES: usize = 8;

/// The pinned scenarios: name, replicas, racks, oversubscription.
const SCENARIOS: [(&str, usize, usize, f64); 6] = [
    ("healthy-k1", 1, 1, 1.0),
    ("crash-mid-local-k2", 2, 1, 1.0),
    ("q10-owner-crash-k2", 2, 1, 1.0),
    ("coordinator-crash-k2", 2, 1, 1.0),
    ("straggler-speculation-k2", 2, 1, 1.0),
    ("rack-death-2racks-oversub4-k2", 2, 2, 4.0),
];

/// The three ways into the executor.
#[derive(Debug, Clone, Copy)]
enum Path {
    HandWired,
    Planned,
    Q10Gather,
}

/// One shared core per scenario topology over one database.
fn core(k: usize, racks: usize, oversub: f64) -> Arc<ClusterCore> {
    static CORES: OnceLock<Vec<Arc<ClusterCore>>> = OnceLock::new();
    let cores = CORES.get_or_init(|| {
        let db = Arc::new(tpch::generate(1200, 42));
        let single = Arc::new(SingleRefCache::new());
        let policy = ShardPolicy::hash(NODES);
        [(1, 1, 1.0), (2, 1, 1.0), (2, 2, 4.0)]
            .into_iter()
            .map(|(k, r, o)| {
                ClusterCore::with_shared(
                    db.clone(),
                    &policy,
                    ClusterConfig::prototype_slice(NODES, 10_000)
                        .with_replicas(k)
                        .with_topology(r, o),
                    single.clone(),
                )
            })
            .collect()
    });
    let i = match (k, racks) {
        (1, 1) => 0,
        (2, 1) => 1,
        _ => 2,
    };
    assert_eq!(cores[i].cfg().oversub, oversub, "scenario topology not prebuilt");
    cores[i].clone()
}

fn run(c: &mut Cluster, path: Path, id: QueryId) -> Result<DistributedQuery, QueryError> {
    match path {
        Path::HandWired => c.try_run_at(id, 0.0),
        Path::Planned => c.run_planned(&handwired_physical(id), 0.0).map(|r| r.query),
        Path::Q10Gather => c.run_planned(&q10_gather_physical(), 0.0).map(|r| r.query),
    }
}

/// FNV-1a over the output's column names and values.
fn digest(out: &QueryOutput) -> u64 {
    fn eat(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }
    let h = 0xcbf2_9ce4_8422_2325u64;
    match out {
        QueryOutput::Table(t) => t.columns.iter().fold(h, |h, c| {
            c.data.iter().fold(eat(h, c.name.as_bytes()), |h, v| eat(h, &v.to_le_bytes()))
        }),
        QueryOutput::Scalar(v) => eat(h, &v.to_le_bytes()),
        QueryOutput::Pair(a, b) => eat(eat(h, &a.to_le_bytes()), &b.to_le_bytes()),
    }
}

/// The fault scenario, aimed from the same path's healthy run of the
/// same query so "mid-local" and "mid-merge" hold for every query.
fn faulted(scenario: &str, c: &mut Cluster, path: Path, id: QueryId) {
    let h = run(&mut Cluster::from_core(c.core().clone()), path, id).expect("healthy run").cost;
    let mid_local = h.local_seconds * 0.5;
    let mid_merge = h.local_seconds + h.fabric_seconds * 0.5;
    match scenario {
        "healthy-k1" => {}
        "crash-mid-local-k2" => c.set_faults(FaultPlan::none().crash(3, mid_local)),
        // The node that finishes the local phase last is live when the
        // shuffle starts (so it owns a Q10 partition), receives its
        // shuffle chunks no earlier than that, and dies just after:
        // inside its owner merge window.
        "q10-owner-crash-k2" => {
            let last = (0..NODES)
                .max_by(|&a, &b| h.per_node[a].seconds().total_cmp(&h.per_node[b].seconds()))
                .expect("nodes");
            c.set_faults(FaultPlan::none().crash(last, h.local_seconds + h.merge_seconds * 0.5));
        }
        // Node 0 is the single-rack gather destination.
        "coordinator-crash-k2" => c.set_faults(FaultPlan::none().crash(0, mid_merge)),
        "straggler-speculation-k2" => {
            c.set_faults(FaultPlan::none().straggle(2, 0.0, 1e9, 0.25));
            c.set_speculation(Some(Speculation::default()));
        }
        "rack-death-2racks-oversub4-k2" => {
            let plan = (NODES / 2..NODES).fold(FaultPlan::none(), |p, n| p.crash(n, mid_local));
            c.set_faults(plan);
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn coordinator_cost_lines() -> Vec<String> {
    let mut cells = Vec::new();
    for (scenario, k, racks, oversub) in SCENARIOS {
        for path in [Path::HandWired, Path::Planned] {
            for id in QueryId::ALL {
                cells.push((scenario, k, racks, oversub, path, id));
            }
        }
        cells.push((scenario, k, racks, oversub, Path::Q10Gather, QueryId::Q10));
    }
    Pool::global().par_map(cells, |(scenario, k, racks, oversub, path, id)| {
        let mut c = Cluster::from_core(core(k, racks, oversub));
        faulted(scenario, &mut c, path, id);
        let head = format!("{scenario} {path:?} {}", id.name());
        match run(&mut c, path, id) {
            Ok(q) => {
                assert!(q.matches_single(), "{head}: distributed ≠ single-node");
                format!("{head}: digest={:016x} {:?}", digest(&q.output), q.cost)
            }
            Err(e) => format!("{head}: {e:?}"),
        }
    })
}

#[test]
fn coordinator_costs_are_pinned_field_for_field() {
    let pinned: Vec<&str> = include_str!("pins/coordinator_costs.txt").lines().collect();
    let actual = coordinator_cost_lines();
    assert_eq!(actual.len(), pinned.len(), "pin matrix size");
    for (a, p) in actual.iter().zip(&pinned) {
        assert_eq!(a, p, "distributed query cost drifted from its pin");
    }
}

#[test]
fn fault_scenarios_reach_the_paths_they_name() {
    let pinned = include_str!("pins/coordinator_costs.txt");
    let line = |prefix: &str| {
        pinned.lines().find(|l| l.starts_with(prefix)).unwrap_or_else(|| panic!("no {prefix} line"))
    };
    let failovers = |l: &str| -> usize {
        let tail = l.split("failovers: ").nth(1).expect("failovers field");
        tail.split(',').next().unwrap().parse().unwrap()
    };
    let healthy = line("healthy-k1 HandWired Q10");
    assert_eq!(failovers(healthy), 0);
    for scenario in ["crash-mid-local-k2", "rack-death-2racks-oversub4-k2"] {
        for id in QueryId::ALL {
            let l = line(&format!("{scenario} HandWired {}:", id.name()));
            assert!(failovers(l) > 0, "{l}");
        }
    }
    // The owner crash lands after every local phase has finished, so
    // any Q10 failover it records is an owner failover.
    for path in ["HandWired", "Planned"] {
        let l = line(&format!("q10-owner-crash-k2 {path} Q10:"));
        assert!(failovers(l) > 0, "{l}");
    }
    // Q10's coordinator dies during the owner-output gather, so it pays
    // a coordinator failover on both paths like the single gathers.
    let coordinator_crashes = [
        ("HandWired", QueryId::Q1),
        ("HandWired", QueryId::Q3),
        ("HandWired", QueryId::Q6),
        ("HandWired", QueryId::Q10),
        ("Planned", QueryId::Q10),
    ];
    for (path, id) in coordinator_crashes {
        let l = line(&format!("coordinator-crash-k2 {path} {}:", id.name()));
        assert!(failovers(l) > 0, "{l}");
    }
    let l = line("straggler-speculation-k2 HandWired Q1:");
    assert!(!l.ends_with("speculations: 0 }"), "{l}");
}

#[test]
#[ignore = "prints the pin file; run with --ignored --nocapture to regenerate"]
fn print_coordinator_cost_pins() {
    for l in coordinator_cost_lines() {
        println!("{l}");
    }
}
