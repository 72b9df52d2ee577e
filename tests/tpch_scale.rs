//! Larger-scale TPC-H exactness, sized for the nightly `tpch-scale` CI
//! job rather than the per-push suite. The big test is `#[ignore]`d so
//! `cargo test` stays fast; nightly runs it with `-- --ignored` and
//! then byte-diffs the regression numbers in `BENCH_rack_tpch.json`.

use dpu_repro::cluster::{
    serve_pipeline, Cluster, ClusterConfig, QueryId, ServeConfig, ShardPolicy,
};
use dpu_repro::sql::tpch;
use dpu_repro::xeon::XeonRack;

const NODES: usize = 8;
const SCALE: u64 = 30_000;

/// Generates at `orders_n`, checks chunked-vs-sequential datagen
/// equality, runs the full suite distributed over 8 nodes, and asserts
/// every result bit-identical to single-node execution.
fn exactness_at(orders_n: usize, seed: u64) {
    let db = tpch::generate(orders_n, seed);
    assert_eq!(
        db,
        tpch::generate_parallel(orders_n, seed),
        "chunked datagen diverged at orders_n={orders_n}"
    );
    let cfg = ClusterConfig::prototype_slice(NODES, SCALE).with_replicas(2);
    let mut c = Cluster::new(db, &ShardPolicy::hash(NODES), cfg);
    let runs = c.run_all();
    assert_eq!(runs.len(), QueryId::ALL.len());
    for q in &runs {
        assert!(
            q.matches_single(),
            "{} diverged from single-node at orders_n={orders_n}",
            q.id.name()
        );
    }
    // Serving sanity on the same templates the bench binary derives:
    // the closed-loop simulation must make progress at this scale.
    let templates: Vec<_> = runs.iter().map(dpu_repro::cluster::Template::of).collect();
    let report = serve_pipeline(
        &templates,
        c.watts(),
        &XeonRack::rack_42u(),
        &ServeConfig::default(),
        None,
        None,
    );
    assert!(report.qps > 0.0, "serving must complete queries at orders_n={orders_n}");
    assert!(report.completed > 0);
}

#[test]
fn distributed_suite_is_exact_at_smoke_scale() {
    exactness_at(2_000, 2026);
}

#[test]
#[ignore = "large; run by the nightly tpch-scale CI job with -- --ignored"]
fn distributed_suite_is_exact_at_nightly_scale() {
    exactness_at(20_000, 2026);
}
