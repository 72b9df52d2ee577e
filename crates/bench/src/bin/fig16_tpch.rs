//! Figure 16: TPC-H performance/watt gains per query (paper geometric
//! mean: 15×).

use dpu_bench::json::{emit, Json};
use dpu_bench::{gain, header, row};
use dpu_sql::tpch;
use xeon_model::Xeon;

fn main() {
    let xeon = Xeon::new();
    let db = tpch::generate(5000, 2026);
    println!("# Figure 16: TPC-H efficiency gains ({} lineitem rows)\n", db.lineitem.rows());
    header(&["Query", "gain (perf/watt vs Xeon)"]);
    // Execute on the miniature data, cost at SF≈100 cardinalities.
    let scale = 30_000u64;
    let (gains, geomean) = tpch::run_all(&db, &xeon, scale);
    let mut series: Vec<Json> = Vec::new();
    for (name, g) in &gains {
        row(&[name.to_string(), gain(*g)]);
        series.push(Json::obj([
            ("query", Json::str(name.to_string())),
            ("perf_per_watt_gain", Json::num(*g)),
        ]));
    }
    println!("\nGeometric mean: {geomean:.1}× (paper: 15×)");
    emit(
        "fig16_tpch",
        &Json::obj([
            ("figure", Json::str("fig16_tpch")),
            ("scale", Json::num(scale as f64)),
            ("queries", Json::Arr(series)),
            ("geomean_gain", Json::num(geomean)),
        ]),
    );
}
