//! The benchmark's metric names and units, as listed in
//! `BENCHMARK.json`. End-to-end metrics are reported by every workload;
//! per-layer metrics by every traced run (0 where a workload does not
//! exercise the layer).

use dpu_cluster::QueryId;

use crate::probes::KERNELS;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("host_rate", "1/s"),
    ("host_op_ms_p50", "ms"),
    ("host_op_ms_p95", "ms"),
    ("sim_ms", "ms"),
    ("sim_gain", "x"),
];

/// Per-layer metrics: (name, unit), in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for (name, unit) in [
        ("fail_frac", "ratio"),
        ("tpch_qps", "1/s"),
        ("tpch_query_ms_p50", "ms"),
        ("tpch_query_ms_p95", "ms"),
        ("serve_arrivals_per_s", "1/s"),
        ("chip_mcycles_per_s", "Mcycles/s"),
        ("sim_suite_ms", "ms"),
        ("sim_perf_per_watt", "x"),
        ("sim_qps_at_slo", "qps"),
        ("sim_p99_ms", "ms"),
        ("sim_dms_gbps", "GB/s"),
        ("sim_filter_cycles_per_tuple", "cycles"),
        ("datagen.s", "s"),
        ("datagen.mrows_s", "Mrows/s"),
        ("shard.s", "s"),
        ("encode.flat_mb", "MiB"),
        ("encode.resident_mb", "MiB"),
    ] {
        add(name.into(), unit);
    }
    for id in QueryId::ALL {
        add(format!("single.{}.host_ms", id.name()), "ms");
    }
    add("host.copy_gbps".into(), "GB/s");
    for k in KERNELS {
        add(format!("kernel.{k}.mrows_s"), "Mrows/s");
        add(format!("kernel.{k}.copy_frac"), "ratio");
    }
    for id in QueryId::ALL {
        let q = id.name();
        add(format!("coord.{q}.host_ms"), "ms");
        add(format!("sim.{q}.local_ms"), "ms");
        add(format!("sim.{q}.fabric_ms"), "ms");
        add(format!("sim.{q}.merge_ms"), "ms");
        add(format!("sim.{q}.fabric_kb"), "KiB");
        add(format!("sim.{q}.mem_bound_nodes"), "count");
        add(format!("sim.{q}.failovers"), "count");
    }
    for (name, unit) in [
        ("planner.catalog_s", "s"),
        ("planner.plan_us", "us"),
        ("serve.open.host_s", "s"),
        ("serve.closed.host_s", "s"),
        ("serve.open.arrivals", "count"),
        ("serve.closed.arrivals", "count"),
        ("sim.serve.rejected_frac", "ratio"),
        ("sim.serve.preemptions", "count"),
        ("sim.serve.wasted_s", "s"),
        ("sim.serve.fabric_slowdown", "x"),
        ("sim.serve.closed_p99_ms", "ms"),
        ("sim.serve.mean_batch", "count"),
        ("chip.stream.host_s", "s"),
        ("chip.partition.host_s", "s"),
        ("chip.gather.host_s", "s"),
        ("chip.isa.host_s", "s"),
        ("sim.chip.stream_gbps_r", "GB/s"),
        ("sim.chip.stream_gbps_rw", "GB/s"),
        ("sim.chip.partition_gbps", "GB/s"),
        ("sim.chip.gather_gbps", "GB/s"),
        ("sim.chip.core_busy_frac", "ratio"),
        ("sim.chip.isa_ipc", "instr/cycle"),
        ("accuracy.filter_cpt_err", "ratio"),
        ("accuracy.dms_gbps_err", "ratio"),
        ("accuracy.partition_gbps_err", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_frac", "ratio"),
        ("host.ref_ms", "ms"),
        ("host.wall_rate", "1/s"),
        ("host.wall_op_ms_p50", "ms"),
    ] {
        add(name.into(), unit);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s =
                    |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid");
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed(&doc, "per_layer"), layer);
        assert!(layer.len() <= 128);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
