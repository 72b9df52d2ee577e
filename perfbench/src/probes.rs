//! Per-layer probes of the traced run: a STREAM-style host copy, the
//! host kernels on the workload's own columns, and the single-node
//! reference queries. Each runs single-threaded so its rate is a
//! property of the kernel and the machine, not of the pool width.

use std::hint::black_box;
use std::time::Instant;

use dpu_cluster::QueryId;
use dpu_sql::tpch::{self, TpchDb, D_1995};
use dpu_sql::{
    partition_row_ids_with, sort_indices, top_k, vector_kernel, AggFunc, CompareOp, Expr,
    FilterSpec, GroupBySpec, HashJoin, Table,
};
use xeon_model::Xeon;

use crate::bench::Ctx;
use crate::stats;

/// Repeats per kernel; the median is reported.
const REPS: usize = 5;

/// Bytes the copy probe moves per pass (well past the host caches).
const COPY_BYTES: usize = 64 << 20;

/// The host kernels, in report order.
pub const KERNELS: [&str; 8] =
    ["filter", "partition", "groupby", "groupby_multi", "join", "sort", "topk", "expr"];

fn median_secs(ctx: &mut Ctx, layer: &'static str, name: &str, mut f: impl FnMut()) -> f64 {
    let mut secs = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let t0 = Instant::now();
        ctx.tr.span(layer, name, rep as u64, |_| f());
        secs.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&secs)
}

/// STREAM "copy": GB/s counting bytes read plus bytes written.
fn copy_gbps(ctx: &mut Ctx) -> f64 {
    let src: Vec<u64> = (0..COPY_BYTES as u64 / 8).collect();
    let mut dst = vec![0u64; src.len()];
    let secs = median_secs(ctx, "host", "copy", || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    2.0 * COPY_BYTES as f64 / secs / 1e9
}

/// Times every host kernel on `db`'s lineitem and orders columns and
/// records `kernel.<k>.mrows_s` plus each kernel's input bandwidth as a
/// fraction of `host.copy_gbps`.
pub fn kernels(ctx: &mut Ctx, db: &TpchDb) {
    let copy = copy_gbps(ctx);
    ctx.set("host.copy_gbps", copy);
    let li = &db.lineitem;
    let rows = li.rows() as f64;
    let col = |name: &str| &li.column(name).expect("lineitem column").data;
    let kernel = vector_kernel();
    let filter = FilterSpec::new("l_shipdate", CompareOp::Lt(D_1995));
    let q18 = GroupBySpec {
        group_cols: vec!["l_orderkey".into()],
        aggs: vec![("qty".into(), AggFunc::Sum("l_quantity".into()))],
    };
    let q1 = GroupBySpec {
        group_cols: vec!["l_returnflag".into(), "l_linestatus".into()],
        aggs: vec![
            ("cnt".into(), AggFunc::Count),
            ("qty".into(), AggFunc::Sum("l_quantity".into())),
            ("price".into(), AggFunc::Sum("l_extendedprice".into())),
            ("disc".into(), AggFunc::Max("l_discount".into())),
        ],
    };
    let join = HashJoin {
        build_key: "o_orderkey".into(),
        probe_key: "l_orderkey".into(),
        build_cols: vec!["o_orderdate".into()],
        probe_cols: vec!["l_extendedprice".into()],
    };
    let revenue = Expr::col("l_extendedprice") * (Expr::lit(100) - Expr::col("l_discount"));
    // (kernel, input columns read, rows processed, run)
    let probes: [(&str, usize, f64, &mut dyn FnMut()); 8] = [
        ("filter", 1, rows, &mut || {
            black_box(filter.apply(black_box(li)));
        }),
        ("partition", 1, rows, &mut || {
            black_box(partition_row_ids_with(black_box(col("l_orderkey")), 0, 32, kernel));
        }),
        ("groupby", 2, rows, &mut || {
            black_box(q18.execute(black_box(li), None));
        }),
        ("groupby_multi", 5, rows, &mut || {
            black_box(q1.execute(black_box(li), None));
        }),
        ("join", 2, rows + db.orders.rows() as f64, &mut || {
            black_box(join.execute(black_box(&db.orders), black_box(li), 32));
        }),
        ("sort", 1, rows, &mut || {
            black_box(sort_indices(black_box(li), "l_extendedprice", 1));
        }),
        ("topk", 1, rows, &mut || {
            black_box(top_k(black_box(li), "l_extendedprice", 100, 1));
        }),
        ("expr", 2, rows, &mut || {
            black_box(revenue.eval(black_box(li)));
        }),
    ];
    for (name, cols, n, run) in probes {
        let secs = median_secs(ctx, "kernel", name, run);
        ctx.set(format!("kernel.{name}.mrows_s"), n / secs / 1e6);
        // Input bytes streamed: 8-byte values per column read.
        let gbps = n * 8.0 * cols as f64 / secs / 1e9;
        ctx.set(format!("kernel.{name}.copy_frac"), gbps / copy);
    }
}

/// Times each single-node reference query (`tpch::q*`) on `db`.
pub fn single_refs(ctx: &mut Ctx, db: &TpchDb, scale: u64) {
    let xeon = Xeon::new();
    for id in QueryId::ALL {
        let run: &mut dyn FnMut() = match id {
            QueryId::Q1 => &mut || {
                black_box(tpch::q1(db, &xeon, scale));
            },
            QueryId::Q3 => &mut || {
                black_box(tpch::q3(db, &xeon, scale));
            },
            QueryId::Q5 => &mut || {
                black_box(tpch::q5(db, &xeon, scale));
            },
            QueryId::Q6 => &mut || {
                black_box(tpch::q6(db, &xeon, scale));
            },
            QueryId::Q10 => &mut || {
                black_box(tpch::q10(db, &xeon, scale));
            },
            QueryId::Q12 => &mut || {
                black_box(tpch::q12(db, &xeon, scale));
            },
            QueryId::Q14 => &mut || {
                black_box(tpch::q14(db, &xeon, scale));
            },
            QueryId::Q18 => &mut || {
                black_box(tpch::q18(db, &xeon, scale));
            },
        };
        let secs = median_secs(ctx, "single", id.name(), run);
        ctx.set(format!("single.{}.host_ms", id.name()), secs * 1e3);
    }
}

/// Rows across every table of `db`.
pub fn total_rows(db: &TpchDb) -> usize {
    [&db.lineitem, &db.orders, &db.customer, &db.part, &db.supplier, &db.nation, &db.region]
        .iter()
        .map(|t: &&Table| t.rows())
        .sum()
}
