//! TPC-H: scaled data generation and the Figure 16 query set.
//!
//! The paper connects its DPU SQL engine to a commercial columnar
//! database and offloads TPC-H execution, reporting a 15× geometric-mean
//! performance/watt gain (Figure 16). We regenerate that experiment with
//! a dbgen-shaped synthetic dataset (deterministic, scaled down) and
//! eight representative queries; each query executes functionally (tested
//! against naive references) while accumulating platform costs through
//! [`CostAcc`].
//!
//! Monetary values are integer cents; percentages are integer points;
//! dates are days since 1992-01-01.

use dpu_pool::{chunk_bounds, Pool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xeon_model::Xeon;

use crate::agg::{AggFunc, GroupByPlan, GroupBySpec};
use crate::column::{Column, Table};
use crate::filter::{CompareOp, FilterSpec};
use crate::join::HashJoin;
use crate::plan::{CostAcc, QueryCost};
use crate::topk::top_k;

/// Day count of 1995-01-01 relative to 1992-01-01 (used by Q3/Q5-style
/// date predicates).
pub const D_1995: i64 = 1096;
/// Total days covered by order dates (1992-01-01 .. 1998-08-02).
pub const ORDER_DAYS: i64 = 2405;

// Per-operator compute costs (cycles per row). The DPU numbers come from
// the measured FILT kernel (scan) and single-cycle DMEM hash tables; the
// Xeon numbers assume SIMD scans and L2-resident probes after
// partitioning.
pub const SCAN_DPU: f64 = 1.65;
/// The Figure 16 baseline is "a widely used commercial database with
/// in-memory columnar query execution", not the hand-tuned kernels of
/// Figure 14. Commercial engines realize roughly half of hand-tuned
/// scan bandwidth (expression interpretation, operator overheads,
/// row-group bookkeeping) — this factor scales the Xeon side of every
/// TPC-H query accordingly.
pub const XEON_DB_EFFICIENCY: f64 = 0.5;
pub const SCAN_XEON: f64 = 0.5;
pub const PROBE_DPU: f64 = 8.0;
pub const PROBE_XEON: f64 = 12.0;
pub const AGG_DPU: f64 = 6.0;
pub const AGG_XEON: f64 = 10.0;

/// The generated database.
#[derive(Debug, Clone, PartialEq)]
pub struct TpchDb {
    /// Fact table.
    pub lineitem: Table,
    /// Orders.
    pub orders: Table,
    /// Customers.
    pub customer: Table,
    /// Parts.
    pub part: Table,
    /// Suppliers.
    pub supplier: Table,
    /// Nations (25).
    pub nation: Table,
    /// Regions (5).
    pub region: Table,
}

impl TpchDb {
    /// Table name/reference pairs, fact table first.
    pub fn tables(&self) -> [(&'static str, &Table); 7] {
        [
            ("lineitem", &self.lineitem),
            ("orders", &self.orders),
            ("customer", &self.customer),
            ("part", &self.part),
            ("supplier", &self.supplier),
            ("nation", &self.nation),
            ("region", &self.region),
        ]
    }

    /// Packs every column of every table where packing pays
    /// ([`crate::column::Column::encode_packed`]). The generate paths
    /// call this once at load — unconditionally, so resident sizes (and
    /// every simulated cost derived from them) depend only on the data.
    /// Idempotent and deterministic: encoding depends only on the
    /// values, never on thread count.
    pub fn encode_packed(&mut self) {
        for t in [
            &mut self.lineitem,
            &mut self.orders,
            &mut self.customer,
            &mut self.part,
            &mut self.supplier,
            &mut self.nation,
            &mut self.region,
        ] {
            t.encode_packed();
        }
    }

    /// Per-table compression report (bits/value per column, resident
    /// packed vs flat bytes) — what `rack_tpch` prints next to the skew
    /// report.
    pub fn compression_report(&self) -> Vec<TableCompression> {
        self.tables().iter().map(|(n, t)| TableCompression::of(n, t)).collect()
    }
}

/// One column's share of a [`TableCompression`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnCompression {
    /// Column name.
    pub name: String,
    /// Rows.
    pub rows: u64,
    /// Bytes at the declared flat width.
    pub flat_bytes: u64,
    /// Resident bytes (packed when packing pays, flat otherwise).
    pub packed_bytes: u64,
}

impl ColumnCompression {
    /// Average resident bits per value, headers included.
    pub fn bits_per_value(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.packed_bytes as f64 * 8.0 / self.rows as f64
        }
    }
}

/// A table's compression summary; shard reports merge with
/// [`TableCompression::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableCompression {
    /// Table name.
    pub table: String,
    /// Rows.
    pub rows: u64,
    /// Per-column breakdown.
    pub columns: Vec<ColumnCompression>,
}

impl TableCompression {
    /// The report for one table.
    pub fn of(table: &str, t: &Table) -> TableCompression {
        TableCompression {
            table: table.to_string(),
            rows: t.rows() as u64,
            columns: t
                .columns
                .iter()
                .map(|c| ColumnCompression {
                    name: c.name.clone(),
                    rows: c.data.len() as u64,
                    flat_bytes: c.bytes(),
                    packed_bytes: c.resident_bytes(),
                })
                .collect(),
        }
    }

    /// Total bytes at the declared flat widths.
    pub fn flat_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.flat_bytes).sum()
    }

    /// Total resident bytes.
    pub fn packed_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.packed_bytes).sum()
    }

    /// Flat-to-resident compression ratio (1.0 for an empty table).
    pub fn ratio(&self) -> f64 {
        if self.packed_bytes() == 0 {
            1.0
        } else {
            self.flat_bytes() as f64 / self.packed_bytes() as f64
        }
    }

    /// Folds another shard's report for the same table into this one
    /// (summing rows and bytes column-wise).
    ///
    /// # Panics
    ///
    /// Panics if the schemas disagree.
    pub fn merge(&mut self, other: &TableCompression) {
        assert_eq!(self.table, other.table, "table mismatch");
        assert_eq!(self.columns.len(), other.columns.len(), "schema mismatch");
        self.rows += other.rows;
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            assert_eq!(dst.name, src.name, "schema mismatch");
            dst.rows += src.rows;
            dst.flat_bytes += src.flat_bytes;
            dst.packed_bytes += src.packed_bytes;
        }
    }
}

/// Generates a deterministic database with roughly `orders_n × 4`
/// lineitem rows (dbgen proportions: customer = orders/10, part =
/// orders/7.5, supplier = orders/100).
pub fn generate(orders_n: usize, seed: u64) -> TpchDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let customers_n = (orders_n / 10).max(5);
    let parts_n = (orders_n * 2 / 15).max(5);
    let suppliers_n = (orders_n / 100).max(3);

    // region / nation.
    let region = Table::new(vec![Column::i32("r_regionkey", (0..5).collect())]);
    let nation = Table::new(vec![
        Column::i32("n_nationkey", (0..25).collect()),
        Column::i32("n_regionkey", (0..25).map(|i| i % 5).collect()),
    ]);

    let customer = Table::new(vec![
        Column::i32("c_custkey", (0..customers_n as i64).collect()),
        Column::i32("c_nationkey", (0..customers_n).map(|_| rng.gen_range(0..25)).collect()),
        Column::i32("c_mktsegment", (0..customers_n).map(|_| rng.gen_range(0..5)).collect()),
    ]);

    let supplier = Table::new(vec![
        Column::i32("s_suppkey", (0..suppliers_n as i64).collect()),
        Column::i32("s_nationkey", (0..suppliers_n).map(|_| rng.gen_range(0..25)).collect()),
    ]);

    let part = Table::new(vec![
        Column::i32("p_partkey", (0..parts_n as i64).collect()),
        Column::i32("p_type", (0..parts_n).map(|_| rng.gen_range(0..150)).collect()),
    ]);

    let o_orderdate: Vec<i64> = (0..orders_n).map(|_| rng.gen_range(0..ORDER_DAYS)).collect();
    let orders = Table::new(vec![
        Column::i32("o_orderkey", (0..orders_n as i64).collect()),
        Column::i32(
            "o_custkey",
            (0..orders_n).map(|_| rng.gen_range(0..customers_n as i64)).collect(),
        ),
        Column::i32("o_orderdate", o_orderdate.clone()),
        Column::i32("o_totalprice", (0..orders_n).map(|_| rng.gen_range(1_000..500_000)).collect()),
    ]);

    // lineitem: 1..7 lines per order (mean 4, as dbgen).
    let mut l_orderkey = Vec::new();
    let mut l_partkey = Vec::new();
    let mut l_suppkey = Vec::new();
    let mut l_quantity = Vec::new();
    let mut l_extendedprice = Vec::new();
    let mut l_discount = Vec::new();
    let mut l_tax = Vec::new();
    let mut l_returnflag = Vec::new();
    let mut l_linestatus = Vec::new();
    let mut l_shipdate = Vec::new();
    let mut l_receiptdate = Vec::new();
    let mut l_shipmode = Vec::new();
    for (ok, &odate) in o_orderdate.iter().enumerate() {
        for _ in 0..rng.gen_range(1..=7) {
            l_orderkey.push(ok as i64);
            l_partkey.push(rng.gen_range(0..parts_n as i64));
            l_suppkey.push(rng.gen_range(0..suppliers_n as i64));
            l_quantity.push(rng.gen_range(1..=50));
            l_extendedprice.push(rng.gen_range(100..100_000));
            l_discount.push(rng.gen_range(0..=10)); // percent
            l_tax.push(rng.gen_range(0..=8));
            let ship = odate + rng.gen_range(1..=121);
            l_shipdate.push(ship);
            l_receiptdate.push(ship + rng.gen_range(1..=30));
            l_returnflag.push(rng.gen_range(0..3));
            l_linestatus.push(rng.gen_range(0..2));
            l_shipmode.push(rng.gen_range(0..7));
        }
    }
    let lineitem = Table::new(vec![
        Column::i32("l_orderkey", l_orderkey),
        Column::i32("l_partkey", l_partkey),
        Column::i32("l_suppkey", l_suppkey),
        Column::i32("l_quantity", l_quantity),
        Column::i32("l_extendedprice", l_extendedprice),
        Column::i32("l_discount", l_discount),
        Column::i32("l_tax", l_tax),
        Column::i32("l_returnflag", l_returnflag),
        Column::i32("l_linestatus", l_linestatus),
        Column::i32("l_shipdate", l_shipdate),
        Column::i32("l_receiptdate", l_receiptdate),
        Column::i32("l_shipmode", l_shipmode),
    ]);

    let mut db = TpchDb { lineitem, orders, customer, part, supplier, nation, region };
    db.encode_packed();
    db
}

/// The generator's stream position after `draws` values: SplitMix64
/// jumps in O(1) and every integer `gen_range` consumes exactly one
/// `next_u64` (pinned by the vendored rand's tests), so a chunk can
/// start mid-stream and reproduce the sequential draws exactly.
fn rng_at(seed: u64, draws: u64) -> StdRng {
    let mut rng = StdRng::seed_from_u64(seed);
    rng.advance(draws);
    rng
}

/// One generated column, chunked on the pool: each chunk jumps to its
/// stream offset (`base` + one draw per earlier value) and the chunks
/// concatenate in input order, reproducing the sequential column
/// bit-for-bit.
fn gen_column<F>(pool: Pool, n: usize, chunks: usize, seed: u64, base: u64, f: F) -> Vec<i64>
where
    F: Fn(&mut StdRng) -> i64 + Sync,
{
    pool.par_map(chunk_bounds(n, chunks), |(lo, hi)| {
        let mut rng = rng_at(seed, base + lo as u64);
        (lo..hi).map(|_| f(&mut rng)).collect::<Vec<i64>>()
    })
    .concat()
}

/// [`generate`] with the host's global pool: the exact sequential
/// routine at one thread, [`generate_chunked_on`] with `2 × threads`
/// chunks otherwise. Either way the result is bit-identical to
/// [`generate`] — thread count never changes data.
pub fn generate_parallel(orders_n: usize, seed: u64) -> TpchDb {
    let pool = Pool::global();
    if pool.threads() <= 1 || dpu_pool::in_worker() {
        generate(orders_n, seed)
    } else {
        generate_chunked_on(pool, orders_n, seed, pool.threads() * 2)
    }
}

/// Chunked [`generate`] on one thread — for pinning that the chunk
/// decomposition itself (independent of any pool) reproduces the
/// sequential stream.
pub fn generate_chunked(orders_n: usize, seed: u64, chunks: usize) -> TpchDb {
    generate_chunked_on(Pool::new(1), orders_n, seed, chunks)
}

/// Chunked, pool-parallel [`generate`]: bit-identical output for any
/// `pool` width and any `chunks ≥ 1`.
///
/// Each column family knows its draw offset in the sequential stream
/// (tpchgen-style per-chunk derived state, here via SplitMix64's O(1)
/// jump). The variable-length lineitem table needs a cheap sequential
/// pre-pass over the per-order line-count draws to locate each chunk's
/// stream offset and row offset; the 11-draws-per-line bodies — the
/// bulk of the work — then generate in parallel.
pub fn generate_chunked_on(pool: Pool, orders_n: usize, seed: u64, chunks: usize) -> TpchDb {
    let chunks = chunks.max(1);
    let customers_n = (orders_n / 10).max(5);
    let parts_n = (orders_n * 2 / 15).max(5);
    let suppliers_n = (orders_n / 100).max(3);

    // Draw offsets of each column family in `generate`'s stream.
    let c_nat_at = 0u64;
    let c_mkt_at = c_nat_at + customers_n as u64;
    let s_nat_at = c_mkt_at + customers_n as u64;
    let p_type_at = s_nat_at + suppliers_n as u64;
    let o_date_at = p_type_at + parts_n as u64;
    let o_cust_at = o_date_at + orders_n as u64;
    let o_price_at = o_cust_at + orders_n as u64;
    let line_at = o_price_at + orders_n as u64;

    let region = Table::new(vec![Column::i32("r_regionkey", (0..5).collect())]);
    let nation = Table::new(vec![
        Column::i32("n_nationkey", (0..25).collect()),
        Column::i32("n_regionkey", (0..25).map(|i| i % 5).collect()),
    ]);

    let customer = Table::new(vec![
        Column::i32("c_custkey", (0..customers_n as i64).collect()),
        Column::i32(
            "c_nationkey",
            gen_column(pool, customers_n, chunks, seed, c_nat_at, |rng| rng.gen_range(0..25)),
        ),
        Column::i32(
            "c_mktsegment",
            gen_column(pool, customers_n, chunks, seed, c_mkt_at, |rng| rng.gen_range(0..5)),
        ),
    ]);

    let supplier = Table::new(vec![
        Column::i32("s_suppkey", (0..suppliers_n as i64).collect()),
        Column::i32(
            "s_nationkey",
            gen_column(pool, suppliers_n, chunks, seed, s_nat_at, |rng| rng.gen_range(0..25)),
        ),
    ]);

    let part = Table::new(vec![
        Column::i32("p_partkey", (0..parts_n as i64).collect()),
        Column::i32(
            "p_type",
            gen_column(pool, parts_n, chunks, seed, p_type_at, |rng| rng.gen_range(0..150)),
        ),
    ]);

    let o_orderdate =
        gen_column(pool, orders_n, chunks, seed, o_date_at, |rng| rng.gen_range(0..ORDER_DAYS));
    let orders = Table::new(vec![
        Column::i32("o_orderkey", (0..orders_n as i64).collect()),
        Column::i32(
            "o_custkey",
            gen_column(pool, orders_n, chunks, seed, o_cust_at, |rng| {
                rng.gen_range(0..customers_n as i64)
            }),
        ),
        Column::i32("o_orderdate", o_orderdate.clone()),
        Column::i32(
            "o_totalprice",
            gen_column(pool, orders_n, chunks, seed, o_price_at, |rng| {
                rng.gen_range(1_000..500_000)
            }),
        ),
    ]);

    // Lineitem pre-pass: replay only the per-order count draws (jumping
    // the 11 body draws per line) to find each order's stream offset
    // relative to `line_at`. Sequential but ~50× cheaper than full
    // generation.
    let mut offs: Vec<u64> = Vec::with_capacity(orders_n + 1);
    {
        let mut rng = rng_at(seed, line_at);
        let mut off = 0u64;
        for _ in 0..orders_n {
            offs.push(off);
            let count: u64 = rng.gen_range(1..=7);
            rng.advance(11 * count);
            off += 1 + 11 * count;
        }
        offs.push(off);
    }

    // Each chunk of orders replays the exact sequential lineitem loop
    // from its jumped-to stream position, emitting fragments of all 12
    // columns; fragments concatenate in chunk order.
    let frags = pool.par_map(chunk_bounds(orders_n, chunks), |(lo, hi)| {
        let mut rng = rng_at(seed, line_at + offs[lo]);
        let mut cols: [Vec<i64>; 12] = Default::default();
        for (ok, &odate) in o_orderdate.iter().enumerate().take(hi).skip(lo) {
            for _ in 0..rng.gen_range(1..=7) {
                cols[0].push(ok as i64);
                cols[1].push(rng.gen_range(0..parts_n as i64));
                cols[2].push(rng.gen_range(0..suppliers_n as i64));
                cols[3].push(rng.gen_range(1..=50));
                cols[4].push(rng.gen_range(100..100_000));
                cols[5].push(rng.gen_range(0..=10));
                cols[6].push(rng.gen_range(0..=8));
                let ship = odate + rng.gen_range(1..=121);
                cols[9].push(ship);
                cols[10].push(ship + rng.gen_range(1..=30));
                cols[7].push(rng.gen_range(0..3));
                cols[8].push(rng.gen_range(0..2));
                cols[11].push(rng.gen_range(0..7));
            }
        }
        cols
    });
    const LINE_COLS: [&str; 12] = [
        "l_orderkey",
        "l_partkey",
        "l_suppkey",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_returnflag",
        "l_linestatus",
        "l_shipdate",
        "l_receiptdate",
        "l_shipmode",
    ];
    let lineitem = Table::new(
        LINE_COLS
            .iter()
            .enumerate()
            .map(|(slot, name)| {
                Column::i32(name, frags.iter().flat_map(|f| f[slot].iter().copied()).collect())
            })
            .collect(),
    );

    let mut db = TpchDb { lineitem, orders, customer, part, supplier, nation, region };
    db.encode_packed();
    db
}

/// Finishes a query's cost with the commercial-engine factor applied to
/// the baseline.
fn finish_db(acc: &CostAcc, xeon: &Xeon) -> QueryCost {
    let mut c = acc.finish(xeon);
    c.xeon.seconds /= XEON_DB_EFFICIENCY;
    c
}

// Scans stream *resident* bytes on both platforms: the DPU engine and
// the commercial in-memory columnar baseline both keep columns
// compressed, and both are memory-bound on scans, so packing shifts
// absolute times, not the Figure 16 ratios.
fn col_bytes(t: &Table, names: &[&str]) -> u64 {
    names.iter().map(|n| t.column(n).expect("column").resident_bytes()).sum()
}

/// Adds the cost of partitioning + probing a join to `acc` — the
/// partition-rounds planner sees the build side at full scale. Public so
/// the rack-scale coordinator can cost per-shard join phases with the
/// same model.
pub fn join_cost(acc: &mut CostAcc, build_rows: u64, probe_rows: u64, cols_bytes: u64) {
    let plan = GroupByPlan::plan((build_rows * acc.scale()).max(1), 16);
    acc.stream(cols_bytes * plan.dpu_bytes_factor(), cols_bytes * plan.xeon_bytes_factor());
    acc.compute(build_rows, PROBE_DPU, PROBE_XEON);
    acc.compute(probe_rows, PROBE_DPU, PROBE_XEON);
}

/// Q1: pricing summary report (scan + 2-group aggregate).
pub fn q1(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    let cutoff = ORDER_DAYS - 90;
    let sel = FilterSpec::new("l_shipdate", CompareOp::Le(cutoff)).apply(&db.lineitem);
    let spec = GroupBySpec {
        group_cols: vec!["l_returnflag".into(), "l_linestatus".into()],
        aggs: vec![
            ("sum_qty".into(), AggFunc::Sum("l_quantity".into())),
            ("sum_base_price".into(), AggFunc::Sum("l_extendedprice".into())),
            (
                "sum_disc_price".into(),
                AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()),
            ),
            ("count_order".into(), AggFunc::Count),
        ],
    };
    let out = spec.execute(&db.lineitem, Some(&sel));

    let rows = db.lineitem.rows() as u64;
    let mut acc = CostAcc::with_scale(scale);
    acc.stream_both(col_bytes(
        &db.lineitem,
        &[
            "l_shipdate",
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    ));
    acc.compute(rows, SCAN_DPU, SCAN_XEON);
    acc.compute(sel.count() as u64, AGG_DPU, AGG_XEON);
    (out, finish_db(&acc, xeon))
}

/// Q3: shipping-priority (3-table join, group, top-10).
pub fn q3(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    let seg_sel = FilterSpec::new("c_mktsegment", CompareOp::Eq(1)).apply(&db.customer);
    let cust = select_rows(&db.customer, &seg_sel);
    let ord_sel = FilterSpec::new("o_orderdate", CompareOp::Lt(D_1995)).apply(&db.orders);
    let ord = select_rows(&db.orders, &ord_sel);
    let li_sel = FilterSpec::new("l_shipdate", CompareOp::Gt(D_1995)).apply(&db.lineitem);
    let li = select_rows(&db.lineitem, &li_sel);

    let j1 = HashJoin {
        build_key: "c_custkey".into(),
        probe_key: "o_custkey".into(),
        build_cols: vec![],
        probe_cols: vec!["o_orderkey".into(), "o_orderdate".into()],
    };
    let (co, _) = j1.execute(&cust, &ord, 32);
    let j2 = HashJoin {
        build_key: "o_orderkey".into(),
        probe_key: "l_orderkey".into(),
        build_cols: vec!["o_orderdate".into()],
        probe_cols: vec!["l_orderkey".into(), "l_extendedprice".into(), "l_discount".into()],
    };
    let (col, _) = j2.execute(&co, &li, 32);
    let spec = GroupBySpec {
        group_cols: vec!["l_orderkey".into(), "o_orderdate".into()],
        aggs: vec![(
            "revenue".into(),
            AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()),
        )],
    };
    let grouped = spec.execute(&col, None);
    let top = top_k(&grouped, "revenue", 10.min(grouped.rows().max(1)), 32);
    let out = project_rows(&grouped, &top);

    let mut acc = CostAcc::with_scale(scale);
    acc.stream_both(col_bytes(&db.customer, &["c_custkey", "c_mktsegment"]));
    acc.stream_both(col_bytes(&db.orders, &["o_orderkey", "o_custkey", "o_orderdate"]));
    acc.stream_both(col_bytes(
        &db.lineitem,
        &["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ));
    acc.compute(
        (db.customer.rows() + db.orders.rows() + db.lineitem.rows()) as u64,
        SCAN_DPU,
        SCAN_XEON,
    );
    join_cost(
        &mut acc,
        cust.rows() as u64,
        ord.rows() as u64,
        col_bytes(&db.orders, &["o_custkey"]),
    );
    join_cost(
        &mut acc,
        co.rows() as u64,
        li.rows() as u64,
        col_bytes(&db.lineitem, &["l_orderkey"]),
    );
    acc.compute(col.rows() as u64, AGG_DPU, AGG_XEON);
    (out, finish_db(&acc, xeon))
}

/// Q5: local-supplier volume (6-table join).
pub fn q5(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    // region 0 → nations in region 0 → customers/suppliers there.
    let nat_sel = FilterSpec::new("n_regionkey", CompareOp::Eq(0)).apply(&db.nation);
    let nations = select_rows(&db.nation, &nat_sel);
    let j_cn = HashJoin {
        build_key: "n_nationkey".into(),
        probe_key: "c_nationkey".into(),
        build_cols: vec!["n_nationkey".into()],
        probe_cols: vec!["c_custkey".into()],
    };
    let (cn, _) = j_cn.execute(&nations, &db.customer, 8);
    let ord_sel =
        FilterSpec::new("o_orderdate", CompareOp::Between(D_1995, D_1995 + 365)).apply(&db.orders);
    let ord = select_rows(&db.orders, &ord_sel);
    let j_co = HashJoin {
        build_key: "c_custkey".into(),
        probe_key: "o_custkey".into(),
        build_cols: vec!["n_nationkey".into()],
        probe_cols: vec!["o_orderkey".into()],
    };
    let (co, _) = j_co.execute(&cn, &ord, 32);
    let j_ol = HashJoin {
        build_key: "o_orderkey".into(),
        probe_key: "l_orderkey".into(),
        build_cols: vec!["n_nationkey".into()],
        probe_cols: vec!["l_suppkey".into(), "l_extendedprice".into(), "l_discount".into()],
    };
    let (ol, _) = j_ol.execute(&co, &db.lineitem, 32);
    // Supplier must be in the same nation as the customer.
    let j_s = HashJoin {
        build_key: "s_suppkey".into(),
        probe_key: "l_suppkey".into(),
        build_cols: vec!["s_nationkey".into()],
        probe_cols: vec!["n_nationkey".into(), "l_extendedprice".into(), "l_discount".into()],
    };
    let (ols, _) = j_s.execute(&db.supplier, &ol, 8);
    let same = crate::bitvec::BitVec::from_fn(ols.rows(), |r| {
        ols.column("s_nationkey").unwrap().data[r] == ols.column("n_nationkey").unwrap().data[r]
    });
    let spec = GroupBySpec {
        group_cols: vec!["n_nationkey".into()],
        aggs: vec![(
            "revenue".into(),
            AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()),
        )],
    };
    let out = spec.execute(&ols, Some(&same));

    let mut acc = CostAcc::with_scale(scale);
    acc.stream_both(
        col_bytes(&db.customer, &["c_custkey", "c_nationkey"])
            + col_bytes(&db.orders, &["o_orderkey", "o_custkey", "o_orderdate"])
            + col_bytes(
                &db.lineitem,
                &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
            )
            + col_bytes(&db.supplier, &["s_suppkey", "s_nationkey"]),
    );
    acc.compute(
        (db.customer.rows() + db.orders.rows() + db.lineitem.rows()) as u64,
        SCAN_DPU,
        SCAN_XEON,
    );
    join_cost(&mut acc, cn.rows() as u64, ord.rows() as u64, col_bytes(&db.orders, &["o_custkey"]));
    join_cost(
        &mut acc,
        co.rows() as u64,
        db.lineitem.rows() as u64,
        col_bytes(&db.lineitem, &["l_orderkey"]),
    );
    join_cost(&mut acc, db.supplier.rows() as u64, ol.rows() as u64, 4 * ol.rows() as u64);
    acc.compute(ols.rows() as u64, AGG_DPU, AGG_XEON);
    (out, finish_db(&acc, xeon))
}

/// Q6: revenue-change forecast (pure scan-filter-aggregate).
pub fn q6(db: &TpchDb, xeon: &Xeon, scale: u64) -> (i64, QueryCost) {
    let li = &db.lineitem;
    let a = FilterSpec::new("l_shipdate", CompareOp::Between(D_1995, D_1995 + 364)).apply(li);
    let b = FilterSpec::new("l_discount", CompareOp::Between(5, 7)).apply(li);
    let c = FilterSpec::new("l_quantity", CompareOp::Lt(24)).apply(li);
    let sel = a.and(&b).and(&c);
    let ep = &li.column("l_extendedprice").unwrap().data;
    let di = &li.column("l_discount").unwrap().data;
    let revenue: i64 = sel.iter_set().map(|r| ep[r] * di[r]).sum();

    let mut acc = CostAcc::with_scale(scale);
    acc.stream_both(col_bytes(li, &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]));
    // Three FILT passes and the select-sum.
    acc.compute(3 * li.rows() as u64, SCAN_DPU, SCAN_XEON);
    acc.compute(sel.count() as u64, 3.0, 1.0);
    (revenue, finish_db(&acc, xeon))
}

/// Q10: returned-item reporting (join + group + top-20).
pub fn q10(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    let ord_sel =
        FilterSpec::new("o_orderdate", CompareOp::Between(D_1995, D_1995 + 90)).apply(&db.orders);
    let ord = select_rows(&db.orders, &ord_sel);
    let li_sel = FilterSpec::new("l_returnflag", CompareOp::Eq(2)).apply(&db.lineitem);
    let li = select_rows(&db.lineitem, &li_sel);
    let j = HashJoin {
        build_key: "o_orderkey".into(),
        probe_key: "l_orderkey".into(),
        build_cols: vec!["o_custkey".into()],
        probe_cols: vec!["l_extendedprice".into(), "l_discount".into()],
    };
    let (ol, _) = j.execute(&ord, &li, 32);
    let spec = GroupBySpec {
        group_cols: vec!["o_custkey".into()],
        aggs: vec![(
            "revenue".into(),
            AggFunc::SumProduct("l_extendedprice".into(), "l_discount".into()),
        )],
    };
    let grouped = spec.execute(&ol, None);
    let top = top_k(&grouped, "revenue", 20.min(grouped.rows().max(1)), 32);
    let out = project_rows(&grouped, &top);

    let mut acc = CostAcc::with_scale(scale);
    acc.stream_both(
        col_bytes(&db.orders, &["o_orderkey", "o_custkey", "o_orderdate"])
            + col_bytes(
                &db.lineitem,
                &["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
            ),
    );
    acc.compute((db.orders.rows() + db.lineitem.rows()) as u64, SCAN_DPU, SCAN_XEON);
    join_cost(
        &mut acc,
        ord.rows() as u64,
        li.rows() as u64,
        col_bytes(&db.lineitem, &["l_orderkey"]) / 4,
    );
    acc.compute(ol.rows() as u64, AGG_DPU, AGG_XEON);
    (out, finish_db(&acc, xeon))
}

/// Q12: shipping-mode priority (join + group by shipmode).
pub fn q12(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    let sel_mode = FilterSpec::new("l_shipmode", CompareOp::Between(2, 3)).apply(&db.lineitem);
    let sel_date = FilterSpec::new("l_receiptdate", CompareOp::Between(D_1995, D_1995 + 364))
        .apply(&db.lineitem);
    let sel = sel_mode.and(&sel_date);
    let li = select_rows(&db.lineitem, &sel);
    let j = HashJoin {
        build_key: "o_orderkey".into(),
        probe_key: "l_orderkey".into(),
        build_cols: vec![],
        probe_cols: vec!["l_shipmode".into()],
    };
    let (ol, _) = j.execute(&db.orders, &li, 32);
    let spec = GroupBySpec {
        group_cols: vec!["l_shipmode".into()],
        aggs: vec![("line_count".into(), AggFunc::Count)],
    };
    let out = spec.execute(&ol, None);

    let mut acc = CostAcc::with_scale(scale);
    acc.stream_both(
        col_bytes(&db.lineitem, &["l_orderkey", "l_shipmode", "l_receiptdate"])
            + col_bytes(&db.orders, &["o_orderkey"]),
    );
    acc.compute((2 * db.lineitem.rows()) as u64, SCAN_DPU, SCAN_XEON);
    join_cost(
        &mut acc,
        db.orders.rows() as u64,
        li.rows() as u64,
        col_bytes(&db.orders, &["o_orderkey"]),
    );
    acc.compute(ol.rows() as u64, AGG_DPU, AGG_XEON);
    (out, finish_db(&acc, xeon))
}

/// Q14: promotion effect (join lineitem × part over one month).
pub fn q14(db: &TpchDb, xeon: &Xeon, scale: u64) -> ((i64, i64), QueryCost) {
    let sel =
        FilterSpec::new("l_shipdate", CompareOp::Between(D_1995, D_1995 + 29)).apply(&db.lineitem);
    let li = select_rows(&db.lineitem, &sel);
    let j = HashJoin {
        build_key: "p_partkey".into(),
        probe_key: "l_partkey".into(),
        build_cols: vec!["p_type".into()],
        probe_cols: vec!["l_extendedprice".into(), "l_discount".into()],
    };
    let (lp, _) = j.execute(&db.part, &li, 32);
    let ty = &lp.column("p_type").unwrap().data;
    let ep = &lp.column("l_extendedprice").unwrap().data;
    let di = &lp.column("l_discount").unwrap().data;
    let mut promo = 0i64;
    let mut total = 0i64;
    for r in 0..lp.rows() {
        let rev = ep[r] * (100 - di[r]);
        total += rev;
        if ty[r] < 30 {
            promo += rev; // "PROMO%" types
        }
    }

    let mut acc = CostAcc::with_scale(scale);
    acc.stream_both(
        col_bytes(&db.lineitem, &["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])
            + col_bytes(&db.part, &["p_partkey", "p_type"]),
    );
    acc.compute(db.lineitem.rows() as u64, SCAN_DPU, SCAN_XEON);
    join_cost(
        &mut acc,
        db.part.rows() as u64,
        li.rows() as u64,
        col_bytes(&db.part, &["p_partkey"]),
    );
    acc.compute(lp.rows() as u64, 6.0, 3.0);
    ((promo, total), finish_db(&acc, xeon))
}

/// Q18: large-volume customers (group-having + join + top-100).
pub fn q18(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Table, QueryCost) {
    let spec = GroupBySpec {
        group_cols: vec!["l_orderkey".into()],
        aggs: vec![("sum_qty".into(), AggFunc::Sum("l_quantity".into()))],
    };
    let per_order = spec.execute(&db.lineitem, None);
    let big = FilterSpec::new("sum_qty", CompareOp::Gt(180)).apply(&per_order);
    let big_orders = select_rows(&per_order, &big);
    let j = HashJoin {
        build_key: "l_orderkey".into(),
        probe_key: "o_orderkey".into(),
        build_cols: vec!["sum_qty".into()],
        probe_cols: vec!["o_orderkey".into(), "o_custkey".into(), "o_totalprice".into()],
    };
    let (jo, _) = j.execute(&big_orders, &db.orders, 32);
    // Canonical order (ascending orderkey) so top-k tie-breaks depend on
    // content rather than join emission order — required for shard-merge
    // plans to reproduce this result bit-identically.
    let mut order: Vec<usize> = (0..jo.rows()).collect();
    order.sort_by_key(|&r| jo.column("o_orderkey").unwrap().data[r]);
    let jo = project_rows(&jo, &order);
    let top = top_k(&jo, "o_totalprice", 100.min(jo.rows().max(1)), 32);
    let out = project_rows(&jo, &top);

    let mut acc = CostAcc::with_scale(scale);
    acc.stream_both(col_bytes(&db.lineitem, &["l_orderkey", "l_quantity"]));
    // The big group-by: NDV = order count (at full scale).
    let plan = GroupByPlan::plan(db.orders.rows() as u64 * scale, 16);
    let gb_bytes = col_bytes(&db.lineitem, &["l_orderkey", "l_quantity"]);
    acc.stream(gb_bytes * (plan.dpu_bytes_factor() - 1), gb_bytes * (plan.xeon_bytes_factor() - 1));
    acc.compute(db.lineitem.rows() as u64, AGG_DPU, AGG_XEON);
    join_cost(
        &mut acc,
        big_orders.rows() as u64,
        db.orders.rows() as u64,
        col_bytes(&db.orders, &["o_orderkey", "o_totalprice"]),
    );
    (out, finish_db(&acc, xeon))
}

/// Materializes selected rows into a new table.
pub fn select_rows(t: &Table, sel: &crate::bitvec::BitVec) -> Table {
    select_columns(&t.columns, sel)
}

/// Materializes the rows selected by `sel` of the given columns only.
pub(crate) fn select_columns<'a>(
    cols: impl IntoIterator<Item = &'a Column>,
    sel: &crate::bitvec::BitVec,
) -> Table {
    Table::new(
        cols.into_iter()
            .map(|c| Column {
                name: c.name.clone(),
                width: c.width,
                data: sel.iter_set().map(|r| c.data[r]).collect(),
                packed: None,
            })
            .collect(),
    )
}

/// Projects rows by index into a new table.
pub fn project_rows(t: &Table, rows: &[usize]) -> Table {
    Table::new(
        t.columns
            .iter()
            .map(|c| Column {
                name: c.name.clone(),
                width: c.width,
                data: rows.iter().map(|&r| c.data[r]).collect(),
                packed: None,
            })
            .collect(),
    )
}

/// Runs all eight queries, returning `(name, gain)` pairs plus the
/// geometric mean (Figure 16).
pub fn run_all(db: &TpchDb, xeon: &Xeon, scale: u64) -> (Vec<(&'static str, f64)>, f64) {
    let gains = vec![
        ("Q1", q1(db, xeon, scale).1.gain(xeon)),
        ("Q3", q3(db, xeon, scale).1.gain(xeon)),
        ("Q5", q5(db, xeon, scale).1.gain(xeon)),
        ("Q6", q6(db, xeon, scale).1.gain(xeon)),
        ("Q10", q10(db, xeon, scale).1.gain(xeon)),
        ("Q12", q12(db, xeon, scale).1.gain(xeon)),
        ("Q14", q14(db, xeon, scale).1.gain(xeon)),
        ("Q18", q18(db, xeon, scale).1.gain(xeon)),
    ];
    let geomean = (gains.iter().map(|(_, g)| g.ln()).sum::<f64>() / gains.len() as f64).exp();
    (gains, geomean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TpchDb {
        generate(2000, 42)
    }

    #[test]
    fn generator_shapes() {
        let db = db();
        assert_eq!(db.orders.rows(), 2000);
        assert!(db.lineitem.rows() > 4000 && db.lineitem.rows() < 16000);
        assert_eq!(db.nation.rows(), 25);
        assert_eq!(db.region.rows(), 5);
        // Deterministic for a seed.
        let db2 = generate(2000, 42);
        assert_eq!(db.lineitem, db2.lineitem);
        // Different for another seed.
        let db3 = generate(2000, 43);
        assert_ne!(db.lineitem, db3.lineitem);
    }

    #[test]
    fn chunked_generation_is_bit_identical_to_sequential() {
        for orders_n in [1usize, 7, 100, 2000] {
            let want = generate(orders_n, 42);
            for chunks in [1usize, 2, 3, 7, 64] {
                assert_eq!(
                    generate_chunked(orders_n, 42, chunks),
                    want,
                    "orders_n={orders_n} chunks={chunks}"
                );
            }
            for workers in [2usize, 4] {
                assert_eq!(
                    generate_chunked_on(Pool::new(workers), orders_n, 42, workers * 2),
                    want,
                    "orders_n={orders_n} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn parallel_generation_matches_sequential() {
        // Pool width comes from the host here, so exercise both routes
        // explicitly via generate_chunked_on; generate_parallel itself
        // must agree with generate whatever the host's width is.
        assert_eq!(generate_parallel(500, 7), generate(500, 7));
    }

    #[test]
    fn q1_matches_naive_reference() {
        let db = db();
        let xeon = Xeon::new();
        let (out, cost) = q1(&db, &xeon, 1);
        // Naive reference for one group.
        let li = &db.lineitem;
        let cutoff = ORDER_DAYS - 90;
        let mut want_cnt = 0i64;
        let mut want_qty = 0i64;
        for r in 0..li.rows() {
            if li.column("l_shipdate").unwrap().data[r] <= cutoff
                && li.column("l_returnflag").unwrap().data[r] == 0
                && li.column("l_linestatus").unwrap().data[r] == 0
            {
                want_cnt += 1;
                want_qty += li.column("l_quantity").unwrap().data[r];
            }
        }
        let row = (0..out.rows())
            .find(|&r| {
                out.column("l_returnflag").unwrap().data[r] == 0
                    && out.column("l_linestatus").unwrap().data[r] == 0
            })
            .expect("group (0,0) exists");
        assert_eq!(out.column("count_order").unwrap().data[row], want_cnt);
        assert_eq!(out.column("sum_qty").unwrap().data[row], want_qty);
        assert!(cost.dpu.seconds > 0.0 && cost.xeon.seconds > 0.0);
    }

    #[test]
    fn q6_matches_naive_reference() {
        let db = db();
        let xeon = Xeon::new();
        let (rev, cost) = q6(&db, &xeon, 1);
        let li = &db.lineitem;
        let mut want = 0i64;
        for r in 0..li.rows() {
            let sd = li.column("l_shipdate").unwrap().data[r];
            let d = li.column("l_discount").unwrap().data[r];
            let q = li.column("l_quantity").unwrap().data[r];
            if (D_1995..=D_1995 + 364).contains(&sd) && (5..=7).contains(&d) && q < 24 {
                want += li.column("l_extendedprice").unwrap().data[r] * d;
            }
        }
        assert_eq!(rev, want);
        assert!(rev > 0, "the band should select something");
        // A pure scan against the commercial engine: the 6.7×
        // bandwidth/watt ratio divided by the engine's ~0.5 efficiency.
        let g = cost.gain(&xeon);
        assert!((11.0..16.0).contains(&g), "Q6 gain {g:.2}");
    }

    #[test]
    fn q3_returns_descending_revenue() {
        let db = db();
        let xeon = Xeon::new();
        let (out, _) = q3(&db, &xeon, 1);
        let rev = &out.column("revenue").unwrap().data;
        assert!(!rev.is_empty());
        assert!(rev.windows(2).all(|w| w[0] >= w[1]), "top-k order");
    }

    #[test]
    fn q14_fraction_is_sane() {
        let db = db();
        let xeon = Xeon::new();
        let ((promo, total), _) = q14(&db, &xeon, 1);
        assert!(total > 0);
        assert!(promo >= 0 && promo <= total);
        // p_type < 30 of 150 ⇒ roughly 20% of revenue.
        let frac = promo as f64 / total as f64;
        assert!((0.08..0.35).contains(&frac), "promo fraction {frac}");
    }

    #[test]
    fn q18_orders_have_large_quantities() {
        let db = db();
        let xeon = Xeon::new();
        let (out, _) = q18(&db, &xeon, 1);
        for r in 0..out.rows() {
            assert!(out.column("sum_qty").unwrap().data[r] > 180);
        }
    }

    #[test]
    fn all_gains_exceed_one_and_geomean_is_large() {
        let db = db();
        let xeon = Xeon::new();
        // Cost at TPC-H SF≈100 cardinalities (≈600 M lineitem rows).
        let (gains, geomean) = run_all(&db, &xeon, 50_000);
        assert_eq!(gains.len(), 8);
        for (name, g) in &gains {
            assert!(*g > 1.0, "{name} gain {g:.2} ≤ 1");
            assert!(*g < 35.0, "{name} gain {g:.2} implausible");
        }
        assert!(
            geomean > 10.0 && geomean < 25.0,
            "geomean {geomean:.2} out of the Figure 16 band around 15×"
        );
    }

    #[test]
    fn scale_raises_join_heavy_gains_only() {
        let db = db();
        let xeon = Xeon::new();
        // Q6 is a pure scan: scale-invariant. Q3 joins: partitioning
        // rounds appear at scale and widen the DPU's advantage.
        let q6_small = q6(&db, &xeon, 1).1.gain(&xeon);
        let q6_big = q6(&db, &xeon, 50_000).1.gain(&xeon);
        assert!((q6_small - q6_big).abs() < 0.2);
        let q3_small = q3(&db, &xeon, 1).1.gain(&xeon);
        let q3_big = q3(&db, &xeon, 50_000).1.gain(&xeon);
        assert!(q3_big > q3_small + 0.5, "Q3 {q3_small:.2} → {q3_big:.2}");
    }
}
