//! Figure 13: bandwidth of the DMS hardware partitioning engine.
//!
//! 32-way partitioning of a 4-column (4 B) table under each scheme:
//! radix on key bits, CRC32-hash radix, and range matching against 32
//! pre-programmed bounds. Target: ≈9.3 GB/s for every scheme, beating
//! HARP's published 6 GB/s.

use std::time::Instant;

use dpu_bench::json::{emit, Json};
use dpu_bench::{gbps, header, row};
use dpu_dms::{Dms, DmsConfig, PartitionJob, PartitionScheme};
use dpu_mem::{Dmem, DramChannel, DramConfig, PhysMem};
use dpu_sim::{Frequency, Time};
use dpu_sql::{partition_row_ids_with, Kernel};

fn run(scheme: PartitionScheme) -> f64 {
    let rows = 256 * 1024u64;
    let cols = 4usize;
    let mut phys = PhysMem::new(rows as usize * cols * 4);
    let addrs: Vec<u64> = (0..cols as u64).map(|c| c * rows * 4).collect();
    for &addr in &addrs {
        for r in 0..rows {
            phys.write_u32(addr + r * 4, (r as u32).wrapping_mul(0x9E37_79B9));
        }
    }
    let mut dms = Dms::new(DmsConfig::default(), 32);
    let mut dram = DramChannel::new(DramConfig::ddr3_1600());
    let mut dmems: Vec<Dmem> = (0..32).map(|_| Dmem::new(1 << 20)).collect();
    let job = PartitionJob {
        key_col_addr: addrs[0],
        data_col_addrs: addrs[1..].to_vec(),
        rows,
        col_width: 4,
        scheme,
        dest_dmem_base: 0,
        dest_capacity: 256 * 1024,
    };
    let out =
        dms.run_partition(&job, Time::ZERO, &mut phys, &mut dram, &mut dmems).expect("partition");
    Frequency::DPU_CORE.bytes_per_sec(out.bytes_in, out.finish) / 1e9
}

/// Host-side comparison for the software partition rounds: bit-serial
/// CRC32-C row routing vs the 4-lane table-driven SWAR variant,
/// 32-way like the DMS runs above. Returns (scalar
/// Mrows/s, vector Mrows/s); panics on any routing mismatch.
fn host_swar_partition(rows: usize) -> (f64, f64) {
    let keys: Vec<i64> =
        (0..rows as i64).map(|r| i64::from((r as u32).wrapping_mul(0x9E37_79B9))).collect();
    let time = |kernel: Kernel| {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..3 {
            let start = Instant::now();
            let parts = partition_row_ids_with(&keys, 0, 32, kernel);
            best = best.min(start.elapsed().as_secs_f64());
            out = Some(parts);
        }
        (best, out.expect("reps >= 1"))
    };
    let (scalar_s, scalar) = time(Kernel::Scalar);
    let (vector_s, vector) = time(Kernel::Swar);
    assert_eq!(scalar, vector, "host SWAR partition diverged from scalar");
    (rows as f64 / scalar_s / 1e6, rows as f64 / vector_s / 1e6)
}

fn main() {
    println!("# Figure 13: DMS partitioning bandwidth (32-way, 4×4 B columns)\n");
    header(&["Scheme", "Bandwidth", "vs HARP 6 GB/s"]);
    let bounds: Vec<i64> =
        (1..32).map(|i| i64::from(i32::MIN) + i * ((u32::MAX as i64) / 32)).collect();
    let schemes: Vec<(&str, PartitionScheme)> = vec![
        ("radix (5 key bits)", PartitionScheme::Radix { bits: 5, shift: 0 }),
        ("hash radix (CRC32)", PartitionScheme::HashRadix { radix_bits: 5 }),
        ("range (32 bounds)", PartitionScheme::Range { bounds }),
    ];
    let mut series: Vec<Json> = Vec::new();
    for (name, scheme) in schemes {
        let bw = run(scheme);
        row(&[name.to_string(), gbps(bw), format!("{:.2}×", bw / 6.0)]);
        series.push(Json::obj([
            ("scheme", Json::str(name)),
            ("gbps", Json::num(bw)),
            ("vs_harp_6gbps", Json::num(bw / 6.0)),
        ]));
    }
    let host_rows = 2_000_000usize;
    let (host_scalar, host_vector) = host_swar_partition(host_rows);
    println!(
        "\nHost software rounds (wall-clock, {host_rows} rows, 32-way CRC32): \
         scalar {host_scalar:.0} Mrows/s, SWAR {host_vector:.0} Mrows/s ({:.2}x), \
         identical routing.",
        host_vector / host_scalar
    );
    emit(
        "fig13_partition",
        &Json::obj([
            ("figure", Json::str("fig13_partition")),
            ("schemes", Json::Arr(series)),
            (
                "host_swar",
                Json::obj([
                    ("rows", Json::num(host_rows as f64)),
                    ("fanout", Json::num(32.0)),
                    ("scalar_mrows_s", Json::num(host_scalar)),
                    ("vector_mrows_s", Json::num(host_vector)),
                    ("speedup", Json::num(host_vector / host_scalar)),
                ]),
            ),
        ]),
    );
    println!("\nPaper targets: ≈9.3 GB/s for all schemes; >1.5× HARP; the DMS");
    println!("additionally leaves all 32 dpCores free for a parallel software");
    println!("partition pass (1024-way total).");
}
