//! The chip layers' probe: the cycle-level SoC, run in every traced run.
//! A pass runs the dpCore BVLD/FILT loop on the ISA interpreter (fig15),
//! DMS column streaming across columns × tile sizes (fig11), a DMS-fed
//! filter whose per-tile compute is the ISA loop's measured cycles per
//! tuple, the DMS partition engine under three schemes (fig13) and DMS
//! bit-vector gathers (fig12). Every experiment builds a fresh chip, so
//! modelled DMEM and caches start empty; the memory images are seeded.

use dpu_core::{CoreProgram, Dpu, DpuConfig, StreamKernel, StreamSpec};
use dpu_dms::{
    DataDescriptor, DescKind, Descriptor, Dms, DmsConfig, GatherMode, PartitionJob, PartitionScheme,
};
use dpu_mem::{Dmem, DramChannel, DramConfig, PhysMem};
use dpu_sim::{Frequency, SplitMix64, Time};
use dpu_sql::{measure_filter_kernel, Column, CompareOp, FilterSpec, Table};

use crate::bench::Ctx;
use crate::digest::Digest;
use crate::trace::Tracer;

const CORES: usize = 32;
/// ISA filter tiles (rows); the last is the one `sim_filter_cycles_per_tuple` reports.
const ISA_TILES: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];
/// Columns × tile rows of the fig11 streaming grid.
const STREAM_COLS: [usize; 4] = [1, 2, 4, 8];
const STREAM_TILES: [u32; 6] = [16, 32, 64, 128, 256, 512];
const STREAM_ROWS: u64 = 4096;
/// 8 KB tiles of one 4-byte column: the paper's ≥ 9 GB/s point.
const TILE_8KB_ROWS: u32 = 2048;
const FILTER_ROWS: u64 = 32 * 1024;
const PART_ROWS: u64 = 256 * 1024;
const PART_COLS: usize = 4;
const GATHER_ROWS: u16 = 4096;
const GATHERS: u64 = 4;

/// Paper targets (the only model outputs validated against hardware).
const PAPER_FILTER_CPT: f64 = 1.65;
const PAPER_DMS_GBPS: f64 = 9.0;
const PAPER_PARTITION_GBPS: f64 = 9.3;

/// One experiment of a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Exp {
    Isa(usize),
    Stream { cols: usize, tile_rows: u32, write_back: bool },
    Filter,
    Partition(usize),
    Gather { dense: bool, fixed: bool },
}

impl Exp {
    fn layer(self) -> &'static str {
        match self {
            Exp::Isa(_) => "chip.isa",
            Exp::Stream { .. } | Exp::Filter => "chip.stream",
            Exp::Partition(_) => "chip.partition",
            Exp::Gather { .. } => "chip.gather",
        }
    }
}

/// The experiments of one pass, in run order: the ISA filter loop, the
/// 8 KB-tile points and the DMS-fed filter that uses the loop's cost;
/// the fig11 grid by (mode, tile size) with the column counts innermost;
/// the three partition schemes; the four gathers.
fn pass() -> Vec<Exp> {
    let mut v: Vec<Exp> = (0..ISA_TILES.len()).map(Exp::Isa).collect();
    for write_back in [false, true] {
        v.push(Exp::Stream { cols: 1, tile_rows: TILE_8KB_ROWS, write_back });
    }
    v.push(Exp::Filter);
    for write_back in [false, true] {
        for tile_rows in STREAM_TILES {
            for cols in STREAM_COLS {
                v.push(Exp::Stream { cols, tile_rows, write_back });
            }
        }
    }
    v.extend((0..3).map(Exp::Partition));
    for dense in [true, false] {
        for fixed in [false, true] {
            v.push(Exp::Gather { dense, fixed });
        }
    }
    v
}

fn schemes() -> [PartitionScheme; 3] {
    let bounds: Vec<i64> =
        (1..32).map(|i| i64::from(i32::MIN) + i * ((u32::MAX as i64) / 32)).collect();
    [
        PartitionScheme::Radix { bits: 5, shift: 0 },
        PartitionScheme::HashRadix { radix_bits: 5 },
        PartitionScheme::Range { bounds },
    ]
}

/// Seeded memory images and inputs.
struct Images {
    /// Per stream column count: `STREAM_ROWS` values per core per column.
    stream: Vec<Vec<Vec<u32>>>,
    filter: Vec<Vec<u32>>,
    part: Vec<Vec<u32>>,
    /// Per core, per gather: the source rows.
    gather_src: Vec<Vec<Vec<u32>>>,
    /// Dense and sparse bit vectors (one bit per gathered row).
    bitvec: [Vec<u8>; 2],
    isa: Vec<Vec<i32>>,
    /// The ISA filter band, chosen to select about half the rows.
    band: (i32, i32),
}

fn u32s(rng: &mut SplitMix64, n: u64) -> Vec<u32> {
    (0..n).map(|_| rng.next_u64() as u32).collect()
}

impl Images {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let stream = STREAM_COLS
            .iter()
            .map(|&cols| (0..CORES * cols).map(|_| u32s(&mut rng, STREAM_ROWS)).collect())
            .collect();
        let filter = (0..CORES).map(|_| u32s(&mut rng, FILTER_ROWS)).collect();
        let part = (0..PART_COLS).map(|_| u32s(&mut rng, PART_ROWS)).collect();
        let gather_src = (0..CORES)
            .map(|_| (0..GATHERS).map(|_| u32s(&mut rng, u64::from(GATHER_ROWS))).collect())
            .collect();
        // Rows are selected in 64-row (256 B) regions, as a clustered
        // predicate would: a region is live with probability `live`, and
        // a live region's rows with probability `p`. The number of live
        // regions sets the gather's DDR requests, so gather time depends
        // on the seed.
        let mut bits = |live: f64, p: f64| -> Vec<u8> {
            let mut out = Vec::with_capacity(usize::from(GATHER_ROWS / 8));
            for _ in 0..GATHER_ROWS / 64 {
                let on = rng.next_f64() < live;
                for _ in 0..8 {
                    out.push(
                        (0..8).fold(0u8, |b, k| b | (u8::from(on && rng.next_f64() < p) << k)),
                    );
                }
            }
            out
        };
        let bitvec = [bits(1.0, 7.0 / 8.0), bits(0.5, 3.0 / 8.0)];
        let isa = ISA_TILES.iter().map(|&n| u32s(&mut rng, n as u64)).collect::<Vec<_>>();
        let isa = isa.into_iter().map(|v| v.into_iter().map(|x| x as i32).collect()).collect();
        Images { stream, filter, part, gather_src, bitvec, isa, band: (-(1 << 30), 1 << 30) }
    }
}

/// What one experiment produced.
#[derive(Debug, Clone, PartialEq)]
struct ChipOut {
    /// Simulated cycles the experiment took.
    cycles: u64,
    /// Its headline simulated figure (GB/s, or cycles/tuple for the ISA).
    value: f64,
    /// Instructions per cycle (ISA) or mean core-busy fraction (filter).
    aux: f64,
    digest: u64,
}

fn le_bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn gbps(bytes: u64, finish: Time) -> f64 {
    Frequency::DPU_CORE.bytes_per_sec(bytes, finish) / 1e9
}

/// Runs one experiment on a fresh chip and checks its outputs.
fn experiment(
    tr: &mut Tracer,
    img: &Images,
    exp: Exp,
    filter_cpt: f64,
    req: u64,
) -> Result<ChipOut, String> {
    match exp {
        Exp::Isa(t) => {
            let values = &img.isa[t];
            let (lo, hi) = img.band;
            let (m, bv) = measure_filter_kernel(values, lo, hi);
            let table =
                Table::new(vec![Column::i32("x", values.iter().map(|&v| i64::from(v)).collect())]);
            let want = FilterSpec::new("x", CompareOp::Between(lo.into(), hi.into())).apply(&table);
            if bv != want {
                return Err(format!("ISA filter bit vector differs at tile {}", values.len()));
            }
            Ok(ChipOut {
                cycles: m.cycles,
                value: m.cycles_per_tuple(),
                aux: m.instructions as f64 / m.cycles as f64,
                digest: Digest::default().u64(m.cycles).u64(m.instructions).value(),
            })
        }
        Exp::Stream { cols, tile_rows, write_back } => {
            let data = &img.stream[STREAM_COLS.iter().position(|&c| c == cols).expect("cols")];
            let col_span = STREAM_ROWS * 4;
            let region = (cols as u64 + 1) * col_span * 2;
            let mut dpu = tr.span("chip.fill", "stream", req, |_| {
                let mut dpu = Dpu::new(DpuConfig::nm40());
                for core in 0..CORES {
                    for c in 0..cols {
                        let addr = core as u64 * region + c as u64 * col_span;
                        dpu.phys_mut().write(addr, &le_bytes(&data[core * cols + c]));
                    }
                }
                dpu
            });
            let mut programs: Vec<Box<dyn CoreProgram>> = (0..CORES as u64)
                .map(|core| {
                    let spec = StreamSpec {
                        cols: (0..cols as u64).map(|c| core * region + c * col_span).collect(),
                        rows_total: STREAM_ROWS,
                        rows_per_tile: tile_rows,
                        col_width: 4,
                        dmem_base: 0,
                        write_back: write_back.then_some(core * region + cols as u64 * col_span),
                        buffers: 2,
                    };
                    Box::new(StreamKernel::new(spec, |_, _| 0)) as Box<dyn CoreProgram>
                })
                .collect();
            let report = dpu.run(&mut programs).map_err(|e| format!("stream run: {e:?}"))?;
            let table_bytes = (CORES * cols) as u64 * STREAM_ROWS * 4;
            let want = if write_back { 2 * table_bytes } else { table_bytes };
            if report.dms_bytes != want {
                return Err(format!("stream moved {} bytes, expected {want}", report.dms_bytes));
            }
            let bw = gbps(report.dms_bytes, report.finish);
            Ok(ChipOut {
                cycles: report.finish.cycles(),
                // Table goodput: in RW mode half the moved bytes are the write-back.
                value: if write_back { bw / 2.0 } else { bw },
                aux: 0.0,
                digest: Digest::default()
                    .u64(report.finish.cycles())
                    .u64(report.dms_bytes)
                    .bytes(&report.busy.iter().flat_map(|b| b.to_le_bytes()).collect::<Vec<_>>())
                    .value(),
            })
        }
        Exp::Filter => {
            let span = FILTER_ROWS * 4;
            let mut dpu = tr.span("chip.fill", "filter", req, |_| {
                let mut dpu = Dpu::new(DpuConfig::nm40());
                for (core, col) in img.filter.iter().enumerate() {
                    dpu.phys_mut().write(core as u64 * span, &le_bytes(col));
                }
                dpu
            });
            let mut programs: Vec<Box<dyn CoreProgram>> = (0..CORES as u64)
                .map(|core| {
                    let spec = StreamSpec {
                        cols: vec![core * span],
                        rows_total: FILTER_ROWS,
                        rows_per_tile: TILE_8KB_ROWS,
                        col_width: 4,
                        dmem_base: 0,
                        write_back: None,
                        buffers: 2,
                    };
                    // The dpCore's per-tile work is the ISA loop's measured cost.
                    let kernel = StreamKernel::new(spec, move |_, tile| {
                        (f64::from(tile.rows) * filter_cpt).ceil() as u64
                    });
                    Box::new(kernel) as Box<dyn CoreProgram>
                })
                .collect();
            let report = dpu.run(&mut programs).map_err(|e| format!("filter run: {e:?}"))?;
            let finish = report.finish.cycles();
            let busy = report.busy.iter().sum::<u64>() as f64 / (CORES as f64 * finish as f64);
            Ok(ChipOut {
                cycles: finish,
                value: gbps(report.dms_bytes, report.finish),
                aux: busy,
                digest: Digest::default().u64(finish).u64(report.dms_bytes).f64(busy).value(),
            })
        }
        Exp::Partition(s) => {
            let scheme = schemes()[s].clone();
            let addrs: Vec<u64> = (0..PART_COLS as u64).map(|c| c * PART_ROWS * 4).collect();
            let (mut phys, mut dmems) = tr.span("chip.fill", "partition", req, |_| {
                let mut phys = PhysMem::new(PART_ROWS as usize * PART_COLS * 4);
                for (col, &addr) in img.part.iter().zip(&addrs) {
                    phys.write(addr, &le_bytes(col));
                }
                (phys, (0..CORES).map(|_| Dmem::new(1 << 20)).collect::<Vec<_>>())
            });
            let mut dms = Dms::new(DmsConfig::default(), CORES);
            let mut dram = DramChannel::new(DramConfig::ddr3_1600());
            let cap = 256 * 1024u32;
            let job = PartitionJob {
                key_col_addr: addrs[0],
                data_col_addrs: addrs[1..].to_vec(),
                rows: PART_ROWS,
                col_width: 4,
                scheme: scheme.clone(),
                dest_dmem_base: 0,
                dest_capacity: cap,
            };
            let out = dms
                .run_partition(&job, Time::ZERO, &mut phys, &mut dram, &mut dmems)
                .map_err(|e| format!("partition: {e:?}"))?;
            // Every row must sit in its scheme's partition, in input order.
            let mut fill = [0u32; CORES];
            for r in 0..PART_ROWS as usize {
                let key = img.part[0][r];
                let p = scheme.partition_of(i64::from(key as i32));
                for (c, col) in img.part.iter().enumerate() {
                    if dmems[p].read_u32(c as u32 * cap + fill[p] * 4) != col[r] {
                        return Err(format!("partition row {r} column {c} misplaced"));
                    }
                }
                fill[p] += 1;
            }
            let landed: Vec<u64> = fill.iter().map(|&f| u64::from(f)).collect();
            if out.rows_per_partition != landed || landed.iter().sum::<u64>() != PART_ROWS {
                return Err("partition row counts do not sum to the input".into());
            }
            Ok(ChipOut {
                cycles: out.finish.cycles(),
                value: gbps(out.bytes_in, out.finish),
                aux: 0.0,
                digest: Digest::default()
                    .u64(out.finish.cycles())
                    .u64(out.bytes_in)
                    .u64(out.chunks)
                    .bytes(&landed.iter().flat_map(|b| b.to_le_bytes()).collect::<Vec<_>>())
                    .value(),
            })
        }
        Exp::Gather { dense, fixed } => gather(tr, img, dense, fixed, req),
    }
}

/// Fig12: each core gathers the rows its bit vector selects, four
/// 16 KB descriptors per core. First silicon serializes gathers one core
/// at a time (the RTL-bug workaround); the fixed RTL issues them all.
fn gather(
    tr: &mut Tracer,
    img: &Images,
    dense: bool,
    fixed: bool,
    req: u64,
) -> Result<ChipOut, String> {
    let bv = &img.bitvec[usize::from(!dense)];
    let mode = if fixed { GatherMode::Fixed } else { GatherMode::BugWorkaround };
    let mut dms = Dms::new(DmsConfig { gather_mode: mode, ..DmsConfig::default() }, CORES);
    let mut dram = DramChannel::new(DramConfig::ddr3_1600());
    let src = |core: usize, g: u64| core as u64 * (1 << 20) + g * 65536;
    let (mut phys, mut dmems) = tr.span("chip.fill", "gather", req, |_| {
        let mut phys = PhysMem::new(32 << 20);
        for (core, gathers) in img.gather_src.iter().enumerate() {
            for (g, rows) in gathers.iter().enumerate() {
                phys.write(src(core, g as u64), &le_bytes(rows));
            }
        }
        let mut dmems: Vec<Dmem> = (0..CORES).map(|_| Dmem::new(32 * 1024)).collect();
        for d in &mut dmems {
            d.write(16 * 1024, bv);
        }
        (phys, dmems)
    });
    let issue = |dms: &mut Dms, core: usize, at: Time| {
        let stage = DataDescriptor {
            kind: DescKind::DmemToDms,
            ..DataDescriptor::read(0, 16 * 1024, GATHER_ROWS / 8, 1)
        };
        dms.push(core, 0, Descriptor::Data(stage), at);
        for g in 0..GATHERS {
            let d = DataDescriptor {
                gather_src: true,
                ..DataDescriptor::read(src(core, g), 0, GATHER_ROWS, 4)
            };
            dms.push(core, 0, Descriptor::Data(d), at);
        }
    };
    let mut moved = 0u64;
    let mut finish = Time::ZERO;
    let mut drain = |dms: &mut Dms, phys: &mut PhysMem, dmems: &mut [Dmem], finish: &mut Time| {
        for c in dms.advance(phys, &mut dram, dmems) {
            if c.kind == DescKind::DdrToDmem {
                moved += c.bytes;
            }
            *finish = (*finish).max(c.finish);
        }
    };
    if fixed {
        for core in 0..CORES {
            issue(&mut dms, core, Time::ZERO);
        }
        drain(&mut dms, &mut phys, &mut dmems, &mut finish);
    } else {
        for core in 0..CORES {
            issue(&mut dms, core, finish);
            drain(&mut dms, &mut phys, &mut dmems, &mut finish);
        }
    }
    if let Some(e) = dms.error() {
        return Err(format!("gather hung: {e:?}"));
    }
    let selected: Vec<usize> =
        (0..usize::from(GATHER_ROWS)).filter(|&i| bv[i / 8] >> (i % 8) & 1 == 1).collect();
    let want = (CORES as u64) * GATHERS * selected.len() as u64 * 4;
    if moved != want {
        return Err(format!("gather moved {moved} bytes, expected {want}"));
    }
    // The last descriptor's rows are what each core's DMEM holds.
    for (core, d) in dmems.iter().enumerate() {
        let last = &img.gather_src[core][GATHERS as usize - 1];
        if selected.iter().enumerate().any(|(k, &i)| d.read_u32(k as u32 * 4) != last[i]) {
            return Err(format!("core {core} gathered the wrong rows"));
        }
    }
    Ok(ChipOut {
        cycles: finish.cycles(),
        value: gbps(moved, finish),
        aux: 0.0,
        digest: Digest::default().u64(finish.cycles()).u64(moved).value(),
    })
}

/// Chip passes the probe times after its warm-up pass.
const PROBE_PASSES: usize = 2;

/// Runs the chip probe: an untraced warm-up pass (oracles, reference
/// digests and every simulated metric; the simulator is deterministic),
/// then traced passes whose experiments must reproduce the warm-up
/// outputs. Records `chip.*.host_s` per pass and `chip_mcycles_per_s`.
pub fn probe(ctx: &mut Ctx) {
    let img = Images::new(ctx.seed);
    let exps = pass();
    let mut warm: Vec<ChipOut> = Vec::new();
    let mut cpt = 0.0;
    for (j, &exp) in exps.iter().enumerate() {
        match experiment(&mut ctx.tr, &img, exp, cpt, j as u64) {
            Ok(out) => {
                if exp == Exp::Isa(ISA_TILES.len() - 1) {
                    cpt = out.value;
                }
                warm.push(out);
                ctx.record(Ok(()));
            }
            Err(e) => ctx.record(Err(e)),
        }
    }
    if warm.len() != exps.len() {
        return;
    }
    sim_metrics(ctx, &exps, &warm);

    ctx.tr.set_on(true);
    let (mut mcycles, mut secs) = (0.0, 0.0);
    for p in 0..PROBE_PASSES {
        for (j, &exp) in exps.iter().enumerate() {
            let req = (p * exps.len() + j) as u64;
            let t0 = std::time::Instant::now();
            let got =
                ctx.tr.span(exp.layer(), "run", req, |tr| experiment(tr, &img, exp, cpt, req));
            secs += t0.elapsed().as_secs_f64();
            let checked = got.and_then(|got| {
                mcycles += got.cycles as f64 / 1e6;
                if got == warm[j] {
                    Ok(())
                } else {
                    Err(format!("chip experiment {exp:?} differs from the warm-up pass"))
                }
            });
            ctx.record(checked);
        }
    }
    ctx.tr.set_on(false);
    ctx.set("chip_mcycles_per_s", mcycles / secs);
    for layer in ["chip.stream", "chip.partition", "chip.gather", "chip.isa"] {
        ctx.set(format!("{layer}.host_s"), ctx.span_sum_s(layer) / PROBE_PASSES as f64);
    }
}

/// Simulated metrics from the warm-up pass, with the paper targets.
fn sim_metrics(ctx: &mut Ctx, exps: &[Exp], warm: &[ChipOut]) {
    let find = |e: Exp| &warm[exps.iter().position(|&x| x == e).expect("experiment in pass")];
    let mean = |pick: &dyn Fn(Exp) -> bool| {
        let v: Vec<f64> =
            exps.iter().zip(warm).filter(|(e, _)| pick(**e)).map(|(_, o)| o.value).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let isa = find(Exp::Isa(ISA_TILES.len() - 1));
    let cpt = isa.value;
    let dms = find(Exp::Stream { cols: 1, tile_rows: TILE_8KB_ROWS, write_back: false }).value;
    let grid = |wb: bool| move |e: Exp| matches!(e, Exp::Stream { tile_rows, write_back, .. } if write_back == wb && tile_rows != TILE_8KB_ROWS);
    let partition = mean(&|e| matches!(e, Exp::Partition(_)));
    let total_cycles: u64 = warm.iter().map(|o| o.cycles).sum();
    let sim_ms = total_cycles as f64 / Frequency::DPU_CORE.hz() * 1e3;
    let ddr_peak = gbps(DramConfig::ddr3_1600().bus_bytes_per_cycle, Time::from_cycles(1));
    ctx.set("sim_dms_gbps", dms);
    ctx.set("sim_filter_cycles_per_tuple", cpt);
    ctx.set("sim.chip.stream_gbps_r", mean(&grid(false)));
    ctx.set("sim.chip.stream_gbps_rw", mean(&grid(true)));
    ctx.set("sim.chip.partition_gbps", partition);
    ctx.set("sim.chip.gather_gbps", find(Exp::Gather { dense: true, fixed: false }).value);
    ctx.set("sim.chip.core_busy_frac", find(Exp::Filter).aux);
    ctx.set("sim.chip.isa_ipc", isa.aux);
    let errs = [
        ("filter_cpt", cpt, PAPER_FILTER_CPT, "cycles/tuple, BVLD/FILT loop at 4096-row tiles"),
        ("dms_gbps", dms, PAPER_DMS_GBPS, "GB/s DMS read, 32 dpCores, 8 KB tiles (paper: >= 9)"),
        (
            "partition_gbps",
            partition,
            PAPER_PARTITION_GBPS,
            "GB/s 32-way partition, mean of 3 schemes",
        ),
    ];
    ctx.say(format!(
        "simulated: {sim_ms:.4} ms of chip time per pass; DMS at {:.1}% of DDR3 peak",
        100.0 * dms / ddr_peak
    ));
    ctx.say("accuracy against the paper's measured targets:");
    for (name, sim, paper, what) in errs {
        let err = sim / paper - 1.0;
        // Reported as |error| so that lower is better in either direction.
        ctx.set(format!("accuracy.{name}_err"), err.abs());
        ctx.say(format!(
            "  {name:<15} sim {sim:>8.4} vs paper {paper:>5.2}  error {:+.2}%  ({what})",
            100.0 * err
        ));
    }
    ctx.say("  No other part of the model is validated against hardware.");
}
