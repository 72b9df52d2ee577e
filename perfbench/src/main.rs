//! The repository benchmark: one workload per invocation, measured in
//! host wall-clock and simulated DPU time, end to end and per layer.
//!
//! ```text
//! perfbench --workload <tpch_suite|tpch_failover|rack_serving>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The traced run also writes a Chrome trace-event file under
//! `.bench_trace/`. The process exits non-zero when any oracle or
//! determinism check fails. See `README.md` beside this crate.

mod bench;
mod chip;
mod digest;
mod json;
mod metrics;
mod probes;
mod serving;
mod speed;
mod stats;
mod tpch;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use bench::Ctx;
use trace::quote;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["tpch_suite", "tpch_failover", "rack_serving"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The run context every result records, as JSON object members.
fn context(args: &Args, width: usize, host_cpus: usize) -> String {
    let env = |k: &str| std::env::var(k).map_or("null".to_string(), |v| quote(&v));
    format!(
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"pool_width\":{width},\
         \"timed_pool_width\":1,\
         \"DPU_THREADS\":{},\"DPU_VECTOR\":{},\"DPU_VECTOR_resolved\":\"{:?}\",\
         \"DPU_PACK\":{},\"DPU_PACK_resolved\":\"{:?}\",\"host_cpus\":{host_cpus},\"sse4_2\":{}",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env("DPU_THREADS"),
        env("DPU_VECTOR"),
        dpu_sql::vector_kernel(),
        env("DPU_PACK"),
        dpu_sql::pack(),
        dpu_isa::hash::hw_crc_available(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = dpu_pool::global_threads().min(host_cpus);
    dpu_pool::set_global_threads(width);
    let ctx_json = context(&args, width, host_cpus);
    println!("context: {{{ctx_json}}}");

    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, width);
    match args.workload.as_str() {
        "tpch_suite" => tpch::suite(&mut ctx),
        "tpch_failover" => tpch::failover(&mut ctx),
        "rack_serving" => serving::run(&mut ctx),
        other => unreachable!("workload {other} was validated"),
    }
    if let Some(mb) = peak_rss_mb() {
        ctx.e2e.insert("peak_rss_mb", mb);
    }
    let fail_frac = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    ctx.set("fail_frac", fail_frac);

    for line in &ctx.lines {
        println!("{line}");
    }
    for p in &ctx.problems {
        println!("FAILED: {p}");
    }

    // Every listed metric must be present (per-layer metrics of layers a
    // workload does not exercise read 0) and finite.
    let mut missing = Vec::new();
    let mut out = String::new();
    let mut table = Vec::new();
    let mut emit = |name: &str, unit: &str, v: Option<f64>| match v {
        Some(v) if v.is_finite() => {
            if !out.is_empty() {
                out.push(',');
            }
            let _ = write!(out, "{}:{{\"value\":{v},\"unit\":{}}}", quote(name), quote(unit));
            table.push(format!("  {name:<32} {v:>16.6} {unit}"));
        }
        _ => missing.push(name.to_string()),
    };
    if args.trace {
        for (name, unit) in metrics::per_layer() {
            emit(&name, unit, Some(ctx.layer.get(&name).copied().unwrap_or(0.0)));
        }
    } else {
        for (name, unit) in metrics::END_TO_END {
            emit(name, unit, ctx.e2e.get(name).copied());
        }
    }
    println!("metrics ({}):", if args.trace { "per layer" } else { "end to end" });
    for line in &table {
        println!("{line}");
    }
    for name in &missing {
        println!("FAILED: metric {name} was not measured");
    }
    let correct = ctx.failed == 0 && missing.is_empty();

    if args.trace {
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{}-{}.json", args.workload, args.seed));
        match ctx.tr.write_chrome(&path, &ctx_json) {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), ctx.tr.spans().len()),
            Err(e) => println!("trace: not written: {e}"),
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{out}}}}}",
        ctx.attempted.max(1),
        ctx.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
