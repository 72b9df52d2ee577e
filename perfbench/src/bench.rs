//! The harness every workload shares: run context, failure accounting,
//! repeated set-up, the closed measurement loop and metric collection.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::speed::Speed;
use crate::stats;
use crate::trace::Tracer;

/// Set-up is repeated at least this many times; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
/// Set-up repeats until this much host time has passed (cheap set-ups
/// repeat more, so their median is steadier)…
const SETUP_MIN_SECONDS: f64 = 1.0;
/// …but never more often than this.
const SETUP_MAX_REPS: usize = 200;

/// One workload invocation's state and results.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Host seconds the timed phase measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// Pool width of set-up and the warm-up pass (≤ host CPUs). The timed
    /// phase and the probes run at width 1: with one worker an operation
    /// runs on one CPU, which the host-speed reference tracks, while at
    /// width 2 it also waits on the other CPU of a 2-CPU host, which the
    /// reference does not see.
    pub width: usize,
    /// The span recorder (off outside the traced phase).
    pub tr: Tracer,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name.
    pub layer: BTreeMap<String, f64>,
    /// Checked operations attempted.
    pub attempted: u64,
    /// Operations that failed (error, panic, oracle or digest mismatch).
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// Human-readable report lines, printed before the result.
    pub lines: Vec<String>,
}

impl Ctx {
    /// A fresh context.
    pub fn new(seed: u64, seconds: f64, traced: bool, width: usize) -> Self {
        Ctx {
            seed,
            seconds,
            traced,
            width,
            tr: Tracer::new(false),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Counts one checked operation; `Err` marks it failed.
    pub fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = r {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(msg);
            }
        }
    }

    /// Sets a per-layer metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    /// Adds a report line.
    pub fn say(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Runs `build` repeatedly (keeping one result alive at a time) and
    /// records the median host time, normalised to the nominal host
    /// speed (see [`crate::speed`]), as `setup_s`. Returns the last build.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Tracer, u64) -> T) -> T {
        let on = self.traced;
        self.tr.set_on(on);
        let mut durations = Vec::new();
        let mut wall = Vec::new();
        let mut last: Option<T> = None;
        let start = Instant::now();
        let mut speed = Speed::start(&mut self.tr);
        while durations.len() < SETUP_MIN_REPS
            || (start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS
                && durations.len() < SETUP_MAX_REPS)
        {
            drop(last.take());
            let rep = durations.len() as u64;
            let t0 = Instant::now();
            let built = self.tr.span("setup", "setup", rep, |tr| build(tr, rep));
            let s = t0.elapsed().as_secs_f64();
            speed.calibrate(&mut self.tr);
            durations.push(s * speed.factor(rep as usize));
            wall.push(s);
            last = Some(built);
        }
        self.tr.set_on(false);
        let setup_s = stats::median(&durations);
        self.e2e.insert("setup_s", setup_s);
        self.say(format!(
            "setup: median {setup_s:.4} s normalised ({:.4} s wall-clock) over {} repeats",
            stats::median(&wall),
            durations.len()
        ));
        last.expect("set-up ran at least once")
    }

    /// The summed duration in seconds of recorded spans of `layer`.
    pub fn span_sum_s(&self, layer: &str) -> f64 {
        let ns: u64 = self.tr.spans().iter().filter(|s| s.layer == layer).map(|s| s.dur_ns()).sum();
        ns as f64 / 1e9
    }

    /// The median duration in ms of recorded spans of `layer` (and
    /// `name`, when given); 0 when there are none.
    pub fn span_median_ms(&self, layer: &str, name: Option<&str>) -> f64 {
        let d: Vec<f64> = self
            .tr
            .spans()
            .iter()
            .filter(|s| s.layer == layer && name.is_none_or(|n| s.name == n))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d)
        }
    }
}

/// One successful operation of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host latency normalised to the nominal host speed, ms.
    pub ms: f64,
    /// Wall-clock host latency, ms.
    pub wall_ms: f64,
    /// Work units completed.
    pub work: f64,
}

/// What one closed loop measured.
#[derive(Debug, Clone)]
pub struct LoopOut {
    /// Operations run.
    pub ops: usize,
    /// Wall-clock host seconds from first start to last finish.
    pub secs: f64,
    /// Normalised host latency of each successful operation, ms, ascending.
    pub lat_ms: Vec<f64>,
    /// Wall-clock host latency of each successful operation, ms, ascending.
    pub wall_ms: Vec<f64>,
    /// Work units completed by successful operations.
    pub work: f64,
    /// Per position in the cycle (suite pass, sweep or chip pass): each
    /// successful run of that operation.
    pub by_class: Vec<Vec<Sample>>,
    /// Median reference-loop time over the loop, ms.
    pub ref_ms: f64,
}

impl LoopOut {
    /// Work per host second of a typical cycle: the work of one cycle
    /// over the sum of each of its operations' median latency (as `ms`
    /// reads it off a sample), so a burst of host noise that slows a
    /// minority of cycles does not move it.
    pub fn typical_rate(&self, ms: impl Fn(&Sample) -> f64) -> Option<f64> {
        let (mut work, mut secs) = (0.0, 0.0);
        for runs in self.by_class.iter().filter(|r| !r.is_empty()) {
            let lat: Vec<f64> = runs.iter().map(&ms).collect();
            secs += stats::median(&lat) / 1e3;
            work += runs.iter().map(|s| s.work).sum::<f64>() / runs.len() as f64;
        }
        (secs > 0.0).then(|| work / secs)
    }
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// Until `seconds` have passed and at least `min_ops` ran.
    After { seconds: f64, min_ops: usize },
    /// Exactly this many operations.
    Ops(usize),
}

/// Runs `op` in a closed loop with one client: operation `i + 1` starts
/// when operation `i` has finished. `op` returns the work units it
/// completed or why it failed; a panic counts as a failure. Failed
/// operations are not reported as latencies. The host speed is
/// calibrated between operations (see [`crate::speed`]).
fn closed_loop(
    ctx: &mut Ctx,
    stop: Stop,
    cycle: usize,
    mut op: impl FnMut(&mut Tracer, usize) -> Result<f64, String>,
) -> LoopOut {
    // (class, wall ms, work, latest calibration) of each successful op.
    let mut done_ops = Vec::new();
    let start = Instant::now();
    let mut speed = Speed::start(&mut ctx.tr);
    let mut i = 0usize;
    loop {
        let done = match stop {
            Stop::Ops(n) => i >= n,
            Stop::After { seconds, min_ops } => {
                i.is_multiple_of(cycle) && i >= min_ops && start.elapsed().as_secs_f64() >= seconds
            }
        };
        if done {
            break;
        }
        let k = speed.tick(&mut ctx.tr);
        let t0 = Instant::now();
        let span = ctx.tr.begin("op", "op", i as u64);
        let tr = &mut ctx.tr;
        let r = catch_unwind(AssertUnwindSafe(|| op(tr, i)))
            .unwrap_or_else(|_| Err(format!("operation {i} panicked")));
        ctx.tr.end(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Ok(w) = r {
            done_ops.push((i % cycle, ms, w, k));
        }
        ctx.record(r.map(|_| ()));
        i += 1;
    }
    speed.calibrate(&mut ctx.tr);
    let secs = start.elapsed().as_secs_f64();
    let mut by_class = vec![Vec::new(); cycle];
    for &(class, wall_ms, work, k) in &done_ops {
        by_class[class].push(Sample { ms: wall_ms * speed.factor(k), wall_ms, work });
    }
    let sorted = |f: fn(&Sample) -> f64| {
        let mut v: Vec<f64> = by_class.iter().flatten().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    LoopOut {
        ops: i,
        secs,
        lat_ms: sorted(|s| s.ms),
        wall_ms: sorted(|s| s.wall_ms),
        work: done_ops.iter().map(|o| o.2).sum(),
        by_class,
        ref_ms: speed.median_ms(),
    }
}

/// The timed phase: an untraced closed loop for `ctx.seconds`, and in
/// the traced run a second loop over the same operations with spans on.
/// Returns the untraced loop (the one end-to-end metrics come from).
pub fn timed_phase(
    ctx: &mut Ctx,
    min_ops: usize,
    cycle: usize,
    mut op: impl FnMut(&mut Tracer, usize) -> Result<f64, String>,
) -> LoopOut {
    let seconds = if ctx.traced { ctx.seconds / 2.0 } else { ctx.seconds };
    let plain = closed_loop(ctx, Stop::After { seconds, min_ops }, cycle, &mut op);
    if ctx.traced {
        ctx.tr.set_on(true);
        let root = ctx.tr.begin("bench", "timed", 0);
        let out = closed_loop(ctx, Stop::Ops(plain.ops), cycle, &mut op);
        ctx.tr.end(root);
        ctx.tr.set_on(false);
        let overhead = out.secs / plain.secs - 1.0;
        ctx.set("trace.overhead_frac", overhead);
        self_time_table(ctx);
    }
    plain
}

/// Prints the traced timed phase's self time per layer and records the
/// unattributed share (time in the loop itself, outside every layer).
fn self_time_table(ctx: &mut Ctx) {
    let Some(root) = ctx.tr.last("bench") else { return };
    let total = ctx.tr.spans()[root].dur_ns() as f64;
    let by_layer = crate::trace::layer_self_times(ctx.tr.spans(), root);
    ctx.say("self time of the traced timed phase, by layer:");
    let mut unattributed = 0.0;
    for (layer, ns) in &by_layer {
        let ns = *ns as f64;
        let label = match *layer {
            "bench" | "op" => {
                unattributed += ns;
                format!("{layer} (unattributed)")
            }
            other => other.to_string(),
        };
        ctx.lines.push(format!(
            "  {label:<24} {:>10.3} ms  {:>6.2}%",
            ns / 1e6,
            100.0 * ns / total
        ));
    }
    let sum: f64 = by_layer.values().map(|&v| v as f64).sum();
    ctx.say(format!(
        "  {:<24} {:>10.3} ms  (layers + unattributed = timed phase {:.3} ms)",
        "sum",
        sum / 1e6,
        total / 1e6
    ));
    ctx.set("trace.unattributed_frac", unattributed / total);
}

/// Records the host end-to-end metrics of a timed loop, normalised to
/// the nominal host speed: work per host second of a typical cycle (see
/// [`LoopOut::typical_rate`]) and per-operation latency (median and p95,
/// with the sample count). The wall-clock rate and median and the
/// reference time go to the per-layer metrics.
pub fn host_metrics(ctx: &mut Ctx, out: &LoopOut, unit_of_work: &str) {
    let n = out.lat_ms.len();
    if let Some(rate) = out.typical_rate(|s| s.ms) {
        ctx.e2e.insert("host_rate", rate);
    }
    if let Some(rate) = out.typical_rate(|s| s.wall_ms) {
        ctx.set("host.wall_rate", rate);
    }
    ctx.set("host.ref_ms", out.ref_ms);
    if n > 0 {
        ctx.e2e.insert("host_op_ms_p50", stats::percentile(&out.lat_ms, 0.5));
        ctx.set("host.wall_op_ms_p50", stats::percentile(&out.wall_ms, 0.5));
    }
    if stats::beyond(n, 0.95) >= stats::MIN_BEYOND {
        ctx.e2e.insert("host_op_ms_p95", stats::percentile(&out.lat_ms, 0.95));
    }
    let top = stats::highest_supported(n).map_or("none".to_string(), |q| format!("p{}", q * 100.0));
    ctx.say(format!(
        "timed phase: {} ops in {} cycles, {:.3} s, {:.4} {unit_of_work}/s overall (wall-clock); \
         {n} latency samples, highest supported percentile {top}; reference loop median {:.4} ms \
         (nominal {} ms)",
        out.ops,
        out.ops / out.by_class.len(),
        out.secs,
        out.work / out.secs,
        out.ref_ms,
        crate::speed::NOMINAL_MS
    ));
}
