//! The serving event core: one deterministic discrete-event engine
//! behind both serving front-ends ([`crate::serve`], [`crate::tenant`]).
//!
//! [`run`] owns the `(time, seq)` event heap, the servers and their
//! epochs, same-template FIFO batching, dispatch costing, preemption and
//! the report arithmetic, and takes exactly two parameters: the
//! [`Arrivals`] process and the dispatch [`Policy`]. Time is f64
//! seconds: the integer-cycle `dpu_sim::EventQueue` would quantise
//! every serving latency.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dpu_sim::SplitMix64;

use crate::fabric::ServeFabric;
use crate::serve::{AdaptiveBatch, DegradedWindow, ServeConfig, ServeHook, Template};
use crate::tenant::{Tenant, TenantServeConfig};

/// f64 with a total order, for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// An index into the open-loop stream (always 0 for closed-loop
    /// clients, which are interchangeable).
    Arrival(usize),
    /// A completion, live only while the server's epoch is unchanged (a
    /// preemption bumps it).
    Complete { server: usize, epoch: u64 },
}

/// The event heap; `seq` orders simultaneous events by insertion.
#[derive(Default)]
struct Clock {
    heap: BinaryHeap<Reverse<(OrdF64, u64, Event)>>,
    seq: u64,
}

impl Clock {
    fn push(&mut self, at: f64, ev: Event) {
        self.heap.push(Reverse((OrdF64(at), self.seq, ev)));
        self.seq += 1;
    }
}

/// Where queries come from.
pub(crate) enum Arrivals {
    /// Closed-loop clients, each returning an exponential think time
    /// (mean `think_seconds`) after its batch completes. All draw from
    /// `rng` in a fixed order: a think per client at start, a template on
    /// every arrival (admitted or not), a think on each reject, and a
    /// think per query at dispatch. A query's outcome is fixed at
    /// dispatch, so batches still in flight at the horizon count.
    Closed { clients: usize, think_seconds: f64, rng: SplitMix64 },
    /// Pre-generated `(time, class, template)`, sorted by time. Only
    /// completions inside the horizon count.
    Open(Vec<(f64, usize, usize)>),
}

/// One exponential think time (drawn even at zero mean).
fn think(rng: &mut SplitMix64, mean: f64) -> f64 {
    let u = rng.next_f64();
    if mean > 0.0 {
        -(1.0 - u).ln() * mean
    } else {
        0.0
    }
}

/// A queue class (a tenant, or the single FIFO queue), the admission
/// slots it owns, and the SLO its latencies are scored against.
struct Class {
    priority: u8,
    weight: f64,
    slots: usize,
    slo: Option<f64>,
}

/// How admitted queries are queued and dispatched.
pub(crate) struct Policy {
    classes: Vec<Class>,
    servers: usize,
    max_batch: usize,
    admit_cap: usize,
    controller: Option<AdaptiveBatch>,
    preemption: bool,
}

impl Policy {
    /// One FIFO queue, batches capped at `max_batch` or by the
    /// [`AdaptiveBatch`] controller.
    pub(crate) fn fifo(cfg: &ServeConfig) -> Policy {
        let slo = cfg.slo_seconds;
        Policy {
            classes: vec![Class { priority: 0, weight: 1.0, slots: cfg.admit_cap, slo }],
            servers: cfg.concurrency,
            max_batch: cfg.max_batch,
            admit_cap: cfg.admit_cap,
            controller: cfg.adaptive.then(|| AdaptiveBatch::new(cfg.max_batch, slo)),
            preemption: false,
        }
    }

    /// One queue per tenant, owning a weight-proportional share of the
    /// admission cap (at least one slot, so no tenant is locked out).
    pub(crate) fn fair(tenants: &[Tenant], cfg: &TenantServeConfig) -> Policy {
        let total_weight: f64 = tenants.iter().map(|t| t.weight).sum();
        let share = |w: f64| ((w / total_weight * cfg.admit_cap as f64).ceil() as usize).max(1);
        Policy {
            classes: tenants
                .iter()
                .map(|t| Class {
                    priority: t.priority,
                    weight: t.weight,
                    slots: share(t.weight),
                    slo: Some(t.slo_seconds),
                })
                .collect(),
            servers: cfg.concurrency,
            max_batch: cfg.max_batch,
            admit_cap: cfg.admit_cap,
            controller: None,
            preemption: cfg.preemption,
        }
    }
}

/// Per-class counters and latency statistics of one run.
#[derive(Clone, Default)]
pub(crate) struct Tally {
    pub arrived: u64,
    pub admitted: u64,
    pub rejected: u64,
    /// Preemption kills (a query preempted twice counts twice).
    pub preempted: u64,
    /// Latencies of the counted completions, ascending after the run.
    pub latencies: Vec<f64>,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Fraction at or under the SLO (1.0 without an SLO or samples).
    pub slo_attainment: f64,
}

impl Tally {
    /// Sorts the latencies, so the mean's bits do not depend on the order
    /// completions were recorded in, and summarises them.
    fn summarize(&mut self, slo: Option<f64>) {
        self.latencies.sort_by(f64::total_cmp);
        let (l, n) = (&self.latencies, self.latencies.len());
        self.mean = if n == 0 { 0.0 } else { l.iter().sum::<f64>() / n as f64 };
        [self.p50, self.p95, self.p99] = [0.50, 0.95, 0.99].map(|p| percentile(l, p));
        self.slo_attainment = match slo {
            Some(s) if n > 0 => l.iter().filter(|&&x| x <= s).count() as f64 / n as f64,
            _ => 1.0,
        };
    }
}

/// The nearest-rank `p` quantile of ascending `sorted` (0 when empty).
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

/// What one run measured.
#[derive(Default)]
pub(crate) struct Outcome {
    pub classes: Vec<Tally>,
    /// Counted completions across classes.
    pub completed: u64,
    /// Admitted queries still queued at the horizon.
    pub queued: u64,
    /// Batches counted as completed.
    pub batches: u64,
    pub preemptions: u64,
    pub wasted_seconds: f64,
    /// Mean per-query fabric phase `(shared, isolated)`, seconds.
    pub mean_fabric_seconds: (f64, f64),
    /// QPS before, inside and after the window (all "before" without one).
    pub qps_buckets: [f64; 3],
}

/// A batch in flight: its class, template, dispatch and completion
/// times, and each query's arrival time in FIFO order.
struct Batch {
    class: usize,
    tmpl: usize,
    start: f64,
    done: f64,
    arrivals: Vec<f64>,
}

/// Runs one serving simulation to `horizon` seconds. A shared `fabric`
/// charges every batch's shuffle against bandwidth servers, `window`
/// slows batches dispatched inside it, and `hook` may substitute each
/// dispatch's cost and sees every counted batch.
///
/// # Panics
///
/// Panics if `templates` is empty, the horizon, batch cap, admission cap
/// or server count is zero, or the window is inverted or its factor is
/// below 1.
pub(crate) fn run(
    templates: &[Template],
    horizon: f64,
    mut arrivals: Arrivals,
    mut policy: Policy,
    window: Option<&DegradedWindow>,
    mut fabric: Option<ServeFabric>,
    mut hook: Option<&mut dyn ServeHook>,
) -> Outcome {
    assert!(!templates.is_empty(), "need at least one template");
    assert!(horizon > 0.0 && policy.max_batch > 0 && policy.admit_cap > 0, "degenerate config");
    assert!(policy.servers > 0, "need at least one server");
    if let Some(w) = window {
        assert!(w.from_seconds <= w.until_seconds, "inverted degraded window");
        assert!(w.cost_factor >= 1.0, "a degraded window cannot speed the cluster up");
    }
    let (n_classes, n_srv, n_tmpl) = (policy.classes.len(), policy.servers, templates.len());
    let mut out = Outcome { classes: vec![Tally::default(); n_classes], ..Outcome::default() };
    let (mut done_times, mut fabric_sum, mut fabric_iso_sum) = (Vec::new(), 0.0f64, 0.0f64);
    let mut clock = Clock::default();
    let mut queues: Vec<VecDeque<(f64, usize)>> = vec![VecDeque::new(); n_classes];
    let mut servers: Vec<Option<Batch>> = (0..n_srv).map(|_| None).collect();
    let mut epochs = vec![0u64; n_srv];
    // Start-time fair queueing: a batch's start tag is max(class finish
    // tag, vnow), its finish tag adds service / weight, and vnow
    // advances to the start tag — so a backlogged class's tag grows by
    // service/weight per batch and idleness never erases the difference.
    let (mut vtime, mut vnow) = (vec![0.0f64; n_classes], 0.0f64);
    match &mut arrivals {
        Arrivals::Closed { clients, think_seconds, rng } => {
            (0..*clients).for_each(|_| clock.push(think(rng, *think_seconds), Event::Arrival(0)))
        }
        Arrivals::Open(s) => {
            s.iter().enumerate().for_each(|(i, a)| clock.push(a.0, Event::Arrival(i)))
        }
    }
    let closed = matches!(arrivals, Arrivals::Closed { .. });
    let mut last_now = f64::NEG_INFINITY;

    while let Some(Reverse((OrdF64(now), _, ev))) = clock.heap.pop() {
        debug_assert!(now >= last_now, "simulated clock ran backwards: {now} < {last_now}");
        last_now = now;
        // Past the horizon nothing arrives or dispatches; the closed loop
        // still counts its in-flight batches, in completion order.
        let past = now > horizon;
        if past && !closed {
            break;
        }
        let queued: usize = queues.iter().map(VecDeque::len).sum();
        match ev {
            Event::Arrival(_) if past => continue,
            Event::Arrival(i) => {
                let (class, tmpl) = match &mut arrivals {
                    Arrivals::Closed { rng, .. } => {
                        (0, (rng.next_f64() * n_tmpl as f64) as usize % n_tmpl)
                    }
                    Arrivals::Open(s) => (s[i].1, s[i].2),
                };
                let tally = &mut out.classes[class];
                tally.arrived += 1;
                if queues[class].len() >= policy.classes[class].slots || queued >= policy.admit_cap
                {
                    tally.rejected += 1;
                    if let Arrivals::Closed { think_seconds, rng, .. } = &mut arrivals {
                        // A full queue means every server is busy, so
                        // retrying no earlier than the next completion
                        // keeps the clock moving even with zero think.
                        let think = think(rng, *think_seconds);
                        let next_done =
                            servers.iter().flatten().map(|b| b.done).fold(f64::INFINITY, f64::min);
                        let floor = if next_done.is_finite() { next_done } else { now };
                        clock.push((now + think).max(floor), Event::Arrival(0));
                    }
                    continue;
                }
                tally.admitted += 1;
                queues[class].push_back((now, tmpl));
                // Preemption: every server busy and the arrival outranks
                // an in-flight batch. Victim: lowest priority, then latest
                // finisher (least sunk work per second reclaimed), then
                // lowest server index.
                let prio = |c: usize| policy.classes[c].priority;
                let all_busy = servers.iter().all(Option::is_some);
                let victim = servers
                    .iter()
                    .enumerate()
                    .filter_map(|(s, b)| Some((s, b.as_ref()?)))
                    .filter(|(_, b)| policy.preemption && all_busy && prio(b.class) < prio(class))
                    .min_by(|(sa, a), (sb, b)| {
                        prio(a.class)
                            .cmp(&prio(b.class))
                            .then(b.done.total_cmp(&a.done))
                            .then(sa.cmp(sb))
                    })
                    .map(|(s, _)| s);
                if let Some(s) = victim {
                    let b = servers[s].take().expect("victim is in flight");
                    epochs[s] += 1; // its completion event is now stale
                    out.preemptions += 1;
                    out.classes[b.class].preempted += b.arrivals.len() as u64;
                    out.wasted_seconds += now - b.start;
                    // Requeue at the front with arrival times kept, so the
                    // eventual latency still charges the delay.
                    for &arr in b.arrivals.iter().rev() {
                        queues[b.class].push_front((arr, b.tmpl));
                    }
                }
            }
            Event::Complete { server, epoch } => {
                if epoch != epochs[server] {
                    continue; // a preempted batch's ghost completion
                }
                let b = servers[server].take().expect("live completion on an idle server");
                // Reported at completion, never at dispatch: a hook may
                // only act on batches that have finished by `now`.
                if let Some(h) = hook.as_deref_mut() {
                    h.on_batch(b.tmpl, b.arrivals.len(), b.done - b.start, b.done);
                }
                for &arr in &b.arrivals {
                    out.classes[b.class].latencies.push(b.done - arr);
                    done_times.push(b.done);
                    if let Some(ctl) = &mut policy.controller {
                        ctl.observe(b.done - arr, queued);
                    }
                }
                out.batches += 1;
                if past {
                    continue;
                }
            }
        }

        // Dispatch while a server is idle and work is queued: highest
        // priority class first, then smallest virtual time, then input
        // order.
        while let Some(srv) = servers.iter().position(Option::is_none) {
            let Some(class) = (0..n_classes).filter(|&c| !queues[c].is_empty()).max_by(|&a, &b| {
                let (pa, pb) = (policy.classes[a].priority, policy.classes[b].priority);
                pa.cmp(&pb).then(vtime[b].total_cmp(&vtime[a])).then(b.cmp(&a))
            }) else {
                break;
            };
            let queued: usize = queues.iter().map(VecDeque::len).sum();
            let cap = policy.controller.as_ref().map_or(policy.max_batch, |c| c.depth(queued));
            // Same-template FIFO batch of up to `cap` queries.
            let tmpl = queues[class][0].1;
            let mut batch = Vec::new();
            queues[class].retain(|&(arr, t)| {
                let take = t == tmpl && batch.len() < cap;
                if take {
                    batch.push(arr);
                }
                !take
            });
            let k = batch.len();
            let factor = match window {
                Some(w) if now >= w.from_seconds && now < w.until_seconds => w.cost_factor,
                _ => 1.0,
            };
            let hooked = hook.as_deref_mut().and_then(|h| h.template_cost(tmpl, now));
            let cost = hooked.as_ref().unwrap_or(&templates[tmpl].cost);
            let iso = k as f64 * cost.fabric_seconds;
            let done = match &mut fabric {
                Some(sf) => {
                    // Local phase, then the batch's fabric phase against
                    // the shared servers, then the merges. The window
                    // slows the compute phases; the fabric keeps its rate.
                    let local_end = now + factor * cost.batch_local_seconds(k);
                    let fab = sf.charge(local_end, k as u64 * cost.fabric_bytes, iso);
                    fabric_sum += fab;
                    local_end + fab + factor * k as f64 * cost.merge_seconds
                }
                None => {
                    fabric_sum += iso;
                    now + factor * cost.batch_seconds(k)
                }
            };
            fabric_iso_sum += iso;
            let start_tag = vtime[class].max(vnow);
            vtime[class] = start_tag + (done - now) / policy.classes[class].weight;
            vnow = start_tag;
            if let Arrivals::Closed { think_seconds, rng, .. } = &mut arrivals {
                // Each issuing client comes back after a think time.
                for _ in 0..k {
                    clock.push(done + think(rng, *think_seconds), Event::Arrival(0));
                }
            }
            servers[srv] = Some(Batch { class, tmpl, start: now, done, arrivals: batch });
            clock.push(done, Event::Complete { server: srv, epoch: epochs[srv] });
        }
    }
    out.queued = queues.iter().map(VecDeque::len).sum::<usize>() as u64;
    for (tally, class) in out.classes.iter_mut().zip(&policy.classes) {
        tally.summarize(class.slo);
    }
    out.completed = out.classes.iter().map(|c| c.latencies.len() as u64).sum();
    let n = out.completed as f64;
    if n > 0.0 {
        out.mean_fabric_seconds = (fabric_sum / n, fabric_iso_sum / n);
    }
    let (from, until) = window.map_or((horizon, horizon), |w| {
        (w.from_seconds.min(horizon), w.until_seconds.min(horizon))
    });
    let qps = |lo: f64, hi: f64| {
        let n = done_times.iter().filter(|&&d| d >= lo && d < hi).count() as f64;
        if hi > lo {
            n / (hi - lo)
        } else {
            0.0
        }
    };
    out.qps_buckets = [qps(0.0, from), qps(from, until), qps(until, horizon)];
    out
}
