//! Host-speed normalisation of host times.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent from one second to the next (neighbours' load, frequency
//! changes), so a raw wall-clock time says as much about the host's
//! moment as about the program. Every host time an end-to-end metric is
//! made from is therefore taken together with the time of a fixed
//! reference loop, measured just before and just after it, and scaled to
//! a host on which that loop takes [`NOMINAL_MS`]:
//! `t × NOMINAL_MS / reference_ms`. A change to the program moves its
//! own time and not the reference's, so it still shows in full; a
//! slowdown of the whole host moves both and cancels.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::stats;
use crate::trace::Tracer;

/// The reference loop's time, ms, on the host the benchmark was defined
/// on (a 2-vCPU Intel Xeon virtual machine) at its fastest. Normalised
/// times read as wall-clock times on that host.
pub const NOMINAL_MS: f64 = 0.35;
/// Pending events in the reference loop's queue.
const PENDING: u64 = 1024;
/// Events the reference loop processes per timing.
const EVENTS: u64 = 4000;
/// Timings per calibration; the fastest is kept, so an interrupt during
/// one of them does not count.
const REPS: usize = 5;
/// Host seconds between two calibrations of a closed loop.
const INTERVAL_S: f64 = 0.05;

/// One calibration: the fastest of [`REPS`] timings, in ms, of a fixed
/// discrete-event kernel (a binary heap of [`PENDING`] events, each pop
/// scheduling one later event), the shape of the serving loops.
pub fn reference_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
            (0..PENDING).map(|k| Reverse((next() >> 40, k))).collect();
        for _ in 0..EVENTS {
            let Reverse((t, k)) = heap.pop().expect("the queue is never empty");
            heap.push(Reverse((t + (next() >> 44), k)));
        }
        std::hint::black_box(&heap);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The calibrations taken during one measured phase, in order.
pub struct Speed {
    refs: Vec<f64>,
    last: Instant,
}

impl Speed {
    /// Starts a phase with one calibration.
    pub fn start(tr: &mut Tracer) -> Self {
        let mut s = Speed { refs: Vec::new(), last: Instant::now() };
        s.calibrate(tr);
        s
    }

    /// Calibrates now, inside a `calibrate` span.
    pub fn calibrate(&mut self, tr: &mut Tracer) {
        let n = self.refs.len() as u64;
        let ms = tr.span("calibrate", "reference", n, |_| reference_ms());
        self.refs.push(ms);
        self.last = Instant::now();
    }

    /// Calibrates when [`INTERVAL_S`] has passed since the last
    /// calibration. Returns the index of the latest calibration, which a
    /// measurement that starts now is scaled by (with the one after it).
    pub fn tick(&mut self, tr: &mut Tracer) -> usize {
        if self.last.elapsed().as_secs_f64() >= INTERVAL_S {
            self.calibrate(tr);
        }
        self.refs.len() - 1
    }

    /// The factor that scales a time measured after calibration `k` (and
    /// before `k + 1`, which must exist: calibrate once more at the end)
    /// to the nominal host.
    pub fn factor(&self, k: usize) -> f64 {
        NOMINAL_MS / ((self.refs[k] + self.refs[k + 1]) / 2.0)
    }

    /// The median calibration, ms.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_time_is_scaled_by_the_calibrations_around_it() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        let mut s = Speed {
            refs: vec![NOMINAL_MS, 2.0 * NOMINAL_MS, 4.0 * NOMINAL_MS],
            last: Instant::now(),
        };
        assert!(close(s.factor(0), 1.0 / 1.5));
        assert!(close(s.factor(1), 1.0 / 3.0));
        s.refs = vec![NOMINAL_MS / 2.0; 2];
        assert!(close(s.factor(0), 2.0));
        assert_eq!(s.median_ms(), NOMINAL_MS / 2.0);
    }

    #[test]
    fn calibrations_follow_the_interval() {
        let mut tr = Tracer::new(false);
        let mut s = Speed::start(&mut tr);
        assert_eq!(s.tick(&mut tr), 0);
        s.last -= std::time::Duration::from_secs_f64(INTERVAL_S);
        assert_eq!(s.tick(&mut tr), 1);
        assert!(s.refs.iter().all(|&ms| ms > 0.0 && ms.is_finite()));
    }
}
