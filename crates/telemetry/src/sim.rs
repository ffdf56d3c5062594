//! Bridge from the simulator's interval sampler to the telemetry plane.
//!
//! The sim engine's profiler emits *cumulative* counter snapshots
//! ([`CounterSample`]: the [`MemStats`] registry as of cycle `t`), with
//! the final sample equal to the run totals. Re-expressed as interval
//! deltas and filed into a [`Telemetry`] registry at each sample's own
//! cycle stamp, machine-level counters come out the same windowed,
//! delta-sum-exact shape as the serving harness's service metrics — one
//! observation plane for both layers, and [`Telemetry::finish`]
//! re-proves that the deltas reproduce the run totals. Samples arrive
//! in time order, so the registry is advanced to each sample's stamp
//! and holds only the window still open.

use crate::registry::{CounterId, Telemetry};
use gpstream_machine::{CounterSample, MemStats};

/// Build a windowed registry from cumulative interval samples. One
/// counter per [`MemStats`] field, in registry (declaration) order;
/// each interval's delta is stamped at the cycle its sample was taken.
///
/// # Panics
///
/// Panics if `window_cycles` is zero or the samples' cycle stamps are
/// not non-decreasing (the sampler emits them in time order).
#[must_use]
pub fn from_sim_samples(samples: &[CounterSample], window_cycles: u64) -> Telemetry {
    let mut t = Telemetry::new(window_cycles);
    let ids: Vec<CounterId> =
        MemStats::default().fields().iter().map(|(name, _)| t.counter(name)).collect();
    let mut prev = MemStats::default();
    let mut prev_t = 0u64;
    for s in samples {
        assert!(s.t >= prev_t, "interval samples must be in time order");
        prev_t = s.t;
        t.advance(s.t);
        let delta = s.stats.delta(&prev);
        for (&id, (_, v)) in ids.iter().zip(delta.fields().iter()) {
            if *v > 0 {
                t.add(id, s.t, *v);
            }
        }
        prev = s.stats;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, l2_misses: u64, bus_bytes: u64) -> CounterSample {
        CounterSample { t, stats: MemStats { l2_misses, bus_bytes, ..MemStats::default() } }
    }

    #[test]
    fn cumulative_samples_become_window_deltas_summing_to_totals() {
        let samples = [sample(100, 4, 64), sample(200, 9, 640), sample(350, 9, 704)];
        let s = from_sim_samples(&samples, 100).finish();
        let l2 = s.counter_names.iter().position(|n| n == "l2_misses").expect("field registered");
        let bus = s.counter_names.iter().position(|n| n == "bus_bytes").expect("field registered");
        assert_eq!(s.counter_totals[l2], 9);
        assert_eq!(s.counter_totals[bus], 704);
        // Sample at t=100 lands in window 1, t=200 in window 2, t=350 in
        // window 3; deltas are 4/5/0 misses and 64/576/64 bytes.
        let column = |i: usize| -> Vec<String> {
            s.csv.lines().skip(1).map(|r| r.split(',').nth(3 + i).unwrap().to_string()).collect()
        };
        assert_eq!(column(l2), ["0", "4", "5", "0"]);
        assert_eq!(column(bus), ["0", "64", "576", "64"]);
    }

    #[test]
    fn empty_sample_list_yields_empty_series() {
        let s = from_sim_samples(&[], 128).finish();
        assert_eq!(s.windows, 0);
        assert_eq!(s.counter_names.len(), MemStats::NUM_FIELDS);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_samples_are_rejected() {
        let _ = from_sim_samples(&[sample(200, 1, 1), sample(100, 2, 2)], 64);
    }
}
