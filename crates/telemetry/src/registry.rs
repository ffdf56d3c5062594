//! A deterministic metrics registry with tumbling windows in virtual time
//! that streams its exports as the run goes.
//!
//! Producers register named instruments up front (a counter, a gauge, or
//! an exact [`Histogram`]) and then stamp every update with the virtual
//! cycle it happened at. The registry buckets updates into tumbling
//! windows of `window_cycles` each — window `k` covers cycles
//! `[k * window_cycles, (k+1) * window_cycles)` — keyed by
//! `cycle / window_cycles` in a `BTreeMap`, so out-of-order stamps (a
//! batch whose completions land before an earlier batch's) file into the
//! right window.
//!
//! The producer may call [`Telemetry::advance`] with its event-loop
//! clock: it promises every later stamp is `>= now` (a stamp behind the
//! watermark panics), so every window before the watermark is final. Those
//! windows are evicted and appended to the registry's own CSV/JSON
//! exports, which keeps registry memory at O(open windows) however long
//! the run. [`Telemetry::finish`] flushes what is left and returns the
//! [`Series`]. A registry that is never advanced holds every window until
//! `finish`; its exports are byte-identical to an advanced one's on the
//! same stamps (property-tested).
//!
//! The contract that makes the time series trustworthy:
//!
//! * **Counters** store per-window *deltas* plus a separately-maintained
//!   run total; the flushed deltas must sum to the total exactly
//!   (asserted by [`Telemetry::finish`], not assumed).
//! * **Histograms** store a per-window exact `Histogram` plus a
//!   run-total [`Estimator`] fed by the same `record` calls — exact by
//!   default ([`Telemetry::hist`]), a bounded-memory sketch on request
//!   ([`Telemetry::hist_sketch`]). Folding the flushed windows into a
//!   fresh estimator of the same kind must equal the total byte-for-byte
//!   (both kinds are value-determined, and a sketch is a pure function of
//!   its sample multiset).
//! * **Gauges** are last-writer-wins per window (greatest stamp wins,
//!   later write breaking ties) and carry forward across empty windows
//!   in the dense series — a gauge is a level, not a flow.
//!
//! Nothing here reads a clock: determinism is inherited from the
//! producer's virtual time, which is what lets the serving harness emit
//! byte-identical CSV/JSON series across runs and exec-pool thread
//! counts.

use gpstream_util::{Estimator, Histogram, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Debug, Clone)]
struct Counter {
    name: String,
    total: u64,
    /// Sum of the deltas of every flushed window.
    flushed: u64,
    windows: BTreeMap<u64, u64>,
}

#[derive(Debug, Clone)]
struct Gauge {
    name: String,
    /// Level as of the last flushed window (carried forward).
    level: u64,
    /// Per window: the `(cycle, value)` pair with the greatest stamp.
    windows: BTreeMap<u64, (u64, u64)>,
}

#[derive(Debug, Clone)]
struct Hist {
    name: String,
    total: Estimator,
    /// The flushed windows folded into a fresh estimator of `total`'s kind.
    flushed: Estimator,
    windows: BTreeMap<u64, Histogram>,
}

/// A windowed metrics registry stamped in virtual cycles.
#[derive(Debug, Clone)]
pub struct Telemetry {
    window_cycles: u64,
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    hists: Vec<Hist>,
    /// Window of the latest [`Self::advance`]; stamps before it panic.
    watermark: u64,
    /// One past the last window any stamp touched (0: none yet).
    touched: u64,
    /// Windows `0..flushed` are exported and evicted.
    flushed: u64,
    /// CSV rows of the flushed windows (the header is added at finish).
    csv_rows: String,
    /// Comma-joined JSON objects of the flushed windows.
    json_windows: String,
}

impl Telemetry {
    /// A registry whose tumbling windows are `window_cycles` long.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    #[must_use]
    pub fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "telemetry window must be at least one cycle");
        Self {
            window_cycles,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            watermark: 0,
            touched: 0,
            flushed: 0,
            csv_rows: String::new(),
            json_windows: String::new(),
        }
    }

    /// Window length in cycles.
    #[must_use]
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    fn register(&self, name: &str) -> String {
        assert_eq!(self.flushed, 0, "register {name:?} before any window is flushed");
        let taken = self
            .counters
            .iter()
            .map(|c| c.name.as_str())
            .chain(self.gauges.iter().map(|g| g.name.as_str()))
            .chain(self.hists.iter().map(|h| h.name.as_str()))
            .any(|n| n == name);
        assert!(!taken, "telemetry instrument {name:?} registered twice");
        name.to_string()
    }

    /// Register a monotonically accumulating counter.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken or a window was already flushed.
    pub fn counter(&mut self, name: &str) -> CounterId {
        let name = self.register(name);
        self.counters.push(Counter { name, total: 0, flushed: 0, windows: BTreeMap::new() });
        CounterId(self.counters.len() - 1)
    }

    /// Register a last-writer-wins level gauge.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken or a window was already flushed.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        let name = self.register(name);
        self.gauges.push(Gauge { name, level: 0, windows: BTreeMap::new() });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a histogram whose run total is an exact [`Histogram`].
    ///
    /// # Panics
    ///
    /// Panics if the name is taken or a window was already flushed.
    pub fn hist(&mut self, name: &str) -> HistId {
        self.hist_with(name, Estimator::new_exact())
    }

    /// Register a histogram whose run total is a bounded-memory
    /// [`Sketch`](gpstream_util::Sketch) with relative-error bound
    /// `gamma`. Per-window histograms stay exact either way — a window
    /// holds few distinct values and is evicted once flushed, so the run
    /// total is the only O(run-length) state worth bounding.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken or a window was already flushed.
    pub fn hist_sketch(&mut self, name: &str, gamma: f64) -> HistId {
        self.hist_with(name, Estimator::new_sketch(gamma))
    }

    fn hist_with(&mut self, name: &str, total: Estimator) -> HistId {
        let name = self.register(name);
        let flushed = total.fresh_like();
        self.hists.push(Hist { name, total, flushed, windows: BTreeMap::new() });
        HistId(self.hists.len() - 1)
    }

    /// The window `cycle` falls in, which must not be behind the
    /// watermark.
    fn open_window(&mut self, cycle: u64) -> u64 {
        let w = cycle / self.window_cycles;
        assert!(
            w >= self.watermark,
            "stamp at cycle {cycle} lands in flushed window {w} (watermark {})",
            self.watermark
        );
        self.touched = self.touched.max(w + 1);
        w
    }

    /// Add `delta` to a counter at virtual cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` lies in a window behind the watermark.
    pub fn add(&mut self, id: CounterId, cycle: u64, delta: u64) {
        let w = self.open_window(cycle);
        let c = &mut self.counters[id.0];
        c.total += delta;
        *c.windows.entry(w).or_insert(0) += delta;
    }

    /// Set a gauge to `value` at virtual cycle `cycle`. Within a window
    /// the greatest stamp wins; an equal stamp lets the later write win.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` lies in a window behind the watermark.
    pub fn set(&mut self, id: GaugeId, cycle: u64, value: u64) {
        let w = self.open_window(cycle);
        let slot = self.gauges[id.0].windows.entry(w).or_insert((cycle, value));
        if cycle >= slot.0 {
            *slot = (cycle, value);
        }
    }

    /// Record `value` into a histogram at virtual cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` lies in a window behind the watermark.
    pub fn observe(&mut self, id: HistId, cycle: u64, value: u64) {
        let w = self.open_window(cycle);
        let h = &mut self.hists[id.0];
        h.total.record(value);
        h.windows.entry(w).or_default().record(value);
    }

    /// Advance the watermark to the producer's event-loop clock `now`
    /// and flush every window that ends at or before it. Safe exactly
    /// when every later stamp is `>= now`, which an event-driven
    /// producer handling events in time order gets for free. Windows
    /// past the last one any stamp touched stay open, so the series
    /// never grows trailing windows that a never-advanced registry
    /// would not have.
    pub fn advance(&mut self, now: u64) {
        self.watermark = self.watermark.max(now / self.window_cycles);
        while self.flushed < self.watermark.min(self.touched) {
            self.flush_next();
        }
    }

    /// Evict the oldest unflushed window and append it to the exports.
    fn flush_next(&mut self) {
        let w = self.flushed;
        self.flushed += 1;
        let (start, end) = (w * self.window_cycles, (w + 1) * self.window_cycles);
        let csv = &mut self.csv_rows;
        let _ = write!(csv, "{w},{start},{end}");
        let mut counters = Vec::with_capacity(self.counters.len());
        for c in &mut self.counters {
            let delta = c.windows.remove(&w).unwrap_or(0);
            c.flushed += delta;
            let _ = write!(csv, ",{delta}");
            counters.push(Json::U64(delta));
        }
        let mut gauges = Vec::with_capacity(self.gauges.len());
        for g in &mut self.gauges {
            if let Some((_, v)) = g.windows.remove(&w) {
                g.level = v;
            }
            let _ = write!(csv, ",{}", g.level);
            gauges.push(Json::U64(g.level));
        }
        let mut hists = Vec::with_capacity(self.hists.len());
        for h in &mut self.hists {
            let win = h.windows.remove(&w).unwrap_or_default();
            h.flushed.merge_hist(&win);
            let (p50, p99, p999) = win.p50_p99_p999();
            let max = win.max().unwrap_or(0);
            let _ = write!(csv, ",{},{p50},{p99},{p999},{max}", win.count());
            hists.push(win.summary_json());
        }
        csv.push('\n');
        if w > 0 {
            self.json_windows.push(',');
        }
        Json::obj([
            ("window", Json::U64(w)),
            ("start_cycle", Json::U64(start)),
            ("end_cycle", Json::U64(end)),
            ("counters", Json::Arr(counters)),
            ("gauges", Json::Arr(gauges)),
            ("hists", Json::Arr(hists)),
        ])
        .write(&mut self.json_windows);
    }

    /// Flush every remaining window (dense through the last one any
    /// stamp touched), re-assert the sum-to-total and re-merge
    /// invariants over the flushed stream, and return the exports.
    ///
    /// # Panics
    ///
    /// Panics if a counter's flushed deltas fail to sum to its run total
    /// or a histogram's flushed windows fail to re-merge to its run-total
    /// estimator — a corrupt series must never be exported silently.
    #[must_use]
    pub fn finish(mut self) -> Series {
        while self.flushed < self.touched {
            self.flush_next();
        }
        for c in &self.counters {
            assert_eq!(
                c.flushed, c.total,
                "counter {} flushed deltas must sum to run total",
                c.name
            );
        }
        for h in &self.hists {
            assert_eq!(
                h.flushed, h.total,
                "hist {} flushed windows must re-merge to run total",
                h.name
            );
        }
        let counter_names: Vec<String> = self.counters.iter().map(|c| c.name.clone()).collect();
        let gauge_names: Vec<String> = self.gauges.iter().map(|g| g.name.clone()).collect();
        let hist_names: Vec<String> = self.hists.iter().map(|h| h.name.clone()).collect();
        let counter_totals: Vec<u64> = self.counters.iter().map(|c| c.total).collect();
        let hist_totals: Vec<Estimator> = self.hists.into_iter().map(|h| h.total).collect();

        let mut csv = String::from("window,start_cycle,end_cycle");
        for n in counter_names.iter().chain(&gauge_names) {
            let _ = write!(csv, ",{n}");
        }
        for n in &hist_names {
            for suffix in ["count", "p50", "p99", "p999", "max"] {
                let _ = write!(csv, ",{n}_{suffix}");
            }
        }
        csv.push('\n');
        csv.push_str(&self.csv_rows);

        // The window array precedes the totals so the document can be
        // assembled from windows serialized as they were flushed.
        let names = |ns: &[String]| Json::arr(ns.iter().map(|n| Json::Str(n.clone())));
        let mut json = String::from("{\"window_cycles\":");
        let _ = write!(json, "{}", self.window_cycles);
        for (key, ns) in [("counters", &counter_names), ("gauges", &gauge_names)] {
            let _ = write!(json, ",\"{key}\":{}", names(ns));
        }
        let _ = write!(json, ",\"hists\":{},\"windows\":[", names(&hist_names));
        json.push_str(&self.json_windows);
        json.push_str("],\"totals\":");
        Json::obj([
            ("counters", Json::arr(counter_totals.iter().map(|&v| Json::U64(v)))),
            ("hists", Json::arr(hist_totals.iter().map(Estimator::summary_json))),
        ])
        .write(&mut json);
        json.push_str("}\n");

        Series {
            window_cycles: self.window_cycles,
            counter_names,
            gauge_names,
            hist_names,
            counter_totals,
            hist_totals,
            windows: self.flushed,
            csv,
            json,
        }
    }
}

/// The exports of a finished registry: names, run totals and the
/// rendered CSV/JSON documents. Per-window state lives only in the
/// documents.
#[derive(Debug, Clone)]
pub struct Series {
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Counter names, in registration order.
    pub counter_names: Vec<String>,
    /// Gauge names, in registration order.
    pub gauge_names: Vec<String>,
    /// Histogram names, in registration order.
    pub hist_names: Vec<String>,
    /// Run totals per counter (asserted equal to the window-delta sums).
    pub counter_totals: Vec<u64>,
    /// Run-total estimators (asserted equal to re-merging the windows).
    pub hist_totals: Vec<Estimator>,
    /// Number of windows, dense from index 0 through the last one any
    /// stamp touched.
    pub windows: u64,
    /// CSV document: one row per window. Counters are per-window deltas,
    /// gauges end-of-window levels, and histograms expand to
    /// `count/p50/p99/p999/max` columns.
    pub csv: String,
    /// Canonical one-line JSON document (with trailing newline) of every
    /// window plus the run totals.
    pub json: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpstream_util::check::run_cases;

    /// The CSV body without its header row.
    fn rows(s: &Series) -> Vec<&str> {
        s.csv.lines().skip(1).collect()
    }

    #[test]
    fn counter_deltas_sum_to_total() {
        let mut t = Telemetry::new(100);
        let c = t.counter("jobs");
        t.add(c, 5, 1);
        t.add(c, 99, 2);
        t.add(c, 100, 3); // next window
        t.add(c, 950, 4);
        let s = t.finish();
        assert_eq!(s.windows, 10);
        let r = rows(&s);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0], "0,0,100,3");
        assert_eq!(r[1], "1,100,200,3");
        assert_eq!(r[9], "9,900,1000,4");
        assert_eq!(s.counter_totals[0], 10);
    }

    #[test]
    fn gauges_carry_forward_and_last_stamp_wins() {
        let mut t = Telemetry::new(10);
        let g = t.gauge("pending");
        t.set(g, 25, 7); // window 2
        t.set(g, 21, 3); // earlier stamp in same window loses
        t.set(g, 25, 9); // equal stamp: later write wins
        t.set(g, 55, 1); // window 5
        let s = t.finish();
        let levels: Vec<&str> = rows(&s).iter().map(|r| r.rsplit(',').next().unwrap()).collect();
        assert_eq!(levels, ["0", "0", "9", "9", "9", "1"]);
    }

    #[test]
    fn out_of_order_stamps_file_into_their_windows() {
        let mut t = Telemetry::new(50);
        let c = t.counter("done");
        let h = t.hist("lat");
        // Completions land in reverse cycle order, as batched service
        // can produce.
        for cycle in [160u64, 40, 90, 10] {
            t.add(c, cycle, 1);
            t.observe(h, cycle, cycle);
        }
        let s = t.finish();
        assert_eq!(
            rows(&s),
            [
                "0,0,50,2,2,10,40,40,40",
                "1,50,100,1,1,90,90,90,90",
                "2,100,150,0,0,0,0,0,0",
                "3,150,200,1,1,160,160,160,160"
            ]
        );
        assert_eq!(s.hist_totals[0].count(), 4);
    }

    #[test]
    fn empty_registry_series_is_empty() {
        let mut t = Telemetry::new(64);
        let _ = t.counter("never");
        t.advance(1_000);
        let s = t.finish();
        assert_eq!(s.windows, 0);
        assert_eq!(s.counter_totals, [0]);
        assert_eq!(s.csv, "window,start_cycle,end_cycle,never\n");
        assert!(s.json.contains("\"windows\":[]"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let mut t = Telemetry::new(1);
        let _ = t.counter("x");
        let _ = t.hist("x");
    }

    #[test]
    #[should_panic(expected = "before any window is flushed")]
    fn registering_after_a_flush_panics() {
        let mut t = Telemetry::new(10);
        let c = t.counter("x");
        t.add(c, 5, 1);
        t.advance(20);
        let _ = t.gauge("late");
    }

    #[test]
    fn csv_and_json_are_deterministic_and_shaped() {
        let fill = || {
            let mut t = Telemetry::new(100);
            let c = t.counter("admits");
            let g = t.gauge("depth");
            let h = t.hist("latency");
            t.add(c, 10, 2);
            t.set(g, 150, 4);
            t.observe(h, 160, 900);
            t.observe(h, 170, 1100);
            t.finish()
        };
        let s = fill();
        assert!(s.csv.starts_with(
            "window,start_cycle,end_cycle,admits,depth,latency_count,latency_p50,latency_p99,latency_p999,latency_max\n"
        ));
        assert!(s.csv.contains("\n0,0,100,2,0,0,0,0,0,0\n"));
        assert!(s.csv.contains("\n1,100,200,0,4,2,900,1100,1100,1100\n"));
        assert_eq!(s.json, fill().json);
        assert!(s.json.starts_with("{\"window_cycles\":100,\"counters\":[\"admits\"]"));
        assert!(s.json.ends_with("}\n"));
        let parsed = Json::parse(s.json.trim_end()).expect("series JSON must parse");
        assert_eq!(parsed.get("windows").and_then(|a| a.as_arr()).map(<[Json]>::len), Some(2));
        assert_eq!(
            parsed
                .get("totals")
                .and_then(|t| t.get("counters"))
                .and_then(|a| a.as_arr())
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn advanced_registry_matches_never_advanced_byte_for_byte() {
        // Random stamp streams delivered in event-time order, as a
        // discrete-event producer would: one registry's watermark
        // advances at every event, the other is never advanced. Some
        // stamps land *ahead* of the watermark (a completion filed at
        // its future finish cycle). Both exports, totals and window
        // counts must agree exactly; `finish` re-asserts the
        // sum-to-total and re-merge invariants on both.
        run_cases("advanced-vs-held", 0x6a79_2005, 64, |rng| {
            let window = 1 + rng.below(500);
            let gamma = [0.01, 0.002][rng.below_usize(2)];
            let sketch = rng.bool();
            let registered = || {
                let mut t = Telemetry::new(window);
                let ids = (t.counter("events"), t.gauge("pending"), t.hist("lat"));
                let hs = if sketch { t.hist_sketch("lat_s", gamma) } else { t.hist("lat_s") };
                (t, ids, hs)
            };
            let (mut streamed, (c, g, h), hs) = registered();
            let (mut held, ..) = registered();
            let n = rng.range_usize_inclusive(0, 10_000);
            let mut nows: Vec<u64> = (0..n).map(|_| rng.below(1 << 16)).collect();
            nows.sort_unstable();
            for &now in &nows {
                streamed.advance(now);
                let at = now + rng.below(4 * window + 1);
                let v = rng.below(1 << 20);
                for t in [&mut streamed, &mut held] {
                    match v % 4 {
                        0 => t.add(c, at, 1 + v % 5),
                        1 => t.set(g, at, v),
                        2 => t.observe(h, at, v),
                        _ => t.observe(hs, at, v),
                    }
                }
            }
            let (a, b) = (streamed.finish(), held.finish());
            assert_eq!(a.csv, b.csv);
            assert_eq!(a.json, b.json);
            assert_eq!(a.counter_totals, b.counter_totals);
            assert_eq!(a.hist_totals, b.hist_totals);
            assert_eq!(a.windows, b.windows);
            assert_eq!(a.hist_totals[1].kind(), if sketch { "sketch" } else { "exact" });
        });
    }

    #[test]
    fn advancing_keeps_only_open_windows_resident() {
        let mut t = Telemetry::new(10);
        let c = t.counter("events");
        let h = t.hist_sketch("lat", 0.01);
        for now in 0..1000 {
            t.advance(now);
            t.add(c, now, 1);
            t.observe(h, now, now % 97);
        }
        // At now=999 the open window is 99: 0..=98 are flushed and
        // evicted, only the open window remains resident.
        assert_eq!(t.flushed, 99);
        assert_eq!(t.counters[0].windows.len(), 1);
        assert_eq!(t.hists[0].windows.len(), 1);
        let s = t.finish();
        assert_eq!(s.windows, 100);
        assert_eq!(s.counter_totals, [1000]);
    }

    #[test]
    #[should_panic(expected = "flushed window")]
    fn stamping_behind_the_watermark_panics() {
        let mut t = Telemetry::new(10);
        let c = t.counter("events");
        t.add(c, 5, 1);
        t.advance(50);
        t.add(c, 15, 1); // window 1 is behind watermark 50
    }
}
