//! Host-side probes: wall and CPU clocks, peak RSS, and the span
//! recorder the traced passes wrap around every layer call.
//!
//! Spans live in memory and are written once, at exit, as Chrome
//! `trace_event` JSON. A span records its name, start, duration, parent
//! and the id of the operation (figure point, serve run, native program)
//! it belongs to.

use gpstream_util::Json;
use std::time::{Duration, Instant};

/// Process CPU time (user + system, every thread, including threads
/// that already exited).
#[must_use]
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) and
    // the clock id is a constant the C library defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Median of `v` (mean of the middle pair for an even count).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of `v`, `q` in `[0, 1]`.
#[must_use]
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `machine.engine.measured`.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 outside any operation).
    pub op: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            dur: Duration::ZERO,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let r = f(self);
        self.close_to(idx);
        r
    }

    /// [`Tracer::span`] that also returns the span's duration.
    pub fn timed_span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let idx = self.spans.len();
        let r = self.span(name, f);
        (r, self.spans[idx].dur)
    }

    /// Run `f` as a new operation: a span named `name` whose subtree
    /// carries a fresh operation id. A panic inside `f` is caught and
    /// returned as `Err` with the spans it left open closed.
    pub fn op<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> Result<R, String> {
        self.op += 1;
        let depth = self.open.len();
        let idx = self.spans.len();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.span(name, f)));
        if r.is_err() {
            self.close_to(idx);
            debug_assert_eq!(self.open.len(), depth);
        }
        r.map_err(panic_message)
    }

    /// Close every open span down to and including `idx`.
    fn close_to(&mut self, idx: usize) {
        let now = self.epoch.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].dur = now - self.spans[top].start;
            if top == idx {
                break;
            }
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name` under root span `root`.
    #[must_use]
    pub fn total_under(&self, root: usize, name: &str) -> Duration {
        self.spans[root..]
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.is_under(root + i, root))
            .map(|(_, s)| s.dur)
            .sum()
    }

    fn is_under(&self, mut idx: usize, root: usize) -> bool {
        loop {
            if idx == root {
                return true;
            }
            match self.spans[idx].parent {
                Some(p) if p >= root => idx = p,
                _ => return false,
            }
        }
    }

    /// Self time and span count per span name under root span `root`
    /// (the root's own self time included under its name): each span's
    /// duration minus the durations of its direct children.
    #[must_use]
    pub fn self_times(&self, root: usize) -> Vec<(&'static str, Duration, u64)> {
        let mut own: Vec<Duration> = Vec::new();
        let mut members: Vec<usize> = Vec::new();
        for i in root..self.spans.len() {
            if self.is_under(i, root) {
                members.push(i);
            }
        }
        own.resize(self.spans.len() - root, Duration::ZERO);
        for &i in &members {
            own[i - root] = self.spans[i].dur;
        }
        for &i in &members {
            if let Some(p) = self.spans[i].parent.filter(|_| i != root) {
                own[p - root] = own[p - root].saturating_sub(self.spans[i].dur);
            }
        }
        let mut table: Vec<(&'static str, Duration, u64)> = Vec::new();
        for &i in &members {
            let s = &self.spans[i];
            match table.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own[i - root];
                    row.2 += 1;
                }
                None => table.push((s.name, own[i - root], 1)),
            }
        }
        table.sort_by_key(|r| std::cmp::Reverse(r.1));
        table
    }

    /// The spans as a Chrome `trace_event` document.
    #[must_use]
    pub fn chrome_json(&self, process: &str) -> String {
        let us = |d: Duration| Json::F64(d.as_secs_f64() * 1e6);
        let mut events = vec![Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::U64(1)),
            ("args", Json::obj([("name", Json::Str(process.into()))])),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            let args = [
                ("span", Json::U64(i as u64)),
                ("op", Json::U64(s.op)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
            ];
            events.push(Json::obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(s.name.split('.').next().unwrap_or("bench").into())),
                ("ph", Json::Str("X".into())),
                ("ts", us(s.start)),
                ("dur", us(s.dur)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(1)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
            .to_doc_string()
    }
}

/// Render a caught panic payload.
#[must_use]
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Wall time and process CPU time of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, Duration) {
    let (w0, c0) = (Instant::now(), process_cpu());
    let r = f();
    (r, w0.elapsed(), process_cpu().saturating_sub(c0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.spans().len();
        t.span("pass", |t| {
            for _ in 0..3 {
                t.span("a", |t| t.span("b", |_| std::thread::sleep(Duration::from_millis(2))));
            }
        });
        let table = t.self_times(root);
        let get = |n: &str| *table.iter().find(|r| r.0 == n).expect("row");
        assert_eq!(get("a").2, 3);
        assert!(get("b").1 >= Duration::from_millis(6));
        assert!(get("a").1 < get("b").1, "a's self time excludes its child");
        let sum: Duration = table.iter().map(|r| r.1).sum();
        assert_eq!(sum, t.spans()[root].dur, "self times partition the root");
    }

    #[test]
    fn op_catches_panics_and_closes_spans() {
        let mut t = Tracer::default();
        let r: Result<(), String> = t.op("point", |t| t.span("inner", |_| panic!("boom")));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(t.open.len(), 0);
        assert!(t.op("point", |_| 7).is_ok());
        assert_eq!(t.spans().iter().filter(|s| s.name == "point").count(), 2);
    }
}
