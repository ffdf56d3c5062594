//! `serve-overload`: `run_service` on the `mix` workload, 4 tenants,
//! 2 workers x 2 contexts, sketch mode, 10^6 offered jobs at 60 000
//! jobs/s (about 2.6x the estimated capacity).
//!
//! The untraced pass calls `gpstream_serve::run_service`. The traced
//! pass performs the same run stage by stage through the crate's public
//! pieces — `build_table`, `schedule_service` (arrivals, scheduler and
//! every observer the service attaches), `exec::execute`, the report
//! renderers — and must reproduce the same fingerprint.
//!
//! Arrival draws and observer hooks are too short to time one by one
//! (about 100 ns each; reading the clock around them inflates them by
//! a third), so a reference run outside the pass splits the schedule
//! span: the same arrivals drained alone, and scheduled with no
//! observer. Observer time is the schedule span minus the bare run.

use crate::check::OpResult;
use crate::probe::Tracer;
use crate::Layers;
use gpstream_machine::WaitPolicy;
use gpstream_microbench::spinwait;
use gpstream_serve::sched::NoopObserver;
use gpstream_serve::{
    artifact_json, build_table, exec, render, run_service, sched, schedule_service, Arrivals,
    LatencySummary, LoadConfig, SchedConfig, SchedStats, ScheduledService, ServeConfig,
    VariantTable,
};
use std::hint::black_box;
use std::sync::Arc;

/// The workload's service configuration for `seed`.
fn config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new("mix");
    cfg.jobs = 1_000_000;
    cfg.rate = 60_000.0;
    cfg.sketch = true;
    cfg.seed = seed;
    cfg
}

/// Fingerprint: scheduler counters, latency quantiles and the replay
/// tally. Span bookkeeping is left out on purpose.
fn lines(stats: &SchedStats, summary: &LatencySummary, replayed: u64) -> Vec<(String, String)> {
    let q = |e: &gpstream_util::Estimator| {
        let v: Vec<String> =
            [0.5, 0.99, 0.999].iter().map(|&q| e.quantile(q).unwrap_or(0).to_string()).collect();
        format!("n={} q={}", e.count(), v.join("/"))
    };
    let mut lat = format!(
        "queue {} service {} total {}",
        q(&summary.queue),
        q(&summary.service),
        q(&summary.total)
    );
    for (i, t) in summary.per_tenant.iter().enumerate() {
        lat.push_str(&format!(
            " | t{i} queue {} service {} total {}",
            q(&t.queue),
            q(&t.service),
            q(&t.total)
        ));
    }
    vec![
        ("serve/stats".to_string(), format!("{stats:?}")),
        ("serve/latency".to_string(), lat),
        ("serve/replayed".to_string(), replayed.to_string()),
    ]
}

/// `serve-overload`.
pub struct ServeOverload {
    cfg: ServeConfig,
}

impl ServeOverload {
    /// Configure the run and price the variant table once (the pricing
    /// `run_service` repeats inside every pass).
    pub fn setup(seed: u64, t: &mut Tracer) -> Self {
        let cfg = config(seed);
        black_box(t.span("serve.table", |_| build_table(&cfg.workload, cfg.ctx)));
        Self { cfg }
    }

    /// Operations per pass: one serve run.
    pub fn ops(&self) -> usize {
        1
    }

    /// Offered jobs per pass.
    pub fn jobs(&self) -> usize {
        self.cfg.jobs
    }

    /// One untraced pass.
    pub fn pass(&self, record: &mut dyn FnMut(OpResult)) {
        record(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let out = run_service(&self.cfg).expect("mix is a serve workload");
                lines(&out.stats, &out.summary, out.exec.executed)
            }))
            .map_err(crate::probe::panic_message),
        );
    }

    /// One traced pass.
    pub fn traced_pass(&self, t: &mut Tracer, record: &mut dyn FnMut(OpResult), l: &mut Layers) {
        let root = t.spans().len();
        let r = t.op("serve.run", |t| traced_run(t, &self.cfg, l));
        for (span, metric) in [
            ("serve.table", "serve.table_s"),
            ("serve.schedule", "serve.schedule_s"),
            ("serve.replay", "serve.replay_s"),
            ("serve.report", "serve.report_s"),
        ] {
            l.insert(metric, t.total_under(root, span).as_secs_f64());
        }
        record(r);
    }

    /// The reference run splitting the last traced pass's schedule span
    /// into arrival draws, scheduling and observers. Runs in the traced
    /// run only, outside the timed passes.
    pub fn reference(&self, t: &mut Tracer, l: &mut Layers) {
        let cfg = &self.cfg;
        t.span("reference", |t| {
            let table = t.span("serve.table", |_| {
                build_table(&cfg.workload, cfg.ctx).expect("mix is a serve workload")
            });
            let load = load_config(cfg, &table);
            let (_, drain) = t.timed_span("serve.arrivals", |_| Arrivals::new(&load).count());
            let (_, bare) = t.timed_span("serve.schedule.bare", |_| {
                let service = table.service_cycles();
                let sched_cfg = sched_config(cfg, &table);
                sched::schedule_stream(
                    Arrivals::new(&load),
                    &service,
                    &sched_cfg,
                    &mut NoopObserver,
                )
            });
            let schedule = l.get("serve.schedule_s").copied().unwrap_or(0.0);
            l.insert("serve.arrivals_s", drain.as_secs_f64());
            l.insert("serve.sched_s", bare.saturating_sub(drain).as_secs_f64());
            l.insert("serve.observe_s", (schedule - bare.as_secs_f64()).max(0.0));
        });
    }
}

/// The arrival process `schedule_service` draws from, for the bare
/// reference run.
fn load_config(cfg: &ServeConfig, table: &VariantTable) -> LoadConfig {
    LoadConfig {
        jobs: cfg.jobs,
        mean_interarrival: cfg.mean_interarrival_cycles(),
        tenants: cfg.tenants,
        arrival_shares: cfg.effective_arrival_shares(),
        variants: table.variants.len(),
        seed: cfg.seed,
    }
}

/// The scheduler settings `schedule_service` derives from `cfg`, for
/// the bare reference run.
fn sched_config(cfg: &ServeConfig, table: &VariantTable) -> SchedConfig {
    SchedConfig {
        workers: cfg.workers,
        bounded: cfg.bounded,
        queue_cap: cfg.effective_queue_cap(),
        batch_max: cfg.batch_max,
        dispatch_cycles: spinwait::dispatch_latency(WaitPolicy::Mwait, &table.machine),
        retry_after: cfg.effective_retry_after(),
        max_retries: cfg.max_retries,
        weights: cfg.effective_weights(),
        check_invariants: cfg!(debug_assertions),
    }
}

/// `run_service`, stage by stage.
fn traced_run(t: &mut Tracer, cfg: &ServeConfig, l: &mut Layers) -> Vec<(String, String)> {
    let table = t.span("serve.table", |_| {
        Arc::new(build_table(&cfg.workload, cfg.ctx).expect("mix is a serve workload"))
    });
    let ScheduledService { records, stats, summary, telemetry, .. } =
        t.span("serve.schedule", |_| schedule_service(cfg, &table));
    let exec =
        t.span("serve.replay", |_| exec::execute(&table, &records, cfg.exec_pool_threads.max(1)));
    t.span("serve.report", |_| {
        let artifact =
            artifact_json(cfg, &stats, &summary, telemetry.spans_dropped).to_doc_string();
        let mut text = render(cfg, &stats, &summary);
        text.push_str(&telemetry.slo.render());
        black_box((artifact, text));
    });
    for (name, v) in [
        ("serve.offered", stats.offered),
        ("serve.batches", stats.batches),
        ("serve.retries", stats.retries),
        ("serve.reject_events", stats.reject_events),
        ("serve.max_pending", stats.max_pending as u64),
        ("serve.records_replayed", exec.executed),
        ("serve.spans_dropped", telemetry.spans_dropped),
    ] {
        *l.entry(name).or_insert(0.0) += v as f64;
    }
    let out = lines(&stats, &summary, exec.executed);
    t.span("serve.drop", |_| drop((table, records, summary, telemetry)));
    out
}
