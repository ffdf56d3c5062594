//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! figures [SELECTOR] [--in-order] [--json PATH] [--trace PATH]
//! figures profile WORKLOAD [--out DIR] [--interval N] [--in-order]
//!                 [--check] [--update-baseline] [--baselines DIR] [--native [REPEATS]]
//! figures analyze WORKLOAD [--out FILE]
//! figures scale [WORKLOAD] [--max N] [--out FILE]
//! figures diff A.json B.json [--strict]
//! figures simspeed [--reps N] [--out FILE] [--check]
//! figures servespeed [--reps N] [--out FILE] [--check]
//! figures serve [WORKLOAD] [--jobs N] [--rate R] [--tenants T] [--workers W]
//!               [--ctx C] [--seed S] [--unbounded] [--ablation] [--out FILE]
//!               [--slo] [--slo-latency CYC[,CYC..]] [--slo-objective F]
//!               [--window CYC] [--trace FILE] [--timeseries FILE]
//!               [--sketch] [--sketch-gamma G] [--span-cap N] [--quiet]
//! figures --list
//! ```
//!
//! `SELECTOR` is one of `fig5|fig6|fig8|fig9|fig11a|fig11b|fig11c|fig11d|
//! ooo|latencies|single|enhanced|summary|tuned|all` (default `all`);
//! `--list` prints the available selectors. An unknown selector prints
//! them too and exits non-zero.
//!
//! `tuned` runs the `gpstream-tune` autotuner over every catalog
//! workload and reports each winner against the default-heuristic
//! configuration. It is not part of `all` (the paper's figures use the
//! defaults); run it explicitly.
//!
//! `--in-order` runs the Figure 11 applications with head-blocking
//! (in-order) work queues instead of the default out-of-order
//! `tail_depend` issue — compare two `--json` dumps to see the idle-wait
//! reduction. The `ooo` selector prints both modes side by side.
//!
//! `--json PATH` additionally writes the comparison figures as JSON,
//! including the per-context phase breakdown (compute / memory / wait /
//! dispatch cycles) of every stream run.
//!
//! `--trace PATH` records one micro-benchmark and one application run
//! under the simulating executor and writes a Chrome `trace_event` file
//! that loads directly into `chrome://tracing` or
//! <https://ui.perfetto.dev>. The simulator's event buffer is bounded;
//! if any events were dropped at capacity the count is surfaced as
//! `droppedEvents` in the trace footer, as top-level `trace_dropped` in
//! the `--json` document, and as a stderr warning.
//!
//! `profile WORKLOAD` runs one catalog workload (`--list` inside the
//! subcommand prints the names) with full counter instrumentation and
//! prints a `perf stat`-style report plus the top-down cycle tree.
//! With `--out DIR` it also writes `perfstat.txt`, `topdown.txt`,
//! `profile.json`, `WORKLOAD.folded` (flamegraph collapsed-stack),
//! `samples.csv` (interval counter time-series) and `telemetry.csv`
//! (the same counters re-aggregated through the `gpstream-telemetry`
//! windowed registry; window deltas sum exactly to the run totals). `--in-order` profiles
//! with head-blocking work queues instead of the default out-of-order
//! issue (diff the two artifacts to see what the OoO queues buy).
//! `--check` compares the run against the committed baseline in
//! `--baselines DIR` (default `profiles/baselines`) and exits non-zero
//! on any out-of-band counter — or, when the baseline is missing or
//! unparseable, after listing every current counter value so the run
//! is still inspectable; `--update-baseline` regenerates the snapshot.
//! `--native [REPEATS]` appends the native executor's wall-clock
//! parity report (not deterministic, never written to `--out`).
//!
//! `analyze WORKLOAD` runs one catalog workload with task logging on
//! and prints the critical-path report: per-segment cycle attribution
//! (op class + root cause), the by-class/by-cause tables, and the
//! Coz-style what-if speedup table. `--out FILE` also writes the
//! analysis as a canonical one-line JSON artifact.
//!
//! `scale [WORKLOAD]` measures context-scaling curves: every catalog
//! workload (or just `WORKLOAD`) runs on the simulated machine at 1,
//! 2, 4, … contexts under the scaled pipeline topology, and the table
//! reports total cycles plus the speedup over one context per point.
//! `--max N` caps the context count (the sweep doubles from 1 up to
//! `N`, default 8); `--out FILE` also writes the curves as a
//! deterministic JSON artifact.
//!
//! `diff A.json B.json` compares two artifacts — committed baselines,
//! `profile --out` documents, `analyze --out` reports, in any
//! combination — with per-metric deltas flagged against A's tolerance
//! bands and, when both sides carry one, a structural critical-path
//! diff. Informational by default (exit 0); `--strict` exits non-zero
//! when any shared metric lands out of band, or when the two artifacts
//! are of different kinds (a cross-kind diff only covers the shared
//! metrics, so it cannot vouch for the artifacts as a whole).
//!
//! `serve [WORKLOAD]` runs the multi-tenant streaming-service harness
//! (`gpstream-serve`): a deterministic open-loop Poisson arrival trace
//! of small stream jobs — catalog kernels at service-sized chunks —
//! admitted under backpressure, scheduled with weighted fair sharing
//! across tenants, batched onto simulated workers, and functionally
//! executed (oracle-checked) on a real draining worker pool. Prints the
//! throughput and p50/p99/p999 queue/service/total latency report;
//! `--out FILE` writes the `latency` artifact (canonical one-line JSON,
//! byte-identical for a fixed seed and config — `figures diff` reads
//! it). Workloads: `ldstcomp`, `gatscat`, `prodcon` or `mix` (default).
//! `--unbounded` disables admission control (queue everything);
//! `--ablation` instead runs the committed backpressure experiment —
//! the same 2x-overload trace with bounded vs unbounded admission —
//! and writes `serve-bounded.json` / `serve-unbounded.json` next to
//! `--out FILE` (or prints only, without `--out`), exiting non-zero if
//! bounded admission fails to beat unbounded on p99 total latency.
//!
//! Every serve run carries the `gpstream-telemetry` plane: windowed
//! counters, per-tenant SLO burn rates (the report is appended to the
//! text output), and a job-lifecycle span trace. `--slo` makes `--out`
//! write the windowed SLO artifact instead of the latency artifact;
//! `--slo-latency` sets the per-tenant latency thresholds in cycles
//! (one value broadcasts; the default is 4x the worst service time
//! plus dispatch) and `--slo-objective` the target fraction of jobs
//! under threshold (default 0.99). `--window` overrides the tumbling
//! aggregation window in cycles (default ~48 windows per trace).
//! `--trace FILE` writes the admit -> queue -> dispatch -> execute ->
//! complete span trace as Chrome `trace_event` JSON with one lane per
//! tenant and per worker; `--timeseries FILE` writes the per-window
//! counter/gauge/histogram series as CSV. All of it is byte-identical
//! for a fixed seed and config.
//!
//! `--sketch` switches the run to bounded memory for 10⁶–10⁷-job
//! traces: latency quantiles come from a mergeable log-bucketed sketch
//! (relative error ≤ `--sketch-gamma`, default 1%; the artifact
//! records the estimator kind and its bound) and only a deterministic
//! 1-in-stride record sample is kept for the functional replay.
//! Registry windows stream out and are evicted as virtual time passes
//! them in every mode, so with `--sketch` memory is O(pending + open
//! windows), independent of `--jobs`. Exact mode refuses more than
//! 200 000 jobs and points here; any mode refuses a `--window` that
//! cuts the offered trace into more than 65 536 windows. The span
//! buffer is always bounded (`--span-cap`, default 262144 events);
//! overflow drops spans, counts them in the artifact's
//! `spans_dropped`, and warns on stderr. Long runs print a stderr
//! heartbeat every ~10% of jobs when stderr is a TTY; `--quiet`
//! silences it. None of this changes artifact bytes.
//!
//! `servespeed` measures the serving harness itself: offered jobs
//! scheduled and aggregated per wall-clock second through the full
//! virtual pipeline (lazy arrivals, admission, fair-share batching,
//! sketch estimators, streaming registry, SLO accounting, bounded
//! spans) — the functional replay excluded. `--reps N` takes the best
//! of N timed runs per workload (default 3), `--out FILE` writes the
//! table as a canonical JSON artifact, and `--check` exits non-zero
//! below a conservative jobs/s floor (the CI regression gate).
//!
//! `simspeed` measures the simulator itself: simulated cycles per
//! wall-clock second for the cycle-stepped vs event-driven engines on
//! the probe workloads (see `gpstream_microbench::simspeed`), as a
//! speedup table. `--reps N` takes the best of N timed iterations
//! (default 3), `--out FILE` writes the table as a canonical JSON
//! artifact, and `--check` exits non-zero unless the event-driven mode
//! reaches a ≥ 10x speedup on at least one workload (the PR's
//! acceptance gate, enforced in CI).

use gpstream_apps::fem;
use gpstream_bench as fig;
use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::metrics::Comparison;
use gpstream_core::{chrome_trace, StreamGraph, TraceRun, World};
use gpstream_machine::{MachineConfig, PhaseCycles, WaitPolicy};
use gpstream_microbench::simspeed::SimSpeedRow;
use gpstream_util::Json;

struct Cli {
    which: String,
    in_order: bool,
    list: bool,
    json: Option<String>,
    trace: Option<String>,
}

/// Parse the figure-selector command line. Exits with code 2 on usage
/// errors.
fn parse_args() -> Cli {
    let usage = |msg: &str| -> ! {
        eprintln!("{msg}");
        eprintln!("usage: figures [SELECTOR] [--in-order] [--json PATH] [--trace PATH]");
        std::process::exit(2);
    };
    let mut cli =
        Cli { which: "all".to_string(), in_order: false, list: false, json: None, trace: None };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--in-order" => cli.in_order = true,
            "--list" => cli.list = true,
            "--json" => {
                cli.json = Some(args.next().unwrap_or_else(|| usage("--json needs a path")));
            }
            "--trace" => {
                cli.trace = Some(args.next().unwrap_or_else(|| usage("--trace needs a path")));
            }
            other => cli.which = other.to_string(),
        }
    }
    cli
}

fn print_comparisons(title: &str, rows: &[Comparison]) {
    println!("== {title} ==");
    println!("{:<28} {:>14} {:>14} {:>8}", "case", "regular (cyc)", "stream (cyc)", "speedup");
    for c in rows {
        println!(
            "{:<28} {:>14} {:>14} {:>7.2}x",
            c.name,
            c.regular_cycles,
            c.stream_cycles,
            c.speedup()
        );
        if let Some(ph) = &c.phases {
            for (lane, p) in ["compute ctx", "memory ctx"].iter().zip(ph) {
                println!(
                    "  {lane:<12} compute {:>10}  memory {:>10}  wait {:>10}  dispatch {:>8}",
                    p.compute, p.memory, p.idle_wait, p.dispatch
                );
            }
        }
    }
    println!();
}

fn phases_json(p: &PhaseCycles) -> Json {
    Json::obj([
        ("compute", Json::U64(p.compute)),
        ("memory", Json::U64(p.memory)),
        ("idle_wait", Json::U64(p.idle_wait)),
        ("dispatch", Json::U64(p.dispatch)),
        ("total", Json::U64(p.total())),
    ])
}

fn comparison_json(c: &Comparison) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::Str(c.name.clone())),
        ("regular_cycles".to_string(), Json::U64(c.regular_cycles)),
        ("stream_cycles".to_string(), Json::U64(c.stream_cycles)),
        ("speedup".to_string(), Json::F64(c.speedup())),
    ];
    if let Some(ph) = &c.phases {
        pairs.push((
            "phases".to_string(),
            Json::obj([("compute_ctx", phases_json(&ph[0])), ("memory_ctx", phases_json(&ph[1]))]),
        ));
    }
    if let Some(m) = &c.mem {
        pairs.push(("mem".to_string(), gpstream_profile::counters::mem_stats_json(m)));
    }
    Json::Obj(pairs)
}

/// Run `graph` once on the simulated machine with event tracing on and
/// package the result for the Chrome exporter.
fn traced_sim_run(
    name: &str,
    graph: &StreamGraph,
    world: &World,
    cfg: &MachineConfig,
    copts: &CompilerOptions,
) -> TraceRun {
    let compiled = compile(graph, copts).expect("traced program compiles");
    let mut w = world.clone();
    let report = SimExecutor::new()
        .with_machine(cfg.clone())
        .with_srf(copts.srf)
        .with_wait_policy(WaitPolicy::Mwait)
        .with_trace(true)
        .run(&compiled.schedule, &compiled.graph, &mut w);
    let ticks_per_us = cfg.freq_ghz * 1000.0;
    TraceRun::new(
        name,
        ticks_per_us,
        &["compute ctx", "memory ctx"],
        &compiled.schedule,
        report.trace.expect("tracing was enabled"),
    )
    .with_dropped(report.trace_dropped)
}

/// Returns the total number of events the bounded trace buffers dropped
/// across the recorded runs (also surfaced in the `--json` document).
fn write_trace(path: &str, cfg: &MachineConfig, copts: &CompilerOptions) -> u64 {
    let mb = gpstream_microbench::kernels::gat_scat_comp(2048, 2);
    let app = fem::fem_bench(fem::CONFIGS[0], 600, 0x6a79_2005);
    let runs = vec![
        traced_sim_run("GAT-SCAT-COMP comp=2 (sim)", &mb.graph, &mb.stream_world, cfg, copts),
        traced_sim_run(&format!("{} (sim)", app.name), &app.graph, &app.stream_world, cfg, copts),
    ];
    let dropped: u64 = runs.iter().map(|r| r.dropped).sum();
    std::fs::write(path, chrome_trace(&runs)).expect("write trace file");
    println!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    if dropped > 0 {
        eprintln!(
            "warning: trace buffers dropped {dropped} event(s) at capacity; \
             the trace is truncated (droppedEvents in the footer)"
        );
    }
    dropped
}

const SELECTORS: [&str; 15] = [
    "all",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig11a",
    "fig11b",
    "fig11c",
    "fig11d",
    "ooo",
    "latencies",
    "single",
    "enhanced",
    "summary",
    "tuned",
];

fn tuned_json(o: &gpstream_tune::TuneOutcome) -> Json {
    Json::obj([
        ("workload", Json::Str(o.workload.clone())),
        ("strategy", Json::from(o.strategy)),
        ("baseline_cycles", Json::U64(o.baseline_cycles)),
        ("tuned_cycles", Json::U64(o.best_cycles)),
        ("speedup", Json::F64(o.speedup())),
        ("best", o.best.to_json()),
    ])
}

/// `figures profile` subcommand. Exits the process: 0 on success, 1 on
/// baseline violations, 2 on usage errors.
fn profile_main(args: &[String]) -> ! {
    let mut workload: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut interval: Option<u64> = None;
    let mut check = false;
    let mut in_order = false;
    let mut update_baseline = false;
    let mut baselines = "profiles/baselines".to_string();
    let mut native: Option<usize> = None;
    let mut i = 0;
    let usage = |msg: &str| -> ! {
        eprintln!("{msg}");
        eprintln!(
            "usage: figures profile WORKLOAD [--out DIR] [--interval N] [--in-order] \
             [--check] [--update-baseline] [--baselines DIR] [--native [REPEATS]]"
        );
        eprintln!("workloads: {}", gpstream_tune::workloads::CATALOG.join(" "));
        std::process::exit(2);
    };
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for w in gpstream_tune::workloads::CATALOG {
                    println!("{w}");
                }
                std::process::exit(0);
            }
            "--out" => out_dir = Some(value(args, &mut i, "--out")),
            "--interval" => {
                let v = value(args, &mut i, "--interval");
                let n: u64 = v.parse().unwrap_or_else(|_| usage("--interval needs a number"));
                if n == 0 {
                    usage("--interval needs a positive cycle count");
                }
                if fig::profiling::telemetry_window(n).is_none() {
                    usage("--interval is too large (its telemetry window, 4x, overflows)");
                }
                interval = Some(n);
            }
            "--check" => check = true,
            "--in-order" => in_order = true,
            "--update-baseline" => update_baseline = true,
            "--baselines" => baselines = value(args, &mut i, "--baselines"),
            "--native" => {
                // Optional repeat count: `--native 7` or bare `--native`.
                native = Some(match args.get(i + 1).and_then(|v| v.parse().ok()) {
                    Some(0) => usage("--native needs a positive repeat count"),
                    Some(n) => {
                        i += 1;
                        n
                    }
                    None => 5,
                });
            }
            other if workload.is_none() && !other.starts_with('-') => {
                workload = Some(other.to_string());
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let Some(workload) = workload else { usage("missing WORKLOAD") };
    let Some(out) = fig::profiling::profile_workload(&workload, interval, in_order) else {
        usage(&format!("unknown workload `{workload}`"))
    };

    print!("{}", out.perf_stat);
    println!();
    print!("{}", out.topdown);

    if let Some(dir) = &out_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).expect("create --out directory");
        std::fs::write(dir.join("perfstat.txt"), &out.perf_stat).expect("write perfstat.txt");
        std::fs::write(dir.join("topdown.txt"), &out.topdown).expect("write topdown.txt");
        std::fs::write(dir.join("profile.json"), &out.json).expect("write profile.json");
        std::fs::write(dir.join(format!("{workload}.folded")), &out.folded)
            .expect("write folded stacks");
        std::fs::write(dir.join("samples.csv"), &out.samples_csv).expect("write samples.csv");
        std::fs::write(dir.join("telemetry.csv"), &out.telemetry_csv).expect("write telemetry.csv");
        println!("\nwrote profile artifacts to {}", dir.display());
    }

    let baseline_path = std::path::Path::new(&baselines).join(format!("{workload}.json"));
    if update_baseline {
        let base = gpstream_profile::Baseline::capture(&workload, &out.counters);
        std::fs::create_dir_all(&baselines).expect("create baselines directory");
        std::fs::write(&baseline_path, base.to_json().to_doc_string()).expect("write baseline");
        println!("updated baseline {}", baseline_path.display());
    }
    if check {
        // A broken baseline still gets a per-metric listing of the run
        // that was checked, so CI logs show what `--update-baseline`
        // would snapshot.
        let no_baseline = |why: String| -> ! {
            eprintln!("{why}");
            eprintln!(
                "current values for `{workload}` ({} metrics):",
                out.counters.all_values().len()
            );
            for (name, value) in out.counters.all_values() {
                if value == value.trunc() && value.abs() < 1e15 {
                    eprintln!("  {name} = {value}");
                } else {
                    eprintln!("  {name} = {value:.6}");
                }
            }
            eprintln!("run with --update-baseline to (re)create the snapshot");
            std::process::exit(1);
        };
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            no_baseline(format!("cannot read baseline {} ({e})", baseline_path.display()))
        });
        let base = gpstream_profile::Baseline::from_json(&text).unwrap_or_else(|e| {
            no_baseline(format!("malformed baseline {}: {e}", baseline_path.display()))
        });
        let violations = base.check(&out.counters);
        if violations.is_empty() {
            println!("baseline check passed ({} tracked values)", base.entries.len());
        } else {
            eprintln!("baseline check FAILED for `{workload}`:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
    if let Some(repeats) = native {
        let text = fig::profiling::native_parity(&workload, repeats)
            .expect("workload resolved once already");
        println!();
        print!("{text}");
    }
    std::process::exit(0);
}

/// `figures analyze` subcommand. Exits the process: 0 on success, 2 on
/// usage errors.
fn analyze_main(args: &[String]) -> ! {
    let mut workload: Option<String> = None;
    let mut out_file: Option<String> = None;
    let usage = |msg: &str| -> ! {
        eprintln!("{msg}");
        eprintln!("usage: figures analyze WORKLOAD [--out FILE]");
        eprintln!("workloads: {}", gpstream_tune::workloads::CATALOG.join(" "));
        std::process::exit(2);
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for w in gpstream_tune::workloads::CATALOG {
                    println!("{w}");
                }
                std::process::exit(0);
            }
            "--out" => {
                i += 1;
                out_file =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("--out needs a file path")));
            }
            other if workload.is_none() && !other.starts_with('-') => {
                workload = Some(other.to_string());
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let Some(workload) = workload else { usage("missing WORKLOAD") };
    let Some(analysis) = gpstream_analyze::analyze_workload(&workload) else {
        usage(&format!("unknown workload `{workload}`"))
    };
    print!("{}", gpstream_analyze::render::text(&analysis));
    if let Some(path) = out_file {
        std::fs::write(&path, gpstream_analyze::render::to_json(&analysis).to_doc_string())
            .expect("write analysis JSON");
        println!("\nwrote analysis artifact to {path}");
    }
    std::process::exit(0);
}

/// `figures scale` subcommand. Exits the process: 0 on success, 2 on
/// usage errors.
fn scale_main(args: &[String]) -> ! {
    let mut workload: Option<String> = None;
    let mut max: usize = 8;
    let mut out_file: Option<String> = None;
    let usage = |msg: &str| -> ! {
        eprintln!("{msg}");
        eprintln!("usage: figures scale [WORKLOAD] [--max N] [--out FILE]");
        eprintln!("workloads: {}", gpstream_tune::workloads::CATALOG.join(" "));
        std::process::exit(2);
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for w in gpstream_tune::workloads::CATALOG {
                    println!("{w}");
                }
                std::process::exit(0);
            }
            "--max" => {
                i += 1;
                max = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--max needs a positive number"));
                if max == 0 {
                    usage("--max needs a positive number");
                }
            }
            "--out" => {
                i += 1;
                out_file =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("--out needs a file path")));
            }
            other if workload.is_none() && !other.starts_with('-') => {
                workload = Some(other.to_string());
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    // Context counts double from 1 and always include the cap itself.
    let counts: Vec<usize> =
        std::iter::successors(Some(1usize), |&n| (n < max).then(|| (n * 2).min(max))).collect();
    let names: Vec<String> = match &workload {
        Some(w) => vec![w.clone()],
        None => gpstream_tune::workloads::CATALOG.iter().map(ToString::to_string).collect(),
    };
    let mut rows = Vec::with_capacity(names.len());
    for name in &names {
        let Some(row) = fig::scale::scale_workload(name, &counts) else {
            usage(&format!("unknown workload `{name}`"))
        };
        rows.push(row);
    }
    print!("{}", fig::scale::render(&rows));
    if let Some(path) = &out_file {
        std::fs::write(path, fig::scale::to_json(&rows).to_doc_string()).expect("write scale JSON");
        println!("wrote scaling curves to {path}");
    }
    std::process::exit(0);
}

/// `figures diff` subcommand. Exits the process: 0 on success (even
/// with out-of-band deltas, unless `--strict`), 1 on unreadable or
/// unparseable artifacts or strict out-of-band deltas, 2 on usage
/// errors.
fn diff_main(args: &[String]) -> ! {
    let mut paths: Vec<String> = Vec::new();
    let mut strict = false;
    for a in args {
        match a.as_str() {
            "--strict" => strict = true,
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: figures diff A.json B.json [--strict]");
                std::process::exit(2);
            }
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: figures diff A.json B.json [--strict]");
        std::process::exit(2);
    }
    let load = |path: &str| -> gpstream_profile::Artifact {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        gpstream_profile::Artifact::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        })
    };
    let a = load(&paths[0]);
    let b = load(&paths[1]);
    let d = gpstream_analyze::diff::diff(&a, &b);
    print!("{}", gpstream_analyze::diff::render(&d));
    let mut failing = false;
    if let Some((ka, kb)) = d.kind_mismatch {
        // A cross-kind diff compares only the metrics the kinds share,
        // so strict mode must not report it as a clean pass.
        println!(
            "artifact kinds differ ({ka} vs {kb}){}",
            if strict { " (strict: failing)" } else { "" }
        );
        failing = true;
    }
    let out_of_band = d.out_of_band();
    if !out_of_band.is_empty() {
        println!(
            "{} metric(s) out of band{}",
            out_of_band.len(),
            if strict { " (strict: failing)" } else { "" }
        );
        failing = true;
    }
    if strict && failing {
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `figures serve` subcommand. Exits the process: 0 on success, 1 when
/// `--ablation` finds bounded admission not beating unbounded on p99
/// total latency, 2 on usage errors.
fn serve_main(args: &[String]) -> ! {
    let mut cfg = gpstream_serve::ServeConfig::new("mix");
    let mut workload_set = false;
    let mut out_file: Option<String> = None;
    let mut ablation = false;
    let mut slo = false;
    let mut quiet = false;
    let mut trace_file: Option<String> = None;
    let mut timeseries_file: Option<String> = None;
    let usage = |msg: &str| -> ! {
        eprintln!("{msg}");
        eprintln!(
            "usage: figures serve [WORKLOAD] [--jobs N] [--rate R] [--tenants T] \
             [--workers W] [--ctx C] [--seed S] [--unbounded] [--ablation] [--out FILE] \
             [--slo] [--slo-latency CYC[,CYC..]] [--slo-objective F] [--window CYC] \
             [--trace FILE] [--timeseries FILE] [--sketch] [--sketch-gamma G] \
             [--span-cap N] [--quiet]"
        );
        eprintln!("workloads: {}", gpstream_serve::WORKLOADS.join(" "));
        std::process::exit(2);
    };
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for w in gpstream_serve::WORKLOADS {
                    println!("{w}");
                }
                std::process::exit(0);
            }
            "--jobs" => {
                cfg.jobs = value(&mut i, "--jobs")
                    .parse()
                    .unwrap_or_else(|_| usage("--jobs needs a number"));
            }
            "--rate" => {
                cfg.rate = value(&mut i, "--rate")
                    .parse()
                    .unwrap_or_else(|_| usage("--rate needs a number"));
                if cfg.rate <= 0.0 {
                    usage("--rate needs a positive number");
                }
            }
            "--tenants" => {
                cfg.tenants = value(&mut i, "--tenants")
                    .parse()
                    .unwrap_or_else(|_| usage("--tenants needs a number"));
                if cfg.tenants == 0 {
                    usage("--tenants needs a positive number");
                }
            }
            "--workers" => {
                cfg.workers = value(&mut i, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage("--workers needs a number"));
                if cfg.workers == 0 {
                    usage("--workers needs a positive number");
                }
            }
            "--ctx" => {
                cfg.ctx = value(&mut i, "--ctx")
                    .parse()
                    .unwrap_or_else(|_| usage("--ctx needs a number"));
                if cfg.ctx == 0 {
                    usage("--ctx needs a positive number");
                }
            }
            "--seed" => {
                cfg.seed = value(&mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a number"));
            }
            "--unbounded" => cfg.bounded = false,
            "--ablation" => ablation = true,
            "--slo" => slo = true,
            "--slo-latency" => {
                cfg.slo_latency = value(&mut i, "--slo-latency")
                    .split(',')
                    .map(|v| {
                        let cyc: u64 = v
                            .trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--slo-latency needs cycle counts"));
                        if cyc == 0 {
                            usage("--slo-latency thresholds must be positive");
                        }
                        cyc
                    })
                    .collect();
            }
            "--slo-objective" => {
                cfg.slo_objective = value(&mut i, "--slo-objective")
                    .parse()
                    .unwrap_or_else(|_| usage("--slo-objective needs a number"));
                if !(cfg.slo_objective > 0.0 && cfg.slo_objective < 1.0) {
                    usage("--slo-objective needs a fraction strictly between 0 and 1");
                }
            }
            "--window" => {
                cfg.window_cycles = value(&mut i, "--window")
                    .parse()
                    .unwrap_or_else(|_| usage("--window needs a cycle count"));
                if cfg.window_cycles == 0 {
                    usage("--window needs a positive cycle count");
                }
            }
            "--sketch" => cfg.sketch = true,
            "--sketch-gamma" => {
                cfg.sketch_gamma = value(&mut i, "--sketch-gamma")
                    .parse()
                    .unwrap_or_else(|_| usage("--sketch-gamma needs a number"));
                if !(cfg.sketch_gamma > 0.0 && cfg.sketch_gamma < 1.0) {
                    usage("--sketch-gamma needs a fraction strictly between 0 and 1");
                }
            }
            "--span-cap" => {
                cfg.span_capacity = value(&mut i, "--span-cap")
                    .parse()
                    .unwrap_or_else(|_| usage("--span-cap needs an event count"));
                if cfg.span_capacity == 0 {
                    usage("--span-cap needs a positive event count");
                }
            }
            "--quiet" => quiet = true,
            "--trace" => trace_file = Some(value(&mut i, "--trace")),
            "--timeseries" => timeseries_file = Some(value(&mut i, "--timeseries")),
            "--out" => out_file = Some(value(&mut i, "--out")),
            other if !workload_set && !other.starts_with('-') => {
                cfg.workload = other.to_string();
                workload_set = true;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if cfg.slo_latency.len() > 1 && cfg.slo_latency.len() != cfg.tenants {
        usage(&format!(
            "--slo-latency needs one threshold, or one per tenant ({} given, {} tenants)",
            cfg.slo_latency.len(),
            cfg.tenants
        ));
    }
    if !cfg.sketch && cfg.jobs > gpstream_serve::EXACT_MODE_MAX_JOBS {
        usage(&format!(
            "--jobs {} exceeds the exact-mode limit of {} (exact quantiles keep every \
             distinct latency and every record in memory); rerun with --sketch for \
             bounded-memory estimators",
            cfg.jobs,
            gpstream_serve::EXACT_MODE_MAX_JOBS
        ));
    }
    if cfg.offered_windows() > gpstream_serve::MAX_WINDOWS {
        usage(&format!(
            "--window {} cuts the offered trace ({} jobs at {} cycles apart) into {} windows, \
             more than the limit of {}; use a longer window",
            cfg.effective_window_cycles(),
            cfg.jobs,
            cfg.mean_interarrival_cycles(),
            cfg.offered_windows(),
            gpstream_serve::MAX_WINDOWS
        ));
    }
    // Progress heartbeat: stderr-only, so it can never perturb an
    // artifact; auto-off when stderr is not a terminal (CI logs).
    cfg.progress = !quiet && std::io::IsTerminal::is_terminal(&std::io::stderr());
    if ablation {
        let Some((bounded, unbounded)) = gpstream_serve::ablation(&cfg) else {
            usage(&format!("unknown workload `{}`", cfg.workload))
        };
        print!("{}", bounded.text);
        print!("{}", unbounded.text);
        let p99 = |o: &gpstream_serve::ServiceOutcome| o.summary.total.quantile(0.99).unwrap_or(0);
        let (pb, pu) = (p99(&bounded), p99(&unbounded));
        println!(
            "backpressure ablation @ {:.0} jobs/s (2x capacity): p99 total {} cycles bounded vs {} cycles unbounded ({:.1}x)",
            bounded.cfg.rate,
            pb,
            pu,
            pu as f64 / pb.max(1) as f64,
        );
        if let Some(path) = &out_file {
            let stem = path.strip_suffix(".json").unwrap_or(path);
            for (side, outcome) in [("bounded", &bounded), ("unbounded", &unbounded)] {
                let p = format!("{stem}-{side}.json");
                std::fs::write(&p, &outcome.artifact).expect("write latency artifact");
                println!("wrote {side} latency artifact to {p}");
            }
        }
        if pb >= pu {
            eprintln!("ablation FAILED: bounded p99 total ({pb}) did not beat unbounded ({pu})");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
    let Some(outcome) = gpstream_serve::run_service(&cfg) else {
        usage(&format!("unknown workload `{}`", cfg.workload))
    };
    print!("{}", outcome.text);
    if outcome.telemetry.spans_dropped > 0 {
        eprintln!(
            "warning: span buffer full — dropped {} span events (raise --span-cap to keep more)",
            outcome.telemetry.spans_dropped
        );
    }
    if let Some(path) = &out_file {
        // `--slo` switches the `--out` artifact from the latency summary
        // to the windowed SLO burn-rate document (`figures diff` reads
        // both by their `kind` tag).
        if slo {
            std::fs::write(path, &outcome.telemetry.slo_artifact).expect("write SLO artifact");
            println!("wrote slo artifact to {path}");
        } else {
            std::fs::write(path, &outcome.artifact).expect("write latency artifact");
            println!("wrote latency artifact to {path}");
        }
    }
    if let Some(path) = &trace_file {
        std::fs::write(path, outcome.telemetry.chrome_trace()).expect("write span trace");
        println!(
            "wrote span trace to {path} (open in chrome://tracing or ui.perfetto.dev; \
             one lane per tenant, one per worker)"
        );
    }
    if let Some(path) = &timeseries_file {
        std::fs::write(path, outcome.telemetry.timeseries_csv()).expect("write time series");
        println!(
            "wrote telemetry time series to {path} ({} cycles per window)",
            outcome.telemetry.series.window_cycles
        );
    }
    std::process::exit(0);
}

/// `figures simspeed` subcommand. Exits the process: 0 on success, 1
/// when `--check` finds no ≥ 10x workload, 2 on usage errors.
fn simspeed_main(args: &[String]) -> ! {
    let mut reps: u32 = 3;
    let mut out_file: Option<String> = None;
    let mut check = false;
    let usage = |msg: &str| -> ! {
        eprintln!("{msg}");
        eprintln!("usage: figures simspeed [--reps N] [--out FILE] [--check]");
        std::process::exit(2);
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--reps needs a positive number"));
                if reps == 0 {
                    usage("--reps needs a positive number");
                }
            }
            "--out" => {
                i += 1;
                out_file =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("--out needs a file path")));
            }
            "--check" => check = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let rows = gpstream_microbench::simspeed::default_rows(reps);
    print!("{}", gpstream_microbench::simspeed::render(&rows));
    if let Some(path) = &out_file {
        let doc = gpstream_microbench::simspeed::to_json(&rows).to_doc_string();
        std::fs::write(path, doc).expect("write simspeed JSON");
        println!("wrote speedup table to {path}");
    }
    if check {
        let best = rows.iter().map(SimSpeedRow::speedup).fold(0.0f64, f64::max);
        if best < 10.0 {
            eprintln!("simspeed check FAILED: best event-driven speedup {best:.2}x < 10x");
            std::process::exit(1);
        }
        println!("simspeed check passed: best event-driven speedup {best:.2}x >= 10x");
    }
    std::process::exit(0);
}

/// Conservative `figures servespeed --check` floor in offered jobs per
/// wall-clock second. The release build schedules+aggregates well over
/// 10^6 jobs/s per workload on commodity hardware; 50k/s catches an
/// order-of-magnitude regression without flaking on slow CI runners.
const SERVESPEED_FLOOR_JOBS_PER_SEC: f64 = 50_000.0;

/// `figures servespeed` subcommand. Exits the process: 0 on success, 1
/// when `--check` finds a workload under the jobs/s floor, 2 on usage
/// errors.
fn servespeed_main(args: &[String]) -> ! {
    let mut reps: u32 = 3;
    let mut out_file: Option<String> = None;
    let mut check = false;
    let usage = |msg: &str| -> ! {
        eprintln!("{msg}");
        eprintln!("usage: figures servespeed [--reps N] [--out FILE] [--check]");
        std::process::exit(2);
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--reps needs a positive number"));
                if reps == 0 {
                    usage("--reps needs a positive number");
                }
            }
            "--out" => {
                i += 1;
                out_file =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("--out needs a file path")));
            }
            "--check" => check = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let rows = fig::servespeed::default_rows(reps);
    print!("{}", fig::servespeed::render(&rows));
    if let Some(path) = &out_file {
        let doc = fig::servespeed::to_json(&rows).to_doc_string();
        std::fs::write(path, doc).expect("write servespeed JSON");
        println!("wrote throughput table to {path}");
    }
    if check {
        let worst = rows
            .iter()
            .map(fig::servespeed::ServeSpeedRow::jobs_per_sec)
            .fold(f64::INFINITY, f64::min);
        if worst < SERVESPEED_FLOOR_JOBS_PER_SEC {
            eprintln!(
                "servespeed check FAILED: worst throughput {worst:.0} jobs/s \
                 < {SERVESPEED_FLOOR_JOBS_PER_SEC:.0} jobs/s floor"
            );
            std::process::exit(1);
        }
        println!(
            "servespeed check passed: worst throughput {worst:.0} jobs/s \
             >= {SERVESPEED_FLOOR_JOBS_PER_SEC:.0} jobs/s floor"
        );
    }
    std::process::exit(0);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("profile") => profile_main(&raw[1..]),
        Some("analyze") => analyze_main(&raw[1..]),
        Some("scale") => scale_main(&raw[1..]),
        Some("diff") => diff_main(&raw[1..]),
        Some("simspeed") => simspeed_main(&raw[1..]),
        Some("servespeed") => servespeed_main(&raw[1..]),
        Some("serve") => serve_main(&raw[1..]),
        _ => {}
    }
    let cli = parse_args();
    let cfg = MachineConfig::prescott();
    let copts = CompilerOptions::paper();
    let which = cli.which.as_str();
    if cli.list {
        for s in SELECTORS {
            println!("{s}");
        }
        return;
    }
    if !SELECTORS.contains(&which) {
        eprintln!("unknown selector `{which}`; expected one of: {}", SELECTORS.join("|"));
        std::process::exit(2);
    }
    let all = which == "all";
    // (figure id, comparison rows) pairs accumulated for --json.
    let mut json_figures: Vec<(String, Vec<Comparison>)> = Vec::new();
    // `tuned` rows, if that selector ran (not part of `all`).
    let mut tuned_rows: Vec<gpstream_tune::TuneOutcome> = Vec::new();

    if all || which == "fig5" {
        println!("== Figure 5: gather/scatter bandwidth vs record size (GB/s) ==");
        println!(
            "record bytes:                              4       8      16      32      64     128"
        );
        for s in fig::figure5(&cfg) {
            print!("{:<40}", s.name);
            for p in &s.points {
                print!(" {:7.3}", p.gbps);
            }
            println!();
        }
        println!();
    }
    if all || which == "fig6" {
        println!(
            "== Figure 6: computation/memory overlap (normalized, serial in ST mode = 100) =="
        );
        for b in fig::figure6(&cfg) {
            println!("{:<32} {:6.1}", b.name, b.normalized_time);
        }
        println!();
    }
    if all || which == "fig8" {
        println!("== Figure 8: busy-waiting impact (normalized, task alone = 100) ==");
        for b in fig::figure8(&cfg) {
            println!("{:<32} {:6.1}", b.name, b.normalized_time);
        }
        println!();
    }
    if all || which == "latencies" {
        println!("== Section III-B: work-queue dispatch latencies ==");
        for (name, cycles) in fig::dispatch_latencies(&cfg) {
            println!("{name:<24} {cycles:>6} cycles");
        }
        println!();
    }
    if all || which == "fig9" {
        println!("== Figure 9: micro-benchmark speedups vs COMP (COMP=1 ~ 50 cycles) ==");
        for s in fig::figure9(&cfg, &copts) {
            print!("{:<16}", s.name);
            for (c, v) in &s.points {
                print!("  COMP={c}: {v:.2}x");
            }
            println!();
        }
        println!();
    }
    let mode = if cli.in_order { " [in-order queues]" } else { "" };
    for (id, title, f) in [
        (
            "fig11a",
            "Figure 11(a): streamFEM (4816 cells)",
            fig::figure11a as fn(&MachineConfig, &CompilerOptions, bool) -> Vec<Comparison>,
        ),
        ("fig11b", "Figure 11(b): streamCDP", fig::figure11b),
        ("fig11c", "Figure 11(c): neo-hookean", fig::figure11c),
        ("fig11d", "Figure 11(d): streamSPAS (nnz/row ~ 46)", fig::figure11d),
    ] {
        if all || which == id {
            let rows = f(&cfg, &copts, cli.in_order);
            print_comparisons(&format!("{title}{mode}"), &rows);
            json_figures.push((id.to_string(), rows));
        }
    }
    if all || which == "ooo" {
        let rows = fig::ooo_ablation(&cfg, &copts);
        print_comparisons(
            "Figure 7 ablation: in-order vs out-of-order (tail_depend) queue issue",
            &rows,
        );
        json_figures.push(("ooo".to_string(), rows));
    }
    if all || which == "single" {
        println!("== Section III-B-2: single-context mapping overhead (single / dual cycles) ==");
        for (name, ratio) in fig::single_vs_dual_context(&cfg, &copts) {
            println!("{name:<16} {ratio:5.2}x slower on one context");
        }
        println!();
    }
    if all || which == "enhanced" {
        println!("== Section V-A/VI: proposed architectural enhancements ==");
        for (name, base, enh) in fig::enhanced_machine(&copts) {
            println!(
                "{name:<18} prescott {base:>10} cyc -> enhanced {enh:>10} cyc ({:.2}x)",
                base as f64 / enh as f64
            );
        }
        println!();
    }
    if which == "tuned" {
        let threads =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(8);
        println!(
            "== Tuned vs default heuristics (autotuner, budget {} per workload) ==",
            fig::TUNED_BUDGET
        );
        println!(
            "{:<16} {:>14} {:>14} {:>8}  winning knobs",
            "workload", "default (cyc)", "tuned (cyc)", "speedup"
        );
        tuned_rows = fig::tuned(fig::TUNED_BUDGET, threads, &gpstream_tune::EvalCache::disabled());
        for o in &tuned_rows {
            println!(
                "{:<16} {:>14} {:>14} {:>7.3}x  {}",
                o.workload,
                o.baseline_cycles,
                o.best_cycles,
                o.speedup(),
                o.best.describe()
            );
        }
        println!();
    }
    if all || which == "summary" {
        let s = fig::summary(&cfg, &copts);
        println!("== Headline summary (paper Section I) ==");
        println!("micro-benchmarks: best {:.2}x, worst {:.2}x", s.micro_best, s.micro_worst);
        println!("scientific apps:  best {:.2}x, worst {:.2}x", s.sci_best, s.sci_worst);
    }

    // Trace before JSON: the JSON document surfaces the dropped-event
    // count from the traced runs at its top level.
    let trace_dropped = cli.trace.as_ref().map_or(0, |path| write_trace(path, &cfg, &copts));
    if let Some(path) = &cli.json {
        let mut pairs = vec![(
            "figures".to_string(),
            Json::arr(json_figures.iter().map(|(id, rows)| {
                Json::obj([
                    ("figure", Json::Str(id.clone())),
                    ("rows", Json::arr(rows.iter().map(comparison_json))),
                ])
            })),
        )];
        if !tuned_rows.is_empty() {
            pairs.push(("tuned".to_string(), Json::arr(tuned_rows.iter().map(tuned_json))));
        }
        pairs.push(("trace_dropped".to_string(), Json::U64(trace_dropped)));
        let doc = Json::Obj(pairs);
        std::fs::write(path, doc.to_string()).expect("write json file");
        println!("wrote figure JSON to {path}");
    }
}
