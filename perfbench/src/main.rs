//! gpstream host-time benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `paper-stream`, `serve-overload`, `native-catalog` (see
//! `BENCHMARK.json` for why each was chosen).
//!
//! An untraced run (`--trace 0`) repeats rounds of a set-up followed by
//! an untraced pass for `--seconds` and reports the end-to-end metrics:
//! median set-up time, median pass wall and CPU time, throughput and
//! peak RSS. A traced run (`--trace 1`) sets up
//! once inside a span, then alternates an untraced pass with a traced
//! one — the same work done through the layers' public functions, each
//! call inside a span — and reports the per-layer metrics, a self-time
//! table and a Chrome trace under `perfbench/out/`.
//!
//! Every operation's simulated statistics form a fingerprint that must
//! match the committed reference under `perfbench/reference/` on the
//! default seed, and must repeat across passes on any seed. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.

mod check;
mod native;
mod paper;
mod probe;
mod serve;

use check::{Ledger, OpResult};
use probe::{median, quantile, timed, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer values accumulated over one traced pass.
pub type Layers = BTreeMap<&'static str, f64>;

/// The catalog seed every figure and generator defaults to.
const DEFAULT_SEED: u64 = 0x6a79_2005;

const WORKLOADS: [&str; 3] = ["paper-stream", "serve-overload", "native-catalog"];

/// Per-layer metrics, printed by every traced run (0 where the
/// workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 40] = [
    ("machine.engine.stream_s", "s"),
    ("machine.engine.sim_cycles", "cycles"),
    ("machine.engine.l1_accesses", "count"),
    ("machine.engine.ns_per_access", "ns"),
    ("core.regular.sim_s", "s"),
    ("core.regular.sim_cycles", "cycles"),
    ("core.regular.l1_accesses", "count"),
    ("core.regular.ns_per_access", "ns"),
    ("apps.build_s", "s"),
    ("apps.inputs", "count"),
    ("microbench.bwprobe_s", "s"),
    ("microbench.bwprobe.points", "count"),
    ("compiler.compile_s", "s"),
    ("compiler.tasks", "count"),
    ("core.functional_s", "s"),
    ("core.functional.tasks", "count"),
    ("core.sim.lower_s", "s"),
    ("serve.arrivals_s", "s"),
    ("serve.sched_s", "s"),
    ("serve.observe_s", "s"),
    ("serve.replay_s", "s"),
    ("serve.report_s", "s"),
    ("serve.table_s", "s"),
    ("serve.offered", "count"),
    ("serve.batches", "count"),
    ("serve.retries", "count"),
    ("serve.reject_events", "count"),
    ("serve.max_pending", "count"),
    ("serve.records_replayed", "count"),
    ("serve.spans_dropped", "count"),
    ("core.native_s", "s"),
    ("core.native.overhead_ratio", "ratio"),
    ("core.native.task_busy_s", "s"),
    ("core.native.run_ms.p50", "ms"),
    ("core.native.run_ms.p99", "ms"),
    ("core.native.run_ms.samples", "count"),
    ("core.native.tasks", "count"),
    ("core.native.runs", "count"),
    ("trace.overhead_s", "s"),
    ("trace.accounted", "ratio"),
];

/// Derived ratios and the base each is printed with.
const RATIO_BASES: [(&str, &str); 3] = [
    ("machine.engine.ns_per_access", "machine.engine.l1_accesses"),
    ("core.regular.ns_per_access", "core.regular.l1_accesses"),
    ("core.native.overhead_ratio", "core.functional_s"),
];

/// Span names whose self time is benchmark glue, not a layer.
const GLUE: [&str; 5] = ["pass", "point", "serve.run", "native.program", "bench.keep_input"];

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--bless]\n  workloads: paper-stream serve-overload \
                     native-catalog";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                let v = value()?;
                a.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {v}: expected 0 < S <= 600"));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

/// Committed reference fingerprint of each workload (default seed).
fn committed_reference(workload: &str) -> &'static str {
    match workload {
        "paper-stream" => include_str!("../reference/paper-stream.txt"),
        "serve-overload" => include_str!("../reference/serve-overload.txt"),
        _ => include_str!("../reference/native-catalog.txt"),
    }
}

fn reference_path(workload: &str) -> String {
    format!("{}/reference/{workload}.txt", env!("CARGO_MANIFEST_DIR"))
}

enum Bench {
    Stream(paper::PaperStream),
    Serve(serve::ServeOverload),
    Native(native::NativeCatalog),
}

impl Bench {
    fn setup(workload: &str, seed: u64, t: &mut Tracer) -> Bench {
        match workload {
            "paper-stream" => Bench::Stream(paper::PaperStream::setup(seed, t)),
            "serve-overload" => Bench::Serve(serve::ServeOverload::setup(seed, t)),
            _ => Bench::Native(native::NativeCatalog::setup(seed, t)),
        }
    }

    /// Operations per pass.
    fn ops(&self) -> usize {
        match self {
            Bench::Stream(b) => b.ops(),
            Bench::Serve(b) => b.ops(),
            Bench::Native(b) => b.ops(),
        }
    }

    /// Jobs per pass for `jobs_per_s`: offered serve jobs, otherwise
    /// operations (figure points, native program executions).
    fn jobs(&self) -> usize {
        match self {
            Bench::Serve(b) => b.jobs(),
            other => other.ops(),
        }
    }

    fn pass(&self, record: &mut dyn FnMut(OpResult)) {
        match self {
            Bench::Stream(b) => b.pass(record),
            Bench::Serve(b) => b.pass(record),
            Bench::Native(b) => b.pass(record),
        }
    }

    fn traced_pass(&self, t: &mut Tracer, record: &mut dyn FnMut(OpResult), l: &mut Layers) {
        match self {
            Bench::Stream(b) => b.traced_pass(t, record, l),
            Bench::Serve(b) => b.traced_pass(t, record, l),
            Bench::Native(b) => b.traced_pass(t, record, l),
        }
    }

    /// The reference step after a traced pass, outside it: the calls
    /// that split a layer's time without adding to the traced pass.
    fn reference(&self, t: &mut Tracer, l: &mut Layers) {
        match self {
            Bench::Stream(b) => b.reference(t, l),
            Bench::Serve(b) => b.reference(t, l),
            Bench::Native(b) => b.reference(t, l),
        }
    }
}

/// Metric name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

/// Whether another round fits the measuring budget: always the first,
/// then only while the median round so far still ends within it.
fn another_round(done: &[Duration], start: Instant, budget: Duration) -> bool {
    done.is_empty() || start.elapsed().as_secs_f64() + median(&secs(done)) <= budget.as_secs_f64()
}

/// Rounds of a set-up followed by an untraced pass on it, for the
/// measuring budget. Host speed here drifts by a fifth within seconds,
/// so set-ups are spread over the whole run rather than done back to
/// back before it: their median then sees the same drift the passes do.
fn untraced_run(a: &Args, led: &mut Ledger) -> Vec<Metric> {
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let (mut setups, mut wall, mut cpu, mut rounds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ops, mut jobs) = (0, 0);
    while another_round(&rounds, start, budget) {
        let round_start = Instant::now();
        let bench = Bench::setup(&a.workload, a.seed, &mut Tracer::default());
        setups.push(round_start.elapsed());
        let ((), w, c) = timed(|| bench.pass(&mut |r| led.record(r)));
        led.end_pass();
        wall.push(w);
        cpu.push(c);
        (ops, jobs) = (bench.ops(), bench.jobs());
        drop(bench);
        rounds.push(round_start.elapsed());
    }
    let pass_s = median(&secs(&wall));
    println!(
        "{}: {} rounds of a set-up and a pass of {ops} operations; pass wall min {:.4} p25 {:.4} \
         p50 {pass_s:.4} p75 {:.4} max {:.4} s",
        a.workload,
        wall.len(),
        quantile(&secs(&wall), 0.0),
        quantile(&secs(&wall), 0.25),
        quantile(&secs(&wall), 0.75),
        quantile(&secs(&wall), 1.0),
    );
    vec![
        ("setup_s", median(&secs(&setups)), "s"),
        ("pass_s", pass_s, "s"),
        ("cpu_s", median(&secs(&cpu)), "s"),
        ("jobs_per_s", jobs as f64 / pass_s, "jobs/s"),
        ("peak_rss_mb", probe::peak_rss_mb(), "MB"),
    ]
}

fn traced_run(a: &Args, led: &mut Ledger) -> Vec<Metric> {
    let mut t = Tracer::default();
    let setup_root = t.spans().len();
    let bench = t.span("setup", |t| Bench::setup(&a.workload, a.seed, t));
    let build_names = ["apps.build", "microbench.build"];
    let apps_build: Duration = build_names.iter().map(|n| t.total_under(setup_root, n)).sum();
    let apps_inputs =
        t.spans()[setup_root..].iter().filter(|s| build_names.contains(&s.name)).count();

    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut per_pass: Vec<Layers> = Vec::new();
    let mut roots = Vec::new();
    let mut rounds = Vec::new();
    while another_round(&rounds, start, budget) {
        let round_start = Instant::now();
        let ((), w, _) = timed(|| bench.pass(&mut |r| led.record(r)));
        led.end_pass();
        untraced.push(w);

        let mut l = Layers::new();
        let root = t.spans().len();
        t.span("pass", |t| bench.traced_pass(t, &mut |r| led.record(r), &mut l));
        let dur = t.spans()[root].dur;
        traced.push(dur);
        roots.push(root);
        l.insert("compiler.compile_s", t.total_under(root, "compiler.compile").as_secs_f64());
        let glue: Duration =
            t.self_times(root).iter().filter(|r| GLUE.contains(&r.0)).map(|r| r.1).sum();
        l.insert("trace.accounted", 1.0 - glue.as_secs_f64() / dur.as_secs_f64());
        bench.reference(&mut t, &mut l);
        per_pass.push(l);
        rounds.push(round_start.elapsed());
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let v: Vec<f64> = per_pass.iter().map(|l| l.get(name).copied().unwrap_or(0.0)).collect();
        values.insert(name, median(&v));
    }
    values.insert("apps.build_s", apps_build.as_secs_f64());
    values.insert("apps.inputs", apps_inputs as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    values.insert(
        "machine.engine.ns_per_access",
        ratio(values["machine.engine.stream_s"] * 1e9, values["machine.engine.l1_accesses"]),
    );
    values.insert(
        "core.regular.ns_per_access",
        ratio(values["core.regular.sim_s"] * 1e9, values["core.regular.l1_accesses"]),
    );
    values.insert(
        "core.native.overhead_ratio",
        ratio(values["core.native_s"], values["core.functional_s"]),
    );
    if let Bench::Native(n) = &bench {
        let ms = n.run_ms.borrow();
        if !ms.is_empty() {
            values.insert("core.native.run_ms.p50", quantile(&ms, 0.5));
            values.insert("core.native.run_ms.p99", quantile(&ms, 0.99));
            values.insert("core.native.run_ms.samples", ms.len() as f64);
        }
    }
    let (untraced_s, traced_s) = (median(&secs(&untraced)), median(&secs(&traced)));
    values.insert("trace.overhead_s", traced_s - untraced_s);

    print_self_times(&t, &roots, &a.workload);
    println!(
        "{}: {} untraced passes p50 {untraced_s:.4} s, {} traced passes p50 {traced_s:.4} s",
        a.workload,
        untraced.len(),
        traced.len()
    );
    for (r, base) in RATIO_BASES {
        println!("ratio {r} = {:.4} (base: {base} = {})", values[r], values[base]);
    }
    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/trace-{}.json", a.workload);
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, t.chrome_json(&a.workload)))
    {
        Ok(()) => println!("wrote span trace to {path} ({} spans)", t.spans().len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    PER_LAYER.iter().map(|&(name, unit)| (name, values[name], unit)).collect()
}

/// Self time per span name, averaged over the traced passes.
fn print_self_times(t: &Tracer, roots: &[usize], workload: &str) {
    let mut rows: Vec<(&str, Duration, u64)> = Vec::new();
    for &root in roots {
        for (name, d, spans) in t.self_times(root) {
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => {
                    r.1 += d;
                    r.2 += spans;
                }
                None => rows.push((name, d, spans)),
            }
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let total: Duration = roots.iter().map(|&r| t.spans()[r].dur).sum();
    let n = roots.len() as f64;
    println!("self time per traced pass of {workload} (mean of {} passes):", roots.len());
    println!("  {:<28} {:>10} {:>7} {:>8}", "span", "self s", "share", "spans");
    for (name, d, spans) in rows {
        let share = 100.0 * d.as_secs_f64() / total.as_secs_f64();
        println!(
            "  {name:<28} {:>10.4} {share:>6.1}% {:>8.0}",
            d.as_secs_f64() / n,
            spans as f64 / n
        );
    }
}

fn result_json(led: &Ledger, metrics: &[Metric]) -> String {
    use gpstream_util::Json;
    Json::obj([
        ("correct", Json::Bool(led.failed == 0 && led.attempted > 0)),
        ("attempted", Json::U64(led.attempted)),
        ("failed", Json::U64(led.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, v, unit)| {
                (name, Json::obj([("value", Json::F64(v)), ("unit", Json::Str(unit.into()))]))
            })),
        ),
    ])
    .to_string()
}

fn main() {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if a.bless && a.seed != DEFAULT_SEED {
        eprintln!("--bless writes the default-seed reference; drop --seed");
        std::process::exit(2);
    }
    let checked = !a.bless && a.seed == DEFAULT_SEED;
    let reference = checked.then(|| check::parse_reference(committed_reference(&a.workload)));
    let mut led = Ledger::new(reference);
    let metrics = if a.trace { traced_run(&a, &mut led) } else { untraced_run(&a, &mut led) };

    let missing = led.missing_reference_keys();
    if !missing.is_empty() && led.failed == 0 {
        led.failed = 1;
        led.messages.push(format!("reference keys not produced: {}", missing.join(", ")));
    }
    if a.workload == "paper-stream" {
        for l in paper::accuracy_lines(&led.first_pass) {
            println!("{l}");
        }
    }
    println!(
        "fingerprint: seed {:#x}, {} lines, digest {}, {}",
        a.seed,
        led.first_pass.len(),
        led.digest(),
        match (a.bless, checked) {
            (true, _) => "written as the new reference",
            (false, true) => "checked against the reference",
            (false, false) => "no reference for this seed (oracles and pass-to-pass checks only)",
        }
    );
    for m in &led.messages {
        println!("FAILED: {m}");
    }
    let error_rate = led.failed as f64 / led.attempted.max(1) as f64;
    println!("error_rate: {error_rate} ({} failed of {} operations)", led.failed, led.attempted);
    if a.bless {
        let path = reference_path(&a.workload);
        std::fs::write(&path, check::render_reference(&a.workload, &led.first_pass))
            .expect("write reference");
        println!("wrote reference {path}");
    }
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    println!("{}", result_json(&led, &metrics));
}
