//! The paper workload `paper-stream`: every `figures all` point but
//! Figure 11(d) and `summary`.
//!
//! The Figure 11(d) streamSPAS sweep is not a workload: one pass takes
//! about 10 s, nearly all of it one memory-bound 131 072-row point whose
//! host time swings by a fifth from pass to pass on a shared 2-vCPU
//! host, so a run that fits the measuring budget holds too few passes
//! for a steady median.
//!
//! The untraced pass calls only user entry points: the
//! `gpstream_bench` figure functions, `AppBench::compare` and
//! `Microbench::compare`. The traced pass performs the same work by
//! calling the layers those entry points are built from — compiler,
//! `SimExecutor::snapshot`/`resume_from`, the regular-code lowering and
//! machine — each inside a span, and must reproduce the same
//! fingerprint. After the pass, outside it, a reference step splits
//! each simulated run's `SimExecutor::snapshot` time into its
//! functional pass, lowering and engine warm-up with two calls on the
//! same input: a `FunctionalExecutor` run and, for warm runs, a
//! snapshot with warm-up off.

use crate::check::{mem_text, phases_text, OpResult};
use crate::probe::Tracer;
use crate::Layers;
use gpstream_apps::cdp::{cdp_bench, CONFIGS as CDP_CONFIGS};
use gpstream_apps::common::AppBench;
use gpstream_apps::fem::{fem_bench, CONFIGS as FEM_CONFIGS, PAPER_CELLS};
use gpstream_apps::neo::neo_bench;
use gpstream_bench as fig;
use gpstream_compiler::{compile, CompiledProgram, CompilerOptions};
use gpstream_core::exec::functional::FunctionalExecutor;
use gpstream_core::exec::sim::{SimExecutor, SimReport};
use gpstream_core::metrics::Comparison;
use gpstream_core::regular::RegularProgram;
use gpstream_core::{ArrayId, StreamGraph, World};
use gpstream_machine::{Machine, MachineConfig, WaitPolicy};
use gpstream_microbench::kernels::{self, Microbench};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// The machine and compiler settings every figure uses.
fn settings() -> (MachineConfig, CompilerOptions) {
    (MachineConfig::prescott(), CompilerOptions::paper())
}

/// Fingerprint line of one compared point.
fn comparison_line(fig: &str, c: &Comparison) -> (String, String) {
    let phases = c.phases.as_deref().map_or_else(String::new, phases_text);
    let mem = c.mem.as_ref().map_or_else(String::new, mem_text);
    (
        format!("{fig}/{}", c.name),
        format!(
            "stream={} regular={} phases={phases} mem={mem}",
            c.stream_cycles, c.regular_cycles
        ),
    )
}

/// One compared point: a stream program and its regular twin.
struct Twin<'a> {
    name: &'a str,
    graph: &'a StreamGraph,
    stream_world: &'a World,
    regular: &'a RegularProgram,
    regular_world: &'a World,
    outputs: Vec<(ArrayId, ArrayId)>,
    /// Applications measure a warm iteration; micro-benchmarks a cold one.
    warm: bool,
    tol: f32,
}

impl<'a> Twin<'a> {
    fn app(b: &'a AppBench) -> Self {
        Twin {
            name: &b.name,
            graph: &b.graph,
            stream_world: &b.stream_world,
            regular: &b.regular,
            regular_world: &b.regular_world,
            outputs: b
                .stream_outputs
                .iter()
                .copied()
                .zip(b.regular_outputs.iter().copied())
                .collect(),
            warm: true,
            tol: 1e-3,
        }
    }

    fn micro(b: &'a Microbench) -> Self {
        Twin {
            name: &b.name,
            graph: &b.graph,
            stream_world: &b.stream_world,
            regular: &b.regular,
            regular_world: &b.regular_world,
            outputs: vec![(b.stream_output, b.regular_output)],
            warm: false,
            tol: 1e-4,
        }
    }
}

/// A simulated stream run of the traced pass, kept for the reference
/// step after the pass.
struct SimRun {
    program: Rc<CompiledProgram>,
    /// The run's input; the pass simulated a copy of it.
    world: World,
    /// The run's executor with warm-up off.
    cold: SimExecutor,
    warm: bool,
    snapshot: Duration,
    measured: Duration,
}

/// What a traced pass collects: layer values, and the simulated stream
/// runs the reference step splits.
struct PassLog<'l> {
    layers: &'l mut Layers,
    runs: Vec<SimRun>,
}

impl PassLog<'_> {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_insert(0.0) += v;
    }
}

/// A simulated stream run: `snapshot` + `resume_from`, which is what
/// `SimExecutor::run` does. Returns the report and the world the run
/// wrote.
fn traced_sim(
    t: &mut Tracer,
    exec: &SimExecutor,
    warm: bool,
    program: &Rc<CompiledProgram>,
    world: &World,
    log: &mut PassLog,
) -> (SimReport, World) {
    let (sched, graph) = (&program.schedule, &program.graph);
    let input = t.span("bench.keep_input", |_| world.clone());
    let mut sw = t.span("core.world_clone", |_| world.clone());
    let (snap, snapshot) =
        t.timed_span("core.sim.snapshot", |_| exec.snapshot(sched, graph, &mut sw));
    let (report, measured) = t.timed_span("machine.engine.measured", |_| exec.resume_from(&snap));
    t.span("core.sim.drop", |_| drop(snap));
    log.add("machine.engine.sim_cycles", report.timing.cycles as f64);
    let iterations = if warm { 2.0 } else { 1.0 };
    log.add("machine.engine.l1_accesses", report.timing.mem.l1_accesses as f64 * iterations);
    log.runs.push(SimRun {
        program: Rc::clone(program),
        world: input,
        cold: exec.clone().with_warmup(false),
        warm,
        snapshot,
        measured,
    });
    (report, sw)
}

/// The reference step: split each kept run's `snapshot` time into
/// functional pass, lowering and engine warm-up, by running a
/// `FunctionalExecutor` and, for warm runs, a snapshot with warm-up off
/// on the same input.
fn split_runs(runs: Vec<SimRun>, t: &mut Tracer, l: &mut Layers) {
    let srf = CompilerOptions::paper().srf;
    let mut log = PassLog { layers: l, runs: Vec::new() };
    t.span("reference", |t| {
        for mut r in runs {
            let (sched, graph) = (&r.program.schedule, &r.program.graph);
            let mut fw = t.span("core.world_clone", |_| r.world.clone());
            let ((), func) = t.timed_span("core.functional", |_| {
                FunctionalExecutor::with_srf(srf).run(sched, graph, &mut fw);
            });
            let cold = if r.warm {
                let cold = &r.cold;
                t.timed_span("core.sim.snapshot.cold", |_| {
                    drop(cold.snapshot(sched, graph, &mut r.world));
                })
                .1
            } else {
                r.snapshot
            };
            log.add("core.functional_s", func.as_secs_f64());
            log.add("core.functional.tasks", sched.tasks.len() as f64);
            log.add("core.sim.lower_s", cold.saturating_sub(func).as_secs_f64());
            let engine = r.snapshot.saturating_sub(cold) + r.measured;
            log.add("machine.engine.stream_s", engine.as_secs_f64());
        }
    });
}

/// `AppBench::compare_mode` / `Microbench::compare_mode`, layer by layer.
fn traced_compare(
    t: &mut Tracer,
    twin: &Twin,
    mcfg: &MachineConfig,
    in_order: bool,
    log: &mut PassLog,
) -> Comparison {
    let copts = CompilerOptions::paper();
    let compiled = t.span("compiler.compile", |_| {
        Rc::new(compile(twin.graph, &copts).expect("program compiles"))
    });
    log.add("compiler.tasks", compiled.schedule.tasks.len() as f64);
    let exec = SimExecutor::new()
        .with_machine(mcfg.clone())
        .with_srf(copts.srf)
        .with_wait_policy(WaitPolicy::Mwait)
        .with_warmup(twin.warm)
        .in_order(in_order);
    let (report, sw) = traced_sim(t, &exec, twin.warm, &compiled, twin.stream_world, log);

    let mut rw = t.span("core.world_clone", |_| twin.regular_world.clone());
    t.span("core.regular.functional", |_| twin.regular.run_functional(&mut rw));
    let ops = t.span("core.regular.lower", |_| twin.regular.lower(&rw));
    let (runs, sim) = t.timed_span("core.regular.sim", |_| {
        let mut machine = Machine::new(mcfg.clone());
        let mut runs = Vec::new();
        if twin.warm {
            runs.push(machine.run_single(ops.clone()));
            machine.reset_time();
        }
        runs.push(machine.run_single(ops));
        runs
    });
    log.add("core.regular.sim_s", sim.as_secs_f64());
    for r in &runs {
        log.add("core.regular.sim_cycles", r.cycles as f64);
        log.add("core.regular.l1_accesses", r.mem.l1_accesses as f64);
    }
    t.span("bench.oracle", |_| {
        for &(sa, ra) in &twin.outputs {
            let got: &[f32] = sw.array(sa).data.as_slice();
            let want: &[f32] = rw.array(ra).data.as_slice();
            assert_eq!(got.len(), want.len(), "{}: output length", twin.name);
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    (g - w).abs() <= twin.tol * w.abs().max(1.0),
                    "{}: output {i} differs: stream={g} regular={w}",
                    twin.name
                );
            }
        }
    });
    t.span("core.world_drop", |_| drop((sw, rw)));
    let regular = runs.last().expect("measured regular iteration");
    Comparison {
        name: twin.name.to_string(),
        regular_cycles: regular.cycles,
        stream_cycles: report.timing.cycles,
        phases: Some(report.timing.phases),
        mem: Some(report.timing.mem),
    }
}

/// Run `f` as one operation of an untraced pass.
fn untraced(f: impl FnOnce() -> Vec<(String, String)>) -> OpResult {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(crate::probe::panic_message)
}

/// Paper values from EXPERIMENTS.md for the model-accuracy lines
/// (Figure 11 tables; `~` entries read off the paper's bars).
const PAPER_SPEEDUPS: [(&str, f64); 11] = [
    ("fig11a/streamFEM Euler-lin", 1.26),
    ("fig11a/streamFEM Euler-quad", 1.20),
    ("fig11a/streamFEM MHD-lin", 1.20),
    ("fig11a/streamFEM MHD-quad", 1.13),
    ("fig11b/streamCDP 4n-4096", 0.94),
    ("fig11b/streamCDP 4n-8192", 1.10),
    ("fig11b/streamCDP 6n-4096", 1.00),
    ("fig11b/streamCDP 6n-8192", 1.27),
    ("fig11c/neo-hookean n=4096", 1.22),
    ("fig11c/neo-hookean n=16384", 1.22),
    ("fig11c/neo-hookean n=65536", 1.22),
];

/// Simulated speedup (regular / stream cycles) from a fingerprint value.
fn speedup_of(value: &str) -> Option<f64> {
    let field = |name: &str| -> Option<f64> {
        value.split(' ').find_map(|f| f.strip_prefix(name)).and_then(|v| v.parse().ok())
    };
    Some(field("regular=")? / field("stream=")?)
}

/// Informational model-accuracy lines: each simulated Figure 11
/// speedup and headline-summary value beside the paper's. Not gated.
#[must_use]
pub fn accuracy_lines(first_pass: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    let mut sci: Vec<f64> = Vec::new();
    let mut micro: Vec<f64> = Vec::new();
    for (k, v) in first_pass {
        let Some(s) = speedup_of(v) else { continue };
        if k.starts_with("fig9/") {
            micro.push(s);
        }
        if !k.starts_with("fig11") {
            continue;
        }
        sci.push(s);
        if let Some((_, p)) = PAPER_SPEEDUPS.iter().find(|(pk, _)| pk == k) {
            out.push(format!(
                "model accuracy: {k}: simulated {s:.3}x, paper {p:.2}x, difference {:+.3}x",
                s - p
            ));
        }
    }
    let best = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let worst = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    if !micro.is_empty() {
        let (b, w) = (best(&micro), worst(&micro));
        out.push(format!(
            "model accuracy: summary micro best: simulated {b:.3}x, paper 1.92x, difference {:+.3}x",
            b - 1.92
        ));
        out.push(format!(
            "model accuracy: summary micro worst: simulated {w:.3}x, paper 0.96x, difference {:+.3}x",
            w - 0.96
        ));
    }
    if !sci.is_empty() {
        let b = best(&sci);
        out.push(format!(
            "model accuracy: summary sci best (Figures 11(a-c)): simulated {b:.3}x, \
             paper 1.27x, difference {:+.3}x",
            b - 1.27
        ));
    }
    out
}

/// `paper-stream`: Figures 5, 6, 8, 9, 11(a–c), the latencies, ooo,
/// single and enhanced tables.
pub struct PaperStream {
    fig9: Vec<Microbench>,
    apps: Vec<(&'static str, AppBench)>,
    /// The last traced pass's simulated runs, for the reference step.
    runs: RefCell<Vec<SimRun>>,
}

/// The Figure 9 micro-benchmark generators.
const FIG9_GENERATORS: [fn(usize, usize) -> Microbench; 3] =
    [kernels::ld_st_comp, kernels::gat_scat_comp, kernels::prod_con];

impl PaperStream {
    /// Build the Figure 9 micro-benchmarks and the seeded applications.
    pub fn setup(seed: u64, t: &mut Tracer) -> Self {
        let mut fig9 = Vec::new();
        for gen in FIG9_GENERATORS {
            for &c in &kernels::FIG9_COMPS {
                fig9.push(t.span("microbench.build", |_| gen(kernels::FIG9_N, c)));
            }
        }
        let mut apps = Vec::new();
        for &c in &FEM_CONFIGS {
            apps.push(("fig11a", t.span("apps.build", |_| fem_bench(c, PAPER_CELLS, seed))));
        }
        for &c in &CDP_CONFIGS {
            apps.push(("fig11b", t.span("apps.build", |_| cdp_bench(c, seed))));
        }
        for &n in &fig::FIG11C_ELEMS {
            apps.push(("fig11c", t.span("apps.build", |_| neo_bench(n, seed))));
        }
        Self { fig9, apps, runs: RefCell::default() }
    }

    /// Operations per pass: fig5, fig6, fig8, latencies, every Figure 9
    /// and 11 point, ooo, single, enhanced.
    pub fn ops(&self) -> usize {
        4 + self.fig9.len() + self.apps.len() + 3
    }

    /// One untraced pass.
    pub fn pass(&self, record: &mut dyn FnMut(OpResult)) {
        let (cfg, copts) = settings();
        record(untraced(|| fig5_lines(&fig::figure5(&cfg))));
        record(untraced(|| bar_lines("fig6", &fig::figure6(&cfg))));
        record(untraced(|| bar_lines("fig8", &fig::figure8(&cfg))));
        record(untraced(|| latency_lines(&fig::dispatch_latencies(&cfg))));
        for mb in &self.fig9 {
            record(untraced(|| {
                vec![comparison_line("fig9", &mb.compare(&copts, &cfg, WaitPolicy::Mwait))]
            }));
        }
        for (id, app) in &self.apps {
            record(untraced(|| {
                vec![comparison_line(id, &app.compare(&copts, &cfg, WaitPolicy::Mwait))]
            }));
        }
        record(untraced(|| {
            fig::ooo_ablation(&cfg, &copts).iter().map(|c| comparison_line("ooo", c)).collect()
        }));
        record(untraced(|| single_lines(&fig::single_vs_dual_context(&cfg, &copts))));
        record(untraced(|| enhanced_lines(&fig::enhanced_machine(&copts))));
    }

    /// One traced pass.
    pub fn traced_pass(&self, t: &mut Tracer, record: &mut dyn FnMut(OpResult), l: &mut Layers) {
        let (cfg, copts) = settings();
        let mut log = PassLog { layers: l, runs: Vec::new() };
        let (r, d) = timed_op(t, "microbench.bwprobe", |_| fig::figure5(&cfg));
        log.add("microbench.bwprobe_s", d);
        log.add("microbench.bwprobe.points", r.as_ref().map_or(0, |s| bw_points(s)) as f64);
        record(r.map(|s| fig5_lines(&s)));
        record(t.op("microbench.overlap", |_| bar_lines("fig6", &fig::figure6(&cfg))));
        record(t.op("microbench.spinwait", |_| bar_lines("fig8", &fig::figure8(&cfg))));
        record(t.op("microbench.spinwait", |_| latency_lines(&fig::dispatch_latencies(&cfg))));
        for mb in &self.fig9 {
            let r = t.op("point", |t| traced_compare(t, &Twin::micro(mb), &cfg, false, &mut log));
            record(r.map(|c| vec![comparison_line("fig9", &c)]));
        }
        for (id, app) in &self.apps {
            let r = t.op("point", |t| traced_compare(t, &Twin::app(app), &cfg, false, &mut log));
            record(r.map(|c| vec![comparison_line(id, &c)]));
        }
        record(t.op("point", |t| traced_ooo(t, &cfg, &mut log)));
        record(t.op("point", |t| traced_single(t, &cfg, &copts, &mut log)));
        record(t.op("point", |t| traced_enhanced(t, &mut log)));
        *self.runs.borrow_mut() = log.runs;
    }

    /// The reference step after the last traced pass (outside it).
    pub fn reference(&self, t: &mut Tracer, l: &mut Layers) {
        split_runs(self.runs.take(), t, l);
    }
}

/// [`Tracer::op`] that also returns the operation span's duration in s.
fn timed_op<R>(
    t: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (Result<R, String>, f64) {
    let idx = t.spans().len();
    let r = t.op(name, f);
    (r, t.spans()[idx].dur.as_secs_f64())
}

fn bw_points(series: &[gpstream_core::metrics::BandwidthSeries]) -> usize {
    series.iter().map(|s| s.points.len()).sum()
}

fn fig5_lines(series: &[gpstream_core::metrics::BandwidthSeries]) -> Vec<(String, String)> {
    series
        .iter()
        .map(|s| {
            let pts: Vec<String> =
                s.points.iter().map(|p| format!("{}:{:?}", p.record_bytes, p.gbps)).collect();
            (format!("fig5/{}", s.name), pts.join(","))
        })
        .collect()
}

fn bar_lines(fig: &str, bars: &[gpstream_core::metrics::NormalizedBar]) -> Vec<(String, String)> {
    bars.iter().map(|b| (format!("{fig}/{}", b.name), format!("{:?}", b.normalized_time))).collect()
}

fn latency_lines(rows: &[(String, u64)]) -> Vec<(String, String)> {
    rows.iter().map(|(n, c)| (format!("latencies/{n}"), c.to_string())).collect()
}

fn single_lines(rows: &[(String, f64)]) -> Vec<(String, String)> {
    rows.iter().map(|(n, r)| (format!("single/{n}"), format!("{r:?}"))).collect()
}

fn enhanced_lines(rows: &[(String, u64, u64)]) -> Vec<(String, String)> {
    rows.iter()
        .map(|(n, b, e)| (format!("enhanced/{n}"), format!("prescott={b} enhanced={e}")))
        .collect()
}

/// `gpstream_bench::ooo_ablation`, layer by layer.
fn traced_ooo(t: &mut Tracer, cfg: &MachineConfig, log: &mut PassLog) -> Vec<(String, String)> {
    let mb = t.span("microbench.build", |_| kernels::gat_scat_comp(8192, 4));
    let fem = t.span("apps.build", |_| fem_bench(FEM_CONFIGS[0], 600, fig::SEED));
    let mut out = Vec::new();
    for in_order in [true, false] {
        let tag = if in_order { "in-order" } else { "ooo" };
        for twin in [Twin::micro(&mb), Twin::app(&fem)] {
            let mut c = traced_compare(t, &twin, cfg, in_order, log);
            c.name = format!("{} [{tag}]", c.name);
            out.push(comparison_line("ooo", &c));
        }
    }
    out
}

/// `gpstream_bench::single_vs_dual_context`, layer by layer.
fn traced_single(
    t: &mut Tracer,
    cfg: &MachineConfig,
    copts: &CompilerOptions,
    log: &mut PassLog,
) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for (name, gen) in [
        ("LD-ST-COMP", kernels::ld_st_comp as fn(usize, usize) -> Microbench),
        ("GAT-SCAT-COMP", kernels::gat_scat_comp),
        ("PROD-CON", kernels::prod_con),
    ] {
        let mb = t.span("microbench.build", |_| gen(8192, 4));
        let compiled =
            t.span("compiler.compile", |_| Rc::new(compile(&mb.graph, copts).expect("compiles")));
        log.add("compiler.tasks", compiled.schedule.tasks.len() as f64);
        let mut run = |t: &mut Tracer, single: bool| {
            let exec = SimExecutor::new()
                .with_machine(cfg.clone())
                .with_srf(copts.srf)
                .single_context(single);
            traced_sim(t, &exec, false, &compiled, &mb.stream_world, log).0.timing.cycles
        };
        let (dual, single) = (run(t, false), run(t, true));
        rows.push((name.to_string(), single as f64 / dual as f64));
    }
    single_lines(&rows)
}

/// `gpstream_bench::enhanced_machine`, layer by layer.
fn traced_enhanced(t: &mut Tracer, log: &mut PassLog) -> Vec<(String, String)> {
    let (base, enh) = (MachineConfig::prescott(), MachineConfig::enhanced());
    let mut rows = Vec::new();
    for (name, gen) in [
        ("GAT-SCAT-COMP c4", kernels::gat_scat_comp as fn(usize, usize) -> Microbench),
        ("PROD-CON c4", kernels::prod_con),
    ] {
        let mb = t.span("microbench.build", |_| gen(8192, 4));
        let b = traced_compare(t, &Twin::micro(&mb), &base, false, log).stream_cycles;
        let e = traced_compare(t, &Twin::micro(&mb), &enh, false, log).stream_cycles;
        rows.push((name.to_string(), b, e));
    }
    enhanced_lines(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_parses_fingerprint_values() {
        assert_eq!(speedup_of("stream=100 regular=150 phases= mem="), Some(1.5));
        assert_eq!(speedup_of("prescott=1 enhanced=2"), None);
    }

    #[test]
    fn accuracy_lines_name_paper_values() {
        let fp =
            vec![("fig11a/streamFEM MHD-quad".to_string(), "stream=100 regular=113".to_string())];
        let lines = accuracy_lines(&fp);
        assert!(lines[0].contains("paper 1.13x") && lines[0].contains("+0.000x"), "{lines:?}");
    }
}
