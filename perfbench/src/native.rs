//! `native-catalog`: the seven tuner-catalog programs on
//! `NativeExecutor` with default settings (two workers plus the caller,
//! parking wait policy), each run checked bit-exact against its
//! functional oracle with `Workload::matches_oracle`.

use crate::check::OpResult;
use crate::probe::Tracer;
use crate::Layers;
use gpstream_apps::common::AppBench;
use gpstream_apps::{cdp, fem, neo, spas};
use gpstream_compiler::{compile, CompiledProgram, CompilerOptions};
use gpstream_core::exec::functional::FunctionalExecutor;
use gpstream_core::exec::native::NativeExecutor;
use gpstream_microbench::kernels;
use gpstream_tune::workloads::{self, Workload, CATALOG};
use gpstream_util::Fingerprint;
use std::cell::RefCell;
use std::time::Instant;

/// Catalog workload `name` generated from `seed` (on the catalog seed
/// this is exactly `workloads::named(name)`).
fn catalog_workload(name: &str, seed: u64, t: &mut Tracer) -> Workload {
    let app = |t: &mut Tracer, build: &dyn Fn() -> AppBench| {
        let b = t.span("apps.build", |_| build());
        t.span("tune.workload", |_| {
            Workload::new(name, b.graph, b.stream_world, b.stream_outputs, true)
        })
    };
    match name {
        "fem-mhd-quad" => app(t, &|| fem::fem_bench(fem::CONFIGS[3], fem::PAPER_CELLS, seed)),
        "cdp-6n-8192" => app(t, &|| cdp::cdp_bench(cdp::CONFIGS[3], seed)),
        "neo-16384" => app(t, &|| neo::neo_bench(16384, seed)),
        "spas-32000" => app(t, &|| spas::spas_bench(32_000, spas::PAPER_NNZ_PER_ROW, seed)),
        micro => {
            let mut wl =
                t.span("microbench.build", |_| workloads::micro(micro, kernels::FIG9_N, 4));
            wl.name = micro.to_string();
            wl
        }
    }
}

struct Program {
    wl: Workload,
    compiled: CompiledProgram,
    /// Digest of the oracle bytes, for the fingerprint.
    oracle_digest: String,
}

/// `native-catalog`.
pub struct NativeCatalog {
    programs: Vec<Program>,
    /// Wall time of every untraced `NativeExecutor::run` call, in ms.
    pub run_ms: RefCell<Vec<f64>>,
    /// Summed `NativeExecutor::run` wall time of each untraced pass, in s.
    pass_native_s: RefCell<Vec<f64>>,
}

impl NativeCatalog {
    /// Build the seven workloads with their oracles and compile them.
    pub fn setup(seed: u64, t: &mut Tracer) -> Self {
        let programs = CATALOG
            .iter()
            .map(|name| {
                let wl = catalog_workload(name, seed, t);
                let compiled = t.span("compiler.compile", |_| {
                    compile(&wl.graph, &CompilerOptions::paper()).expect("catalog compiles")
                });
                let mut fp = Fingerprint::new("oracle");
                for o in &wl.oracle {
                    fp.bytes(o);
                }
                Program { wl, compiled, oracle_digest: fp.hex() }
            })
            .collect();
        Self { programs, run_ms: RefCell::new(Vec::new()), pass_native_s: RefCell::new(Vec::new()) }
    }

    /// Operations per pass: one execution per program.
    pub fn ops(&self) -> usize {
        self.programs.len()
    }

    fn line(p: &Program, tasks: usize) -> Vec<(String, String)> {
        let value = format!("tasks={tasks} oracle={}", p.oracle_digest);
        vec![(format!("native/{}", p.wl.name), value)]
    }

    /// One untraced pass.
    pub fn pass(&self, record: &mut dyn FnMut(OpResult)) {
        let mut native_ms = 0.0;
        for p in &self.programs {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut w = p.wl.world.clone();
                let t0 = Instant::now();
                let report =
                    NativeExecutor::new().run(&p.compiled.schedule, &p.compiled.graph, &mut w);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                (p.wl.matches_oracle(&w), report.tasks, ms)
            }));
            record(match r {
                Ok((true, tasks, ms)) => {
                    native_ms += ms;
                    self.run_ms.borrow_mut().push(ms);
                    Ok(Self::line(p, tasks))
                }
                Ok((false, _, _)) => Err(format!("{}: native output != oracle", p.wl.name)),
                Err(e) => Err(crate::probe::panic_message(e)),
            });
        }
        self.pass_native_s.borrow_mut().push(native_ms * 1e-3);
    }

    /// One traced pass (task timing on).
    pub fn traced_pass(&self, t: &mut Tracer, record: &mut dyn FnMut(OpResult), l: &mut Layers) {
        for p in &self.programs {
            let r = t.op("native.program", |t| {
                let mut w = t.span("core.world_clone", |_| p.wl.world.clone());
                let report = t.span("core.native", |_| {
                    NativeExecutor::new().with_task_timing(true).run(
                        &p.compiled.schedule,
                        &p.compiled.graph,
                        &mut w,
                    )
                });
                let ok = t.span("bench.oracle", |_| p.wl.matches_oracle(&w));
                t.span("core.world_drop", |_| drop(w));
                assert!(ok, "{}: native output != oracle", p.wl.name);
                report
            });
            record(r.map(|report| {
                let busy: u64 = report.task_times.iter().flatten().map(|tt| tt.ns).sum();
                *l.entry("core.native.task_busy_s").or_insert(0.0) += busy as f64 * 1e-9;
                *l.entry("core.native.tasks").or_insert(0.0) += report.tasks as f64;
                *l.entry("core.native.runs").or_insert(0.0) += 1.0;
                Self::line(p, report.tasks)
            }));
        }
    }

    /// The functional reference on the same programs, the base of the
    /// native overhead ratio. Runs in the traced run only, outside the
    /// timed passes. The ratio's numerator, `core.native_s`, is the
    /// native run time of the untraced pass before it: the traced pass
    /// times every task, which the untraced program never does.
    pub fn reference(&self, t: &mut Tracer, l: &mut Layers) {
        let native_s = self.pass_native_s.borrow().last().copied().unwrap_or(0.0);
        l.insert("core.native_s", native_s);
        t.span("reference", |t| {
            for p in &self.programs {
                let mut w = t.span("core.world_clone", |_| p.wl.world.clone());
                let (tasks, d) = t.timed_span("core.functional", |_| {
                    FunctionalExecutor::new().run(&p.compiled.schedule, &p.compiled.graph, &mut w)
                });
                assert!(p.wl.matches_oracle(&w), "{}: functional output != oracle", p.wl.name);
                *l.entry("core.functional_s").or_insert(0.0) += d.as_secs_f64();
                *l.entry("core.functional.tasks").or_insert(0.0) += tasks as f64;
            }
        });
    }
}
