//! Differential executor tests: for each application and several strip
//! sizes, the reference, simulating and native executors must leave the
//! World in a byte-identical state.
//!
//! This is the strongest cross-check the three-executor design offers:
//! the functional executor is the semantics oracle, the simulating
//! executor adds the timing pass (which must not perturb results), and
//! the native executor re-orders work across real threads (where any
//! dependency bug shows up as a divergent byte).
//!
//! The second half is the **sim-equivalence suite**: the production
//! event-driven engine must be *byte-identical* to its cycle-stepping
//! reference oracle ([`SimExecutor::stepped_oracle`]) — same
//! `RunResult`, trace, task log, profile counters, interval samples, and
//! analyze artifacts — across the workload catalog × {in-order,
//! out-of-order} × two strip sizes. Per-commit runs use micro-sized
//! versions of all seven catalog shapes; the full paper-scale catalog
//! runs under `--ignored` in release CI.

use gpstream::apps::{cdp, fem, neo, spas};
use gpstream::compiler::{compile, CompilerOptions};
use gpstream::core::exec::functional::FunctionalExecutor;
use gpstream::core::exec::native::{NativeExecutor, NativeWaitPolicy};
use gpstream::core::exec::sim::{SimExecutor, SimReport};
use gpstream::core::regular::RegularProgram;
use gpstream::core::{ScheduledProgram, StreamGraph, World};
use gpstream::machine::{Machine, MachineConfig, RunResult, WaitPolicy};
use gpstream::microbench::bwprobe::{self, ProbeKind};
use gpstream::microbench::kernels;
use gpstream::microbench::overlap::{self, Scenario};
use gpstream::microbench::spinwait::{self, TaskKind};
use gpstream_analyze::{render as analyze_render, runner::analyze_run};
use gpstream_profile::counters::CounterSet;
use gpstream_profile::report::{profile_json, samples_csv};
use gpstream_profile::topdown::topdown;
use gpstream_tune::workloads::{self, Workload};

const SEED: u64 = 0xd1ff;

/// Byte-level snapshot of every array in a world.
fn world_bytes(w: &World) -> Vec<(String, Vec<u8>)> {
    w.iter().map(|a| (a.name.clone(), a.data.as_bytes().to_vec())).collect()
}

fn assert_worlds_identical(name: &str, label_a: &str, a: &World, label_b: &str, b: &World) {
    let wa = world_bytes(a);
    let wb = world_bytes(b);
    assert_eq!(wa.len(), wb.len(), "{name}: array count differs");
    for ((na, da), (nb, db)) in wa.iter().zip(&wb) {
        assert_eq!(na, nb, "{name}: array order/name differs");
        assert_eq!(da, db, "{name}: array `{na}` differs between {label_a} and {label_b}");
    }
}

/// Run every executor variant on the same program and compare final
/// worlds byte for byte: the simulating executor with head-blocking and
/// with out-of-order (`tail_depend`) queues, and the native executor
/// over the {in-order, out-of-order} x {Spin, Park} matrix.
fn differential(name: &str, graph: &StreamGraph, world: &World, copts: &CompilerOptions) {
    let compiled = compile(graph, copts).expect("app compiles");

    let mut functional = world.clone();
    FunctionalExecutor::with_srf(copts.srf).run(
        &compiled.schedule,
        &compiled.graph,
        &mut functional,
    );

    for in_order in [true, false] {
        let mut simulated = world.clone();
        let _ = SimExecutor::new()
            .with_srf(copts.srf)
            .with_wait_policy(WaitPolicy::Mwait)
            .in_order(in_order)
            .run(&compiled.schedule, &compiled.graph, &mut simulated);
        let label = format!("sim in_order={in_order}");
        assert_worlds_identical(name, "functional", &functional, &label, &simulated);
    }

    for (in_order, policy) in [
        (true, NativeWaitPolicy::Park),
        (false, NativeWaitPolicy::Spin),
        (false, NativeWaitPolicy::Park),
    ] {
        let mut native = world.clone();
        let _ = NativeExecutor::new()
            .with_srf(copts.srf)
            .with_wait_policy(policy)
            .in_order(in_order)
            .run(&compiled.schedule, &compiled.graph, &mut native);
        let label = format!("native in_order={in_order} policy={policy:?}");
        assert_worlds_identical(name, "functional", &functional, &label, &native);
    }
}

/// Exercise an app at two strip sizes (a small one forcing many strips
/// and the compiler's own choice).
fn differential_at_strips(name: &str, graph: &StreamGraph, world: &World) {
    for strip in [Some(64usize), None] {
        let copts = CompilerOptions { strip_items: strip, ..CompilerOptions::paper() };
        differential(&format!("{name} strip={strip:?}"), graph, world, &copts);
    }
}

/// Canonical JSON of the profile artifact figures would write for a run.
fn profile_doc(
    wl_name: &str,
    program: &ScheduledProgram,
    graph: &StreamGraph,
    r: &SimReport,
) -> String {
    let prof = r.profile.as_ref().expect("profiling was enabled");
    let cs = CounterSet::from(&r.timing);
    let tree = topdown(wl_name, program, graph, prof, &r.timing.ctx_cycles, &r.timing.phases);
    profile_json(wl_name, &cs, &tree, prof).to_doc_string()
}

/// Canonical JSON of the analyzer artifact for a task-logged run.
fn analyze_doc(
    wl_name: &str,
    program: &ScheduledProgram,
    graph: &StreamGraph,
    r: &SimReport,
) -> String {
    let analysis = analyze_run(
        wl_name,
        program,
        graph,
        r,
        SimExecutor::new().machine_config(),
        WaitPolicy::Mwait,
    );
    analyze_render::to_json(&analysis).to_doc_string()
}

/// Run `wl` under both step modes across {in-order, out-of-order} × two
/// strip sizes and assert every observable is byte-identical: the final
/// world, `RunResult`, the trace event stream, the task log, the profile
/// artifact, the interval-sample CSV, and (for task-logged runs) the
/// analyzer artifact.
fn sim_equivalence(wl: &Workload) {
    for strip in [Some(64usize), None] {
        let copts = CompilerOptions { strip_items: strip, ..CompilerOptions::paper() };
        let compiled = compile(&wl.graph, &copts).expect("workload compiles");
        for in_order in [false, true] {
            let ctx = format!("{} strip={strip:?} in_order={in_order}", wl.name);
            let exec = || {
                SimExecutor::new()
                    .with_srf(copts.srf)
                    .with_warmup(wl.warmup)
                    .in_order(in_order)
                    .with_trace(true)
                    .with_profile(true)
                    .with_task_log(true)
                    .with_sample_interval(4096)
            };
            let mut w_stepped = wl.world.clone();
            let stepped =
                exec().stepped_oracle().run(&compiled.schedule, &compiled.graph, &mut w_stepped);
            let mut w_event = wl.world.clone();
            let event = exec().run(&compiled.schedule, &compiled.graph, &mut w_event);

            assert!(wl.matches_oracle(&w_stepped), "{ctx}: stepped run broke the oracle");
            assert_worlds_identical(&ctx, "stepped", &w_stepped, "event", &w_event);
            assert_eq!(
                format!("{:?}", stepped.timing),
                format!("{:?}", event.timing),
                "{ctx}: RunResult differs between step modes"
            );
            assert_eq!(
                format!("{:?}", stepped.trace),
                format!("{:?}", event.trace),
                "{ctx}: trace events differ between step modes"
            );
            assert_eq!(
                format!("{:?}", stepped.task_runs),
                format!("{:?}", event.task_runs),
                "{ctx}: task log differs between step modes"
            );
            assert_eq!(
                profile_doc(&wl.name, &compiled.schedule, &compiled.graph, &stepped),
                profile_doc(&wl.name, &compiled.schedule, &compiled.graph, &event),
                "{ctx}: profile artifact differs between step modes"
            );
            let csv = |r: &SimReport| samples_csv(&r.profile.as_ref().unwrap().samples);
            assert_eq!(
                csv(&stepped),
                csv(&event),
                "{ctx}: interval samples differ between step modes"
            );
            if stepped.task_runs.is_some() {
                assert_eq!(
                    analyze_doc(&wl.name, &compiled.schedule, &compiled.graph, &stepped),
                    analyze_doc(&wl.name, &compiled.schedule, &compiled.graph, &event),
                    "{ctx}: analyze artifact differs between step modes"
                );
            }

            // Uninstrumented runs: with no sampler attached the event
            // mode may run whole ops greedily inside spans — a different
            // internal path than the sampled runs above, so it gets its
            // own byte-identity check.
            let bare =
                || SimExecutor::new().with_srf(copts.srf).with_warmup(wl.warmup).in_order(in_order);
            let mut wb_stepped = wl.world.clone();
            let b_stepped =
                bare().stepped_oracle().run(&compiled.schedule, &compiled.graph, &mut wb_stepped);
            let mut wb_event = wl.world.clone();
            let b_event = bare().run(&compiled.schedule, &compiled.graph, &mut wb_event);
            assert_worlds_identical(&ctx, "bare stepped", &wb_stepped, "bare event", &wb_event);
            assert_eq!(
                format!("{:?}", b_stepped.timing),
                format!("{:?}", b_event.timing),
                "{ctx}: uninstrumented RunResult differs between step modes"
            );
        }
    }
}

/// Micro-sized versions of all seven catalog workload shapes — same
/// kernels, access patterns and task graphs as the paper-scale catalog,
/// shrunk so the stepped reference stays affordable per commit.
fn micro_catalog() -> Vec<Workload> {
    let s = workloads::SEED;
    let app = |name: &str, b: gpstream::apps::common::AppBench| {
        Workload::new(name, b.graph, b.stream_world, b.stream_outputs, true)
    };
    vec![
        workloads::micro("ldstcomp", 4096, 4),
        workloads::micro("gatscat", 4096, 4),
        workloads::micro("prodcon", 4096, 4),
        app("fem-mhd-quad-micro", fem::fem_bench(fem::CONFIGS[3], 600, s)),
        app("cdp-6n-micro", cdp::cdp_bench(cdp::CdpConfig { name: "6n-512", k: 6, n: 512 }, s)),
        app("neo-micro", neo::neo_bench(512, s)),
        app("spas-micro", spas::spas_bench(400, 24, s)),
    ]
}

#[test]
fn ldstcomp_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[0]);
}

/// TRIAD is the workload the sim-speed report's ≥10× claim rests on, so
/// its byte-identity is pinned here alongside the catalog shapes.
#[test]
fn triad_sim_modes_agree() {
    let m = gpstream_microbench::kernels::stream_triad(4096);
    let wl = Workload::new("triad-micro", m.graph, m.stream_world, vec![m.stream_output], true);
    sim_equivalence(&wl);
}

#[test]
fn gatscat_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[1]);
}

#[test]
fn prodcon_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[2]);
}

#[test]
fn fem_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[3]);
}

#[test]
fn cdp_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[4]);
}

#[test]
fn neo_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[5]);
}

#[test]
fn spas_sim_modes_agree() {
    sim_equivalence(&micro_catalog()[6]);
}

/// The acceptance-criterion oracle: the full paper-scale catalog, both
/// step modes, byte-identical artifacts. Expensive — run in release CI
/// via `cargo test --release --test differential -- --ignored`.
#[test]
#[ignore = "paper-scale catalog; run with --release -- --ignored (CI does)"]
fn full_catalog_sim_modes_agree() {
    for name in workloads::CATALOG {
        let wl = workloads::named(name).expect("catalog name resolves");
        sim_equivalence(&wl);
    }
}

/// Assert two single-machine runs are byte-identical: cycles,
/// per-context cycles, `MemStats` and phases.
fn assert_runs_identical(ctx: &str, event: &RunResult, stepped: &RunResult) {
    assert_eq!(
        format!("{event:?}"),
        format!("{stepped:?}"),
        "{ctx}: RunResult differs between the event engine and the stepped oracle"
    );
}

/// Run `run` on a fresh production machine and on a fresh stepped-oracle
/// machine and assert the two results are byte-identical.
fn machine_equivalence(ctx: &str, run: impl Fn(Machine) -> RunResult) {
    let cfg = MachineConfig::prescott();
    let event = run(Machine::new(cfg.clone()));
    assert_runs_identical(ctx, &event, &run(Machine::new(cfg).stepped_oracle()));
}

/// Time a regular program through its production entry points
/// (`simulate`, `simulate_warm`) and the same runs on a stepped-oracle
/// machine; cold and warm results must be byte-identical.
fn regular_equivalence(name: &str, regular: &RegularProgram, world: &World) {
    let cfg = MachineConfig::prescott();
    let cold = regular.simulate(&mut world.clone(), &cfg);
    let warm = regular.simulate_warm(&mut world.clone(), &cfg);

    let mut w = world.clone();
    regular.run_functional(&mut w);
    let ops = regular.lower(&w);
    let mut oracle = Machine::new(cfg).stepped_oracle();
    assert_runs_identical(&format!("{name} cold"), &cold, &oracle.run_single(ops.clone()));
    oracle.reset_time();
    assert_runs_identical(&format!("{name} warm"), &warm, &oracle.run_single(ops));
}

/// The regular (conventional) twin of every catalog program, micro-sized:
/// these run on one context straight through `Machine::run_single`, not
/// through `SimExecutor`.
#[test]
fn regular_programs_step_modes_agree() {
    let s = workloads::SEED;
    for mb in [
        kernels::ld_st_comp(4096, 4),
        kernels::gat_scat_comp(4096, 4),
        kernels::prod_con(4096, 4),
        kernels::stream_triad(4096),
    ] {
        regular_equivalence(&mb.name, &mb.regular, &mb.regular_world);
    }
    let mut apps: Vec<_> = fem::CONFIGS.iter().map(|&c| fem::fem_bench(c, 600, s)).collect();
    apps.push(cdp::cdp_bench(cdp::CdpConfig { name: "6n-512", k: 6, n: 512 }, s));
    apps.push(neo::neo_bench(512, s));
    apps.push(spas::spas_bench(400, 24, s));
    for app in &apps {
        regular_equivalence(&app.name, &app.regular, &app.regular_world);
    }
}

/// Figure 5 bandwidth probes at a handful of points, sequential and
/// random, with and without non-temporal hints.
#[test]
fn bandwidth_probes_step_modes_agree() {
    for (kind, record, nt) in [
        (ProbeKind::SeqLoad, 4, false),
        (ProbeKind::SeqLoad, 128, true),
        (ProbeKind::SeqStore, 8, false),
        (ProbeKind::RandGather, 128, false),
        (ProbeKind::RandScatter, 64, true),
    ] {
        machine_equivalence(&format!("{kind:?} record={record} nt={nt}"), |m| {
            bwprobe::run_probe(kind, record, nt, m).0
        });
    }
}

/// Figure 6 overlap scenarios and Figure 8 busy-wait / dispatch runs.
#[test]
fn overlap_and_spinwait_step_modes_agree() {
    for s in Scenario::ALL {
        machine_equivalence(&format!("{s:?} serial"), |m| overlap::serial_run(s, m));
        machine_equivalence(&format!("{s:?} parallel"), |m| overlap::parallel_run(s, m));
    }
    let policies = [WaitPolicy::SpinPause, WaitPolicy::Mwait, WaitPolicy::OsBlock];
    for kind in [TaskKind::Compute, TaskKind::Memory] {
        machine_equivalence(&format!("solo {kind:?}"), |m| spinwait::solo_run(kind, m));
        for policy in policies {
            machine_equivalence(&format!("{kind:?} vs {policy:?} waiter"), |m| {
                spinwait::waited_run(kind, policy, m)
            });
        }
    }
    for policy in policies {
        machine_equivalence(&format!("dispatch {policy:?}"), |m| spinwait::dispatch_run(policy, m));
    }
}

#[test]
fn fem_executors_agree() {
    let bench = fem::fem_bench(fem::CONFIGS[0], 600, SEED);
    differential_at_strips("fem", &bench.graph, &bench.stream_world);
}

#[test]
fn cdp_executors_agree() {
    let bench = cdp::cdp_bench(cdp::CdpConfig { name: "4n-diff", k: 4, n: 512 }, SEED);
    differential_at_strips("cdp", &bench.graph, &bench.stream_world);
}

#[test]
fn neo_executors_agree() {
    let bench = neo::neo_bench(512, SEED);
    differential_at_strips("neo", &bench.graph, &bench.stream_world);
}

#[test]
fn spas_executors_agree() {
    let bench = spas::spas_bench(400, 24, SEED);
    differential_at_strips("spas", &bench.graph, &bench.stream_world);
}
