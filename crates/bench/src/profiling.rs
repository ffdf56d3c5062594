//! `figures profile`: run one catalog workload under the simulating
//! executor with full counter instrumentation and render every report
//! the profiler produces. All outputs except the native parity report
//! are byte-deterministic for a fixed workload.

use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::native::NativeExecutor;
use gpstream_core::exec::sim::{SimExecutor, DEFAULT_SAMPLE_INTERVAL};
use gpstream_machine::MachineConfig;
use gpstream_profile::{report, topdown, CounterSet};
use gpstream_tune::workloads;

/// Every deterministic artifact of one profiled run.
pub struct ProfileOutputs {
    /// Workload name (catalog id).
    pub workload: String,
    /// The counter set the reports were rendered from (baselines
    /// capture/check against this).
    pub counters: CounterSet,
    /// `perf stat`-style text report.
    pub perf_stat: String,
    /// Top-down self/total tree, rendered.
    pub topdown: String,
    /// Collapsed-stack (flamegraph) export.
    pub folded: String,
    /// Interval counter time-series as CSV.
    pub samples_csv: String,
    /// The same counter stream re-aggregated through the
    /// `gpstream-telemetry` windowed registry (one counter per memory
    /// statistic, tumbling windows of [`telemetry_window`] cycles) as
    /// CSV. Window deltas provably sum to the run totals.
    pub telemetry_csv: String,
    /// The whole profile as one JSON document.
    pub json: String,
}

/// The telemetry window for a sampling interval: four intervals,
/// coarse enough that the windowed view aggregates rather than mirrors
/// the raw samples, still fine enough to see phase transitions. `None`
/// when it does not fit a `u64`.
#[must_use]
pub fn telemetry_window(interval: u64) -> Option<u64> {
    interval.checked_mul(4)
}

/// Profile one catalog workload (see
/// [`workloads::CATALOG`]) at the given sampling interval. `in_order`
/// profiles the run with head-blocking work queues instead of the
/// default out-of-order `tail_depend` issue — diffing the two
/// artifacts shows what the out-of-order queues buy. Returns `None`
/// for an unknown workload name.
///
/// # Panics
///
/// Panics if `interval` is zero or has no [`telemetry_window`], if the
/// workload fails to compile under the paper's default options, or if
/// the run does not reproduce the functional oracle.
#[must_use]
pub fn profile_workload(
    name: &str,
    interval: Option<u64>,
    in_order: bool,
) -> Option<ProfileOutputs> {
    let wl = workloads::named(name)?;
    let interval = interval.unwrap_or(DEFAULT_SAMPLE_INTERVAL);
    let window = telemetry_window(interval).expect("sample interval times four fits a u64");
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("catalog workload compiles");
    let mut world = wl.world.clone();
    let sim_report = SimExecutor::new()
        .with_machine(MachineConfig::prescott())
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .in_order(in_order)
        .with_profile(true)
        .with_sample_interval(interval)
        .run(&compiled.schedule, &compiled.graph, &mut world);
    assert!(wl.matches_oracle(&world), "profiled run must reproduce the oracle");
    let prof = sim_report.profile.expect("profiling was enabled");
    let counters = CounterSet::from(&sim_report.timing);
    let tree = topdown::topdown(
        name,
        &compiled.schedule,
        &compiled.graph,
        &prof,
        &sim_report.timing.ctx_cycles,
        &sim_report.timing.phases,
    );
    let telemetry_csv =
        gpstream_telemetry::sim::from_sim_samples(&prof.samples, window).finish().csv;
    Some(ProfileOutputs {
        workload: name.to_string(),
        perf_stat: report::perf_stat_text(name, &counters),
        topdown: topdown::render(&tree),
        folded: topdown::collapsed(&tree),
        samples_csv: report::samples_csv(&prof.samples),
        telemetry_csv,
        json: report::profile_json(name, &counters, &tree, &prof).to_doc_string(),
        counters,
    })
}

/// Native-executor parity report: run the workload `repeats` times on
/// the real two-thread runtime with per-task wall-clock timing and
/// render min/median/max nanoseconds per task in the same class-grouped
/// shape as the simulated top-down tree. Returns `None` for an unknown
/// workload. Wall-clock numbers are *not* deterministic.
///
/// # Panics
///
/// Panics if `repeats` is zero or a run breaks the functional oracle.
#[must_use]
pub fn native_parity(name: &str, repeats: usize) -> Option<String> {
    assert!(repeats > 0, "need at least one repeat");
    let wl = workloads::named(name)?;
    let copts = CompilerOptions::paper();
    let compiled = compile(&wl.graph, &copts).expect("catalog workload compiles");
    let exec = NativeExecutor::new().with_srf(copts.srf).with_task_timing(true);
    let mut runs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut world = wl.world.clone();
        let report = exec.run(&compiled.schedule, &compiled.graph, &mut world);
        assert!(wl.matches_oracle(&world), "native run must reproduce the oracle");
        runs.push(report.task_times.expect("task timing was enabled"));
    }
    Some(report::native_profile_text(name, &compiled.schedule, &compiled.graph, &runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_none() {
        assert!(profile_workload("not-a-workload", None, false).is_none());
    }

    #[test]
    fn profile_outputs_are_deterministic() {
        let a = profile_workload("ldstcomp", None, false).unwrap();
        let b = profile_workload("ldstcomp", None, false).unwrap();
        assert_eq!(a.perf_stat, b.perf_stat);
        assert_eq!(a.topdown, b.topdown);
        assert_eq!(a.folded, b.folded);
        assert_eq!(a.samples_csv, b.samples_csv);
        assert_eq!(a.telemetry_csv, b.telemetry_csv);
        assert_eq!(a.json, b.json);
        assert!(a.perf_stat.contains("cycles"));
        assert!(a.folded.contains("ldstcomp;"));
        // `figures profile ldstcomp --out DIR` writes this as
        // DIR/telemetry.csv; hold it to committed bytes.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../profiles/telemetry/ldstcomp.csv");
        let committed = std::fs::read_to_string(path).expect(
            "profiles/telemetry/ldstcomp.csv is committed; regenerate with \
             `figures profile ldstcomp --out DIR` and copy DIR/telemetry.csv",
        );
        assert_eq!(
            a.telemetry_csv, committed,
            "ldstcomp telemetry series drifted from the committed baseline; \
             regenerate profiles/telemetry/ldstcomp.csv if the change is intentional"
        );
    }

    #[test]
    fn native_parity_report_covers_all_tasks() {
        let text = native_parity("ldstcomp", 3).unwrap();
        assert!(text.contains("3 runs"));
        assert!(text.contains("median ns"));
    }
}
