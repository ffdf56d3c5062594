//! Candidate evaluation: compile the graph under a knob vector, run the
//! simulating executor, and accept the cycle count only when the run
//! reproduces the workload's functional oracle bit-for-bit.

use crate::workloads::Workload;
use gpstream_compiler::CompilerOptions;
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::TunedConfig;
use gpstream_machine::MachineConfig;
use gpstream_util::Fingerprint;

/// Outcome of evaluating one candidate knob vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evaluated {
    /// Compiled, ran, and reproduced the oracle bit-for-bit.
    Cycles(u64),
    /// Unusable: failed to compile, or broke the functional oracle.
    Rejected(String),
}

impl Evaluated {
    /// The cycle count; `None` if the candidate was rejected.
    #[must_use]
    pub fn cycles(&self) -> Option<u64> {
        match self {
            Evaluated::Cycles(c) => Some(*c),
            Evaluated::Rejected(_) => None,
        }
    }
}

/// Content-addressed cache key for one evaluation. `graph_fp` and
/// `machine_fp` are the workload's graph fingerprint and the *base*
/// machine fingerprint, precomputed once per tuning run; the point's
/// prefetch-depth override is covered by `point.fingerprint()`.
#[must_use]
pub fn cache_key(wl: &Workload, graph_fp: u64, machine_fp: u64, point: &TunedConfig) -> String {
    Fingerprint::new("tune-eval-v1")
        .str(&wl.name)
        .u64(graph_fp)
        .u64(machine_fp)
        .u64(point.fingerprint())
        .bool(wl.warmup)
        .hex()
}

/// Evaluate one candidate: compile under the point's compiler-side
/// knobs, simulate under its runtime-side knobs, and check the oracle.
///
/// The timing run is split into [`SimExecutor::snapshot`] (functional
/// pass plus the warm-up prefix) and [`SimExecutor::resume_from`] (the
/// measured iteration).
#[must_use]
pub fn evaluate(
    wl: &Workload,
    base_copts: &CompilerOptions,
    base_mcfg: &MachineConfig,
    point: &TunedConfig,
) -> Evaluated {
    let copts = base_copts.apply_tuned(point);
    let compiled = match gpstream_compiler::compile(&wl.graph, &copts) {
        Ok(c) => c,
        Err(e) => return Evaluated::Rejected(e.to_string()),
    };
    let mut world = wl.world.clone();
    let exec = SimExecutor::new()
        .with_machine(base_mcfg.clone())
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .with_tuned(point);
    let snap = exec.snapshot(&compiled.schedule, &compiled.graph, &mut world);
    if !wl.matches_oracle(&world) {
        return Evaluated::Rejected("oracle mismatch".to_string());
    }
    let report = exec.resume_from(&snap);
    Evaluated::Cycles(report.timing.cycles)
}

/// Full counter profile of one accepted point: compile and simulate it
/// once more and collect every tracked counter and derived metric. Used
/// to record the winner's profile in the tuning artifact. Deterministic
/// for a fixed workload and point.
///
/// # Panics
///
/// Panics if the point fails to compile or breaks the oracle — callers
/// profile points that already evaluated cleanly during the search.
#[must_use]
pub fn counter_profile(
    wl: &Workload,
    base_copts: &CompilerOptions,
    base_mcfg: &MachineConfig,
    point: &TunedConfig,
) -> Vec<(String, f64)> {
    let copts = base_copts.apply_tuned(point);
    let compiled =
        gpstream_compiler::compile(&wl.graph, &copts).expect("profiled point compiled before");
    let mut world = wl.world.clone();
    let report = SimExecutor::new()
        .with_machine(base_mcfg.clone())
        .with_srf(copts.srf)
        .with_warmup(wl.warmup)
        .with_tuned(point)
        .run(&compiled.schedule, &compiled.graph, &mut world);
    assert!(wl.matches_oracle(&world), "profiled point must reproduce the oracle");
    gpstream_profile::CounterSet::from(&report.timing).all_values()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::micro;

    #[test]
    fn baseline_point_is_accepted() {
        let wl = micro("ldstcomp", 256, 1);
        let mcfg = MachineConfig::prescott();
        let point = TunedConfig::default_heuristic(&mcfg);
        match evaluate(&wl, &CompilerOptions::paper(), &mcfg, &point) {
            Evaluated::Cycles(c) => assert!(c > 0),
            Evaluated::Rejected(why) => panic!("baseline rejected: {why}"),
        }
    }

    #[test]
    fn degenerate_strip_is_rejected_not_fatal() {
        let wl = micro("ldstcomp", 256, 1);
        let mcfg = MachineConfig::prescott();
        let point = TunedConfig { strip_items: Some(0), ..TunedConfig::default_heuristic(&mcfg) };
        let ev = evaluate(&wl, &CompilerOptions::paper(), &mcfg, &point);
        assert_eq!(ev.cycles(), None);
    }

    #[test]
    fn cache_key_separates_points_and_workload_names() {
        let wl = micro("ldstcomp", 256, 1);
        let mcfg = MachineConfig::prescott();
        let base = TunedConfig::default_heuristic(&mcfg);
        let other = TunedConfig { sw_pf_depth: base.sw_pf_depth + 1, ..base };
        let k1 = cache_key(&wl, 1, 2, &base);
        let k2 = cache_key(&wl, 1, 2, &other);
        let k3 = cache_key(&wl, 3, 2, &base);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1.len(), 16);
    }
}
