//! Figure 8: PAUSE vs MONITOR/MWAIT busy-waiting.
//!
//! One context runs a computation or memory task to completion while the
//! other context waits for it the whole time, using either a PAUSE spin
//! loop or MONITOR/MWAIT. Execution times are normalized to the task
//! running alone (= 100 units). Also measures the work-queue dispatch
//! latency of each policy.

use gpstream_core::metrics::NormalizedBar;
use gpstream_machine::ops::{AccessPattern, BulkOp, CopyDir, WaitPolicy};
use gpstream_machine::{Machine, MachineConfig, RunResult};

/// The co-running task flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// ALU-bound task.
    Compute,
    /// Bulk-memory task.
    Memory,
}

const COMP_UOPS: u64 = 1_000_000;
const MEM_BYTES: u64 = 2 << 20;

fn task_ops(kind: TaskKind) -> Vec<BulkOp> {
    match kind {
        TaskKind::Compute => vec![BulkOp::Compute { uops: COMP_UOPS }],
        TaskKind::Memory => vec![BulkOp::Copy {
            mem: AccessPattern::Seq { base: 0x4000_0000, elem: 128, count: MEM_BYTES / 128 },
            srf_base: 0x0100_0000,
            dir: CopyDir::GatherToSrf,
            nt: false,
        }],
    }
}

/// The task running alone in single-thread mode on a fresh `machine`.
#[must_use]
pub fn solo_run(kind: TaskKind, mut machine: Machine) -> RunResult {
    machine.run_single(task_ops(kind))
}

/// The task on context 0 of a fresh `machine` while context 1
/// busy-waits with `policy` until the task signals completion.
#[must_use]
pub fn waited_run(kind: TaskKind, policy: WaitPolicy, mut machine: Machine) -> RunResult {
    let mut task = task_ops(kind);
    task.push(BulkOp::Signal { id: 1 });
    let waiter = vec![BulkOp::Wait { id: 1, policy }];
    machine.run([task, waiter])
}

/// Normalized execution time (solo = 100) of a task co-running with a
/// busy-waiting partner.
#[must_use]
pub fn normalized(kind: TaskKind, policy: WaitPolicy, cfg: &MachineConfig) -> f64 {
    let waited = waited_run(kind, policy, Machine::new(cfg.clone())).ctx_cycles[0];
    let solo = solo_run(kind, Machine::new(cfg.clone())).cycles;
    100.0 * waited as f64 / solo as f64
}

/// The full Figure 8 dataset: four bars (PAUSE/MWAIT x compute/memory).
#[must_use]
pub fn figure8(cfg: &MachineConfig) -> Vec<NormalizedBar> {
    let mut bars = Vec::new();
    for (policy, pname) in [(WaitPolicy::SpinPause, "PAUSE"), (WaitPolicy::Mwait, "MWAIT")] {
        for (kind, kname) in [(TaskKind::Compute, "computation"), (TaskKind::Memory, "memory")] {
            bars.push(NormalizedBar {
                name: format!("{pname} spin vs {kname} task"),
                normalized_time: normalized(kind, policy, cfg),
            });
        }
    }
    bars
}

/// How long the signaling context delays before it signals in
/// [`dispatch_run`].
const DISPATCH_LEAD: u64 = 10_000;

/// A deliberately idle waiter on context 1 of a fresh `machine`, woken
/// by context 0 after a fixed lead.
#[must_use]
pub fn dispatch_run(policy: WaitPolicy, mut machine: Machine) -> RunResult {
    let signaler = vec![BulkOp::Delay { cycles: DISPATCH_LEAD }, BulkOp::Signal { id: 7 }];
    let waiter = vec![BulkOp::Wait { id: 7, policy }];
    machine.run([signaler, waiter])
}

/// Measured dispatch latency of a wait policy: cycles from the signal to
/// the waiter resuming, using a deliberately idle waiter.
#[must_use]
pub fn dispatch_latency(policy: WaitPolicy, cfg: &MachineConfig) -> u64 {
    dispatch_run(policy, Machine::new(cfg.clone())).ctx_cycles[1] - DISPATCH_LEAD
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::prescott()
    }

    #[test]
    fn pause_spin_hurts_compute_partner() {
        let t = normalized(TaskKind::Compute, WaitPolicy::SpinPause, &cfg());
        // "the resources consumed spinning greatly impacts the performance
        // of compute intensive tasks running in the other context".
        assert!(t > 120.0, "PAUSE vs compute normalized = {t:.1}");
    }

    #[test]
    fn pause_spin_barely_affects_memory_partner() {
        let t = normalized(TaskKind::Memory, WaitPolicy::SpinPause, &cfg());
        assert!(t < 112.0, "PAUSE vs memory normalized = {t:.1}");
    }

    #[test]
    fn mwait_affects_neither() {
        let c = normalized(TaskKind::Compute, WaitPolicy::Mwait, &cfg());
        let m = normalized(TaskKind::Memory, WaitPolicy::Mwait, &cfg());
        assert!(c < 105.0 && m < 105.0, "MWAIT normalized: comp={c:.1} mem={m:.1}");
    }

    #[test]
    fn dispatch_latencies_match_paper() {
        let c = cfg();
        let pause = dispatch_latency(WaitPolicy::SpinPause, &c);
        let mwait = dispatch_latency(WaitPolicy::Mwait, &c);
        assert_eq!(pause, c.wait.pause_dispatch, "PAUSE dispatch = 175 cycles");
        assert_eq!(mwait, c.wait.mwait_dispatch, "MWAIT dispatch = 680 cycles");
        let os = dispatch_latency(WaitPolicy::OsBlock, &c);
        assert!(os >= 10_000, "OS dispatch is tens of thousands of cycles");
    }
}
