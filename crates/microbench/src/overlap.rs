//! Figure 6: computation/memory overlap on the two hardware contexts.
//!
//! Three scenarios — both contexts computing, both doing bulk memory
//! accesses, and one of each — normalized to performing both operations
//! in series with the processor in single-thread mode (= 100 units).

use gpstream_core::metrics::NormalizedBar;
use gpstream_machine::ops::{AccessPattern, BulkOp, CopyDir};
use gpstream_machine::{Machine, MachineConfig, RunResult};

/// Compute task: straight-line ALU work.
fn comp_task(uops: u64) -> Vec<BulkOp> {
    vec![BulkOp::Compute { uops }]
}

/// Memory task: a bulk sequential gather of `bytes` (distinct address
/// ranges per context so the streams do not alias).
fn mem_task(bytes: u64, base: u64, srf_base: u64) -> Vec<BulkOp> {
    vec![BulkOp::Copy {
        mem: AccessPattern::Seq { base, elem: 128, count: bytes / 128 },
        srf_base,
        dir: CopyDir::GatherToSrf,
        nt: false,
    }]
}

/// Scenario of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Both contexts run computation.
    CompComp,
    /// Both contexts run bulk memory accesses.
    MemMem,
    /// One computes while the other performs memory accesses.
    CompMem,
}

impl Scenario {
    /// All scenarios in figure order.
    pub const ALL: [Scenario; 3] = [Scenario::CompComp, Scenario::MemMem, Scenario::CompMem];

    /// Bar label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scenario::CompComp => "computation + computation",
            Scenario::MemMem => "memory + memory",
            Scenario::CompMem => "computation + memory",
        }
    }
}

/// Work sizes chosen so each task takes roughly the same time alone.
const COMP_UOPS: u64 = 2_000_000;
const MEM_BYTES: u64 = 2 << 20;

fn tasks_for(s: Scenario) -> [Vec<BulkOp>; 2] {
    match s {
        Scenario::CompComp => [comp_task(COMP_UOPS), comp_task(COMP_UOPS)],
        Scenario::MemMem => [
            mem_task(MEM_BYTES, 0x4000_0000, 0x0100_0000),
            mem_task(MEM_BYTES, 0x6000_0000, 0x0140_0000),
        ],
        Scenario::CompMem => [comp_task(COMP_UOPS), mem_task(MEM_BYTES, 0x4000_0000, 0x0100_0000)],
    }
}

/// Serial baseline on a fresh `machine`: both tasks back to back on one
/// context (ST mode).
#[must_use]
pub fn serial_run(s: Scenario, mut machine: Machine) -> RunResult {
    let [a, b] = tasks_for(s);
    let mut ops = a;
    ops.extend(b);
    machine.run_single(ops)
}

/// Parallel execution across the two contexts of a fresh `machine`.
#[must_use]
pub fn parallel_run(s: Scenario, mut machine: Machine) -> RunResult {
    machine.run(tasks_for(s))
}

/// Normalized execution time of one scenario (serial = 100).
#[must_use]
pub fn normalized_time(s: Scenario, cfg: &MachineConfig) -> f64 {
    let parallel = parallel_run(s, Machine::new(cfg.clone())).cycles;
    let serial = serial_run(s, Machine::new(cfg.clone())).cycles;
    100.0 * parallel as f64 / serial as f64
}

/// The full Figure 6 dataset.
#[must_use]
pub fn figure6(cfg: &MachineConfig) -> Vec<NormalizedBar> {
    Scenario::ALL
        .iter()
        .map(|&s| NormalizedBar {
            name: s.label().to_string(),
            normalized_time: normalized_time(s, cfg),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comp_comp_overlaps_well() {
        let t = normalized_time(Scenario::CompComp, &MachineConfig::prescott());
        // Paper: 20-30% reduction over serial.
        assert!((65.0..90.0).contains(&t), "comp+comp normalized time = {t:.1}");
    }

    #[test]
    fn mem_mem_interferes_destructively() {
        let t = normalized_time(Scenario::MemMem, &MachineConfig::prescott());
        // Paper: ~6% slower than serial.
        assert!((100.0..115.0).contains(&t), "mem+mem normalized time = {t:.1}");
    }

    #[test]
    fn comp_mem_overlaps_best() {
        let t = normalized_time(Scenario::CompMem, &MachineConfig::prescott());
        assert!((55.0..85.0).contains(&t), "comp+mem normalized time = {t:.1}");
    }

    #[test]
    fn ordering_matches_paper() {
        let cfg = MachineConfig::prescott();
        let cc = normalized_time(Scenario::CompComp, &cfg);
        let mm = normalized_time(Scenario::MemMem, &cfg);
        let cm = normalized_time(Scenario::CompMem, &cfg);
        assert!(
            cm <= cc,
            "comp+mem ({cm:.1}) should overlap at least as well as comp+comp ({cc:.1})"
        );
        assert!(mm > cc, "mem+mem ({mm:.1}) must be the worst scenario");
    }
}
