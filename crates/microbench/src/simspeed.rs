//! Sim-speed probe: wall-clock throughput of the event-driven timing
//! engine against its cycle-stepped reference oracle.
//!
//! Every other benchmark in this crate measures *simulated* cycles; this
//! one measures the simulator itself. For each workload it captures one
//! warmed [`SimSnapshot`](gpstream_core::exec::sim::SimSnapshot) for the
//! production engine and one for the oracle
//! ([`SimExecutor::stepped_oracle`]) and times only the measured
//! iteration ([`SimExecutor::resume_from`]), reporting
//! simulated-cycles-per-second for each. The two are byte-identical by
//! construction (see `tests/differential.rs`), so the simulated cycle
//! counts must agree — the probe asserts it — and the only difference
//! left to report is wall-clock speed.

use gpstream_apps::{cdp, spas};
use gpstream_compiler::{compile, CompilerOptions};
use gpstream_core::exec::sim::SimExecutor;
use gpstream_core::{StreamGraph, World};
use gpstream_util::Json;
use std::time::Instant;

use crate::kernels;

/// Seed matching the tuner/figure catalog (`gpstream-tune` can't be a
/// dependency here — it depends on this crate — so the constant is
/// duplicated; `catalog_seed_matches` in the tune crate's tests pins it).
pub const CATALOG_SEED: u64 = 0x6a79_2005;

/// One workload's stepped-vs-event throughput measurement.
#[derive(Debug, Clone)]
pub struct SimSpeedRow {
    /// Workload name.
    pub workload: String,
    /// Simulated cycles of the measured iteration (identical across
    /// modes; asserted during measurement).
    pub sim_cycles: u64,
    /// Best-of-reps wall nanoseconds of the stepped measured iteration.
    pub stepped_ns: u64,
    /// Best-of-reps wall nanoseconds of the event-driven iteration.
    pub event_ns: u64,
}

impl SimSpeedRow {
    /// Simulated cycles per wall-clock second, cycle-stepped.
    #[must_use]
    pub fn stepped_rate(&self) -> f64 {
        rate(self.sim_cycles, self.stepped_ns)
    }

    /// Simulated cycles per wall-clock second, event-driven.
    #[must_use]
    pub fn event_rate(&self) -> f64 {
        rate(self.sim_cycles, self.event_ns)
    }

    /// Wall-clock speedup of event-driven over stepped.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.event_ns == 0 {
            return 0.0;
        }
        self.stepped_ns as f64 / self.event_ns as f64
    }
}

fn rate(cycles: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    cycles as f64 * 1e9 / ns as f64
}

/// Measure one workload: capture a warmed snapshot for the production
/// engine and for the stepped oracle, then time `reps` measured
/// iterations of each and keep the best.
///
/// # Panics
///
/// Panics if the workload fails to compile, if `reps` is zero, or if the
/// two modes disagree on simulated cycles (they are byte-identical by
/// contract).
#[must_use]
pub fn measure(
    name: &str,
    graph: &StreamGraph,
    world: &World,
    warmup: bool,
    reps: u32,
) -> SimSpeedRow {
    assert!(reps > 0, "need at least one rep");
    let copts = CompilerOptions::paper();
    let compiled = compile(graph, &copts).expect("workload compiles");
    let time_mode = |oracle: bool| -> (u64, u64) {
        let mut exec = SimExecutor::new().with_srf(copts.srf).with_warmup(warmup);
        if oracle {
            exec = exec.stepped_oracle();
        }
        let mut w = world.clone();
        let snap = exec.snapshot(&compiled.schedule, &compiled.graph, &mut w);
        let mut best = u64::MAX;
        let mut cycles = 0;
        for _ in 0..reps {
            let t0 = Instant::now();
            let report = exec.resume_from(&snap);
            let dt = t0.elapsed().as_nanos() as u64;
            best = best.min(dt.max(1));
            cycles = report.timing.cycles;
        }
        (best, cycles)
    };
    let (stepped_ns, stepped_cycles) = time_mode(true);
    let (event_ns, event_cycles) = time_mode(false);
    assert_eq!(
        stepped_cycles, event_cycles,
        "{name}: step modes disagree on simulated cycles — equivalence broken"
    );
    SimSpeedRow { workload: name.to_string(), sim_cycles: stepped_cycles, stepped_ns, event_ns }
}

/// The report's probe workloads, all memory-bound and at catalog scale:
/// `triad-64k` (dense sequential f32 streams — the event mode's best
/// case, where provable-hit batching over warm lines carries the whole
/// measured iteration), `ldstcomp` (cold sweep over full-line records —
/// one element per line, so little to batch), `spas-32000` (random
/// indexed gathers — the worst case, every element takes the exact
/// path), and `cdp-6n-8192` (a mix of sequential and indexed phases).
#[must_use]
pub fn default_rows(reps: u32) -> Vec<SimSpeedRow> {
    let tr = kernels::stream_triad(64 * 1024);
    let mb = kernels::ld_st_comp(kernels::FIG9_N, 4);
    let sp = spas::spas_bench(32_000, spas::PAPER_NNZ_PER_ROW, CATALOG_SEED);
    let cd = cdp::cdp_bench(cdp::CdpConfig { name: "6n-8192", k: 6, n: 8192 }, CATALOG_SEED);
    vec![
        measure("triad-64k", &tr.graph, &tr.stream_world, true, reps),
        measure("ldstcomp", &mb.graph, &mb.stream_world, false, reps),
        measure("spas-32000", &sp.graph, &sp.stream_world, true, reps),
        measure("cdp-6n-8192", &cd.graph, &cd.stream_world, true, reps),
    ]
}

/// Render the speedup table as aligned text (the `figures simspeed`
/// artifact).
#[must_use]
pub fn render(rows: &[SimSpeedRow]) -> String {
    let mut out = String::new();
    out.push_str("sim speed: simulated cycles per wall-clock second\n\n");
    out.push_str(&format!(
        "{:<14} {:>14} {:>14} {:>14} {:>9}\n",
        "workload", "sim cycles", "stepped cyc/s", "event cyc/s", "speedup"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>14} {:>14.3e} {:>14.3e} {:>8.2}x\n",
            r.workload,
            r.sim_cycles,
            r.stepped_rate(),
            r.event_rate(),
            r.speedup()
        ));
    }
    out
}

/// Canonical JSON form of the speedup table (uploaded as a CI artifact).
#[must_use]
pub fn to_json(rows: &[SimSpeedRow]) -> Json {
    Json::arr(rows.iter().map(|r| {
        Json::obj([
            ("workload", Json::Str(r.workload.clone())),
            ("sim_cycles", Json::U64(r.sim_cycles)),
            ("stepped_ns", Json::U64(r.stepped_ns)),
            ("event_ns", Json::U64(r.event_ns)),
            ("stepped_cycles_per_sec", Json::F64(r.stepped_rate())),
            ("event_cycles_per_sec", Json::F64(r.event_rate())),
            ("speedup", Json::F64(r.speedup())),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_agrees_across_modes_and_renders() {
        let mb = kernels::ld_st_comp(2048, 2);
        let row = measure("ldstcomp-tiny", &mb.graph, &mb.stream_world, false, 1);
        assert!(row.sim_cycles > 0);
        assert!(row.stepped_ns > 0 && row.event_ns > 0);
        let table = render(std::slice::from_ref(&row));
        assert!(table.contains("ldstcomp-tiny"));
        let doc = to_json(&[row]).to_doc_string();
        assert!(doc.contains("\"speedup\""));
    }
}
