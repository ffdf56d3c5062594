//! Correctness: operation outcomes, the fingerprint of simulated
//! statistics, and its comparison against the committed reference.
//!
//! Every operation (one figure point, one serve run, one native program
//! execution) yields fingerprint lines `key<TAB>value` on success or an
//! error (a panic or an oracle mismatch). An operation fails when it
//! errs, when one of its lines differs from the reference (on the
//! default seed) or when it differs from the same key in an earlier
//! pass of the same run.

use gpstream_machine::{MemStats, PhaseCycles};
use gpstream_util::Fingerprint;
use std::collections::BTreeMap;

/// Result of one operation: its fingerprint lines, or why it failed.
pub type OpResult = Result<Vec<(String, String)>, String>;

/// Canonical text of a memory-counter block.
#[must_use]
pub fn mem_text(m: &MemStats) -> String {
    m.fields().iter().map(|(n, v)| format!("{n}={v}")).collect::<Vec<_>>().join(",")
}

/// Canonical text of per-context phase cycles.
#[must_use]
pub fn phases_text(p: &[PhaseCycles]) -> String {
    p.iter()
        .map(|c| format!("{}/{}/{}/{}", c.compute, c.memory, c.idle_wait, c.dispatch))
        .collect::<Vec<_>>()
        .join(";")
}

/// Parse a reference file: one `key<TAB>value` line per fingerprint
/// entry; blank lines and `#` comments are skipped.
#[must_use]
pub fn parse_reference(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Render fingerprint lines in reference-file form.
#[must_use]
pub fn render_reference(workload: &str, lines: &[(String, String)]) -> String {
    let mut out = format!(
        "# Reference fingerprint of `{workload}` on the default seed.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- \
         --workload {workload} --seconds 1 --bless\n"
    );
    for (k, v) in lines {
        out.push_str(k);
        out.push('\t');
        out.push_str(v);
        out.push('\n');
    }
    out
}

/// Tally of attempted and failed operations over a run.
#[derive(Debug, Default)]
pub struct Ledger {
    reference: Option<BTreeMap<String, String>>,
    seen: BTreeMap<String, String>,
    /// Fingerprint lines of the first pass, in order.
    pub first_pass: Vec<(String, String)>,
    first_pass_done: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Ledger {
    /// A ledger checking against `reference` when given (the default
    /// seed), and only for consistency between passes otherwise.
    #[must_use]
    pub fn new(reference: Option<BTreeMap<String, String>>) -> Self {
        Self { reference, ..Self::default() }
    }

    /// Record one operation's outcome.
    pub fn record(&mut self, outcome: OpResult) {
        self.attempted += 1;
        let problem = match outcome {
            Err(e) => Some(e),
            Ok(lines) => lines.into_iter().find_map(|(k, v)| self.check_line(k, v)),
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(p);
            }
        }
    }

    fn check_line(&mut self, key: String, value: String) -> Option<String> {
        if let Some(reference) = &self.reference {
            match reference.get(&key) {
                Some(want) if *want == value => {}
                Some(want) => {
                    return Some(format!("fingerprint drift at `{key}`: {value} != {want}"))
                }
                None => return Some(format!("fingerprint key `{key}` not in the reference")),
            }
        }
        match self.seen.get(&key) {
            Some(prev) if *prev != value => {
                Some(format!("`{key}` changed between passes: {value} != {prev}"))
            }
            Some(_) => None,
            None => {
                if !self.first_pass_done {
                    self.first_pass.push((key.clone(), value.clone()));
                }
                self.seen.insert(key, value);
                None
            }
        }
    }

    /// Mark the end of a pass; later passes no longer extend
    /// [`Ledger::first_pass`].
    pub fn end_pass(&mut self) {
        self.first_pass_done = true;
    }

    /// Reference keys the run never produced.
    #[must_use]
    pub fn missing_reference_keys(&self) -> Vec<String> {
        match &self.reference {
            Some(r) => r.keys().filter(|k| !self.seen.contains_key(*k)).cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Stable digest of the first pass's fingerprint, for comparing two
    /// commits on a seed that has no committed reference.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut fp = Fingerprint::new("perfbench");
        for (k, v) in &self.first_pass {
            fp.str(k).str(v);
        }
        fp.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[(&str, &str)]) -> OpResult {
        Ok(v.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect())
    }

    #[test]
    fn reference_round_trips() {
        let l = vec![("a/b".to_string(), "x=1 y=2".to_string())];
        let parsed = parse_reference(&render_reference("w", &l));
        assert_eq!(parsed.get("a/b").map(String::as_str), Some("x=1 y=2"));
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn matching_reference_counts_no_failure() {
        let mut led = Ledger::new(Some(parse_reference("p1\tv1\np2\tv2\n")));
        led.record(lines(&[("p1", "v1")]));
        led.record(lines(&[("p2", "v2")]));
        led.end_pass();
        led.record(lines(&[("p1", "v1")]));
        assert_eq!((led.attempted, led.failed), (3, 0));
        assert!(led.missing_reference_keys().is_empty());
    }

    #[test]
    fn perturbed_reference_is_caught() {
        let committed = include_str!("../reference/paper-stream.txt");
        let reference = parse_reference(committed);
        let (key, value) = reference.iter().next().expect("reference has lines");
        let perturbed = committed.replacen(value.as_str(), &format!("{value}0"), 1);
        let mut good = Ledger::new(Some(reference.clone()));
        good.record(lines(&[(key, value)]));
        assert_eq!(good.failed, 0);
        let mut bad = Ledger::new(Some(parse_reference(&perturbed)));
        bad.record(lines(&[(key, value)]));
        assert_eq!(bad.failed, 1, "a perturbed reference must fail the operation");
        assert!(bad.messages[0].contains("drift"));
    }

    #[test]
    fn errors_and_pass_to_pass_drift_fail() {
        let mut led = Ledger::new(None);
        led.record(Err("oracle mismatch".into()));
        led.record(lines(&[("k", "1")]));
        led.end_pass();
        led.record(lines(&[("k", "2")]));
        assert_eq!((led.attempted, led.failed), (3, 2));
        assert_eq!(led.first_pass.len(), 1);
    }
}
