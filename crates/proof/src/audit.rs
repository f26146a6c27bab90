//! Campaign-level audit reports: what `results/audit.json` contains.
//!
//! One [`CircuitAudit`] summarizes the stream audits of one circuit's
//! campaign (several streams in the parallel/incremental case — one per
//! worker); an [`Audit`] aggregates circuits into the suite-level report
//! with a single pass/fail answer. JSON rendering is hand-rolled flat
//! JSON, like every other report in this workspace — no dependencies.

use std::fmt::Write as _;

use crate::stream::{InstanceStatus, StreamAudit};

/// The audit summary of one circuit's campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CircuitAudit {
    /// Circuit name.
    pub circuit: String,
    /// Solver engine label (`from-scratch` / `incremental`).
    pub engine: String,
    /// Instances whose verdict was independently re-derived.
    pub certified: usize,
    /// Instances explicitly reported without a certificate, with reasons.
    pub uncertified: Vec<(usize, String)>,
    /// Instances whose proof or model check failed, with errors.
    pub failed: Vec<(usize, String)>,
    /// Total RUP steps checked across all streams.
    pub steps_checked: usize,
    /// Total axioms recorded.
    pub axioms: usize,
    /// Total deletions applied.
    pub deletions: usize,
    /// Stream-structure errors (malformed brackets etc.).
    pub stray_errors: Vec<String>,
}

impl CircuitAudit {
    /// Starts an empty audit for `circuit` under `engine`.
    pub fn new(circuit: impl Into<String>, engine: impl Into<String>) -> Self {
        CircuitAudit {
            circuit: circuit.into(),
            engine: engine.into(),
            ..CircuitAudit::default()
        }
    }

    /// Folds one stream's audit into this circuit's totals.
    pub fn absorb(&mut self, stream: &StreamAudit) {
        for inst in &stream.instances {
            match &inst.status {
                InstanceStatus::Certified => self.certified += 1,
                InstanceStatus::Uncertified { reason } => {
                    self.uncertified.push((inst.index, reason.clone()))
                }
                InstanceStatus::Failed { error } => self.failed.push((inst.index, error.clone())),
            }
        }
        self.steps_checked += stream.steps_checked;
        self.axioms += stream.axioms;
        self.deletions += stream.deletions;
        self.stray_errors
            .extend(stream.stray_errors.iter().cloned());
    }

    /// Total instances audited.
    pub fn instances(&self) -> usize {
        self.certified + self.uncertified.len() + self.failed.len()
    }

    /// Whether every instance certified with no failures, no stray
    /// errors, and no uncertified stragglers.
    pub fn fully_certified(&self) -> bool {
        self.failed.is_empty() && self.uncertified.is_empty() && self.stray_errors.is_empty()
    }
}

/// The suite-level audit: one entry per circuit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Audit {
    /// Per-circuit audits, in suite order.
    pub circuits: Vec<CircuitAudit>,
}

impl Audit {
    /// Totals across all circuits: (certified, uncertified, failed).
    pub fn totals(&self) -> (usize, usize, usize) {
        self.circuits.iter().fold((0, 0, 0), |(c, u, f), a| {
            (c + a.certified, u + a.uncertified.len(), f + a.failed.len())
        })
    }

    /// Whether the whole suite passes: zero failed checks and zero
    /// stream errors. Uncertified instances are tolerated only because
    /// they are explicitly listed in the report.
    pub fn ok(&self) -> bool {
        self.circuits
            .iter()
            .all(|a| a.failed.is_empty() && a.stray_errors.is_empty())
    }

    /// Whether every single instance certified (the acceptance bar for
    /// the committed `results/audit.json`).
    pub fn fully_certified(&self) -> bool {
        self.circuits.iter().all(CircuitAudit::fully_certified)
    }

    /// Renders the report as pretty-printed JSON with stable keys.
    pub fn render_json(&self) -> String {
        let (certified, uncertified, failed) = self.totals();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"certified\": {certified},");
        let _ = writeln!(out, "  \"uncertified\": {uncertified},");
        let _ = writeln!(out, "  \"failed\": {failed},");
        let _ = writeln!(out, "  \"ok\": {},", self.ok());
        let _ = writeln!(out, "  \"fully_certified\": {},", self.fully_certified());
        out.push_str("  \"circuits\": [\n");
        for (i, c) in self.circuits.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(
                out,
                "\"circuit\": \"{}\", \"engine\": \"{}\", \"instances\": {}, \
                 \"certified\": {}, \"steps_checked\": {}, \"axioms\": {}, \
                 \"deletions\": {}",
                json_escape(&c.circuit),
                json_escape(&c.engine),
                c.instances(),
                c.certified,
                c.steps_checked,
                c.axioms,
                c.deletions,
            );
            let _ = write!(out, ", \"uncertified\": [");
            for (k, (idx, reason)) in c.uncertified.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"instance\": {idx}, \"reason\": \"{}\"}}",
                    json_escape(reason)
                );
            }
            let _ = write!(out, "], \"failed\": [");
            for (k, (idx, error)) in c.failed.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"instance\": {idx}, \"error\": \"{}\"}}",
                    json_escape(error)
                );
            }
            let _ = write!(out, "], \"stream_errors\": [");
            for (k, e) in c.stray_errors.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", json_escape(e));
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.circuits.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

// The same escaping as `obs::json_escape_into`, kept here because this
// crate has no dependencies by design.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{InstanceAudit, Verdict};

    fn stream_with(statuses: Vec<InstanceStatus>) -> StreamAudit {
        StreamAudit {
            instances: statuses
                .into_iter()
                .enumerate()
                .map(|(index, status)| InstanceAudit {
                    index,
                    verdict: Verdict::Unsat,
                    status,
                })
                .collect(),
            steps_checked: 5,
            axioms: 3,
            deletions: 1,
            stray_errors: Vec::new(),
        }
    }

    #[test]
    fn absorb_and_totals() {
        let mut c = CircuitAudit::new("c17", "incremental");
        c.absorb(&stream_with(vec![
            InstanceStatus::Certified,
            InstanceStatus::Uncertified {
                reason: "aborted".to_string(),
            },
            InstanceStatus::Failed {
                error: "bad".to_string(),
            },
        ]));
        assert_eq!(c.instances(), 3);
        assert!(!c.fully_certified());
        let audit = Audit { circuits: vec![c] };
        assert_eq!(audit.totals(), (1, 1, 1));
        assert!(!audit.ok());
    }

    #[test]
    fn json_is_balanced_and_escaped() {
        let mut c = CircuitAudit::new("c\"x\"", "from-scratch");
        c.absorb(&stream_with(vec![InstanceStatus::Certified]));
        let audit = Audit { circuits: vec![c] };
        let json = audit.render_json();
        assert!(json.contains("\\\"x\\\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"fully_certified\": true"));
    }
}
