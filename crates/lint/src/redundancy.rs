//! The `R*` pass family: static implication analysis over a netlist.
//!
//! Backed by the [`atpg_easy_implic`] engine, these passes report facts
//! the SAT campaign would otherwise discover one UNSAT instance at a
//! time:
//!
//! * `R001` — nets with no structural path to any primary output: both
//!   stuck-at faults at such a site are untestable.
//! * `R002` — nets provably constant under the implication closure
//!   (e.g. `OR(a, NOT a)`): the stuck-at fault at the constant value
//!   cannot be activated.
//! * `R003` — individual stuck-at faults proved redundant by the
//!   FIRE-style conflict analysis (one diagnostic per fault, labelled
//!   with the proof that applied).
//! * `R004` — internal consistency of the engine itself: closure rows
//!   must be transitive, contrapositively complete and reflexive, and
//!   no net may have both polarities infeasible. An `R004` is an
//!   engine bug, never a circuit property; it invalidates `R002`/`R003`.
//! * `R005` — SCOAP testability outliers: nets whose combined fault
//!   effort is far above the circuit median, the "hard fault"
//!   candidates the paper's cut-width argument predicts to be rare.

use atpg_easy_implic::{analyze, Scoap, StaticAnalysis, SCOAP_INFINITY};
use atpg_easy_netlist::Netlist;

use crate::diag::{Code, Location, Report};

/// An `R005` fires when a finite fault effort exceeds both this factor
/// times the circuit median and [`R005_FLOOR`]; the floor keeps tiny
/// circuits (median 2–3) from flagging ordinary nets.
const R005_FACTOR: u32 = 16;

/// Minimum absolute fault effort for an `R005` outlier.
const R005_FLOOR: u32 = 64;

/// Runs the full `R*` family over a netlist.
pub fn lint(nl: &Netlist) -> Report {
    let analysis = analyze(nl);
    report_from(nl, &analysis)
}

/// Renders an already-computed [`StaticAnalysis`] as a report —
/// callers that need the engine for other purposes (the campaign
/// pre-pass, the `--implic` CLI) avoid analyzing twice.
pub fn report_from(nl: &Netlist, analysis: &StaticAnalysis) -> Report {
    let mut report = Report::new();
    let net_loc = |n: atpg_easy_netlist::NetId| Location::Net {
        index: n.index(),
        name: nl.net(n).name.clone(),
    };

    for &n in &analysis.unobservable {
        report.add(
            Code::R001,
            net_loc(n),
            "net has no structural path to any primary output; both stuck-at faults untestable",
        );
    }
    for &(n, v) in &analysis.constants {
        report.add(
            Code::R002,
            net_loc(n),
            format!("net is provably constant {}", u8::from(v)),
        );
    }
    for r in &analysis.redundant {
        report.add(
            Code::R003,
            net_loc(r.net),
            format!(
                "stuck-at-{} fault statically redundant ({})",
                u8::from(r.stuck),
                r.reason.label()
            ),
        );
    }
    for &n in &analysis.contradictory {
        report.add(
            Code::R004,
            net_loc(n),
            "both polarities infeasible: the implication closure is contradictory",
        );
    }
    for issue in analysis.engine.self_check() {
        report.add(Code::R004, Location::General, issue);
    }
    for (n, effort) in outliers(nl, &analysis.scoap) {
        report.add(
            Code::R005,
            net_loc(n),
            format!("fault effort {effort} far above the circuit median"),
        );
    }
    report
}

/// Nets whose finite fault effort exceeds the outlier thresholds.
/// Infinite efforts are unobservable/constant sites already reported
/// as `R001`/`R002`.
fn outliers(nl: &Netlist, scoap: &Scoap) -> Vec<(atpg_easy_netlist::NetId, u32)> {
    let mut efforts: Vec<u32> = nl
        .net_ids()
        .map(|n| scoap.fault_effort(n))
        .filter(|&e| e < SCOAP_INFINITY)
        .collect();
    if efforts.is_empty() {
        return Vec::new();
    }
    efforts.sort_unstable();
    let median = efforts[efforts.len() / 2];
    let cut = median.saturating_mul(R005_FACTOR).max(R005_FLOOR);
    nl.net_ids()
        .filter_map(|n| {
            let e = scoap.fault_effort(n);
            (e < SCOAP_INFINITY && e > cut).then_some((n, e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_netlist::GateKind;

    #[test]
    fn dangling_net_reports_r001_and_r003() {
        let mut nl = Netlist::new("dangle");
        let a = nl.add_input("a");
        nl.add_gate_named(GateKind::Not, vec![a], "d")
            .expect("fresh gate name");
        let o = nl
            .add_gate_named(GateKind::Buf, vec![a], "o")
            .expect("fresh gate name");
        nl.add_output(o);
        let r = lint(&nl);
        assert!(r.has_code(Code::R001));
        assert_eq!(r.with_code(Code::R003).count(), 2);
        assert!(!r.has_code(Code::R004));
        assert!(!r.has_errors(), "R001/R003 are warnings:\n{r}");
    }

    #[test]
    fn tautology_reports_r002() {
        let mut nl = Netlist::new("taut");
        let a = nl.add_input("a");
        let na = nl
            .add_gate_named(GateKind::Not, vec![a], "na")
            .expect("fresh gate name");
        let y = nl
            .add_gate_named(GateKind::Or, vec![a, na], "y")
            .expect("fresh gate name");
        nl.add_output(y);
        let r = lint(&nl);
        assert!(r.has_code(Code::R002));
        assert!(r.has_code(Code::R003));
    }

    #[test]
    fn clean_circuit_is_silent() {
        let mut nl = Netlist::new("clean");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let o = nl
            .add_gate_named(GateKind::And, vec![a, b], "o")
            .expect("fresh gate name");
        nl.add_output(o);
        let r = lint(&nl);
        assert!(r.is_empty(), "{r}");
    }
}
