//! `fig8_mcnc`: `core::experiment::figure8` on suite `mcnc` with 20
//! faults per circuit — decomposition, cone extraction, hypergraph build
//! and MLA, with no SAT instance at all.
//!
//! The untraced pass calls `figure8` once per circuit; the traced pass
//! rebuilds it from `decompose`, `fault_subcircuit_nets` +
//! `extract_marked`, `Hypergraph::from_netlist` and
//! `mla::estimate_cutwidth`, and must reproduce its points exactly.

use std::collections::HashMap;
use std::time::Instant;

use atpg_easy_atpg::fault;
use atpg_easy_circuits::suite::NamedCircuit;
use atpg_easy_core::experiment::{fig8_scatter, figure8, Fig8Point, Figure8Config};
use atpg_easy_core::predictor;
use atpg_easy_cutwidth::mla;
use atpg_easy_cutwidth::Hypergraph;
use atpg_easy_fit::Model;
use atpg_easy_netlist::{decompose, topo};

use crate::fresh::parse;
use crate::fresh::{library_metrics, PassLog};
use crate::measure::{mean, median, ms, tail, RssSampler, Trace};
use crate::suite::{self, Case};
use crate::{for_duration, setup_median, Args, Outcome, LAYER_TAIL};

/// Faults sampled per circuit.
const CAP: usize = 20;

fn config() -> Figure8Config {
    Figure8Config {
        max_faults_per_circuit: Some(CAP),
        ..Figure8Config::default()
    }
}

struct Reference {
    cases: Vec<Case>,
    /// `figure8()` over the whole suite, split per circuit.
    points: Vec<Vec<Fig8Point>>,
    /// Faults sampled per circuit.
    faults: Vec<usize>,
}

fn reference(seed: u64) -> Reference {
    let cases = suite::render(&suite::mcnc(seed));
    let circuits: Vec<NamedCircuit> = cases.iter().map(named).collect();
    let all = figure8(&circuits, &config());
    let points = cases
        .iter()
        .map(|c| {
            all.iter()
                .filter(|p| p.circuit == c.name)
                .cloned()
                .collect()
        })
        .collect();
    let faults = circuits
        .iter()
        .map(|c| {
            let nl = decompose::decompose(&c.netlist, config().decompose_fanin)
                .expect("suite circuits decompose");
            sample_faults(&nl).len()
        })
        .collect();
    Reference {
        cases,
        points,
        faults,
    }
}

fn named(case: &Case) -> NamedCircuit {
    NamedCircuit {
        name: case.name.clone(),
        netlist: parse(&case.text),
    }
}

/// `figure8`'s deterministic stride sample of at most [`CAP`] faults.
fn sample_faults(nl: &atpg_easy_netlist::Netlist) -> Vec<atpg_easy_atpg::Fault> {
    let faults = fault::all_faults(nl);
    if faults.len() > CAP {
        let stride = faults.len().div_ceil(CAP);
        faults.into_iter().step_by(stride).collect()
    } else {
        faults
    }
}

/// Mean estimated cut-width of whole circuits (decomposed as `figure8`
/// decomposes them): the width of the campaign workloads' inputs.
pub fn circuit_width_mean(cases: &[Case]) -> f64 {
    let cfg = config();
    let widths: Vec<f64> = cases
        .iter()
        .map(|c| {
            let nl = decompose::decompose(&parse(&c.text), cfg.decompose_fanin)
                .expect("suite circuits decompose");
            mla::netlist_cutwidth(&nl, &cfg.mla) as f64
        })
        .collect();
    mean(&widths)
}

pub fn run(args: &Args) -> Outcome {
    let (refs, setup_s) = setup_median(|| reference(args.seed), drop);
    let mut out = Outcome {
        threads: 1,
        clients: 1,
        ..Outcome::default()
    };
    let mut log = PassLog::default();
    let mut widths = Vec::new();
    let mut traces = Vec::new();
    let mut tally = Tally::default();
    // The sampler is instrumentation: untraced runs measure without it.
    let rss = args.trace.then(RssSampler::start);
    let epoch = Instant::now();
    for_duration(args.seconds, || {
        let start = Instant::now();
        let mut got = Vec::with_capacity(refs.cases.len());
        let mut latencies = Vec::with_capacity(refs.cases.len());
        for case in &refs.cases {
            let t = Instant::now();
            let points = figure8(&[named(case)], &config());
            latencies.push(ms(t.elapsed()));
            got.push(points);
        }
        let wall = start.elapsed();
        if let Some(rss) = &rss {
            log.peak_rss_mb.push(rss.pass_peak());
        }
        let (mut faults, mut points, mut pass_widths) = (0, 0, Vec::new());
        for (i, pts) in got.iter().enumerate() {
            if check_points(&mut out, &refs, i, pts, false) {
                faults += refs.faults[i];
                points += pts.len();
                pass_widths.extend(pts.iter().map(|p| p.cutwidth as f64));
            }
        }
        check_fit(&mut out, &got.concat());
        log.push(wall, faults, points, latencies);
        widths.push(mean(&pass_widths));
        if args.trace {
            let mut trace = Trace::new(epoch);
            traced_pass(&refs, &mut trace, &mut out, &mut tally);
            traces.push(trace);
        }
    });
    if let Some(rss) = rss {
        rss.stop();
    }
    if args.trace {
        out.set("peak_rss_mb", median(&log.peak_rss_mb));
        out.add_layers(&traces, &log.walls_ms);
        tally.report(&mut out, traces.len());
        crate::measure::write_spans(&args.workload, &traces);
    } else {
        // One `figure8` call per circuit is one campaign; its caller holds
        // the circuit's points when the call returns.
        library_metrics(&mut out, &log, setup_s);
        out.set("width_mean", median(&widths));
    }
    out
}

/// Checks one circuit's points against the reference: the count and every
/// `sub_size` always, every width too when `widths` (the traced
/// composition runs the same estimator, so it must agree exactly).
fn check_points(
    out: &mut Outcome,
    refs: &Reference,
    i: usize,
    got: &[Fig8Point],
    widths: bool,
) -> bool {
    let want = &refs.points[i];
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.sub_size == w.sub_size && (!widths || g.cutwidth == w.cutwidth));
    out.check(same, || {
        format!(
            "{}: Figure-8 points differ from figure8()",
            refs.cases[i].name
        )
    })
}

/// The paper's model selection must still pick the logarithmic fit.
fn check_fit(out: &mut Outcome, points: &[Fig8Point]) {
    let best = predictor::classify(&fig8_scatter(points)).map(|c| c.best.model);
    out.check(best == Some(Model::Logarithmic), || {
        format!("Figure-8 best fit is {best:?}, not log")
    });
}

/// Cone and MLA work counted by the traced passes.
#[derive(Default)]
struct Tally {
    faults: usize,
    cones: usize,
    nodes: Vec<f64>,
    mla_ms: Vec<f64>,
}

impl Tally {
    fn report(&self, out: &mut Outcome, passes: usize) {
        let n = passes.max(1) as f64;
        let t = tail(std::slice::from_ref(&self.mla_ms), LAYER_TAIL);
        out.set("cutwidth.cones", self.cones as f64 / n);
        out.set(
            "cutwidth.cache_hit_ratio",
            1.0 - self.cones as f64 / self.faults.max(1) as f64,
        );
        out.set("cutwidth.nodes_mean", mean(&self.nodes));
        out.set("cutwidth.mla_tail_ms", t.value);
        out.note(format!(
            "cutwidth.mla_tail_ms is p{} over {} cones",
            t.percentile, t.samples
        ));
    }
}

/// One traced pass: `figure8` composed from its public pieces.
fn traced_pass(refs: &Reference, trace: &mut Trace, out: &mut Outcome, tally: &mut Tally) {
    let cfg = config();
    let mut all = Vec::new();
    for (i, case) in refs.cases.iter().enumerate() {
        trace.enter("campaign");
        let parsed = trace.time("netlist.parse", || parse(&case.text));
        let nl = trace.time("netlist.decompose", || {
            decompose::decompose(&parsed, cfg.decompose_fanin).expect("suite circuits decompose")
        });
        let faults = trace.time("atpg.fault_list", || sample_faults(&nl));
        let mut cache: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut points = Vec::new();
        for f in &faults {
            tally.faults += 1;
            let (size, width) = match cache.get(&f.net.index()) {
                Some(&hit) => hit,
                None => {
                    let (sub, outs) =
                        trace.time("netlist.cone", || topo::fault_subcircuit_nets(&nl, f.net));
                    let entry = if outs.is_empty() {
                        (0, 0)
                    } else {
                        let ext =
                            trace.time("netlist.cone", || topo::extract_marked(&nl, &sub, &outs));
                        let h = trace.time("cutwidth.hypergraph", || {
                            Hypergraph::from_netlist(&ext.netlist)
                        });
                        trace.enter("cutwidth.mla");
                        let (w, _) = mla::estimate_cutwidth(&h, &cfg.mla);
                        tally.mla_ms.push(ms(trace.exit()));
                        tally.nodes.push(h.num_nodes() as f64);
                        (h.num_nodes(), w)
                    };
                    tally.cones += 1;
                    cache.insert(f.net.index(), entry);
                    entry
                }
            };
            if size > 0 {
                points.push(Fig8Point {
                    circuit: case.name.clone(),
                    sub_size: size,
                    cutwidth: width,
                });
            }
        }
        trace.exit();
        check_points(out, refs, i, &points, true);
        all.extend(points);
    }
    check_fit(out, &all);
}
