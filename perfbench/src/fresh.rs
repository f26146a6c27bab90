//! `fresh_seq`: sequential `campaign::run` over suite `all`, a fresh CDCL
//! solver per fault, no random patterns, no static prune.
//!
//! The traced pass rebuilds the library's fresh path from its public
//! pieces — parse, preflight, collapse, fault-simulator build, then per
//! fault miter build, encode, solve, test extraction, single-vector drop
//! simulation and teardown — and must reproduce the library's
//! `detection_report` byte-for-byte.

use std::time::{Duration, Instant};

use atpg_easy_atpg::campaign::{self, AtpgConfig, CampaignResult, FaultOutcome, FaultRecord};
use atpg_easy_atpg::{fault, miter, Fault, FaultSimulator, SimBuffers};
use atpg_easy_cnf::circuit;
use atpg_easy_netlist::parser::bench;
use atpg_easy_netlist::Netlist;
use atpg_easy_sat::{Cdcl, Outcome as SatOutcome, Solver, SolverStats};

use crate::measure::{
    five_numbers, hd_quantile, mean, median, ms, p50_of_passes, tail, RssSampler, Trace,
};
use crate::suite::{self, Case};
use crate::{for_duration, setup_median, Args, Outcome, CAMPAIGN_TAIL, LAYER_TAIL};

/// Campaign-level results of one library pass, gathered for the
/// end-to-end metrics.
#[derive(Default)]
pub struct PassLog {
    pub walls_ms: Vec<f64>,
    pub faults_per_s: Vec<f64>,
    pub points_per_s: Vec<f64>,
    /// Per pass, each campaign's latency.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Per pass, the peak resident set.
    pub peak_rss_mb: Vec<f64>,
}

impl PassLog {
    pub fn push(&mut self, wall: Duration, faults: usize, points: usize, latencies: Vec<f64>) {
        self.walls_ms.push(ms(wall));
        self.faults_per_s.push(faults as f64 / wall.as_secs_f64());
        self.points_per_s.push(points as f64 / wall.as_secs_f64());
        self.latencies_ms.push(latencies);
    }
}

/// Sets the end-to-end metrics a pass log gives. A library caller holds
/// its first verdict only when the campaign call returns, so for library
/// workloads the first-verdict latency is the campaign latency.
pub fn library_metrics(out: &mut Outcome, log: &PassLog, setup_s: f64) {
    let t = tail(&log.latencies_ms, CAMPAIGN_TAIL);
    let p50 = p50_of_passes(&log.latencies_ms);
    out.set("setup_s", setup_s);
    out.set("faults_per_s", median(&log.faults_per_s));
    out.set("points_per_s", median(&log.points_per_s));
    out.set("campaign_p50_ms", p50);
    out.set("campaign_tail_ms", t.value);
    out.set("first_verdict_p50_ms", p50);
    out.note(format!(
        "campaign_tail_ms is p{} over {} campaigns ({} passes)",
        t.percentile,
        t.samples,
        log.walls_ms.len()
    ));
    out.note(format!(
        "faults_per_s by pass: {}",
        five_numbers(&log.faults_per_s)
    ));
}

/// The workload's circuits with their reference reports.
pub struct Reference {
    pub cases: Vec<Case>,
    pub reports: Vec<String>,
}

/// Renders suite `all` for `seed` and computes each circuit's reference
/// `detection_report` with the sequential library run under `config`.
pub fn reference(seed: u64, config: &AtpgConfig) -> Reference {
    let cases = suite::render(&suite::all(seed));
    let reports = cases
        .iter()
        .map(|c| campaign::run(&parse(&c.text), config).detection_report())
        .collect();
    Reference { cases, reports }
}

pub fn parse(text: &str) -> Netlist {
    bench::parse(text).expect("rendered suite circuits parse")
}

fn config(seed: u64) -> AtpgConfig {
    AtpgConfig {
        random_patterns: 0,
        seed,
        ..AtpgConfig::default()
    }
}

pub fn run(args: &Args) -> Outcome {
    let config = config(args.seed);
    let (refs, setup_s) = setup_median(|| reference(args.seed, &config), drop);
    let mut out = Outcome {
        threads: 1,
        clients: 1,
        ..Outcome::default()
    };
    let mut log = PassLog::default();
    let mut traces = Vec::new();
    let mut tally = Tally::default();
    // The sampler is instrumentation: untraced runs measure without it.
    let rss = args.trace.then(RssSampler::start);
    let epoch = Instant::now();
    for_duration(args.seconds, || {
        library_pass(&refs, &config, &mut out, &mut log);
        if let Some(rss) = &rss {
            log.peak_rss_mb.push(rss.pass_peak());
        }
        if args.trace {
            let mut trace = Trace::new(epoch);
            traced_pass(&refs, &config, &mut trace, &mut out, &mut tally);
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
        library_metrics(&mut out, &log, setup_s);
        out.set("width_mean", crate::fig8::circuit_width_mean(&refs.cases));
    }
    out
}

/// Work counted by the traced passes.
#[derive(Default)]
struct Tally {
    miter_calls: f64,
    solves: f64,
    conflicts: f64,
    decisions: f64,
    drop_calls: f64,
    drop_retired: f64,
    vars: Vec<f64>,
    clauses: Vec<f64>,
    solve_us: Vec<f64>,
}

impl Tally {
    /// Per-pass counts, means and solve-time quantiles.
    fn report(&self, out: &mut Outcome, passes: usize) {
        let n = passes.max(1) as f64;
        out.set("atpg.miter_calls", self.miter_calls / n);
        out.set("sat.solves", self.solves / n);
        out.set("sat.conflicts", self.conflicts / n);
        out.set("sat.decisions", self.decisions / n);
        out.set("atpg.drop_sim_calls", self.drop_calls / n);
        out.set(
            "atpg.drop_yield",
            self.drop_retired / self.drop_calls.max(1.0),
        );
        out.set("cnf.vars_mean", mean(&self.vars));
        out.set("cnf.clauses_mean", mean(&self.clauses));
        let t = tail(std::slice::from_ref(&self.solve_us), LAYER_TAIL);
        out.set("sat.solve_p50_us", hd_quantile(&self.solve_us, 0.5));
        out.set("sat.solve_tail_us", t.value);
        out.note(format!(
            "sat.solve_tail_us is p{} over {} solves",
            t.percentile, t.samples
        ));
    }
}

/// One untraced pass: `campaign::run` per circuit, text in.
pub fn library_pass(refs: &Reference, config: &AtpgConfig, out: &mut Outcome, log: &mut PassLog) {
    let start = Instant::now();
    let mut results = Vec::with_capacity(refs.cases.len());
    let mut latencies = Vec::with_capacity(refs.cases.len());
    for case in &refs.cases {
        let t = Instant::now();
        let result = campaign::run(&parse(&case.text), config);
        latencies.push(ms(t.elapsed()));
        results.push(result);
    }
    let wall = start.elapsed();
    let (mut faults, mut points) = (0, 0);
    for ((result, case), reference) in results.iter().zip(&refs.cases).zip(&refs.reports) {
        if out.check(result.detection_report() == *reference, || {
            format!("{}: library report differs from reference", case.name)
        }) {
            faults += result.records.len();
            points += result.sat_records().count();
        }
    }
    log.push(wall, faults, points, latencies);
}

/// One traced pass: the fresh path composed from public pieces.
fn traced_pass(
    refs: &Reference,
    config: &AtpgConfig,
    trace: &mut Trace,
    out: &mut Outcome,
    tally: &mut Tally,
) {
    for (case, reference) in refs.cases.iter().zip(&refs.reports) {
        trace.enter("campaign");
        let nl = trace.time("netlist.parse", || parse(&case.text));
        let lint = trace.time("lint.preflight", || atpg_easy_lint::preflight(&nl));
        assert!(!lint.has_errors(), "{} fails preflight", case.name);
        let faults = trace.time("atpg.collapse", || fault::collapse(&nl));
        let fs = trace.time("atpg.faultsim_build", || FaultSimulator::with_cones(&nl));
        let mut detected = vec![false; faults.len()];
        let mut records = Vec::with_capacity(faults.len());
        let mut bufs = SimBuffers::default();
        for (i, &f) in faults.iter().enumerate() {
            if detected[i] {
                records.push(record(f, FaultOutcome::DetectedBySimulation));
                continue;
            }
            let m = trace.time("atpg.miter", || miter::build(&nl, f));
            let enc = trace.time("cnf.encode", || {
                let mut enc = circuit::encode(&m.circuit).expect("miter circuits encode");
                if config.activation_clause {
                    if let Some(clause) = miter::activation_clause(&m, &enc) {
                        enc.formula.add_clause(clause);
                    }
                }
                enc
            });
            tally.miter_calls += 1.0;
            tally.vars.push(enc.formula.num_vars() as f64);
            tally.clauses.push(enc.formula.num_clauses() as f64);
            trace.enter("sat.solve");
            let mut solver = Cdcl::new().with_limits(config.limits);
            let sol = solver.solve(&enc.formula);
            tally.solve_us.push(trace.exit().as_secs_f64() * 1e6);
            tally.solves += 1.0;
            tally.conflicts += sol.stats.conflicts as f64;
            tally.decisions += sol.stats.decisions as f64;
            match sol.outcome {
                SatOutcome::Sat(model) => {
                    let vector = trace.time("atpg.extract", || m.extract_test(&enc, &model, &nl));
                    detected[i] = true;
                    let hits = trace.time("atpg.drop_sim", || {
                        fs.detect_batch_with(&nl, std::slice::from_ref(&vector), &faults, &mut bufs)
                    });
                    for (j, hit) in hits.into_iter().enumerate() {
                        if hit && !detected[j] {
                            detected[j] = true;
                            tally.drop_retired += 1.0;
                        }
                    }
                    tally.drop_calls += 1.0;
                    records.push(record(f, FaultOutcome::Detected(vector)));
                }
                SatOutcome::Unsat => records.push(record(f, FaultOutcome::Untestable)),
                SatOutcome::Aborted => records.push(record(f, FaultOutcome::Aborted)),
            }
            trace.time("atpg.teardown", || drop((solver, enc, m)));
        }
        trace.time("atpg.teardown", || drop((fs, bufs, detected)));
        trace.exit();
        let report = detection_report(records);
        out.check(report == *reference, || {
            format!(
                "{}: traced composition differs from campaign::run",
                case.name
            )
        });
    }
}

/// A record carrying only what `detection_report` reads.
pub fn record(fault: Fault, outcome: FaultOutcome) -> FaultRecord {
    FaultRecord {
        fault,
        outcome,
        sat_vars: 0,
        sat_clauses: 0,
        sub_size: 0,
        solve_time: Duration::ZERO,
        stats: SolverStats::default(),
    }
}

/// The library's `detection_report` of composed records.
pub fn detection_report(records: Vec<FaultRecord>) -> String {
    CampaignResult {
        records,
        tests: Vec::new(),
    }
    .detection_report()
}
