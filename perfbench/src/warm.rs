//! `warm_par2`: `parallel::AtpgCampaign` over suite `all` with
//! `min(2, nproc)` threads, warm incremental solvers, commit window 16
//! and no random patterns.
//!
//! The engine is one call, so its layers are read from the
//! `ParallelReport` it returns; the traced pass only adds spans around the
//! parse and the engine call.

use std::time::Instant;

use atpg_easy_atpg::campaign::AtpgConfig;
use atpg_easy_atpg::{AtpgCampaign, ParallelReport};

use crate::fresh::{library_metrics, parse, reference, PassLog, Reference};
use crate::measure::{median, ms, RssSampler, Trace};
use crate::provenance::host_cpus;
use crate::{for_duration, setup_median, Args, Outcome};

pub fn run(args: &Args) -> Outcome {
    let threads = host_cpus().min(2);
    let config = AtpgConfig {
        random_patterns: 0,
        seed: args.seed,
        incremental: true,
        ..AtpgConfig::default()
    };
    let engine = AtpgCampaign::new(config)
        .with_threads(threads)
        .with_commit_window(16);
    // The reference is the sequential library run of the same options.
    let (refs, setup_s) = setup_median(|| reference(args.seed, &config), drop);
    let mut out = Outcome {
        threads,
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
        pass(&engine, &refs, &mut out, &mut log, None);
        if let Some(rss) = &rss {
            log.peak_rss_mb.push(rss.pass_peak());
        }
        if args.trace {
            let mut trace = Trace::new(epoch);
            let mut ignored = PassLog::default();
            pass(
                &engine,
                &refs,
                &mut out,
                &mut ignored,
                Some((&mut trace, &mut tally)),
            );
            traces.push(trace);
        }
    });
    if let Some(rss) = rss {
        rss.stop();
    }
    if args.trace {
        out.set("peak_rss_mb", median(&log.peak_rss_mb));
        out.add_layers(&traces, &log.walls_ms);
        tally.report(&mut out, traces.len(), threads);
        crate::measure::write_spans(&args.workload, &traces);
    } else {
        library_metrics(&mut out, &log, setup_s);
        out.set("width_mean", crate::fig8::circuit_width_mean(&refs.cases));
    }
    out
}

/// `ParallelReport` fields summed over the traced passes.
#[derive(Default)]
struct Tally {
    wall_ms: f64,
    busy_ms: f64,
    solved: usize,
    committed: usize,
    wasted: usize,
    popped: usize,
    stolen: usize,
    skipped: usize,
}

impl Tally {
    fn add(&mut self, r: &ParallelReport) {
        self.wall_ms += ms(r.wall);
        self.busy_ms += r.workers.iter().map(|w| ms(w.solve_time)).sum::<f64>();
        self.solved += r.workers.iter().map(|w| w.solved).sum::<usize>();
        self.committed += r.committed_solves();
        self.wasted += r.wasted_solves;
        self.popped += r.workers.iter().map(|w| w.popped).sum::<usize>();
        self.stolen += r.workers.iter().map(|w| w.stolen).sum::<usize>();
        self.skipped += r.workers.iter().map(|w| w.skipped).sum::<usize>();
    }

    fn report(&self, out: &mut Outcome, passes: usize, threads: usize) {
        let n = passes.max(1) as f64;
        out.set("parallel.solve_busy_ms", self.busy_ms / n);
        out.set(
            "parallel.idle_ms",
            (threads as f64 * self.wall_ms - self.busy_ms) / n,
        );
        out.set("parallel.solved", self.solved as f64 / n);
        out.set("parallel.wasted_solves", self.wasted as f64 / n);
        out.set(
            "parallel.useful_ratio",
            self.committed as f64 / self.solved.max(1) as f64,
        );
        out.set(
            "parallel.steal_ratio",
            self.stolen as f64 / self.popped.max(1) as f64,
        );
        out.set("parallel.skipped", self.skipped as f64 / n);
    }
}

/// One pass over the suite; with `traced`, spans wrap the parse and the
/// engine call and the engine's reports are tallied.
fn pass(
    engine: &AtpgCampaign,
    refs: &Reference,
    out: &mut Outcome,
    log: &mut PassLog,
    mut traced: Option<(&mut Trace, &mut Tally)>,
) {
    let start = Instant::now();
    let mut runs = Vec::with_capacity(refs.cases.len());
    let mut latencies = Vec::with_capacity(refs.cases.len());
    for case in &refs.cases {
        let t = Instant::now();
        let run = match traced.as_mut() {
            None => engine.run(&parse(&case.text)),
            Some((trace, _)) => {
                trace.enter("campaign");
                let nl = trace.time("netlist.parse", || parse(&case.text));
                let run = trace.time("parallel.run", || engine.run(&nl));
                trace.exit();
                run
            }
        };
        latencies.push(ms(t.elapsed()));
        runs.push(run);
    }
    let wall = start.elapsed();
    let (mut faults, mut points) = (0, 0);
    for ((run, case), reference) in runs.iter().zip(&refs.cases).zip(&refs.reports) {
        if let Some((_, tally)) = traced.as_mut() {
            tally.add(&run.report);
        }
        if out.check(run.result.detection_report() == *reference, || {
            format!("{}: parallel report differs from reference", case.name)
        }) {
            faults += run.result.records.len();
            points += run.report.committed_solves();
        }
    }
    log.push(wall, faults, points, latencies);
}
