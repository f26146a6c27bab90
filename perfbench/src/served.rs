//! `served_warm`: an in-process `Server` with two workers and two
//! closed-loop `PipeClient`s, each submitting suite `all` in order and
//! sending the next campaign only after the previous `done`. Options:
//! `incremental`, `static_prune`, `patterns 64`.
//!
//! Tenants are jobs that wait for their verdicts, hence the closed loop.
//! The traced run adds three passes beside the served one:
//! - the serving tax: the same campaigns stepped on `CampaignDriver`s
//!   across as many threads as the daemon has workers;
//! - the sequential library run of the same campaigns (`campaign::run`);
//! - that run composed from public pieces — parse, preflight, collapse,
//!   static implication analysis, fault-simulator build, the seeded
//!   256-wide random phase, the warm solver, per-fault warm solves, drop
//!   simulation and teardown — which must reproduce its reports.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use atpg_easy_atpg::campaign::{AtpgConfig, FaultOutcome};
use atpg_easy_atpg::{
    fault, CampaignDriver, FaultSimulator, IncrementalAtpg, SimBuffers, WIDE_PATTERNS,
};
use atpg_easy_serve::{
    CampaignOptions, CampaignOutcome, DoneLine, DoneStatus, PipeClient, Request, Response,
    ServeConfig, Server, StatsSnapshot, VerdictLine,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::fresh::{detection_report, library_pass, parse, record, reference, PassLog, Reference};
use crate::measure::{five_numbers, median, ms, p50_of_passes, tail, RssSampler, Trace};
use crate::provenance::host_cpus;
use crate::{for_duration, setup_median, Args, Outcome, CAMPAIGN_TAIL};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Shed retries before a request counts as never completed.
const MAX_SHED_RETRIES: u64 = 10_000;

fn options(seed: u64) -> CampaignOptions {
    CampaignOptions {
        patterns: 64,
        seed,
        incremental: true,
        static_prune: true,
        ..CampaignOptions::default()
    }
}

struct State {
    refs: Reference,
    server: Server,
    clients: Vec<PipeClient>,
}

fn setup(seed: u64) -> State {
    let refs = reference(seed, &options(seed).to_config());
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    });
    let clients = (0..CLIENTS)
        .map(|_| {
            let mut c = PipeClient::connect(&server);
            c.set_recv_timeout(Some(Duration::from_secs(120)));
            c
        })
        .collect();
    State {
        refs,
        server,
        clients,
    }
}

fn teardown(state: State) {
    drop(state.clients);
    state.server.shutdown();
}

/// One campaign as the client saw it.
struct Sample {
    admit_ms: f64,
    first_verdict_ms: f64,
    done_ms: f64,
    verdicts: usize,
    solves: u64,
    shed: u64,
    ok: bool,
}

/// Submits one campaign and reads its stream to `done`, timing each stage
/// from the moment the request was first sent.
fn submit(
    client: &mut PipeClient,
    id: String,
    text: &str,
    options: &CampaignOptions,
    reference: &str,
) -> Sample {
    let request = Request::Campaign {
        id,
        netlist: text.to_string(),
        options: options.clone(),
    };
    let sent = Instant::now();
    client.send(&request).expect("send campaign");
    let mut s = Sample {
        admit_ms: 0.0,
        first_verdict_ms: 0.0,
        done_ms: 0.0,
        verdicts: 0,
        solves: 0,
        shed: 0,
        ok: false,
    };
    let mut verdicts = Vec::new();
    loop {
        match client.recv().expect("campaign stream") {
            Response::Accepted { .. } => s.admit_ms = ms(sent.elapsed()),
            Response::Shed { .. } => {
                s.shed += 1;
                if s.shed > MAX_SHED_RETRIES {
                    s.done_ms = ms(sent.elapsed());
                    return s;
                }
                std::thread::sleep(Duration::from_millis(1));
                client.send(&request).expect("resend campaign");
            }
            Response::Verdict {
                seq,
                net,
                stuck,
                verdict,
                vector,
                ..
            } => {
                if verdicts.is_empty() {
                    s.first_verdict_ms = ms(sent.elapsed());
                }
                verdicts.push(VerdictLine {
                    seq,
                    net,
                    stuck,
                    verdict,
                    vector,
                });
            }
            Response::Done {
                status,
                detected,
                untestable,
                aborted,
                deadlined,
                solves,
                wall_ms,
                ..
            } => {
                s.done_ms = ms(sent.elapsed());
                s.solves = solves;
                s.verdicts = verdicts.len();
                let outcome = CampaignOutcome {
                    faults: 0,
                    sim_detected: 0,
                    random_tests: 0,
                    verdicts,
                    certs: Vec::new(),
                    audit: None,
                    errors: Vec::new(),
                    done: DoneLine {
                        status,
                        detected,
                        untestable,
                        aborted,
                        deadlined,
                        solves,
                        wall_ms,
                    },
                };
                s.ok = status == DoneStatus::Ok && outcome.detection_report() == reference;
                return s;
            }
            Response::Error { code, msg, .. } => eprintln!("campaign error {code:?}: {msg}"),
            _ => {}
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let options = options(args.seed);
    let config = options.to_config();
    let (mut state, setup_s) = setup_median(|| setup(args.seed), teardown);
    let mut out = Outcome {
        threads: WORKERS,
        clients: CLIENTS,
        ..Outcome::default()
    };
    let mut served_fps = Vec::new();
    let mut served_pps = Vec::new();
    let mut samples: Vec<Vec<Sample>> = Vec::new();
    let mut peaks = Vec::new();
    let mut tax_fps = Vec::new();
    let mut lib_log = PassLog::default();
    let mut traces = Vec::new();
    let mut tally = Tally::default();
    let stats_before = state.server.stats();
    // The sampler is instrumentation: untraced runs measure without it.
    let rss = args.trace.then(RssSampler::start);
    let epoch = Instant::now();
    let State { refs, clients, .. } = &mut state;
    let refs: &Reference = refs;
    // Client threads live for the whole run, as tenants do: a thread per
    // pass would hand each pass fresh allocator arenas and make the
    // resident set depend on which arenas it drew.
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<Vec<Sample>>();
        let go: Vec<mpsc::Sender<usize>> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (tx, rx) = mpsc::channel::<usize>();
                let (done_tx, options) = (done_tx.clone(), &options);
                scope.spawn(move || {
                    for pass in rx {
                        let samples = refs
                            .cases
                            .iter()
                            .zip(&refs.reports)
                            .map(|(case, reference)| {
                                let id = format!("p{pass}-c{c}-{}", case.name);
                                submit(client, id, &case.text, options, reference)
                            })
                            .collect();
                        if done_tx.send(samples).is_err() {
                            return;
                        }
                    }
                });
                tx
            })
            .collect();
        drop(done_tx);
        for_duration(args.seconds, || {
            let start = Instant::now();
            for tx in &go {
                tx.send(samples.len()).expect("client thread alive");
            }
            let pass: Vec<Sample> = (0..go.len())
                .flat_map(|_| {
                    done_rx
                        .recv_timeout(Duration::from_secs(150))
                        .expect("client thread finished its pass")
                })
                .collect();
            let wall = start.elapsed();
            if let Some(rss) = &rss {
                peaks.push(rss.pass_peak());
            }
            let (mut faults, mut points) = (0, 0);
            for s in &pass {
                if out.check(s.ok, || {
                    "served campaign failed or differs from reference".into()
                }) {
                    faults += s.verdicts;
                    points += s.solves;
                }
            }
            served_fps.push(faults as f64 / wall.as_secs_f64());
            served_pps.push(points as f64 / wall.as_secs_f64());
            samples.push(pass);
            if args.trace {
                tax_fps.push(tax_pass(refs, &config, &mut out, &mut tally));
                library_pass(refs, &config, &mut out, &mut lib_log);
                let mut trace = Trace::new(epoch);
                composed_pass(refs, &config, &mut trace, &mut out, &mut tally);
                traces.push(trace);
            }
        });
        drop(go);
    });
    if let Some(rss) = rss {
        rss.stop();
    }
    let stats_after = state.server.stats();
    let passes = samples.len();
    let per_pass = |f: fn(&Sample) -> f64| -> Vec<Vec<f64>> {
        samples.iter().map(|p| p.iter().map(f).collect()).collect()
    };
    let done = per_pass(|s| s.done_ms);
    if args.trace {
        out.set("peak_rss_mb", median(&peaks));
        out.note(format!("peak_rss_mb by pass: {}", five_numbers(&peaks)));
        let n = passes as f64;
        out.add_layers(&traces, &lib_log.walls_ms);
        tally.report(&mut out, traces.len());
        out.set(
            "serve.admit_ms_p50",
            p50_of_passes(&per_pass(|s| s.admit_ms)),
        );
        out.set(
            "serve.shed",
            per_pass(|s| s.shed as f64).concat().iter().sum::<f64>() / n,
        );
        out.set(
            "serve.verdict_lines",
            per_pass(|s| s.verdicts as f64).concat().iter().sum::<f64>() / n,
        );
        let delta = |f: fn(&StatsSnapshot) -> u64| (f(&stats_after) - f(&stats_before)) as f64 / n;
        out.set("serve.stats_admitted", delta(|s| s.admitted));
        out.set("serve.stats_completed", delta(|s| s.completed));
        out.set("serve.stats_solves", delta(|s| s.solves));
        out.set("serve.stats_steps", delta(|s| s.steps));
        out.set("serve.tax_ratio", median(&served_fps) / median(&tax_fps));
        out.note(format!(
            "serve.tax_ratio = served {:.1} / library {:.1} faults/s, both on {WORKERS} threads",
            median(&served_fps),
            median(&tax_fps)
        ));
        crate::measure::write_spans(&args.workload, &traces);
    } else {
        let t = tail(&done, CAMPAIGN_TAIL);
        out.set("setup_s", setup_s);
        out.set("faults_per_s", median(&served_fps));
        out.set("points_per_s", median(&served_pps));
        out.set(
            "width_mean",
            crate::fig8::circuit_width_mean(&state.refs.cases),
        );
        out.set("campaign_p50_ms", p50_of_passes(&done));
        out.set("campaign_tail_ms", t.value);
        out.set(
            "first_verdict_p50_ms",
            p50_of_passes(&per_pass(|s| s.first_verdict_ms)),
        );
        out.note(format!(
            "faults_per_s by pass: {}",
            five_numbers(&served_fps)
        ));
        out.note(format!(
            "campaign_tail_ms is p{} over {} campaigns ({passes} passes, {CLIENTS} closed-loop clients, {WORKERS} workers on {} CPUs)",
            t.percentile,
            t.samples,
            host_cpus()
        ));
    }
    teardown(state);
    out
}

/// Work counted by the traced passes.
#[derive(Default)]
struct Tally {
    driver_setup_ms: f64,
    driver_step_ms: f64,
    driver_teardown_ms: f64,
    faults: usize,
    pruned: usize,
    random_calls: usize,
    random_retired: usize,
    drop_calls: usize,
    drop_retired: usize,
    campaigns: usize,
    inc_vars_end: usize,
    inc_learnt_end: usize,
}

impl Tally {
    fn report(&self, out: &mut Outcome, passes: usize) {
        let n = passes.max(1) as f64;
        let campaigns = self.campaigns.max(1) as f64;
        out.set("atpg.driver_setup_ms", self.driver_setup_ms / n);
        out.set("atpg.driver_step_ms", self.driver_step_ms / n);
        out.set("atpg.driver_teardown_ms", self.driver_teardown_ms / n);
        out.set("implic.pruned", self.pruned as f64 / n);
        out.set(
            "implic.prune_ratio",
            self.pruned as f64 / self.faults.max(1) as f64,
        );
        out.set(
            "atpg.random_phase_yield",
            self.random_retired as f64 / self.random_calls.max(1) as f64,
        );
        out.set("atpg.drop_sim_calls", self.drop_calls as f64 / n);
        out.set(
            "atpg.drop_yield",
            self.drop_retired as f64 / self.drop_calls.max(1) as f64,
        );
        out.set("sat.inc_vars_end", self.inc_vars_end as f64 / campaigns);
        out.set("sat.inc_learnt_end", self.inc_learnt_end as f64 / campaigns);
    }
}

/// The library side of the serving tax: the served campaigns stepped on
/// `CampaignDriver`s, one thread per daemon worker, each thread running
/// the suite as one client does. Returns faults per second.
fn tax_pass(refs: &Reference, config: &AtpgConfig, out: &mut Outcome, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let per_thread: Vec<(usize, u64, [f64; 3])> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let (mut faults, mut bad, mut times) = (0, 0u64, [0.0; 3]);
                    for (case, reference) in refs.cases.iter().zip(&refs.reports) {
                        let t = Instant::now();
                        let mut driver =
                            CampaignDriver::try_new(parse(&case.text), config, false, false)
                                .expect("suite circuits pass preflight");
                        times[0] += ms(t.elapsed());
                        let t = Instant::now();
                        while driver.step().is_some() {}
                        times[1] += ms(t.elapsed());
                        let report = driver.result().detection_report();
                        let n = driver.result().records.len();
                        let t = Instant::now();
                        drop(driver);
                        times[2] += ms(t.elapsed());
                        if report == *reference {
                            faults += n;
                        } else {
                            bad += 1;
                        }
                    }
                    (faults, bad, times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("library thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut faults = 0;
    for (f, bad, times) in per_thread {
        faults += f;
        out.attempted += refs.cases.len() as u64;
        out.failed += bad;
        if bad > 0 {
            eprintln!("MISMATCH: {bad} library driver reports differ from reference");
        }
        tally.driver_setup_ms += times[0];
        tally.driver_step_ms += times[1];
        tally.driver_teardown_ms += times[2];
    }
    faults as f64 / wall.as_secs_f64()
}

/// One traced pass: the sequential warm, pruned, random-seeded campaign
/// composed from public pieces.
fn composed_pass(
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
        let pruned: Vec<bool> = trace.time("implic.analyze", || {
            let analysis = atpg_easy_implic::analyze(&nl);
            faults
                .iter()
                .map(|f| analysis.is_redundant(f.net, f.stuck))
                .collect()
        });
        let fs = trace.time("atpg.faultsim_build", || FaultSimulator::with_cones(&nl));
        let mut detected = vec![false; faults.len()];
        let mut bufs = SimBuffers::default();
        trace.enter("atpg.random_phase");
        if config.random_patterns > 0 && nl.num_inputs() > 0 {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut remaining = config.random_patterns;
            while remaining > 0 {
                let batch = remaining.min(WIDE_PATTERNS);
                remaining -= batch;
                let vectors: Vec<Vec<bool>> = (0..batch)
                    .map(|_| (0..nl.num_inputs()).map(|_| rng.random_bool(0.5)).collect())
                    .collect();
                let hits = fs.detect_batch_wide(&nl, &vectors, &faults, &mut bufs);
                tally.random_calls += 1;
                for (i, hit) in hits.into_iter().enumerate() {
                    if hit && !detected[i] {
                        detected[i] = true;
                        tally.random_retired += 1;
                    }
                }
            }
        }
        trace.exit();
        let mut inc = trace.time("sat.inc_base", || IncrementalAtpg::new(&nl, config));
        let mut records = Vec::with_capacity(faults.len());
        for (i, &f) in faults.iter().enumerate() {
            if pruned[i] {
                records.push(record(f, FaultOutcome::StaticallyRedundant));
                continue;
            }
            if detected[i] {
                records.push(record(f, FaultOutcome::DetectedBySimulation));
                continue;
            }
            let solved = trace.time("sat.inc_solve", || inc.solve_fault(f, config, None));
            if let FaultOutcome::Detected(vector) = &solved.outcome {
                detected[i] = true;
                let hits = trace.time("atpg.drop_sim", || {
                    fs.detect_batch_with(&nl, std::slice::from_ref(vector), &faults, &mut bufs)
                });
                tally.drop_calls += 1;
                for (j, hit) in hits.into_iter().enumerate() {
                    if hit && !detected[j] {
                        detected[j] = true;
                        tally.drop_retired += 1;
                    }
                }
            }
            records.push(solved);
        }
        tally.campaigns += 1;
        tally.faults += faults.len();
        tally.pruned += pruned.iter().filter(|&&p| p).count();
        tally.inc_vars_end += inc.solver().num_vars();
        tally.inc_learnt_end += inc.solver().num_learnt();
        trace.time("atpg.teardown", || drop((inc, fs, bufs, detected)));
        trace.exit();
        let report = detection_report(records);
        out.check(report == *reference, || {
            format!(
                "{}: composed warm campaign differs from campaign::run",
                case.name
            )
        });
    }
}
