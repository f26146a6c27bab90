//! TEGUS-style ATPG campaigns: one ATPG-SAT instance per fault, with
//! random-pattern seeding and fault dropping.
//!
//! This is the experiment engine behind the paper's Figure 1: run ATPG on
//! a circuit, record per-SAT-instance size and effort, and report
//! coverage.

use std::time::{Duration, Instant};

use atpg_easy_cnf::circuit;
use atpg_easy_netlist::Netlist;
use atpg_easy_obs::{Counters, CountingProbe, InstanceTrace, NoProbe};
use atpg_easy_sat::{
    CachingBacktracking, Cdcl, Dpll, Limits, Outcome, SimpleBacktracking, Solver, SolverStats,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::certify::{CertifiedRun, StreamSink};
use crate::driver::{CampaignDriver, DriverError};
use crate::faultsim::{FaultSimulator, SimBuffers, WIDE_PATTERNS};
use crate::{fault, miter, verify, Fault, IncrementalAtpg};

/// Which solver backs the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// CDCL (the TEGUS proxy; default).
    #[default]
    Cdcl,
    /// DPLL with unit propagation.
    Dpll,
    /// The paper's Algorithm 1 (caching backtracking).
    Caching,
    /// Plain chronological backtracking.
    Simple,
}

impl SolverChoice {
    fn make(self, limits: Limits) -> Box<dyn Solver> {
        match self {
            SolverChoice::Cdcl => Box::new(Cdcl::new().with_limits(limits)),
            SolverChoice::Dpll => Box::new(Dpll::new().with_limits(limits)),
            SolverChoice::Caching => Box::new(CachingBacktracking::new().with_limits(limits)),
            SolverChoice::Simple => Box::new(SimpleBacktracking::new().with_limits(limits)),
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgConfig {
    /// Solver backing each ATPG-SAT instance.
    pub solver: SolverChoice,
    /// Per-instance resource budget.
    pub limits: Limits,
    /// Add the Larrabee activation clause (`X = ¬B` in the good circuit).
    pub activation_clause: bool,
    /// Simulate every generated test against the remaining faults and drop
    /// the ones it detects.
    pub fault_dropping: bool,
    /// Collapse structurally equivalent faults first.
    pub collapse: bool,
    /// Additionally drop dominance-collapsed faults (implies `collapse`);
    /// shrinks the target list further while preserving coverage.
    pub dominance: bool,
    /// Random patterns simulated before any SAT call (0 disables); easy
    /// faults are retired without generating a SAT instance.
    pub random_patterns: usize,
    /// Seed for the random-pattern phase.
    pub seed: u64,
    /// Lint the netlist before fault enumeration and fail fast with a
    /// diagnostic report instead of panicking mid-campaign (default on).
    pub preflight: bool,
    /// Solve faults against one persistent assumption-based CDCL solver
    /// (per campaign, or per worker in the parallel engine) instead of a
    /// fresh solver per fault: the fault-free circuit is encoded once
    /// and per-fault logic rides on activation literals (see
    /// [`crate::incremental`]). Implies CDCL — `solver` is ignored.
    /// Detection verdicts are identical to the from-scratch path
    /// (compare [`CampaignResult::detection_report`]); models, effort
    /// counters and instance sizes differ.
    pub incremental: bool,
    /// Run the static implication pre-pass (`atpg_easy_implic`) before
    /// the campaign and retire statically-proved-redundant faults as
    /// [`FaultOutcome::StaticallyRedundant`] without building a SAT
    /// instance. Sound by construction: a pruned fault is untestable,
    /// so [`CampaignResult::detection_report`] is byte-identical with
    /// the pass on or off (only per-record solver annotations differ).
    pub static_prune: bool,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            solver: SolverChoice::Cdcl,
            limits: Limits::none(),
            activation_clause: true,
            fault_dropping: true,
            collapse: true,
            dominance: false,
            random_patterns: 0,
            seed: 1,
            preflight: true,
            incremental: false,
            static_prune: false,
        }
    }
}

/// How a fault was resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// ATPG-SAT found a test vector (recorded per primary input).
    Detected(Vec<bool>),
    /// A previously generated or random vector already detected it.
    DetectedBySimulation,
    /// ATPG-SAT proved the fault untestable (redundant).
    Untestable,
    /// The static implication pre-pass proved the fault untestable
    /// before any SAT instance was built (see `atpg_easy_implic`).
    /// Semantically equivalent to [`FaultOutcome::Untestable`].
    StaticallyRedundant,
    /// The solver hit its budget.
    Aborted,
}

/// Per-fault campaign record — one point of the paper's Figure 1.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The fault.
    pub fault: Fault,
    /// Resolution.
    pub outcome: FaultOutcome,
    /// Variables in the ATPG-SAT instance (0 when no instance was built).
    pub sat_vars: usize,
    /// Clauses in the ATPG-SAT instance.
    pub sat_clauses: usize,
    /// `|C_ψ^sub|` in nets.
    pub sub_size: usize,
    /// Wall-clock solve time (zero when no instance was built).
    pub solve_time: Duration,
    /// Machine-independent solver counters.
    pub stats: SolverStats,
}

/// The outcome of a whole campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// One record per targeted fault.
    pub records: Vec<FaultRecord>,
    /// The generated test set (SAT models plus effective random patterns).
    pub tests: Vec<Vec<bool>>,
}

impl CampaignResult {
    /// Faults resolved as detected (by SAT or simulation).
    pub fn detected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    FaultOutcome::Detected(_) | FaultOutcome::DetectedBySimulation
                )
            })
            .count()
    }

    /// Faults proved untestable (by the solver or the static pre-pass).
    pub fn untestable(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    FaultOutcome::Untestable | FaultOutcome::StaticallyRedundant
                )
            })
            .count()
    }

    /// Faults retired by the static implication pre-pass.
    pub fn statically_pruned(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == FaultOutcome::StaticallyRedundant)
            .count()
    }

    /// Faults aborted on budget.
    pub fn aborted(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == FaultOutcome::Aborted)
            .count()
    }

    /// Fault coverage: detected / (total − untestable).
    pub fn coverage(&self) -> f64 {
        let testable = self.records.len() - self.untestable();
        if testable == 0 {
            1.0
        } else {
            self.detected() as f64 / testable as f64
        }
    }

    /// Records that actually ran a SAT instance (the Figure-1 population).
    pub fn sat_records(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter().filter(|r| r.sat_vars > 0)
    }

    /// Canonical textual rendering of everything deterministic in the
    /// result. Wall-clock `solve_time` is excluded (it varies run to run);
    /// every other field — outcomes, test vectors, instance sizes, solver
    /// counters — is included. Two campaigns are behaviorally identical
    /// iff their canonical reports are byte-identical; the parallel engine
    /// uses this to assert thread-count independence.
    pub fn canonical_report(&self) -> String {
        use std::fmt::Write as _;
        fn bits(v: &[bool]) -> String {
            v.iter().map(|&b| if b { '1' } else { '0' }).collect()
        }
        let mut out = String::new();
        for r in &self.records {
            let outcome = match &r.outcome {
                FaultOutcome::Detected(v) => format!("detected:{}", bits(v)),
                FaultOutcome::DetectedBySimulation => "sim".to_string(),
                FaultOutcome::Untestable => "untestable".to_string(),
                FaultOutcome::StaticallyRedundant => "untestable-static".to_string(),
                FaultOutcome::Aborted => "aborted".to_string(),
            };
            let s = &r.stats;
            writeln!(
                out,
                "fault net={} sa{} {} vars={} clauses={} sub={} nodes={} decisions={} \
                 props={} conflicts={} cache_hits={} cache_entries={} learnt={} restarts={}",
                r.fault.net.index(),
                u8::from(r.fault.stuck),
                outcome,
                r.sat_vars,
                r.sat_clauses,
                r.sub_size,
                s.nodes,
                s.decisions,
                s.propagations,
                s.conflicts,
                s.cache_hits,
                s.cache_entries,
                s.learnt_clauses,
                s.restarts
            )
            .expect("writing to a String cannot fail");
        }
        for t in &self.tests {
            writeln!(out, "test {}", bits(t)).expect("writing to a String cannot fail");
        }
        out
    }

    /// Canonical rendering of the **semantic** per-fault verdicts only:
    /// one line per fault, `detected` / `untestable` / `aborted`, with
    /// no test vectors, solver counters or instance sizes. Detected-by-
    /// SAT and detected-by-simulation collapse to `detected` — which
    /// vector retires a fault (and therefore which faults ever reach the
    /// solver) depends on the engine and on solver warm state, but a
    /// fault's detectability does not.
    ///
    /// This is the report that is byte-identical across the sequential,
    /// parallel (any thread count), from-scratch and incremental
    /// engines; [`CampaignResult::canonical_report`] is only stable
    /// within one engine.
    pub fn detection_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let verdict = match &r.outcome {
                FaultOutcome::Detected(_) | FaultOutcome::DetectedBySimulation => "detected",
                FaultOutcome::Untestable | FaultOutcome::StaticallyRedundant => "untestable",
                FaultOutcome::Aborted => "aborted",
            };
            writeln!(
                out,
                "fault net={} sa{} {verdict}",
                r.fault.net.index(),
                u8::from(r.fault.stuck)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Runs a full ATPG campaign on `nl`.
///
/// # Panics
///
/// With `config.preflight` set (the default), panics with a rendered
/// diagnostic report if the netlist fails the lint preflight (cycles,
/// undriven or multiply-driven nets, bad fanin, no outputs). With
/// preflight disabled, a malformed netlist instead panics wherever the
/// campaign first trips over it. Also panics on XOR/XNOR gates wider
/// than two inputs (decompose first).
pub fn run(nl: &Netlist, config: &AtpgConfig) -> CampaignResult {
    let mut driver = build_driver(nl, config, false, false);
    while driver.step().is_some() {}
    driver.into_result()
}

/// Runs a full campaign like [`run`], additionally emitting one
/// [`InstanceTrace`] per SAT instance, sequence-numbered by record index
/// (so traces line up with the records of the returned result).
///
/// Traces are probe-derived: each solve goes through
/// [`Solver::solve_probed`] with a [`CountingProbe`], so the counters in
/// the trace are the per-instance event totals. The campaign result is
/// identical to what [`run`] produces (probes only observe).
///
/// # Panics
///
/// Same conditions as [`run`].
pub fn run_traced(nl: &Netlist, config: &AtpgConfig) -> (CampaignResult, Vec<InstanceTrace>) {
    let mut driver = build_driver(nl, config, true, false);
    while driver.step().is_some() {}
    let (result, traces, _) = driver.into_parts();
    (result, traces)
}

/// Runs a full campaign like [`run_traced`], additionally logging a
/// proof stream that certifies every solver verdict: each SAT instance's
/// formula is recorded as axioms, each verdict is bracketed by
/// `SolveBegin`/`SolveEnd`, and the solver emits every derivation through
/// its [`ProofSink`](atpg_easy_sat::ProofSink). The returned
/// [`CertifiedRun::events`] replays through
/// [`audit_stream`](atpg_easy_proof::audit_stream) (or the lint `P*`
/// pass).
///
/// With the caching solver, proof logging disables cache-hit pruning so
/// every UNSAT verdict carries a full derivation: verdicts are
/// unchanged, node counts differ. Traces report the per-instance proof
/// size in `proof_bytes`.
///
/// # Panics
///
/// Same conditions as [`run`]; additionally, with `config.preflight` set
/// the proof stream is audited after the run (the campaign *postflight*)
/// and a stream that fails certification panics with the rendered `P*`
/// diagnostics.
pub fn run_certified(nl: &Netlist, config: &AtpgConfig) -> CertifiedRun {
    let mut driver = build_driver(nl, config, true, true);
    while driver.step().is_some() {}
    let (result, traces, sink) = driver.into_parts();
    let events = sink
        .expect("certified drivers always carry a sink")
        .into_events();
    if config.preflight {
        let (report, _) = atpg_easy_lint::proof::lint_proof_stream(&events);
        assert!(
            !report.has_errors(),
            "campaign on `{}` failed proof postflight:\n{}",
            nl.name(),
            report.render_human()
        );
    }
    CertifiedRun {
        result,
        traces,
        events,
    }
}

/// Builds a [`CampaignDriver`] with the library entry points' panic
/// behavior: a preflight failure dies with the rendered report rather
/// than returning the typed error the serving layer consumes.
fn build_driver(
    nl: &Netlist,
    config: &AtpgConfig,
    tracing: bool,
    certified: bool,
) -> CampaignDriver {
    CampaignDriver::try_new(nl.clone(), config, tracing, certified)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The campaign state both engines share: what the set-up builds, and the
/// frontier that turns fault indices, in order, into records.
///
/// [`CampaignDriver`] steps this core inline with no worker thread;
/// [`AtpgCampaign`](crate::AtpgCampaign) feeds the same frontier from
/// its workers over a channel. Records are emitted in fault order, one
/// per fault, so `result.records.len()` is the next fault index.
pub(crate) struct CampaignCore {
    /// The target faults, after the configured collapsing.
    pub(crate) faults: Vec<Fault>,
    /// Faults the static implication pre-pass proved redundant.
    pub(crate) pruned: Vec<bool>,
    /// Faults detected so far, by a random pattern or a committed test.
    pub(crate) detected: Vec<bool>,
    pub(crate) fs: FaultSimulator,
    pub(crate) result: CampaignResult,
}

impl CampaignCore {
    /// The one campaign set-up: the preflight, the target fault list, the
    /// static-prune mask (all clear unless `config.static_prune`), the
    /// fault simulator and the random-pattern phase, whose effective
    /// patterns open the result's test set.
    ///
    /// # Errors
    ///
    /// With `config.preflight` set, a netlist that fails the lint
    /// preflight returns [`DriverError::Preflight`] with the rendered
    /// diagnostic report.
    pub(crate) fn new(nl: &Netlist, config: &AtpgConfig) -> Result<Self, DriverError> {
        if config.preflight {
            let report = atpg_easy_lint::preflight(nl);
            if report.has_errors() {
                return Err(DriverError::Preflight(format!(
                    "netlist `{}` failed ATPG preflight:\n{}",
                    nl.name(),
                    report.render_human()
                )));
            }
        }
        let faults = if config.dominance {
            fault::collapse_with_dominance(nl)
        } else if config.collapse {
            fault::collapse(nl)
        } else {
            fault::all_faults(nl)
        };
        let pruned = if config.static_prune {
            let analysis = atpg_easy_implic::analyze(nl);
            faults
                .iter()
                .map(|f| analysis.is_redundant(f.net, f.stuck))
                .collect()
        } else {
            vec![false; faults.len()]
        };
        let fs = FaultSimulator::with_cones(nl);
        let mut detected = vec![false; faults.len()];
        let tests = random_phase(nl, config, &fs, &faults, &mut detected);
        Ok(CampaignCore {
            result: CampaignResult {
                records: Vec::with_capacity(faults.len()),
                tests,
            },
            faults,
            pruned,
            detected,
            fs,
        })
    }

    /// The frontier step at fault `i`: a pruned fault gets its static
    /// record and a detected one its simulated record; otherwise the
    /// solver verdict from `verdict` is committed. The record is appended
    /// to the result and returned. Returns `None`, emitting nothing, when
    /// the fault needs a verdict and `verdict` has none yet.
    pub(crate) fn step(
        &mut self,
        i: usize,
        verdict: impl FnOnce(&Self) -> Option<Verdict>,
        publish: impl FnMut(usize),
    ) -> Option<&FaultRecord> {
        let f = self.faults[i];
        let record = if self.pruned[i] {
            unsolved_record(f, FaultOutcome::StaticallyRedundant)
        } else if self.detected[i] {
            unsolved_record(f, FaultOutcome::DetectedBySimulation)
        } else {
            let verdict = verdict(self)?;
            self.commit(i, verdict, publish)
        };
        self.result.records.push(record);
        self.result.records.last()
    }

    /// Commits the solver verdict on fault `i` without emitting it: a
    /// detected fault and every fault its test drops become detected,
    /// each newly detected index is passed to `publish`, and the test
    /// joins the result. Returns the record for the caller to emit.
    pub(crate) fn commit(
        &mut self,
        i: usize,
        verdict: Verdict,
        mut publish: impl FnMut(usize),
    ) -> FaultRecord {
        if let FaultOutcome::Detected(vector) = &verdict.record.outcome {
            let hits = verdict.hits.iter().flatten().enumerate();
            let drops = hits.filter(|&(_, &hit)| hit).map(|(j, _)| j);
            for j in std::iter::once(i).chain(drops) {
                if !self.detected[j] {
                    self.detected[j] = true;
                    publish(j);
                }
            }
            self.result.tests.push(vector.clone());
        }
        verdict.record
    }
}

/// The record of a fault retired without a SAT instance: by the static
/// pre-pass or by simulation.
fn unsolved_record(f: Fault, outcome: FaultOutcome) -> FaultRecord {
    FaultRecord {
        fault: f,
        outcome,
        sat_vars: 0,
        sat_clauses: 0,
        sub_size: 0,
        solve_time: Duration::ZERO,
        stats: SolverStats::default(),
    }
}

/// A solver verdict on its way to the frontier: the record and, for a
/// detected fault under fault dropping, one flag per campaign fault
/// telling whether the fault's test detects it.
pub(crate) struct Verdict {
    pub(crate) record: FaultRecord,
    pub(crate) hits: Option<Vec<bool>>,
}

impl Verdict {
    /// Wraps `record`, simulating a detected fault's test against every
    /// campaign fault when `config.fault_dropping` is on.
    pub(crate) fn new(
        nl: &Netlist,
        config: &AtpgConfig,
        fs: &FaultSimulator,
        faults: &[Fault],
        record: FaultRecord,
        bufs: &mut SimBuffers,
    ) -> Self {
        let hits = match &record.outcome {
            FaultOutcome::Detected(vector) if config.fault_dropping => {
                Some(fs.detect_batch_with(nl, std::slice::from_ref(vector), faults, bufs))
            }
            _ => None,
        };
        Verdict { record, hits }
    }
}

/// How a campaign solves its faults: the one place that chooses between
/// a fresh solver per fault and a warm incremental solver.
pub(crate) enum FaultSolver {
    /// A fresh `config.solver` instance per fault, as in [`solve_one`].
    Fresh,
    /// One persistent assumption-based CDCL solver per campaign (or per
    /// parallel worker).
    Warm(Box<IncrementalAtpg>),
}

impl FaultSolver {
    /// The solver `config.incremental` selects. With `sink`, a warm
    /// solver's fault-free base encoding is recorded as its axioms, so
    /// every later guarded group and derivation checks against it.
    pub(crate) fn new(nl: &Netlist, config: &AtpgConfig, sink: Option<&mut StreamSink>) -> Self {
        if !config.incremental {
            return FaultSolver::Fresh;
        }
        let warm = IncrementalAtpg::new(nl, config);
        if let Some(sink) = sink {
            sink.reset();
            for clause in warm.base_formula.clauses() {
                sink.axiom(clause);
            }
        }
        FaultSolver::Warm(Box::new(warm))
    }

    /// Solves fault `f`. With `probe`, the solve is observed through it;
    /// with `cert`, the instance is logged into the sink as solve number
    /// `index`. The record is the same either way.
    pub(crate) fn solve(
        &mut self,
        nl: &Netlist,
        f: Fault,
        config: &AtpgConfig,
        probe: Option<&mut CountingProbe>,
        cert: Option<(usize, &mut StreamSink)>,
    ) -> FaultRecord {
        match self {
            FaultSolver::Fresh => solve_instance(nl, f, config, probe, cert),
            FaultSolver::Warm(warm) => warm.solve_fault_with(f, config, probe, cert),
        }
    }
}

/// Phase 1: simulates `config.random_patterns` random vectors against the
/// fault list, marking hits in `detected`, and returns the batches that
/// retired at least one new fault. Deterministic in `config.seed`, and
/// run single-threaded by both engines before any solving, which is what
/// makes the parallel engine's output thread-count independent.
///
/// Batches are [`WIDE_PATTERNS`] (256) patterns wide: one block-parallel
/// pass per batch retires four word-widths of patterns at the cost of a
/// single cone resimulation per fault, with every per-net buffer reused
/// across batches.
fn random_phase(
    nl: &Netlist,
    config: &AtpgConfig,
    fs: &FaultSimulator,
    faults: &[Fault],
    detected: &mut [bool],
) -> Vec<Vec<bool>> {
    let mut tests = Vec::new();
    if config.random_patterns == 0 || nl.num_inputs() == 0 {
        return tests;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut bufs = SimBuffers::default();
    let mut remaining = config.random_patterns;
    while remaining > 0 {
        let batch = remaining.min(WIDE_PATTERNS);
        remaining -= batch;
        let vectors: Vec<Vec<bool>> = (0..batch)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.random_bool(0.5)).collect())
            .collect();
        let hits = fs.detect_batch_wide(nl, &vectors, faults, &mut bufs);
        let mut useful = false;
        for (i, hit) in hits.into_iter().enumerate() {
            if hit && !detected[i] {
                detected[i] = true;
                useful = true;
            }
        }
        if useful {
            tests.extend(vectors);
        }
    }
    tests
}

/// Builds, encodes and solves the ATPG-SAT instance for one fault.
///
/// Deterministic apart from the wall-clock `solve_time` field (and any
/// wall-clock limit in `config.limits`): identical inputs produce an
/// identical record. This is the from-scratch reference that campaigns
/// with [`AtpgConfig::incremental`] unset run for every solved fault.
pub fn solve_one(nl: &Netlist, f: Fault, config: &AtpgConfig) -> FaultRecord {
    solve_instance(nl, f, config, None, None)
}

/// The Figure-1 outcome label of a fault record: `"SAT"`, `"UNSAT"`,
/// `"ABORT"`, `"SIM"` for faults retired by simulation, or
/// `"REDUNDANT"` for faults retired by the static pre-pass.
pub fn outcome_label(outcome: &FaultOutcome) -> &'static str {
    match outcome {
        FaultOutcome::Detected(_) => "SAT",
        FaultOutcome::DetectedBySimulation => "SIM",
        FaultOutcome::Untestable => "UNSAT",
        FaultOutcome::StaticallyRedundant => "REDUNDANT",
        FaultOutcome::Aborted => "ABORT",
    }
}

/// Builds the [`InstanceTrace`] for one solved SAT instance. `seq` is the
/// record's index in the campaign's deterministic commit order; `worker`
/// is the id of the thread that solved it (0 for sequential runs).
pub(crate) fn fault_trace(
    nl: &Netlist,
    seq: u64,
    record: &FaultRecord,
    counters: Counters,
    worker: u64,
    proof_bytes: u64,
) -> InstanceTrace {
    InstanceTrace {
        seq,
        circuit: nl.name().to_string(),
        fault: record.fault.describe(nl),
        vars: record.sat_vars as u64,
        clauses: record.sat_clauses as u64,
        sub_size: record.sub_size as u64,
        outcome: outcome_label(&record.outcome).to_string(),
        wall_ns: record.solve_time.as_nanos() as u64,
        worker,
        proof_bytes,
        counters,
    }
}

fn solve_instance(
    nl: &Netlist,
    f: Fault,
    config: &AtpgConfig,
    probe: Option<&mut CountingProbe>,
    cert: Option<(usize, &mut StreamSink)>,
) -> FaultRecord {
    let m = miter::build(nl, f);
    let mut enc = circuit::encode(&m.circuit).expect("miter circuits encode cleanly");
    if config.activation_clause {
        if let Some(clause) = miter::activation_clause(&m, &enc) {
            enc.formula.add_clause(clause);
        }
    }
    let mut solver = config.solver.make(config.limits);
    let started = Instant::now();
    let sol = match (probe, cert) {
        (None, None) => solver.solve(&enc.formula),
        (Some(p), None) => solver.solve_probed(&enc.formula, p),
        (probe, Some((index, sink))) => {
            sink.reset();
            for clause in enc.formula.clauses() {
                sink.axiom(clause);
            }
            sink.begin_solve(index, &[]);
            let sol = match probe {
                Some(p) => solver.solve_certified(&enc.formula, p, sink),
                None => solver.solve_certified(&enc.formula, &mut NoProbe, sink),
            };
            sink.end_solve(&sol.outcome);
            sol
        }
    };
    let solve_time = started.elapsed();
    let outcome = match sol.outcome {
        Outcome::Sat(model) => {
            let vector = m.extract_test(&enc, &model, nl);
            debug_assert!(verify::detects(nl, f, &vector), "model must be a test");
            FaultOutcome::Detected(vector)
        }
        Outcome::Unsat => FaultOutcome::Untestable,
        Outcome::Aborted => FaultOutcome::Aborted,
    };
    FaultRecord {
        fault: f,
        outcome,
        sat_vars: enc.formula.num_vars(),
        sat_clauses: enc.formula.num_clauses(),
        sub_size: m.sub_size(),
        solve_time,
        stats: sol.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_netlist::parser::bench;

    fn c17() -> Netlist {
        bench::parse(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
             22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap()
    }

    #[test]
    fn c17_full_coverage() {
        // c17 is fully testable: coverage 100%, no untestable faults.
        let res = run(&c17(), &AtpgConfig::default());
        assert_eq!(res.untestable(), 0);
        assert_eq!(res.aborted(), 0);
        assert!((res.coverage() - 1.0).abs() < 1e-9);
        assert!(!res.tests.is_empty());
    }

    #[test]
    fn every_generated_test_verifies() {
        let nl = c17();
        let res = run(
            &nl,
            &AtpgConfig {
                fault_dropping: false,
                ..AtpgConfig::default()
            },
        );
        for r in &res.records {
            if let FaultOutcome::Detected(v) = &r.outcome {
                assert!(
                    verify::detects(&nl, r.fault, v),
                    "{}",
                    r.fault.describe(&nl)
                );
            }
        }
    }

    #[test]
    fn random_patterns_retire_faults_without_sat() {
        let nl = c17();
        let res = run(
            &nl,
            &AtpgConfig {
                random_patterns: 128,
                ..AtpgConfig::default()
            },
        );
        let by_sim = res
            .records
            .iter()
            .filter(|r| r.outcome == FaultOutcome::DetectedBySimulation)
            .count();
        assert!(by_sim > 0, "128 random patterns retire most c17 faults");
        assert!((res.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_faults_reported_untestable() {
        // y = OR(a, NOT a): constant 1; its s-a-1 is redundant.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let na = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Not, vec![a], "na")
            .unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Or, vec![a, na], "y")
            .unwrap();
        nl.add_output(y);
        let res = run(
            &nl,
            &AtpgConfig {
                collapse: false,
                ..AtpgConfig::default()
            },
        );
        assert!(res.untestable() > 0);
        assert!(res.coverage() > 0.0);
    }

    #[test]
    fn all_solvers_agree_on_c17() {
        let nl = c17();
        let mut baseline: Option<Vec<bool>> = None;
        for solver in [
            SolverChoice::Cdcl,
            SolverChoice::Dpll,
            SolverChoice::Caching,
        ] {
            let res = run(
                &nl,
                &AtpgConfig {
                    solver,
                    fault_dropping: false,
                    collapse: true,
                    ..AtpgConfig::default()
                },
            );
            let verdicts: Vec<bool> = res
                .records
                .iter()
                .map(|r| matches!(r.outcome, FaultOutcome::Detected(_)))
                .collect();
            match &baseline {
                None => baseline = Some(verdicts),
                Some(b) => assert_eq!(b, &verdicts, "{solver:?} disagrees"),
            }
        }
    }

    #[test]
    fn dominance_shrinks_the_target_list_same_coverage() {
        let nl = c17();
        let plain = run(&nl, &AtpgConfig::default());
        let dom = run(
            &nl,
            &AtpgConfig {
                dominance: true,
                ..AtpgConfig::default()
            },
        );
        assert!(dom.records.len() < plain.records.len());
        assert!((dom.coverage() - 1.0).abs() < 1e-9);
        // The dominance-collapsed test set still covers every fault.
        let all = fault::all_faults(&nl);
        let fs = crate::faultsim::FaultSimulator::new(&nl);
        let mut det = vec![false; all.len()];
        for chunk in dom.tests.chunks(64) {
            for (i, hit) in fs.detect_batch(&nl, chunk, &all).into_iter().enumerate() {
                det[i] |= hit;
            }
        }
        // Every *testable* fault is detected (c17 has no redundant faults).
        assert!(det.iter().all(|&d| d), "full coverage from dominance set");
    }

    #[test]
    #[should_panic(expected = "failed ATPG preflight")]
    fn preflight_rejects_malformed_netlist() {
        // An undriven net feeding an output trips N002 before any miter
        // is built.
        let mut nl = Netlist::new("ghost");
        let a = nl.add_input("a");
        let ghost = nl.add_net("ghost").unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::And, vec![a, ghost], "y")
            .unwrap();
        nl.add_output(y);
        run(&nl, &AtpgConfig::default());
    }

    #[test]
    fn run_traced_matches_run_and_covers_every_sat_record() {
        let nl = c17();
        let config = AtpgConfig {
            random_patterns: 16,
            seed: 3,
            ..AtpgConfig::default()
        };
        let plain = run(&nl, &config);
        let (traced, traces) = run_traced(&nl, &config);
        assert_eq!(
            plain.canonical_report(),
            traced.canonical_report(),
            "probes must not change campaign behavior"
        );
        assert_eq!(traces.len(), traced.sat_records().count());
        for t in &traces {
            let r = &traced.records[t.seq as usize];
            assert_eq!(t.circuit, "c17");
            assert_eq!(t.fault, r.fault.describe(&nl));
            assert_eq!(t.vars, r.sat_vars as u64);
            assert_eq!(t.clauses, r.sat_clauses as u64);
            assert_eq!(t.outcome, outcome_label(&r.outcome));
            assert_eq!(t.worker, 0);
            // Probe counters agree with the legacy per-record stats.
            assert_eq!(t.counters.decisions, r.stats.decisions);
            assert_eq!(t.counters.propagations, r.stats.propagations);
            assert_eq!(t.counters.conflicts, r.stats.conflicts);
        }
    }

    #[test]
    fn certified_run_audits_clean_for_every_solver() {
        let nl = c17();
        for solver in [
            SolverChoice::Cdcl,
            SolverChoice::Dpll,
            SolverChoice::Caching,
            SolverChoice::Simple,
        ] {
            let config = AtpgConfig {
                solver,
                fault_dropping: false,
                ..AtpgConfig::default()
            };
            let certified = run_certified(&nl, &config);
            let audit = atpg_easy_proof::audit_stream(&certified.events);
            assert!(audit.ok(), "{solver:?}: {:?}", audit.stray_errors);
            assert_eq!(audit.failed(), 0, "{solver:?}");
            assert_eq!(audit.uncertified(), 0, "{solver:?}: no shortcuts on c17");
            assert_eq!(
                audit.certified(),
                certified.result.sat_records().count(),
                "{solver:?}: every SAT instance is certified"
            );
            assert_eq!(
                certified.result.detection_report(),
                run(&nl, &config).detection_report(),
                "{solver:?}: proof logging must not change verdicts"
            );
            assert_eq!(
                certified.traces.len(),
                certified.result.sat_records().count()
            );
        }
    }

    #[test]
    fn certified_run_re_derives_unsat_verdicts() {
        // y = OR(a, NOT a): redundant faults give real UNSAT verdicts,
        // which must come with checkable refutations — from scratch and
        // (failing-subset form) incrementally.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let na = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Not, vec![a], "na")
            .unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Or, vec![a, na], "y")
            .unwrap();
        nl.add_output(y);
        for incremental in [false, true] {
            let config = AtpgConfig {
                collapse: false,
                fault_dropping: false,
                incremental,
                ..AtpgConfig::default()
            };
            let certified = run_certified(&nl, &config);
            assert!(certified.result.untestable() > 0);
            let audit = atpg_easy_proof::audit_stream(&certified.events);
            assert!(audit.ok(), "incremental={incremental}: {audit:?}");
            assert_eq!(audit.uncertified(), 0, "incremental={incremental}");
            assert_eq!(
                audit.certified(),
                certified.result.sat_records().count(),
                "incremental={incremental}"
            );
        }
    }

    #[test]
    fn certified_incremental_matches_detection_report() {
        let nl = c17();
        let config = AtpgConfig {
            incremental: true,
            random_patterns: 16,
            seed: 3,
            ..AtpgConfig::default()
        };
        let certified = run_certified(&nl, &config);
        let audit = atpg_easy_proof::audit_stream(&certified.events);
        assert!(audit.ok(), "{:?}", audit.stray_errors);
        assert_eq!(audit.uncertified(), 0);
        assert_eq!(audit.certified(), certified.result.sat_records().count());
        assert_eq!(
            certified.result.detection_report(),
            run(&nl, &config).detection_report()
        );
        // Instances that learnt clauses report their proof sizes.
        let logged: u64 = certified.traces.iter().map(|t| t.proof_bytes).sum();
        let derived = certified
            .events
            .iter()
            .any(|e| matches!(e, atpg_easy_proof::Event::Derive(_)));
        assert_eq!(derived, logged > 0, "proof_bytes mirrors derivations");
    }

    #[test]
    fn sat_records_expose_instance_sizes() {
        let nl = c17();
        let res = run(&nl, &AtpgConfig::default());
        for r in res.sat_records() {
            assert!(r.sat_vars > 0);
            assert!(r.sat_clauses > 0);
            assert!(r.sub_size > 0);
        }
    }
}

/// Greedy reverse-order test-set compaction.
///
/// Classic static compaction: vectors are considered newest-first (later
/// vectors target harder faults and tend to cover many easy ones), and a
/// vector is kept only if it detects a fault no already-kept vector
/// detects. Returns the kept vectors, oldest-first.
///
/// # Panics
///
/// Panics if a vector has the wrong width or the netlist is cyclic.
pub fn compact_tests(nl: &Netlist, tests: &[Vec<bool>], faults: &[Fault]) -> Vec<Vec<bool>> {
    let fs = FaultSimulator::with_cones(nl);
    let mut undetected: Vec<Fault> = faults.to_vec();
    let mut kept: Vec<Vec<bool>> = Vec::new();
    let mut bufs = SimBuffers::default();
    for vector in tests.iter().rev() {
        if undetected.is_empty() {
            break;
        }
        let hits = fs.detect_batch_with(nl, std::slice::from_ref(vector), &undetected, &mut bufs);
        let before = undetected.len();
        let mut keep_faults = Vec::with_capacity(before);
        for (f, hit) in undetected.into_iter().zip(&hits) {
            if !hit {
                keep_faults.push(f);
            }
        }
        undetected = keep_faults;
        if undetected.len() < before {
            kept.push(vector.clone());
        }
    }
    kept.reverse();
    kept
}

#[cfg(test)]
mod compaction_tests {
    use super::*;
    use crate::fault;
    use atpg_easy_netlist::parser::bench;

    fn c17() -> Netlist {
        bench::parse(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
             22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap()
    }

    #[test]
    fn compaction_preserves_coverage() {
        let nl = c17();
        let res = run(
            &nl,
            &AtpgConfig {
                random_patterns: 64,
                ..AtpgConfig::default()
            },
        );
        let faults = fault::collapse(&nl);
        let compact = compact_tests(&nl, &res.tests, &faults);
        assert!(compact.len() <= res.tests.len());
        // Coverage after compaction is unchanged.
        let fs = crate::faultsim::FaultSimulator::new(&nl);
        let full: usize = {
            let mut det = vec![false; faults.len()];
            for chunk in res.tests.chunks(64) {
                for (i, d) in fs.detect_batch(&nl, chunk, &faults).into_iter().enumerate() {
                    det[i] |= d;
                }
            }
            det.iter().filter(|&&d| d).count()
        };
        let reduced: usize = {
            let mut det = vec![false; faults.len()];
            for chunk in compact.chunks(64) {
                for (i, d) in fs.detect_batch(&nl, chunk, &faults).into_iter().enumerate() {
                    det[i] |= d;
                }
            }
            det.iter().filter(|&&d| d).count()
        };
        assert_eq!(full, reduced);
    }

    #[test]
    fn compaction_drops_redundant_vectors() {
        // Duplicate every vector: at least half must be dropped.
        let nl = c17();
        let res = run(&nl, &AtpgConfig::default());
        let mut doubled = res.tests.clone();
        doubled.extend(res.tests.iter().cloned());
        let faults = fault::collapse(&nl);
        let compact = compact_tests(&nl, &doubled, &faults);
        assert!(compact.len() <= res.tests.len());
        assert!(!compact.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let nl = c17();
        assert!(compact_tests(&nl, &[], &fault::collapse(&nl)).is_empty());
        let res = run(&nl, &AtpgConfig::default());
        assert!(compact_tests(&nl, &res.tests, &[]).is_empty());
    }
}
