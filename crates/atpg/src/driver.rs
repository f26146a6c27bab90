//! A resumable, owning campaign handle: the campaign core stepped inline
//! with no worker thread, one fault at a time.
//!
//! [`CampaignDriver`] is the primitive the serving layer schedules:
//! construction runs the campaign set-up (preflight, fault enumeration,
//! static pre-pass, random-pattern phase); every [`CampaignDriver::step`]
//! then resolves exactly one fault through the same frontier step the
//! parallel engine commits through, and returns its record. Between
//! steps a scheduler can park the driver, tighten its wall budget against
//! an approaching deadline ([`CampaignDriver::clamp_wall`]), or abandon
//! the remaining faults ([`CampaignDriver::abandon`]).
//!
//! The library entry points [`campaign::run`], [`campaign::run_traced`]
//! and [`campaign::run_certified`] are thin loops over this driver, so
//! stepping a driver to completion is *by construction* byte-identical to
//! the library path — the contract the serve e2e golden test pins.

use std::time::Duration;

use atpg_easy_netlist::Netlist;
use atpg_easy_obs::{CountingProbe, InstanceTrace};

use crate::campaign::{
    self, AtpgConfig, CampaignCore, CampaignResult, FaultRecord, FaultSolver, Verdict,
};
use crate::certify::StreamSink;
use crate::faultsim::SimBuffers;
use crate::Fault;

/// Why a [`CampaignDriver`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The netlist failed the lint preflight; the payload is the full
    /// rendered diagnostic report (the same text [`campaign::run`] panics
    /// with).
    Preflight(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Preflight(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DriverError {}

/// A campaign paused between faults.
///
/// Owns everything the loop needs — netlist, campaign core, fault solver,
/// optional proof sink — so the handle is `'static`: it can be queued,
/// moved across worker threads and resumed later.
pub struct CampaignDriver {
    nl: Netlist,
    config: AtpgConfig,
    core: CampaignCore,
    solver: FaultSolver,
    sink: Option<StreamSink>,
    tracing: bool,
    bufs: SimBuffers,
    next: usize,
    traces: Vec<InstanceTrace>,
    last_proof_bytes: u64,
}

impl CampaignDriver {
    /// Builds a driver over `nl`, running the campaign set-up. With
    /// `tracing`, each solved instance also yields an [`InstanceTrace`];
    /// with `certified`, every solve is logged into an internal
    /// [`StreamSink`] proof stream (retrieve it via
    /// [`CampaignDriver::into_parts`]).
    ///
    /// # Errors
    ///
    /// With `config.preflight` set, a netlist that fails the lint
    /// preflight returns [`DriverError::Preflight`] instead of panicking
    /// — the serving layer turns this into a typed error response.
    pub fn try_new(
        nl: Netlist,
        config: &AtpgConfig,
        tracing: bool,
        certified: bool,
    ) -> Result<Self, DriverError> {
        let core = CampaignCore::new(&nl, config)?;
        let mut sink = certified.then(StreamSink::new);
        let solver = FaultSolver::new(&nl, config, sink.as_mut());
        Ok(CampaignDriver {
            nl,
            config: *config,
            core,
            solver,
            sink,
            tracing,
            bufs: SimBuffers::default(),
            next: 0,
            traces: Vec::new(),
            last_proof_bytes: 0,
        })
    }

    /// The circuit this campaign targets.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// The (possibly tightened) configuration driving the loop.
    pub fn config(&self) -> &AtpgConfig {
        &self.config
    }

    /// Total faults targeted (collapsed list length).
    pub fn total_faults(&self) -> usize {
        self.core.faults.len()
    }

    /// Index of the next fault to step; equals the number of records
    /// emitted so far.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Faults not yet stepped (or abandoned).
    pub fn pending(&self) -> &[Fault] {
        &self.core.faults[self.next..]
    }

    /// Faults currently marked detected by simulation or dropping. Read
    /// before the first [`CampaignDriver::step`] this is exactly the
    /// random-phase retirement count the serving layer reports in its
    /// `start` line.
    pub fn sim_detected(&self) -> usize {
        self.core.detected.iter().filter(|&&d| d).count()
    }

    /// Faults the static implication pre-pass proved redundant (0 unless
    /// `config.static_prune`); these are retired without a SAT instance.
    pub fn static_pruned(&self) -> usize {
        self.core.pruned.iter().filter(|&&p| p).count()
    }

    /// Whether every fault has been stepped or abandoned.
    pub fn is_done(&self) -> bool {
        self.next >= self.core.faults.len()
    }

    /// The result accumulated so far.
    pub fn result(&self) -> &CampaignResult {
        &self.core.result
    }

    /// Instance traces accumulated so far (empty unless built tracing).
    pub fn traces(&self) -> &[InstanceTrace] {
        &self.traces
    }

    /// Proof bytes logged by the most recent [`CampaignDriver::step`]
    /// (0 for sim-retired faults or non-certified drivers).
    pub fn last_proof_bytes(&self) -> u64 {
        self.last_proof_bytes
    }

    /// Tightens the per-solve wall budget to at most `budget` for every
    /// later step, fresh or warm: both solvers read the budget from the
    /// config at each solve. Budgets only ever shrink
    /// ([`atpg_easy_sat::Limits::clamp_wall`]), so repeated calls with a
    /// shrinking deadline remainder are safe.
    pub fn clamp_wall(&mut self, budget: Duration) {
        self.config.limits = self.config.limits.clamp_wall(budget);
    }

    /// Gives up on every pending fault: no more records are emitted and
    /// [`CampaignDriver::is_done`] becomes true. The records and tests
    /// already produced stay valid — the serving layer flushes `deadline`
    /// verdicts for [`CampaignDriver::pending`] before calling this.
    pub fn abandon(&mut self) {
        self.next = self.core.faults.len();
    }

    /// Resolves the next fault through the campaign's frontier step:
    /// pruned and sim-retired faults get their records, everything else
    /// is solved and committed exactly as [`campaign::run`] would. Returns
    /// the record just emitted, or `None` when the campaign is complete.
    pub fn step(&mut self) -> Option<&FaultRecord> {
        let i = self.next;
        if i >= self.core.faults.len() {
            return None;
        }
        self.next = i + 1;
        self.last_proof_bytes = 0;
        let (nl, config) = (&self.nl, &self.config);
        let verdict = |core: &CampaignCore| {
            let mut probe = self.tracing.then(CountingProbe::default);
            let cert = self.sink.as_mut().map(|s| (i, s));
            let record = self
                .solver
                .solve(nl, core.faults[i], config, probe.as_mut(), cert);
            self.last_proof_bytes = self
                .sink
                .as_mut()
                .map_or(0, StreamSink::take_instance_bytes);
            if let Some(probe) = probe {
                let trace = campaign::fault_trace(
                    nl,
                    i as u64,
                    &record,
                    probe.counters,
                    0,
                    self.last_proof_bytes,
                );
                self.traces.push(trace);
            }
            Some(Verdict::new(
                nl,
                config,
                &core.fs,
                &core.faults,
                record,
                &mut self.bufs,
            ))
        };
        self.core.step(i, verdict, |_| {})
    }

    /// Consumes the driver, returning the accumulated result.
    pub fn into_result(self) -> CampaignResult {
        self.core.result
    }

    /// Consumes the driver, returning the result, the traces (empty
    /// unless built tracing) and the proof sink (present iff built
    /// certified).
    pub fn into_parts(self) -> (CampaignResult, Vec<InstanceTrace>, Option<StreamSink>) {
        (self.core.result, self.traces, self.sink)
    }
}

impl std::fmt::Debug for CampaignDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignDriver")
            .field("circuit", &self.nl.name())
            .field("faults", &self.core.faults.len())
            .field("position", &self.next)
            .field("tracing", &self.tracing)
            .field("certified", &self.sink.is_some())
            .finish()
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

    /// Every solver-dispatch arm — fresh or warm, plain, traced or
    /// certified, with and without the static pre-pass — stepped to
    /// completion reproduces the library entry point for that mode.
    #[test]
    fn stepping_to_completion_matches_run() {
        let nl = atpg_easy_circuits::suite::mcnc_like()
            .into_iter()
            .find(|c| c.name == "rand60")
            .expect("suite circuit present")
            .netlist;
        for (incremental, static_prune) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let config = AtpgConfig {
                random_patterns: 16,
                seed: 3,
                incremental,
                static_prune,
                ..AtpgConfig::default()
            };
            let plain = campaign::run(&nl, &config);
            let (traced, traced_traces) = campaign::run_traced(&nl, &config);
            let certified = campaign::run_certified(&nl, &config);
            let canon =
                |t: &[InstanceTrace]| t.iter().map(InstanceTrace::canonical).collect::<Vec<_>>();
            let modes = [
                ("plain", false, false, &plain, &[][..]),
                ("traced", true, false, &traced, &traced_traces[..]),
                (
                    "certified",
                    true,
                    true,
                    &certified.result,
                    &certified.traces[..],
                ),
            ];
            for (mode, tracing, cert, want, want_traces) in modes {
                let case = format!("incremental={incremental} prune={static_prune} {mode}");
                let mut d = CampaignDriver::try_new(nl.clone(), &config, tracing, cert).unwrap();
                assert_eq!(d.total_faults(), want.records.len(), "{case}");
                assert_eq!(d.static_pruned() > 0, static_prune, "{case}");
                let mut steps = 0;
                while d.step().is_some() {
                    steps += 1;
                }
                assert_eq!(steps, d.total_faults(), "{case}");
                assert!(d.is_done(), "{case}");
                let (got, traces, sink) = d.into_parts();
                assert_eq!(got.canonical_report(), want.canonical_report(), "{case}");
                assert_eq!(canon(&traces), canon(want_traces), "{case}");
                assert_eq!(
                    traces.len(),
                    if tracing {
                        got.sat_records().count()
                    } else {
                        0
                    }
                );
                assert_eq!(sink.is_some(), cert, "{case}");
                if let Some(sink) = sink {
                    let audit = atpg_easy_proof::audit_stream(&sink.into_events());
                    assert!(audit.ok(), "{case}: {:?}", audit.stray_errors);
                    assert_eq!(audit.uncertified(), 0, "{case}");
                    assert_eq!(audit.certified(), got.sat_records().count(), "{case}");
                }
            }
            // Probes and proof logging only observe: every mode solves to
            // the same records.
            assert_eq!(traced.canonical_report(), plain.canonical_report());
            assert_eq!(
                certified.result.canonical_report(),
                plain.canonical_report()
            );
        }
    }

    #[test]
    fn preflight_failure_is_a_typed_error() {
        let mut nl = Netlist::new("ghost");
        let a = nl.add_input("a");
        let ghost = nl.add_net("ghost").unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::And, vec![a, ghost], "y")
            .unwrap();
        nl.add_output(y);
        let err = CampaignDriver::try_new(nl, &AtpgConfig::default(), false, false).unwrap_err();
        let DriverError::Preflight(msg) = err;
        assert!(msg.contains("failed ATPG preflight"), "{msg}");
    }

    #[test]
    fn abandon_freezes_the_result() {
        let nl = c17();
        let mut d = CampaignDriver::try_new(nl, &AtpgConfig::default(), false, false).unwrap();
        d.step().unwrap();
        d.step().unwrap();
        let pending = d.pending().len();
        assert!(pending > 0);
        d.abandon();
        assert!(d.is_done());
        assert!(d.step().is_none());
        assert_eq!(d.into_result().records.len(), 2);
    }

    #[test]
    fn clamp_wall_only_tightens() {
        let nl = c17();
        let config = AtpgConfig {
            limits: atpg_easy_sat::Limits::wall(Duration::from_millis(5)),
            ..AtpgConfig::default()
        };
        let mut d = CampaignDriver::try_new(nl, &config, false, false).unwrap();
        d.clamp_wall(Duration::from_secs(10));
        assert_eq!(
            d.config().limits.max_wall,
            Some(Duration::from_millis(5)),
            "a looser deadline must not loosen the configured budget"
        );
        d.clamp_wall(Duration::from_millis(1));
        assert_eq!(d.config().limits.max_wall, Some(Duration::from_millis(1)));
    }
}
