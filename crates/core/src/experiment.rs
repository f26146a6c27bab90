//! The paper's experiment pipelines.
//!
//! - [`figure1`]: per-ATPG-SAT-instance effort over a benchmark suite
//!   (the paper's Figure 1: TEGUS on MCNC91 + ISCAS85);
//! - [`figure8`]: estimated cut-width of `C_ψ^sub` versus its size, for
//!   every fault of every suite circuit (Figures 8(a)/8(b));
//! - [`generated_study`]: the same scatter on parameterized random
//!   circuits across a size sweep (Section 5.2.3).
//!
//! All pipelines pre-map circuits to at-most-3-input AND/OR gates with
//! inversions, as the paper does with SIS `tech_decomp` (Section 5.2.2).

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use atpg_easy_atpg::campaign::{self, AtpgConfig, SolverChoice};
use atpg_easy_atpg::fault;
use atpg_easy_circuits::random::{self, RandomCircuitConfig};
use atpg_easy_circuits::suite::NamedCircuit;
use atpg_easy_cutwidth::mla::{self, MlaConfig};
use atpg_easy_cutwidth::Hypergraph;
use atpg_easy_netlist::{decompose, topo, NetId, Netlist};
use atpg_easy_sat::Limits;

/// One Figure-1 data point: an ATPG-SAT instance and the effort to solve
/// it.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// Source circuit name.
    pub circuit: String,
    /// Fault description.
    pub fault: String,
    /// SAT variables (the paper's x-axis).
    pub vars: usize,
    /// SAT clauses.
    pub clauses: usize,
    /// Wall-clock solve time (the paper's y-axis).
    pub time: Duration,
    /// Decisions made by the solver (machine-independent effort).
    pub decisions: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// `"SAT"`, `"UNSAT"` or `"ABORT"`.
    pub outcome: &'static str,
}

/// Configuration for [`figure1`].
#[derive(Debug, Clone, Copy)]
pub struct Figure1Config {
    /// Solver backing the campaign (the paper used TEGUS ≈ CDCL).
    pub solver: SolverChoice,
    /// Per-instance budget.
    pub limits: Limits,
    /// Fan-in bound for the tech-decomposition pre-pass.
    pub decompose_fanin: usize,
    /// Cap on faults per circuit (deterministic stride sample); `None`
    /// targets every collapsed fault.
    pub max_faults_per_circuit: Option<usize>,
}

impl Default for Figure1Config {
    fn default() -> Self {
        Figure1Config {
            solver: SolverChoice::Cdcl,
            limits: Limits::none(),
            decompose_fanin: 3,
            max_faults_per_circuit: None,
        }
    }
}

/// Runs the Figure-1 experiment: one ATPG-SAT instance per (collapsed)
/// fault of every circuit, recording instance size and solve effort.
///
/// Fault dropping and random patterns are disabled so every fault
/// contributes one SAT instance, maximizing the instance population as in
/// the paper's 11,000-instance plot.
pub fn figure1(circuits: &[NamedCircuit], config: &Figure1Config) -> Vec<Fig1Point> {
    let mut points = Vec::new();
    for c in circuits {
        let nl = decompose::decompose(&c.netlist, config.decompose_fanin)
            .expect("suite circuits decompose");
        // Sub-sample by collapsing in campaign and optionally capping.
        let cfg = AtpgConfig {
            solver: config.solver,
            limits: config.limits,
            activation_clause: true,
            fault_dropping: false,
            collapse: true,
            dominance: false,
            random_patterns: 0,
            seed: 1,
            preflight: true,
            incremental: false,
            static_prune: false,
        };
        let result = campaign::run(&nl, &cfg);
        let mut records: Vec<&campaign::FaultRecord> = result.sat_records().collect();
        if let Some(cap) = config.max_faults_per_circuit {
            if records.len() > cap {
                let stride = records.len().div_ceil(cap);
                records = records.into_iter().step_by(stride).collect();
            }
        }
        for r in records {
            points.push(Fig1Point {
                circuit: c.name.clone(),
                fault: r.fault.describe(&nl),
                vars: r.sat_vars,
                clauses: r.sat_clauses,
                time: r.solve_time,
                decisions: r.stats.decisions,
                propagations: r.stats.propagations,
                conflicts: r.stats.conflicts,
                outcome: campaign::outcome_label(&r.outcome),
            });
        }
    }
    points
}

/// Summary of a Figure-1 run: the paper's headline numbers ("over 90%
/// solved in under 1/100th of a second").
#[derive(Debug, Clone, Copy)]
pub struct Fig1Summary {
    /// Total SAT instances.
    pub instances: usize,
    /// Fraction solved within `fast_threshold`.
    pub fast_fraction: f64,
    /// The threshold used.
    pub fast_threshold: Duration,
    /// Largest instance (variables).
    pub max_vars: usize,
    /// Slowest instance.
    pub max_time: Duration,
}

/// Summarizes Figure-1 points against a fast-solve threshold.
pub fn fig1_summary(points: &[Fig1Point], fast_threshold: Duration) -> Fig1Summary {
    let fast = points.iter().filter(|p| p.time <= fast_threshold).count();
    Fig1Summary {
        instances: points.len(),
        fast_fraction: if points.is_empty() {
            1.0
        } else {
            fast as f64 / points.len() as f64
        },
        fast_threshold,
        max_vars: points.iter().map(|p| p.vars).max().unwrap_or(0),
        max_time: points
            .iter()
            .map(|p| p.time)
            .max()
            .unwrap_or(Duration::ZERO),
    }
}

/// One Figure-8 data point: a fault's subcircuit size and estimated
/// cut-width.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Source circuit name.
    pub circuit: String,
    /// `|C_ψ^sub|` in hypergraph nodes.
    pub sub_size: usize,
    /// Estimated minimum cut-width of `C_ψ^sub`.
    pub cutwidth: usize,
}

/// Configuration for [`figure8`].
#[derive(Debug, Clone, Copy)]
pub struct Figure8Config {
    /// MLA estimator settings.
    pub mla: MlaConfig,
    /// Fan-in bound for the tech-decomposition pre-pass.
    pub decompose_fanin: usize,
    /// Cap on faults per circuit (`None` = every potential fault, as in
    /// the paper).
    pub max_faults_per_circuit: Option<usize>,
}

impl Default for Figure8Config {
    fn default() -> Self {
        Figure8Config {
            mla: MlaConfig::default(),
            decompose_fanin: 3,
            max_faults_per_circuit: None,
        }
    }
}

/// Runs the Figure-8 experiment: for every potential fault `ψ` of every
/// circuit, estimate the cut-width of `C_ψ^sub` and record it against the
/// subcircuit size.
///
/// Faults sharing a fan-out cone share `C_ψ^sub`; each distinct cone is
/// estimated once, and both stuck-at polarities emit their data point
/// exactly as the paper's per-fault methodology does.
///
/// The cones are estimated on every available core
/// (`std::thread::available_parallelism()`); the points, their content
/// and their order are the same at any thread count.
///
/// # Panics
///
/// Panics if a circuit does not decompose, or with the estimator's own
/// message if `config.mla` is invalid.
pub fn figure8(circuits: &[NamedCircuit], config: &Figure8Config) -> Vec<Fig8Point> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    figure8_on(circuits, config, threads)
}

/// [`figure8`] on at most `threads` worker threads.
///
/// Set-up is sequential: every circuit is decomposed and sampled, and
/// each distinct `(circuit, net)` cone becomes one job, in order of first
/// occurrence. Workers take jobs from one shared cursor and hand back
/// only each job's `(size, width)`. The points are then assembled in
/// fault order, so the thread count cannot change them.
fn figure8_on(circuits: &[NamedCircuit], config: &Figure8Config, threads: usize) -> Vec<Fig8Point> {
    let mut netlists = Vec::with_capacity(circuits.len());
    // One job per distinct cone: (circuit index, faulted net).
    let mut jobs: Vec<(usize, NetId)> = Vec::new();
    // The job of every sampled fault, in fault order.
    let mut fault_jobs = Vec::new();
    for (ci, c) in circuits.iter().enumerate() {
        let nl = decompose::decompose(&c.netlist, config.decompose_fanin)
            .expect("suite circuits decompose");
        let mut faults = fault::all_faults(&nl);
        if let Some(cap) = config.max_faults_per_circuit {
            if faults.len() > cap {
                let stride = faults.len().div_ceil(cap);
                faults = faults.into_iter().step_by(stride).collect();
            }
        }
        // Both stuck-at polarities share their net's cone.
        let mut job_of: HashMap<usize, usize> = HashMap::new();
        for f in faults {
            let job = *job_of.entry(f.net.index()).or_insert_with(|| {
                jobs.push((ci, f.net));
                jobs.len() - 1
            });
            fault_jobs.push(job);
        }
        netlists.push(nl);
    }
    let cones = estimate_cones(&netlists, &jobs, &config.mla, threads);
    fault_jobs
        .into_iter()
        .filter_map(|job| {
            let (size, width) = cones[job];
            (size > 0).then(|| Fig8Point {
                circuit: circuits[jobs[job].0].name.clone(),
                sub_size: size,
                cutwidth: width,
            })
        })
        .collect()
}

/// `(|C_ψ^sub|, estimated cut-width)` of every job's cone, or `(0, 0)`
/// for a net that reaches no output, on `min(threads, jobs)` scoped
/// threads.
///
/// Each job takes milliseconds, so one mutex-guarded cursor hands them
/// out without contention. A worker's panic is re-raised here with its
/// original payload.
fn estimate_cones(
    netlists: &[Netlist],
    jobs: &[(usize, NetId)],
    config: &MlaConfig,
    threads: usize,
) -> Vec<(usize, usize)> {
    let cursor = Mutex::new(0);
    let next_job = || {
        // The lock is held for no code that can panic.
        let mut next = cursor.lock().unwrap_or_else(PoisonError::into_inner);
        *next += 1;
        *next - 1
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(jobs.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let job = next_job();
                        let Some(&(ci, net)) = jobs.get(job) else {
                            break done;
                        };
                        let nl = &netlists[ci];
                        let (sub, outs) = topo::fault_subcircuit_nets(nl, net);
                        let cone = if outs.is_empty() {
                            (0, 0)
                        } else {
                            let ext = topo::extract_marked(nl, &sub, &outs);
                            let h = Hypergraph::from_netlist(&ext.netlist);
                            let (w, _) = mla::estimate_cutwidth(&h, config);
                            (h.num_nodes(), w)
                        };
                        done.push((job, cone));
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect()
    });
    let mut cones = vec![(0, 0); jobs.len()];
    for worker in joined {
        let done = worker.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (job, cone) in done {
            cones[job] = cone;
        }
    }
    cones
}

/// Configuration for [`generated_study`] (Section 5.2.3).
#[derive(Debug, Clone)]
pub struct GeneratedConfig {
    /// Gate counts to sweep.
    pub sizes: Vec<usize>,
    /// Circuits per size (distinct seeds).
    pub circuits_per_size: usize,
    /// Faults sampled per circuit.
    pub faults_per_circuit: usize,
    /// Locality knob of the generator.
    pub locality: f64,
    /// MLA estimator settings.
    pub mla: MlaConfig,
    /// Base seed.
    pub seed: u64,
}

impl Default for GeneratedConfig {
    fn default() -> Self {
        GeneratedConfig {
            sizes: vec![100, 200, 400, 800, 1600],
            circuits_per_size: 2,
            faults_per_circuit: 40,
            locality: 0.9,
            mla: MlaConfig::default(),
            seed: 2024,
        }
    }
}

/// The Section-5.2.3 study: the Figure-8 scatter on generated circuits
/// across a size sweep "parameterized to topologically resemble" the
/// benchmark suites.
pub fn generated_study(config: &GeneratedConfig) -> Vec<Fig8Point> {
    let mut circuits = Vec::new();
    for (si, &gates) in config.sizes.iter().enumerate() {
        for c in 0..config.circuits_per_size {
            let nl = random::generate(&RandomCircuitConfig {
                gates,
                inputs: (gates / 8).clamp(8, 128),
                locality: config.locality,
                seed: config.seed + (si * 1000 + c) as u64,
                ..RandomCircuitConfig::default()
            })
            .expect("generator config is valid");
            circuits.push(NamedCircuit {
                name: format!("gen{gates}_{c}"),
                netlist: nl,
            });
        }
    }
    figure8(
        &circuits,
        &Figure8Config {
            mla: config.mla,
            decompose_fanin: 3,
            max_faults_per_circuit: Some(config.faults_per_circuit),
        },
    )
}

/// Converts Figure-8 points into the `(size, width)` scatter consumed by
/// [`predictor::classify`](crate::predictor::classify) and
/// [`atpg_easy_fit`].
pub fn fig8_scatter(points: &[Fig8Point]) -> Vec<(f64, f64)> {
    points
        .iter()
        .map(|p| (p.sub_size as f64, p.cutwidth as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_circuits::suite;

    #[test]
    fn figure1_on_c17_produces_points() {
        let circuits = vec![NamedCircuit {
            name: "c17".into(),
            netlist: suite::c17(),
        }];
        let pts = figure1(&circuits, &Figure1Config::default());
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|p| p.vars > 0 && p.clauses > 0));
        assert!(
            pts.iter().all(|p| p.outcome == "SAT"),
            "c17 is fully testable"
        );
        let summary = fig1_summary(&pts, Duration::from_millis(10));
        assert_eq!(summary.instances, pts.len());
        assert!(summary.fast_fraction > 0.9, "c17 instances are trivial");
    }

    #[test]
    fn figure8_on_small_suite() {
        let circuits = vec![
            NamedCircuit {
                name: "c17".into(),
                netlist: suite::c17(),
            },
            NamedCircuit {
                name: "rca4".into(),
                netlist: atpg_easy_circuits::adders::ripple_carry(4),
            },
        ];
        let pts = figure8(
            &circuits,
            &Figure8Config {
                max_faults_per_circuit: Some(30),
                ..Figure8Config::default()
            },
        );
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(p.sub_size > 0);
            assert!(p.cutwidth <= p.sub_size);
        }
        // The scatter spans multiple sub-sizes.
        let min = pts.iter().map(|p| p.sub_size).min().unwrap();
        let max = pts.iter().map(|p| p.sub_size).max().unwrap();
        assert!(max > min);
    }

    /// Figure 8 as one single-threaded loop with a per-net cache: the
    /// reference the fan-out must reproduce.
    fn sequential_figure8(circuits: &[NamedCircuit], config: &Figure8Config) -> Vec<Fig8Point> {
        let mut points = Vec::new();
        for c in circuits {
            let nl = decompose::decompose(&c.netlist, config.decompose_fanin)
                .expect("suite circuits decompose");
            let mut faults = fault::all_faults(&nl);
            if let Some(cap) = config.max_faults_per_circuit {
                if faults.len() > cap {
                    let stride = faults.len().div_ceil(cap);
                    faults = faults.into_iter().step_by(stride).collect();
                }
            }
            let mut cache: HashMap<usize, (usize, usize)> = HashMap::new();
            for f in faults {
                let (size, width) = *cache.entry(f.net.index()).or_insert_with(|| {
                    let (sub, outs) = topo::fault_subcircuit_nets(&nl, f.net);
                    if outs.is_empty() {
                        return (0, 0);
                    }
                    let ext = topo::extract_marked(&nl, &sub, &outs);
                    let h = Hypergraph::from_netlist(&ext.netlist);
                    let (w, _) = mla::estimate_cutwidth(&h, &config.mla);
                    (h.num_nodes(), w)
                });
                if size > 0 {
                    points.push(Fig8Point {
                        circuit: c.name.clone(),
                        sub_size: size,
                        cutwidth: width,
                    });
                }
            }
        }
        points
    }

    fn triples(points: &[Fig8Point]) -> Vec<(String, usize, usize)> {
        points
            .iter()
            .map(|p| (p.circuit.clone(), p.sub_size, p.cutwidth))
            .collect()
    }

    /// c17 plus an unused input and a gate that drives no output: both
    /// nets reach no output, so their cones are empty.
    fn c17_with_dead_logic() -> NamedCircuit {
        let netlist = atpg_easy_netlist::parser::bench::parse(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nINPUT(9)\n\
             OUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n\
             19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n\
             30 = AND(1, 7)\n",
        )
        .expect("fixture parses");
        NamedCircuit {
            name: "c17dead".into(),
            netlist,
        }
    }

    #[test]
    fn figure8_output_does_not_depend_on_thread_count() {
        let circuits = vec![
            c17_with_dead_logic(),
            NamedCircuit {
                name: "rca6".into(),
                netlist: atpg_easy_circuits::adders::ripple_carry(6),
            },
            NamedCircuit {
                name: "par8".into(),
                netlist: atpg_easy_circuits::parity::parity_tree(8),
            },
            NamedCircuit {
                name: "prio6".into(),
                netlist: suite::priority_encoder(6),
            },
        ];
        let config = Figure8Config {
            max_faults_per_circuit: Some(40),
            ..Figure8Config::default()
        };

        // The fixture exercises what the fan-out must get right: shared
        // cones, empty cones, a fault cap that bites, and more cones than
        // the largest thread count.
        let (mut faults, mut cones, mut empty, mut capped) = (0, 0, 0, 0);
        for c in &circuits {
            let nl = decompose::decompose(&c.netlist, config.decompose_fanin)
                .expect("fixture decomposes");
            let all = fault::all_faults(&nl);
            let stride = all.len().div_ceil(40);
            capped += usize::from(stride > 1);
            let sampled: Vec<_> = all.into_iter().step_by(stride).collect();
            let mut nets: Vec<NetId> = sampled.iter().map(|f| f.net).collect();
            nets.dedup();
            faults += sampled.len();
            cones += nets.len();
            empty += nets
                .iter()
                .filter(|&&n| topo::fault_subcircuit_nets(&nl, n).1.is_empty())
                .count();
        }
        assert!(capped >= 1, "the fault cap bites somewhere");
        assert!(faults > cones, "some cones are shared by both polarities");
        assert!(empty >= 1, "some net reaches no output");
        assert!(cones > 8, "{cones} cones");

        let want = triples(&sequential_figure8(&circuits, &config));
        assert!(want.len() < faults, "faults on empty cones emit no point");
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                triples(&figure8_on(&circuits, &config, threads)),
                want,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn figure8_with_no_circuits_or_few_cones() {
        let config = Figure8Config::default();
        assert!(figure8_on(&[], &config, 4).is_empty());

        let circuits = vec![NamedCircuit {
            name: "c17".into(),
            netlist: suite::c17(),
        }];
        let config = Figure8Config {
            max_faults_per_circuit: Some(2),
            ..Figure8Config::default()
        };
        let want = triples(&sequential_figure8(&circuits, &config));
        assert!((1..=2).contains(&want.len()), "at most two cones");
        assert_eq!(triples(&figure8_on(&circuits, &config, 8)), want);
    }

    #[test]
    #[should_panic(expected = "leaf_size must be in")]
    fn figure8_reraises_a_worker_panic_with_its_message() {
        let circuits = vec![NamedCircuit {
            name: "c17".into(),
            netlist: suite::c17(),
        }];
        figure8(
            &circuits,
            &Figure8Config {
                mla: MlaConfig {
                    leaf_size: 0,
                    ..MlaConfig::default()
                },
                ..Figure8Config::default()
            },
        );
    }

    #[test]
    fn generated_study_small() {
        let cfg = GeneratedConfig {
            sizes: vec![60, 120],
            circuits_per_size: 1,
            faults_per_circuit: 10,
            ..GeneratedConfig::default()
        };
        let pts = generated_study(&cfg);
        assert!(!pts.is_empty());
        let scatter = fig8_scatter(&pts);
        assert_eq!(scatter.len(), pts.len());
    }

    #[test]
    fn fault_cap_limits_points() {
        let circuits = vec![NamedCircuit {
            name: "rca8".into(),
            netlist: atpg_easy_circuits::adders::ripple_carry(8),
        }];
        let capped = figure8(
            &circuits,
            &Figure8Config {
                max_faults_per_circuit: Some(10),
                ..Figure8Config::default()
            },
        );
        assert!(capped.len() <= 12, "{} points", capped.len());
    }
}
