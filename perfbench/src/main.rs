//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fresh_seq|warm_par2|served_warm|fig8_mcnc> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the same work with spans recorded around every call into a layer
//! and reports the per-layer metrics. Every output is checked against a
//! reference computed during set-up; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`, and a
//! run with a mismatch exits 1. See `perfbench/README.md`.

mod fig8;
mod fresh;
mod measure;
mod provenance;
mod served;
mod suite;
mod warm;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use measure::{median, Trace};

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("faults_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("width_mean", "count"),
    ("campaign_p50_ms", "ms"),
    ("campaign_tail_ms", "ms"),
    ("first_verdict_p50_ms", "ms"),
];

/// The percentile of `campaign_tail_ms`, on every workload. A pass holds
/// 22 to 62 campaigns of very different sizes, so any higher percentile
/// sits on the one or two slowest generated circuits and measures that
/// circuit rather than the tail of the mix; p90 spans several. Fixed,
/// so that runs with different pass counts report the same percentile.
pub const CAMPAIGN_TAIL: f64 = 90.0;

/// The percentile of per-layer tails: the highest one with at least ten
/// samples beyond it (see [`measure::tail`]).
pub const LAYER_TAIL: f64 = 99.9;

/// Per-layer metrics: printed by every workload with `--trace 1`; a
/// workload that bypasses a layer reports 0 for it. Times and counts are
/// per traced pass over the workload's campaigns.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("lint.preflight_ms", "ms"),
    ("atpg.collapse_ms", "ms"),
    ("atpg.faultsim_build_ms", "ms"),
    ("atpg.miter_ms", "ms"),
    ("atpg.miter_calls", "count"),
    ("cnf.encode_ms", "ms"),
    ("cnf.vars_mean", "count"),
    ("cnf.clauses_mean", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.solves", "count"),
    ("sat.solve_p50_us", "us"),
    ("sat.solve_tail_us", "us"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("atpg.extract_ms", "ms"),
    ("atpg.drop_sim_ms", "ms"),
    ("atpg.drop_sim_calls", "count"),
    ("atpg.drop_yield", "count"),
    ("atpg.teardown_ms", "ms"),
    ("parallel.run_ms", "ms"),
    ("parallel.solve_busy_ms", "ms"),
    ("parallel.idle_ms", "ms"),
    ("parallel.solved", "count"),
    ("parallel.wasted_solves", "count"),
    ("parallel.useful_ratio", "ratio"),
    ("parallel.steal_ratio", "ratio"),
    ("parallel.skipped", "count"),
    ("implic.analyze_ms", "ms"),
    ("implic.pruned", "count"),
    ("implic.prune_ratio", "ratio"),
    ("atpg.random_phase_ms", "ms"),
    ("atpg.random_phase_yield", "count"),
    ("sat.inc_base_ms", "ms"),
    ("sat.inc_solve_ms", "ms"),
    ("sat.inc_vars_end", "count"),
    ("sat.inc_learnt_end", "count"),
    ("atpg.driver_setup_ms", "ms"),
    ("atpg.driver_step_ms", "ms"),
    ("atpg.driver_teardown_ms", "ms"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.shed", "count"),
    ("serve.verdict_lines", "count"),
    ("serve.stats_admitted", "count"),
    ("serve.stats_completed", "count"),
    ("serve.stats_solves", "count"),
    ("serve.stats_steps", "count"),
    ("serve.tax_ratio", "ratio"),
    ("netlist.decompose_ms", "ms"),
    ("netlist.cone_ms", "ms"),
    ("cutwidth.hypergraph_ms", "ms"),
    ("cutwidth.mla_ms", "ms"),
    ("cutwidth.mla_tail_ms", "ms"),
    ("cutwidth.cones", "count"),
    ("cutwidth.cache_hit_ratio", "ratio"),
    ("cutwidth.nodes_mean", "count"),
    ("peak_rss_mb", "MiB"),
    ("traced_wall_ms", "ms"),
    ("other_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// Times of spans that are layers, keyed by span name. The remaining
/// span names (`campaign`, `atpg.fault_list`) are benchmark glue and land
/// in `other_ms`.
const LAYER_SPANS: &[&str] = &[
    "netlist.parse",
    "lint.preflight",
    "atpg.collapse",
    "atpg.faultsim_build",
    "atpg.miter",
    "cnf.encode",
    "sat.solve",
    "atpg.extract",
    "atpg.drop_sim",
    "atpg.teardown",
    "parallel.run",
    "implic.analyze",
    "atpg.random_phase",
    "sat.inc_base",
    "sat.inc_solve",
    "netlist.decompose",
    "netlist.cone",
    "cutwidth.hypergraph",
    "cutwidth.mla",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = suite::DEFAULT_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// What one run of a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (campaigns, Figure-8 circuit calls, traced
    /// compositions).
    pub attempted: u64,
    /// Operations whose output mismatched its reference, or requests
    /// shed and never completed.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the result (tail percentile,
    /// sample counts, reconciliation).
    pub notes: Vec<String>,
    /// Threads or connections the workload runs, for the provenance stamp.
    pub threads: usize,
    pub clients: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Checks one output against its reference.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("MISMATCH: {}", what());
        }
        ok
    }

    /// Adds the per-layer self times of the traced passes (`traces`, one
    /// per pass, on the thread that ran the pass), the reconciliation
    /// `other_ms = traced_wall_ms − Σ layer self time`, and the trace
    /// overhead against the untraced pass walls.
    pub fn add_layers(&mut self, traces: &[Trace], untraced_walls: &[f64]) {
        let passes = traces.len().max(1) as f64;
        let mut wall = 0.0;
        let mut layer_sum = 0.0;
        let mut traced_walls = Vec::new();
        for t in traces {
            let w = measure::ms(t.root_wall());
            wall += w;
            traced_walls.push(w);
            for (name, d) in t.self_times() {
                if LAYER_SPANS.contains(&name) {
                    let key: &'static str = layer_metric(name);
                    *self.metrics.entry(key).or_default() += measure::ms(d) / passes;
                    layer_sum += measure::ms(d);
                }
            }
        }
        self.set("traced_wall_ms", wall / passes);
        self.set("other_ms", (wall - layer_sum) / passes);
        let untraced = median(untraced_walls);
        if untraced > 0.0 {
            self.set(
                "trace_overhead_frac",
                median(&traced_walls) / untraced - 1.0,
            );
        }
        self.note(format!(
            "reconciliation per traced pass: layer self time {:.3} ms + other {:.3} ms = traced wall {:.3} ms ({} traced passes)",
            layer_sum / passes,
            (wall - layer_sum) / passes,
            wall / passes,
            traces.len()
        ));
    }
}

/// The `_ms` metric name of a layer span.
fn layer_metric(span: &str) -> &'static str {
    let want = format!("{span}_ms");
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| *n == want)
        .expect("every layer span has an _ms metric")
}

/// Builds the workload's set-up state at least three times and until two
/// seconds have gone (at most fifteen times), keeping the last and
/// returning the median set-up time in seconds. `discard` releases a
/// state that is not kept.
pub fn setup_median<S>(mut build: impl FnMut() -> S, mut discard: impl FnMut(S)) -> (S, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < 3 || (times.len() < 15 && start.elapsed() < Duration::from_secs(2)) {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Runs `pass` until `seconds` have elapsed (at least once).
pub fn for_duration(seconds: Duration, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed() >= seconds {
            break;
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fresh_seq|warm_par2|served_warm|fig8_mcnc> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = suite::check_default_reproduces() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    // glibc retires its single-threaded malloc fast path for good once a
    // process spawns a thread. The served and parallel workloads cannot
    // avoid threads, so every workload is measured after one.
    std::thread::scope(|s| s.spawn(|| {}).join().expect("warm-up thread"));

    let outcome = match args.workload.as_str() {
        "fresh_seq" => fresh::run(&args),
        "warm_par2" => warm::run(&args),
        "served_warm" => served::run(&args),
        "fig8_mcnc" => fig8::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let prov = provenance::collect(&args, outcome.threads, outcome.clients);
    println!("{}", prov.human());
    println!("{}", prov.json());
    for line in &outcome.notes {
        println!("{line}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        println!("{name:<28} {value:>16.4} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "fail_frac = {fail_frac:.4} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A JSON number with every digit Rust prints for the `f64`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
