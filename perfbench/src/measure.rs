//! Measurement plumbing: order statistics, the resident-memory sampler
//! and the in-memory span recorder of traced runs.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `min q1 median q3 max` of a sample, for the human-readable notes.
pub fn five_numbers(xs: &[f64]) -> String {
    let q = |p: f64| hd_quantile(xs, p);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "min {min:.1} q1 {:.1} median {:.1} q3 {:.1} max {max:.1}",
        q(0.25),
        median(xs),
        q(0.75)
    )
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The Harrell–Davis estimate of the `p`-quantile (0 < p < 1): a
/// Beta-weighted mean of all order statistics. Unlike a single order
/// statistic it moves smoothly when one sample changes rank, which keeps
/// percentiles of mixed-size campaigns steady from run to run.
pub fn hd_quantile(xs: &[f64], p: f64) -> f64 {
    let n = xs.len();
    if n < 2 {
        return xs.first().copied().unwrap_or(0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (a, b) = (p * (n as f64 + 1.0), (1.0 - p) * (n as f64 + 1.0));
    let mut prev = 0.0;
    let mut acc = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_inc(a, b, (i + 1) as f64 / n as f64);
        acc += (cdf - prev) * x;
        prev = cdf;
    }
    acc
}

/// The regularized incomplete beta function `I_x(a, b)`, by Lentz's
/// continued fraction.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let mut s = G[0];
    for (i, g) in G.iter().enumerate().skip(1) {
        s += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// The median latency of a run: each pass's geometric midmean (the
/// geometric mean of the middle half of its latencies), then the median
/// over passes. An order-statistic median of a pass sits in a gap between
/// clusters of circuit sizes and jumps across it whenever a seed moves one
/// generated circuit past the middle; the midmean moves by that circuit's
/// share of the middle half. Trimming the lowest quarter keeps out the
/// sub-millisecond campaigns, which a busy host slows the most.
pub fn p50_of_passes(passes: &[Vec<f64>]) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|xs| {
            let mut v = logs(xs);
            v.sort_by(f64::total_cmp);
            let cut = v.len() / 4;
            mean(&v[cut..v.len() - cut]).exp()
        })
        .collect();
    median(&per_pass)
}

/// Natural logarithms of positive samples (a zero reads as the smallest
/// positive number).
fn logs(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).collect()
}

/// The tail of a run's latencies, given per pass: each pass's
/// Harrell–Davis estimate at `percentile` of the log latencies,
/// exponentiated, then the median over the passes. In log space the
/// estimate interpolates geometrically between order statistics, so the
/// single slowest campaign does not dominate it. The percentile steps
/// down a fixed ladder until at least ten of the run's samples lie
/// beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

pub fn tail(passes: &[Vec<f64>], percentile: f64) -> Tail {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n: usize = passes.iter().map(Vec::len).sum();
    let fits = |p: f64| n as f64 * (1.0 - p / 100.0) >= 10.0;
    let percentile = if fits(percentile) {
        percentile
    } else {
        LADDER.into_iter().find(|&p| fits(p)).unwrap_or(50.0)
    };
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|xs| hd_quantile(&logs(xs), percentile / 100.0).exp())
        .collect();
    Tail {
        percentile,
        value: median(&per_pass),
        samples: n,
    }
}

/// Samples this process's resident set every few milliseconds while a
/// measured phase runs, so the peak excludes set-up. The peak is taken per
/// pass: whether two large campaigns happen to overlap varies from pass to
/// pass, so a run reports the median of its pass peaks.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

/// Current resident set in KiB, from `/proc/self/status`.
pub fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(rss_kb()));
        let handle = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || {
                // Relaxed: the flag and the peak publish no other data.
                while !stop.load(Ordering::Relaxed) {
                    peak_kb.fetch_max(rss_kb(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        RssSampler {
            stop,
            peak_kb,
            handle,
        }
    }

    /// The peak in MiB since the previous call (or the start), restarting
    /// the peak from the current resident set.
    pub fn pass_peak(&self) -> f64 {
        let now = rss_kb();
        self.peak_kb.swap(now, Ordering::Relaxed).max(now) as f64 / 1024.0
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rss sampler thread panicked");
    }
}

/// One recorded span: a named interval with the span that caused it.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// Spans of one thread, kept in memory until the run ends.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let now = Instant::now();
        self.open.push(self.spans.len());
        self.spans.push(SpanRec {
            name,
            start: now,
            end: now,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id];
        span.end = Instant::now();
        span.end - span.start
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per span name: total self time (duration minus the time direct
    /// children cover; children of one thread never overlap).
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Total duration of the root spans (the traced wall time).
    pub fn root_wall(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes every span as one JSON line: pass, id, name, parent, start
    /// and end in microseconds since the run's epoch.
    fn write_jsonl(&self, pass: usize, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        Ok(())
    }
}

/// Where traced runs leave their spans, relative to the checkout root.
const SPAN_DIR: &str = ".bench_out";

/// Writes the spans of every traced pass to `.bench_out/spans-<workload>.jsonl`
/// once the run has ended. A write failure is reported, not fatal: the
/// metrics do not depend on the file.
pub fn write_spans(workload: &str, traces: &[Trace]) {
    let path = std::path::Path::new(SPAN_DIR).join(format!("spans-{workload}.jsonl"));
    let result = std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            for (pass, t) in traces.iter().enumerate() {
                t.write_jsonl(pass, &mut w)?;
            }
            w.flush()
        });
    if let Err(e) = result {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
