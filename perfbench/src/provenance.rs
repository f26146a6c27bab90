//! The provenance stamp printed with every result: host, source revision,
//! toolchain and the run's parameters, so a later claim can be re-checked.

use std::path::Path;

use crate::Args;

pub struct Provenance {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    host_cpus: usize,
    git_rev: String,
    source_digest: String,
    rustc: String,
    threads: usize,
    clients: usize,
}

pub fn collect(args: &Args, threads: usize, clients: usize) -> Provenance {
    Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds.as_secs_f64(),
        trace: args.trace,
        host_cpus: host_cpus(),
        git_rev: git_rev().unwrap_or_else(|| "none".to_string()),
        source_digest: format!("{:016x}", source_digest()),
        rustc: rustc_version(),
        threads,
        clients,
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Provenance {
    /// Workers beyond the host's CPUs time-share cores, so their
    /// throughput says nothing about parallel speed-up.
    fn oversubscribed(&self) -> bool {
        self.threads > self.host_cpus
    }

    pub fn human(&self) -> String {
        format!(
            "perfbench {} seed={} seconds={} trace={} | host_cpus={} threads={} clients={} \
             oversubscribed={} | rev={} source={} | {}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.host_cpus,
            self.threads,
            self.clients,
            self.oversubscribed(),
            self.git_rev,
            self.source_digest,
            self.rustc
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}, \"host_cpus\": {}, \"threads\": {}, \"clients\": {}, \
             \"oversubscribed\": {}, \"git_rev\": \"{}\", \"source_digest\": \"{}\", \
             \"rustc\": \"{}\"}}}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.host_cpus,
            self.threads,
            self.clients,
            self.oversubscribed(),
            self.git_rev,
            self.source_digest,
            self.rustc.replace('"', "'")
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly; `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from: it names the revision where no `.git` is present.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    for extra in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(extra.into());
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    h
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                walk(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "rustc unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}
