//! Seeded copies of the repository's circuit suites, rendered to
//! `.bench` text: the program under test only ever receives this text.

use atpg_easy_circuits::random::{self, RandomCircuitConfig};
use atpg_easy_circuits::suite::{self, NamedCircuit};
use atpg_easy_netlist::parser::bench;

/// The seed that reproduces the library's suites exactly.
pub const DEFAULT_SEED: u64 = 1;

/// One workload input: a circuit name and its rendered netlist.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub text: String,
}

/// Generator parameters of the `rand*` members of
/// [`suite::mcnc_like`], in suite order: `(gates, inputs, generator seed)`.
/// [`check_default_reproduces`] pins them to the library's suite.
fn rand_members(seed: u64) -> Vec<(usize, usize, u64)> {
    // Each seed step shifts all four generator seeds past each other, so
    // no two benchmark seeds share a generated circuit.
    let shift = seed.wrapping_sub(DEFAULT_SEED).wrapping_mul(4);
    [60usize, 120, 240, 480]
        .into_iter()
        .enumerate()
        .map(|(i, gates)| (gates, 12 + 4 * i, (1000 + i as u64).wrapping_add(shift)))
        .collect()
}

/// The MCNC-like suite with its `rand*` members generated from `seed`.
pub fn mcnc(seed: u64) -> Vec<NamedCircuit> {
    let mut circuits = suite::mcnc_like();
    let members = circuits.iter().filter(|c| c.name.starts_with("rand"));
    assert_eq!(members.count(), 4, "suite has four rand members");
    let rand = circuits.iter_mut().filter(|c| c.name.starts_with("rand"));
    for (c, (gates, inputs, gen_seed)) in rand.zip(rand_members(seed)) {
        assert_eq!(c.name, format!("rand{gates}"), "suite rand member order");
        c.netlist = random::generate(&RandomCircuitConfig {
            gates,
            inputs,
            locality: 0.95,
            window: 12,
            far_window: 48,
            seed: gen_seed,
            ..RandomCircuitConfig::default()
        })
        .expect("generator config is valid");
    }
    circuits
}

/// Suite `all` (MCNC-like then ISCAS-like, as the bench bins resolve it)
/// with seeded `rand*` members.
pub fn all(seed: u64) -> Vec<NamedCircuit> {
    let mut circuits = mcnc(seed);
    circuits.extend(suite::iscas_like());
    circuits
}

/// Renders every circuit to `.bench` text.
pub fn render(circuits: &[NamedCircuit]) -> Vec<Case> {
    circuits
        .iter()
        .map(|c| Case {
            name: c.name.clone(),
            text: bench::write(&c.netlist).expect("suite circuits render"),
        })
        .collect()
}

/// Fails loudly if the default seed no longer reproduces the library's
/// suite `all` byte-for-byte (for example after a generator change).
pub fn check_default_reproduces() -> Result<(), String> {
    let mut library = suite::mcnc_like();
    library.extend(suite::iscas_like());
    let ours = render(&all(DEFAULT_SEED));
    let theirs = render(&library);
    if ours.len() != theirs.len() {
        return Err(format!(
            "suite size {} != library {}",
            ours.len(),
            theirs.len()
        ));
    }
    for (a, b) in ours.iter().zip(&theirs) {
        if a.name != b.name || a.text != b.text {
            return Err(format!("default seed does not reproduce `{}`", b.name));
        }
    }
    Ok(())
}
