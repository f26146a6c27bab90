//! Parity trees — the structural family of C499/C1355/C1908 (ECC
//! circuits are dominated by XOR trees).

use atpg_easy_netlist::{GateKind, NetId, Netlist};

/// An `n`-input parity tree of 2-input XORs (balanced), output `parity`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn parity_tree(n: usize) -> Netlist {
    assert!(n > 0, "parity needs at least one input");
    let mut nl = Netlist::new(format!("parity{n}"));
    let mut layer: Vec<NetId> = (0..n).map(|i| nl.add_input(format!("x{i}"))).collect();
    let mut fresh = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0]);
            } else {
                let x = nl
                    .add_gate_named(GateKind::Xor, pair.to_vec(), format!("px{fresh}"))
                    .expect("unique");
                fresh += 1;
                next.push(x);
            }
        }
        layer = next;
    }
    let out = nl
        .add_gate_named(GateKind::Buf, vec![layer[0]], "parity")
        .expect("unique");
    nl.add_output(out);
    nl
}

/// A multi-word parity checker: `words` groups of `width` bits, one parity
/// output per group plus a global parity — a C1908-flavoured structure
/// with shared fan-in.
///
/// # Panics
///
/// Panics if `words == 0` or `width == 0`.
pub fn parity_checker(words: usize, width: usize) -> Netlist {
    assert!(words > 0 && width > 0, "dimensions must be positive");
    let mut nl = Netlist::new(format!("pchk{words}x{width}"));
    let bits: Vec<Vec<NetId>> = (0..words)
        .map(|w| {
            (0..width)
                .map(|b| nl.add_input(format!("x{w}_{b}")))
                .collect()
        })
        .collect();
    let mut group_parities = Vec::with_capacity(words);
    for (w, group) in bits.iter().enumerate() {
        let mut acc = group[0];
        for (b, &bit) in group.iter().enumerate().skip(1) {
            acc = nl
                .add_gate_named(GateKind::Xor, vec![acc, bit], format!("g{w}_{b}"))
                .expect("unique");
        }
        let o = nl
            .add_gate_named(GateKind::Buf, vec![acc], format!("par{w}"))
            .expect("unique");
        nl.add_output(o);
        group_parities.push(o);
    }
    let mut acc = group_parities[0];
    for (w, &gp) in group_parities.iter().enumerate().skip(1) {
        acc = nl
            .add_gate_named(GateKind::Xor, vec![acc, gp], format!("gl{w}"))
            .expect("unique");
    }
    let global = nl
        .add_gate_named(GateKind::Buf, vec![acc], "global")
        .expect("unique");
    nl.add_output(global);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_netlist::sim;

    #[test]
    fn parity_is_xor_of_inputs() {
        for n in [1, 2, 5, 9] {
            let nl = parity_tree(n);
            assert!(nl.validate().is_ok());
            for m in 0u32..(1 << n.min(10)) {
                let ins: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
                let expect = ins.iter().filter(|&&b| b).count() % 2 == 1;
                assert_eq!(sim::eval_outputs(&nl, &ins), vec![expect], "n={n} m={m}");
            }
        }
    }

    #[test]
    fn checker_outputs() {
        let nl = parity_checker(3, 4);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.num_outputs(), 4);
        // All-zero input: every parity 0.
        let outs = sim::eval_outputs(&nl, &[false; 12]);
        assert!(outs.iter().all(|&b| !b));
        // One bit set in word 1: par1 and global flip.
        let mut ins = vec![false; 12];
        ins[4] = true;
        let outs = sim::eval_outputs(&nl, &ins);
        assert_eq!(outs, vec![false, true, false, true]);
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let nl = parity_tree(64);
        assert!(atpg_easy_netlist::topo::depth(&nl) <= 8);
    }
}
