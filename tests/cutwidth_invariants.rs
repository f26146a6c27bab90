//! Property tests over the cut-width machinery: optimality of the exact
//! DP, validity of MLA arrangements, partitioner invariants, and a golden
//! digest pinning the arrangements `estimate_cutwidth` returns on suite
//! cones.

use atpg_easy::atpg::fault;
use atpg_easy::circuits::suite;
use atpg_easy::cutwidth::fm::{bipartition, cut_size, FmConfig};
use atpg_easy::cutwidth::mla::{self, MlaConfig};
use atpg_easy::cutwidth::multilevel::bipartition_multilevel;
use atpg_easy::cutwidth::{exact, ordering, Hypergraph};
use atpg_easy::netlist::{decompose, topo};
use proptest::prelude::*;

fn small_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3usize..9).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(0..n, 2..4), 1..12).prop_map(
            move |mut edges| {
                for e in &mut edges {
                    e.sort_unstable();
                    e.dedup();
                }
                edges.retain(|e| e.len() >= 2);
                Hypergraph::new(n, edges)
            },
        )
    })
}

fn medium_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (10usize..60).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(0..n, 2..5), n / 2..2 * n).prop_map(
            move |mut edges| {
                for e in &mut edges {
                    e.sort_unstable();
                    e.dedup();
                }
                edges.retain(|e| e.len() >= 2);
                Hypergraph::new(n, edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_is_no_worse_than_any_sampled_order(h in small_hypergraph(), seed in 0u64..100) {
        let (w, order) = exact::min_cutwidth(&h);
        prop_assert_eq!(ordering::cutwidth(&h, &order), w);
        // Compare against a pseudo-random ordering.
        let n = h.num_nodes();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(i, (state as usize) % (i + 1));
        }
        prop_assert!(w <= ordering::cutwidth(&h, &perm));
    }

    #[test]
    fn mla_returns_permutation_within_exact_bound(h in small_hypergraph()) {
        let (w_exact, _) = exact::min_cutwidth(&h);
        let (w_est, order) = mla::estimate_cutwidth(&h, &MlaConfig::default());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..h.num_nodes()).collect::<Vec<_>>());
        // Graphs at most leaf-sized are solved exactly.
        if h.num_nodes() <= MlaConfig::default().leaf_size {
            prop_assert_eq!(w_est, w_exact);
        } else {
            prop_assert!(w_est >= w_exact);
        }
    }

    #[test]
    fn partitioners_report_true_cut(h in medium_hypergraph()) {
        let flat = bipartition(&h, &FmConfig::default());
        prop_assert_eq!(flat.cut, cut_size(&h, &flat.side));
        let ml = bipartition_multilevel(&h, &[], &[], &FmConfig::default());
        prop_assert_eq!(ml.cut, cut_size(&h, &ml.side));
    }

    #[test]
    fn multilevel_respects_anchors(h in medium_hypergraph()) {
        let n = h.num_nodes();
        let p = bipartition_multilevel(&h, &[0], &[n - 1], &FmConfig::default());
        prop_assert!(!p.side[0]);
        prop_assert!(p.side[n - 1]);
    }

    #[test]
    fn cut_profile_peaks_at_cutwidth(h in medium_hypergraph(), seed in 0u64..50) {
        let n = h.num_nodes();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(7).wrapping_mul(0x2545F4914F6CDD1D);
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(i, (state as usize) % (i + 1));
        }
        let profile = ordering::cut_profile(&h, &perm);
        let w = ordering::cutwidth(&h, &perm);
        prop_assert_eq!(profile.iter().copied().max().unwrap_or(0), w);
        // Every cut is bounded by the number of edges.
        prop_assert!(profile.iter().all(|&c| c <= h.num_edges()));
    }

    #[test]
    fn anchored_exact_places_anchors_at_ends(h in small_hypergraph()) {
        let n = h.num_nodes();
        let (w, order) = exact::min_cutwidth_anchored(&h, Some(0), Some(n - 1));
        prop_assert_eq!(order[0], 0);
        prop_assert_eq!(order[n - 1], n - 1);
        prop_assert_eq!(ordering::cutwidth(&h, &order), w);
        // The constrained optimum is no better than the free optimum.
        let (w_free, _) = exact::min_cutwidth(&h);
        prop_assert!(w >= w_free);
    }
}

/// 64-bit FNV-1a, folded over little-endian `u64` words.
fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The MLA estimator must keep returning the same arrangement — width
/// *and* order — on a fixed sample of Figure-8 fault cones: three evenly
/// spaced fault nets per circuit of both suites, each cone extracted
/// exactly as `figure8` extracts it. A change that moves any estimate
/// changes the digest (and the committed `results/fig8*` files with it).
#[test]
fn mla_arrangements_match_golden_digest() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut cones = 0u64;
    let mut nodes = 0u64;
    for c in suite::mcnc_like().into_iter().chain(suite::iscas_like()) {
        let nl = decompose::decompose(&c.netlist, 3).expect("suite circuits decompose");
        let mut nets: Vec<_> = fault::all_faults(&nl).iter().map(|f| f.net).collect();
        nets.dedup();
        for k in 1..=3 {
            let net = nets[k * (nets.len() - 1) / 4];
            let (sub, outs) = topo::fault_subcircuit_nets(&nl, net);
            if outs.is_empty() {
                continue;
            }
            let ext = topo::extract_marked(&nl, &sub, &outs);
            let h = Hypergraph::from_netlist(&ext.netlist);
            let (w, order) = mla::estimate_cutwidth(&h, &MlaConfig::default());
            fnv1a(&mut hash, w as u64);
            fnv1a(&mut hash, order.len() as u64);
            for v in order {
                fnv1a(&mut hash, v as u64);
            }
            cones += 1;
            nodes += h.num_nodes() as u64;
        }
    }
    assert_eq!((cones, nodes), (93, 21_073), "sample changed");
    assert_eq!(hash, 0x2e01_01fb_e63e_5200, "MLA arrangements moved");
}
