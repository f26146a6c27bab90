//! Multilevel hypergraph bipartitioning — the hMETIS stand-in.
//!
//! The paper's cut-width estimates used hMETIS (Karypis et al. \[16\]),
//! whose strength over flat FM is the multilevel scheme: coarsen the
//! hypergraph by heavy-connectivity matching, bipartition the small
//! coarse graph, then uncoarsen while FM-refining at every level. Flat FM
//! from a random start frequently misses the natural cuts of sparse,
//! chain-like circuit graphs; refining a projected coarse solution does
//! not.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fm::{self, Bipartition, Fm, FmConfig};
use crate::graph::Graph;
use crate::Hypergraph;

/// Coarsening stops once the graph is at most this many nodes.
const COARSE_TARGET: usize = 48;
/// ... or when a round shrinks the node count by less than this factor.
const MIN_SHRINK: f64 = 0.95;

/// A coarsened level: the smaller graph, per-node weights and anchor
/// flags, and the map from the next finer level's nodes into it.
struct Level {
    g: Graph,
    weight: Vec<u64>,
    anchored: Vec<bool>,
    map_from_finer: Vec<usize>,
}

/// One round of heavy-connectivity matching. Anchored nodes never merge.
fn coarsen_once(g: &Graph, weight: &[u64], anchored: &[bool], rng: &mut StdRng) -> Option<Level> {
    let n = g.num_nodes();
    let mut visit: Vec<usize> = (0..n).collect();
    visit.shuffle(rng);
    let mut matched = vec![usize::MAX; n];
    let mut score: Vec<f64> = vec![0.0; n];
    let mut touched: Vec<usize> = Vec::new();
    for &v in &visit {
        if matched[v] != usize::MAX || anchored[v] {
            continue;
        }
        // Score neighbors by summed 1/(|e|−1) over shared edges.
        touched.clear();
        for &e in g.incident(v) {
            let pins = g.edge(e);
            let s = 1.0 / (pins.len() - 1) as f64;
            for &u in pins {
                if u != v && matched[u] == usize::MAX && !anchored[u] {
                    if score[u] == 0.0 {
                        touched.push(u);
                    }
                    score[u] += s;
                }
            }
        }
        let best = touched
            .iter()
            .copied()
            .max_by(|&a, &b| score[a].partial_cmp(&score[b]).expect("finite scores"));
        for &u in &touched {
            score[u] = 0.0;
        }
        if let Some(u) = best {
            matched[v] = u;
            matched[u] = v;
        }
    }

    // Assign coarse ids: matched pairs share one id.
    let mut coarse_of = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        if coarse_of[v] != usize::MAX {
            continue;
        }
        coarse_of[v] = next;
        if matched[v] != usize::MAX {
            coarse_of[matched[v]] = next;
        }
        next += 1;
    }
    if (next as f64) > MIN_SHRINK * n as f64 {
        return None; // not enough progress
    }
    let mut cw = vec![0u64; next];
    let mut ca = vec![false; next];
    for v in 0..n {
        cw[coarse_of[v]] += weight[v];
        ca[coarse_of[v]] |= anchored[v];
    }
    let mut coarse = Graph::default();
    coarse.reset(next);
    let mut proj: Vec<usize> = Vec::new();
    for e in 0..g.num_edges() {
        proj.clear();
        proj.extend(g.edge(e).iter().map(|&v| coarse_of[v]));
        proj.sort_unstable();
        proj.dedup();
        for &c in &proj {
            coarse.push_pin(c);
        }
        coarse.end_edge();
    }
    coarse.index();
    Some(Level {
        g: coarse,
        weight: cw,
        anchored: ca,
        map_from_finer: coarse_of,
    })
}

/// Multilevel bipartitioning with anchored terminal nodes; the drop-in,
/// higher-quality alternative to
/// [`fm::bipartition_anchored`].
///
/// # Panics
///
/// Panics if an anchor index is out of range or appears on both sides.
pub fn bipartition_multilevel(
    h: &Hypergraph,
    left_anchors: &[usize],
    right_anchors: &[usize],
    config: &FmConfig,
) -> Bipartition {
    let g = Graph::from_hypergraph(h);
    let side = bisect(&mut Fm::default(), &g, left_anchors, right_anchors, config);
    let cut = g.cut(&side);
    Bipartition { side, cut }
}

/// [`bipartition_multilevel`] on the kernel's graph form, reusing `fm`.
pub(crate) fn bisect(
    fm: &mut Fm,
    g: &Graph,
    left_anchors: &[usize],
    right_anchors: &[usize],
    config: &FmConfig,
) -> Vec<bool> {
    let n = g.num_nodes();
    let unit = vec![1u64; n];
    if n <= COARSE_TARGET {
        return fm::bisect(fm, g, &unit, left_anchors, right_anchors, config);
    }
    let anchored = fm::anchor_mask(n, left_anchors, right_anchors);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0A2_5E11);

    // Coarsening phase: `levels[i]` coarsens the level below it, the
    // input graph being level 0.
    let mut levels: Vec<Level> = Vec::new();
    loop {
        let (cg, cw, ca) = match levels.last() {
            Some(l) => (&l.g, &l.weight[..], &l.anchored[..]),
            None => (g, &unit[..], &anchored[..]),
        };
        if cg.num_nodes() <= COARSE_TARGET {
            break;
        }
        match coarsen_once(cg, cw, ca, &mut rng) {
            Some(level) => levels.push(level),
            None => break,
        }
    }

    // Initial partition at the coarsest level: track the base-level
    // anchors through the coarsening maps (anchors never merge, so left
    // and right anchors stay distinct).
    let mut coarse_left: Vec<usize> = left_anchors.to_vec();
    let mut coarse_right: Vec<usize> = right_anchors.to_vec();
    for l in &levels {
        for id in coarse_left.iter_mut().chain(coarse_right.iter_mut()) {
            *id = l.map_from_finer[*id];
        }
    }
    coarse_left.sort_unstable();
    coarse_left.dedup();
    coarse_right.sort_unstable();
    coarse_right.dedup();
    let (cg, cw) = match levels.last() {
        Some(l) => (&l.g, &l.weight[..]),
        None => (g, &unit[..]),
    };
    let mut side = fm::bisect(fm, cg, cw, &coarse_left, &coarse_right, config);

    // Uncoarsening with FM refinement at every level.
    for li in (0..levels.len()).rev() {
        let (fg, fw, fa) = match li.checked_sub(1) {
            Some(finer) => {
                let l = &levels[finer];
                (&l.g, &l.weight[..], &l.anchored[..])
            }
            None => (g, &unit[..], &anchored[..]),
        };
        let mut fine_side: Vec<bool> = levels[li].map_from_finer.iter().map(|&c| side[c]).collect();
        let free = (0..fg.num_nodes()).filter(|&v| !fa[v]).map(|v| fw[v]);
        let free_total: u64 = free.clone().sum();
        let max_node = free.max().unwrap_or(1);
        let min_w = fm::min_side_weight(free_total, max_node, config.balance_tolerance);
        fm::refine(
            fm,
            fg,
            fw,
            &mut fine_side,
            fa,
            min_w,
            config.max_passes.max(2),
        );
        side = fine_side;
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::cut_size;

    fn chain(n: usize) -> Hypergraph {
        Hypergraph::new(n, (0..n - 1).map(|i| vec![i, i + 1]).collect())
    }

    #[test]
    fn long_chain_cut_is_one() {
        // Flat FM from random starts struggles here; multilevel must not.
        let h = chain(400);
        let p = bipartition_multilevel(&h, &[], &[], &FmConfig::default());
        assert!(p.cut <= 2, "chain bisection cut {}", p.cut);
        assert_eq!(cut_size(&h, &p.side), p.cut);
    }

    #[test]
    fn anchored_chain_orients() {
        let n = 300;
        let h = chain(n);
        let p = bipartition_multilevel(&h, &[0], &[n - 1], &FmConfig::default());
        assert!(!p.side[0] && p.side[n - 1]);
        assert!(p.cut <= 2, "cut {}", p.cut);
    }

    #[test]
    fn balance_holds_on_grid() {
        let n = 12;
        let idx = |r: usize, c: usize| r * n + c;
        let mut edges = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if c + 1 < n {
                    edges.push(vec![idx(r, c), idx(r, c + 1)]);
                }
                if r + 1 < n {
                    edges.push(vec![idx(r, c), idx(r + 1, c)]);
                }
            }
        }
        let h = Hypergraph::new(n * n, edges);
        let p = bipartition_multilevel(&h, &[], &[], &FmConfig::default());
        let left = p.side.iter().filter(|&&s| !s).count();
        assert!((n * n / 2).abs_diff(left) <= n * n / 5, "left {left}");
        assert!(p.cut <= 2 * n, "grid cut {}", p.cut);
    }

    #[test]
    fn small_graphs_fall_back_to_flat() {
        let h = chain(10);
        let p = bipartition_multilevel(&h, &[], &[], &FmConfig::default());
        assert_eq!(p.cut, 1);
    }

    #[test]
    fn deterministic() {
        let h = chain(200);
        let a = bipartition_multilevel(&h, &[], &[], &FmConfig::default());
        let b = bipartition_multilevel(&h, &[], &[], &FmConfig::default());
        assert_eq!(a, b);
    }
}
