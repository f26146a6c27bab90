//! The working form of a hypergraph inside the MLA kernel: pins and
//! incidence in compressed rows, holding only the edges that can be cut.
//!
//! [`Hypergraph`] keeps one `Vec` per edge, which suits construction and
//! the public API. FM passes, coarsening and window induction instead
//! walk pins and incidence lists millions of times per Figure-8 run, so
//! they share this flat form. Edges with fewer than two pins never cross
//! a cut and are dropped; the surviving edges keep their relative order,
//! so every traversal visits them in the same sequence as the
//! [`Hypergraph`] it came from.

use crate::Hypergraph;

/// A hypergraph in compressed sparse rows, with per-node incidence lists
/// in ascending edge order. Build it with [`Graph::reset`],
/// [`Graph::push_pin`] and [`Graph::end_edge`], then [`Graph::index`].
#[derive(Debug, Default)]
pub(crate) struct Graph {
    num_nodes: usize,
    /// `pins[edge_start[e]..edge_start[e + 1]]` are the pins of edge `e`.
    edge_start: Vec<usize>,
    pins: Vec<usize>,
    /// `inc[inc_start[v]..inc_start[v + 1]]` are the edges of node `v`.
    inc_start: Vec<usize>,
    inc: Vec<usize>,
}

impl Graph {
    /// The cuttable edges of `h`, indexed.
    pub(crate) fn from_hypergraph(h: &Hypergraph) -> Self {
        let mut g = Graph::default();
        g.reset(h.num_nodes());
        for e in h.edges() {
            for &v in e {
                g.push_pin(v);
            }
            g.end_edge();
        }
        g.index();
        g
    }

    /// Empties the graph, keeping its buffers, for `num_nodes` nodes.
    pub(crate) fn reset(&mut self, num_nodes: usize) {
        self.num_nodes = num_nodes;
        self.edge_start.clear();
        self.edge_start.push(0);
        self.pins.clear();
    }

    /// Adds a pin to the edge under construction.
    pub(crate) fn push_pin(&mut self, v: usize) {
        debug_assert!(v < self.num_nodes, "pin {v} out of {}", self.num_nodes);
        self.pins.push(v);
    }

    /// Closes the edge under construction; an edge of fewer than two pins
    /// is discarded.
    pub(crate) fn end_edge(&mut self) {
        let start = *self.edge_start.last().expect("reset() seeds the offsets");
        if self.pins.len() - start >= 2 {
            self.edge_start.push(self.pins.len());
        } else {
            self.pins.truncate(start);
        }
    }

    /// Builds the incidence lists by counting sort: `inc_start[v]` first
    /// holds the end of `v`'s list and is walked back to its start while
    /// the edges are placed in descending order, so each list ascends.
    pub(crate) fn index(&mut self) {
        self.inc_start.clear();
        self.inc_start.resize(self.num_nodes + 1, 0);
        for &v in &self.pins {
            self.inc_start[v] += 1;
        }
        for v in 1..=self.num_nodes {
            self.inc_start[v] += self.inc_start[v - 1];
        }
        self.inc.clear();
        self.inc.resize(self.pins.len(), 0);
        for e in (0..self.num_edges()).rev() {
            for &v in &self.pins[self.edge_start[e]..self.edge_start[e + 1]] {
                self.inc_start[v] -= 1;
                self.inc[self.inc_start[v]] = e;
            }
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub(crate) fn num_edges(&self) -> usize {
        self.edge_start.len() - 1
    }

    /// The pins of edge `e`.
    pub(crate) fn edge(&self, e: usize) -> &[usize] {
        &self.pins[self.edge_start[e]..self.edge_start[e + 1]]
    }

    /// The edges of node `v`, ascending.
    pub(crate) fn incident(&self, v: usize) -> &[usize] {
        &self.inc[self.inc_start[v]..self.inc_start[v + 1]]
    }

    /// Edges with pins on both sides of `side`.
    pub(crate) fn cut(&self, side: &[bool]) -> usize {
        (0..self.num_edges())
            .filter(|&e| {
                let pins = self.edge(e);
                let first = side[pins[0]];
                pins[1..].iter().any(|&v| side[v] != first)
            })
            .count()
    }
}
