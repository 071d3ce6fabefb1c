//! Uncertain graphs and the possible-world model (Defs. 2 and 3).
//!
//! An [`UncertainGraph`] has a fixed structure (vertices and labeled edges)
//! but each vertex carries one or more mutually exclusive labels, each with
//! an existence probability. A *possible world* fixes one label per vertex;
//! its appearance probability is the product of the chosen labels'
//! probabilities (Def. 3).

use crate::certain::{Edge, Graph, VertexId};
use crate::interner::Symbol;

/// One alternative label of an uncertain vertex together with its
/// existence probability `l(v).p ∈ (0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelAlternative {
    /// The candidate label.
    pub label: Symbol,
    /// Its existence probability.
    pub prob: f64,
}

/// A vertex of an uncertain graph: a non-empty set of mutually exclusive
/// label alternatives whose probabilities sum to at most 1.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UncertainVertex {
    /// Alternatives, in insertion order. Never empty in a valid graph.
    pub alternatives: Vec<LabelAlternative>,
}

impl UncertainVertex {
    /// A vertex with a single certain label (probability 1).
    pub fn certain(label: Symbol) -> Self {
        Self { alternatives: vec![LabelAlternative { label, prob: 1.0 }] }
    }

    /// Total probability mass of the listed alternatives.
    pub fn mass(&self) -> f64 {
        self.alternatives.iter().map(|a| a.prob).sum()
    }

    /// Number of alternative labels `|L(v)|`.
    pub fn label_count(&self) -> usize {
        self.alternatives.len()
    }
}

/// An uncertain graph (Def. 2): fixed structure, uncertain vertex labels.
///
/// Edge labels are certain, following the paper's presentation (Sec. 3.1.1:
/// "we do not discuss the edge label uncertainty ... it is straightforward
/// to handle the general case" by reifying edges as vertices).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UncertainGraph {
    vertices: Vec<UncertainVertex>,
    edges: Vec<Edge>,
    degrees: Vec<u32>,
}

/// A materialized possible world: the certain graph instance plus its
/// appearance probability.
#[derive(Clone, Debug)]
pub struct PossibleWorld {
    /// The deterministic instance.
    pub graph: Graph,
    /// `Pr{pw(g)}` per Def. 3.
    pub prob: f64,
    /// Which alternative index was chosen for each vertex.
    pub choice: Vec<u32>,
}

impl UncertainGraph {
    /// Create an empty uncertain graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an uncertain vertex.
    ///
    /// # Panics
    /// Panics if `vertex` has no alternatives, any probability outside
    /// `(0, 1]`, or total mass above `1 + 1e-9`.
    pub fn add_vertex(&mut self, vertex: UncertainVertex) -> VertexId {
        assert!(!vertex.alternatives.is_empty(), "vertex needs >= 1 label");
        for a in &vertex.alternatives {
            assert!(a.prob > 0.0 && a.prob <= 1.0, "probability out of range");
        }
        assert!(vertex.mass() <= 1.0 + 1e-9, "label mass exceeds 1");
        let id = u32::try_from(self.vertices.len()).expect("too many vertices");
        self.vertices.push(vertex);
        self.degrees.push(0);
        VertexId(id)
    }

    /// Convenience: add a vertex with one certain label.
    pub fn add_certain_vertex(&mut self, label: Symbol) -> VertexId {
        self.add_vertex(UncertainVertex::certain(label))
    }

    /// Add a directed edge with a certain label.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, label: Symbol) {
        assert!(src.index() < self.vertices.len(), "src out of range");
        assert!(dst.index() < self.vertices.len(), "dst out of range");
        self.edges.push(Edge { src, dst, label });
        self.degrees[src.index()] += 1;
        self.degrees[dst.index()] += 1;
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `|V| + |E|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.vertex_count() + self.edge_count()
    }

    /// The uncertain vertices.
    #[inline]
    pub fn vertices(&self) -> &[UncertainVertex] {
        &self.vertices
    }

    /// The (certain) edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Total degree of `v` (structure is certain, so degrees are too).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.degrees[v.index()] as usize
    }

    /// Sorted (non-increasing) total degree sequence.
    pub fn sorted_degrees(&self) -> Vec<u32> {
        let mut d = self.degrees.clone();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }

    /// Multiset of all edge labels, sorted.
    pub fn edge_label_multiset(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.edges.iter().map(|e| e.label).collect();
        v.sort_unstable();
        v
    }

    /// Number of possible worlds: the product of per-vertex label counts.
    ///
    /// The product **saturates** at [`u128::MAX`] instead of wrapping:
    /// graphs with hundreds of multi-label vertices overflow `u128`, and a
    /// wrapped count (possibly small, or even 0 once a factor of 2^128
    /// accumulates) would silently route an enumeration-infeasible graph
    /// to the exact verifier. A saturated count is detectable via
    /// [`Self::world_count_saturated`] and compares greater than every
    /// real threshold, so tier dispatch always sends it to sampling.
    pub fn world_count(&self) -> u128 {
        self.vertices
            .iter()
            .map(|v| v.alternatives.len() as u128)
            .fold(1u128, |a, b| a.saturating_mul(b))
    }

    /// Whether [`Self::world_count`] overflowed `u128` and clamped. The
    /// true count then exceeds `2^128 − 1`; exact enumeration is
    /// impossible and callers must use the sampling tier.
    pub fn world_count_saturated(&self) -> bool {
        self.world_count() == u128::MAX
    }

    /// Average number of alternatives per vertex (`avg |L(v)|` in Table 2).
    pub fn avg_label_count(&self) -> f64 {
        if self.vertices.is_empty() {
            return 0.0;
        }
        self.vertices.iter().map(|v| v.alternatives.len()).sum::<usize>() as f64
            / self.vertices.len() as f64
    }

    /// Lift a certain graph into the uncertain model (every label has
    /// probability 1) — a certain graph is a special case of Def. 2.
    pub fn from_certain(g: &Graph) -> Self {
        let mut u = Self::new();
        for v in g.vertices() {
            u.add_certain_vertex(g.label(v));
        }
        for e in g.edges() {
            u.add_edge(e.src, e.dst, e.label);
        }
        u
    }

    /// Materialize the possible world selected by `choice` (one alternative
    /// index per vertex).
    ///
    /// # Panics
    /// Panics if `choice` has the wrong length or any index is out of range.
    pub fn materialize(&self, choice: &[u32]) -> PossibleWorld {
        assert_eq!(choice.len(), self.vertices.len(), "choice length mismatch");
        let mut g = Graph::new();
        let mut prob = 1.0;
        for (v, &c) in self.vertices.iter().zip(choice) {
            let alt = &v.alternatives[c as usize];
            g.add_vertex(alt.label);
            prob *= alt.prob;
        }
        for e in &self.edges {
            g.add_edge(e.src, e.dst, e.label);
        }
        PossibleWorld { graph: g, prob, choice: choice.to_vec() }
    }

    /// Exact iterator over all possible worlds (Def. 3).
    ///
    /// The number of worlds is exponential in the number of ambiguous
    /// vertices; callers should consult [`Self::world_count`] first.
    pub fn possible_worlds(&self) -> PossibleWorldIter<'_> {
        PossibleWorldIter {
            graph: self,
            choice: vec![0; self.vertices.len()],
            done: self.vertices.is_empty(),
        }
    }

    /// Allocation-free cursor over all possible worlds: yields each choice
    /// vector and its appearance probability in the same lexicographic
    /// order as [`Self::possible_worlds`], without materializing a
    /// [`Graph`] per world. Verification paths that only patch labels onto
    /// a shared skeleton should prefer this.
    pub fn world_choices(&self) -> WorldChoices<'_> {
        WorldChoices { graph: self, choice: vec![0; self.vertices.len()], started: false }
    }
}

/// Lending cursor over the possible worlds of an [`UncertainGraph`]; see
/// [`UncertainGraph::world_choices`].
pub struct WorldChoices<'a> {
    graph: &'a UncertainGraph,
    choice: Vec<u32>,
    started: bool,
}

impl WorldChoices<'_> {
    /// The next world's choice vector and appearance probability, or
    /// `None` when exhausted. An empty graph has zero worlds, mirroring
    /// [`UncertainGraph::possible_worlds`].
    pub fn next_world(&mut self) -> Option<(&[u32], f64)> {
        if !self.started {
            self.started = true;
            if self.graph.vertices.is_empty() {
                return None;
            }
        } else {
            // Advance the mixed-radix counter; wrap-around is exhaustion.
            let mut i = self.choice.len();
            loop {
                if i == 0 {
                    return None;
                }
                i -= 1;
                let radix = self.graph.vertices[i].alternatives.len() as u32;
                if self.choice[i] + 1 < radix {
                    self.choice[i] += 1;
                    for c in &mut self.choice[i + 1..] {
                        *c = 0;
                    }
                    break;
                }
                self.choice[i] = 0;
            }
        }
        // Same ordered product as `materialize`, for bit-identical floats.
        let mut prob = 1.0;
        for (v, &c) in self.graph.vertices.iter().zip(&self.choice) {
            prob *= v.alternatives[c as usize].prob;
        }
        Some((&self.choice, prob))
    }
}

/// Iterator over every possible world of an [`UncertainGraph`], in
/// lexicographic order of the per-vertex choice vector.
pub struct PossibleWorldIter<'a> {
    graph: &'a UncertainGraph,
    choice: Vec<u32>,
    done: bool,
}

impl Iterator for PossibleWorldIter<'_> {
    type Item = PossibleWorld;

    fn next(&mut self) -> Option<PossibleWorld> {
        if self.done {
            return None;
        }
        let world = self.graph.materialize(&self.choice);
        // Advance the mixed-radix counter.
        let mut i = self.choice.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            let radix = self.graph.vertices[i].alternatives.len() as u32;
            if self.choice[i] + 1 < radix {
                self.choice[i] += 1;
                for c in &mut self.choice[i + 1..] {
                    *c = 0;
                }
                break;
            }
        }
        Some(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::SymbolTable;

    fn jordan_graph(t: &mut SymbolTable) -> UncertainGraph {
        // Simplified version of Fig. 2: one ambiguous vertex with 3 labels,
        // one with 2, two certain ones.
        let mut g = UncertainGraph::new();
        let v0 = g.add_vertex(UncertainVertex {
            alternatives: vec![
                LabelAlternative { label: t.intern("NBA_Player"), prob: 0.6 },
                LabelAlternative { label: t.intern("Professor"), prob: 0.3 },
                LabelAlternative { label: t.intern("Actor"), prob: 0.1 },
            ],
        });
        let v1 = g.add_vertex(UncertainVertex {
            alternatives: vec![
                LabelAlternative { label: t.intern("State"), prob: 0.7 },
                LabelAlternative { label: t.intern("City"), prob: 0.3 },
            ],
        });
        let v2 = g.add_certain_vertex(t.intern("?x"));
        let v3 = g.add_certain_vertex(t.intern("City"));
        g.add_edge(v2, v0, t.intern("spouse"));
        g.add_edge(v0, v3, t.intern("birthPlace"));
        g.add_edge(v3, v1, t.intern("locatedIn"));
        g
    }

    #[test]
    fn world_count_saturates_instead_of_wrapping() {
        // 2^130 worlds: a wrapping product would land on 0 (128 factors
        // of 2 zero out every u128 bit); saturation must clamp at MAX.
        let mut t = SymbolTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        let mut g = UncertainGraph::new();
        for _ in 0..130 {
            g.add_vertex(UncertainVertex {
                alternatives: vec![
                    LabelAlternative { label: a, prob: 0.5 },
                    LabelAlternative { label: b, prob: 0.5 },
                ],
            });
        }
        assert_eq!(g.world_count(), u128::MAX, "count must saturate, not wrap");
        assert!(g.world_count_saturated());
        // Any graph that actually fits in u128 reports a faithful count.
        let mut small = UncertainGraph::new();
        small.add_certain_vertex(a);
        assert_eq!(small.world_count(), 1);
        assert!(!small.world_count_saturated());
    }

    #[test]
    fn world_count_and_enumeration() {
        let mut t = SymbolTable::new();
        let g = jordan_graph(&mut t);
        assert_eq!(g.world_count(), 6);
        let worlds: Vec<_> = g.possible_worlds().collect();
        assert_eq!(worlds.len(), 6);
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        assert!((total - 1.0).abs() < 1e-9, "probabilities must sum to 1, got {total}");
    }

    #[test]
    fn world_probability_is_product() {
        let mut t = SymbolTable::new();
        let g = jordan_graph(&mut t);
        // Example 2 of the paper: the highest-probability world combines
        // the most likely labels: 0.6 * 0.7 = 0.42.
        let best = g.possible_worlds().map(|w| w.prob).fold(f64::MIN, f64::max);
        assert!((best - 0.42).abs() < 1e-9);
    }

    #[test]
    fn materialized_world_keeps_structure() {
        let mut t = SymbolTable::new();
        let g = jordan_graph(&mut t);
        let w = g.possible_worlds().next().unwrap();
        assert_eq!(w.graph.vertex_count(), g.vertex_count());
        assert_eq!(w.graph.edge_count(), g.edge_count());
        assert_eq!(w.choice, vec![0, 0, 0, 0]);
    }

    #[test]
    fn from_certain_roundtrip() {
        let mut t = SymbolTable::new();
        let mut g = Graph::new();
        let a = g.add_vertex(t.intern("A"));
        let b = g.add_vertex(t.intern("B"));
        g.add_edge(a, b, t.intern("p"));
        let u = UncertainGraph::from_certain(&g);
        assert_eq!(u.world_count(), 1);
        let w = u.possible_worlds().next().unwrap();
        assert_eq!(w.graph, g);
        assert!((w.prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn world_choices_matches_possible_worlds() {
        let mut t = SymbolTable::new();
        let g = jordan_graph(&mut t);
        let mut cursor = g.world_choices();
        let mut count = 0;
        for world in g.possible_worlds() {
            let (choice, prob) = cursor.next_world().expect("same world count");
            assert_eq!(choice, world.choice.as_slice());
            assert_eq!(prob.to_bits(), world.prob.to_bits(), "identical float product");
            count += 1;
        }
        assert!(cursor.next_world().is_none());
        assert_eq!(count, 6);
        // Zero-vertex graphs have zero worlds through both APIs.
        let empty = UncertainGraph::new();
        assert!(empty.world_choices().next_world().is_none());
        assert_eq!(empty.possible_worlds().count(), 0);
    }

    #[test]
    #[should_panic(expected = "label mass exceeds 1")]
    fn rejects_overweight_vertex() {
        let mut t = SymbolTable::new();
        let mut g = UncertainGraph::new();
        g.add_vertex(UncertainVertex {
            alternatives: vec![
                LabelAlternative { label: t.intern("A"), prob: 0.8 },
                LabelAlternative { label: t.intern("B"), prob: 0.4 },
            ],
        });
    }
}
