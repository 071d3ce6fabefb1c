//! Certain (deterministic) labeled directed graphs.
//!
//! These model SPARQL basic graph patterns: each vertex carries exactly one
//! label (an entity, class or variable) and each directed edge carries a
//! predicate label. Multi-edges between the same ordered vertex pair are
//! allowed (a SPARQL query may constrain the same pair with several
//! predicates).

use crate::interner::Symbol;

/// Index of a vertex within one graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed labeled edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge (predicate) label.
    pub label: Symbol,
}

/// A certain labeled directed multigraph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Graph {
    labels: Vec<Symbol>,
    edges: Vec<Edge>,
    /// `out[v]` / `in_[v]`: indexes into `edges`.
    out: Vec<Vec<u32>>,
    in_: Vec<Vec<u32>>,
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a vertex with the given label; returns its id.
    pub fn add_vertex(&mut self, label: Symbol) -> VertexId {
        let id = u32::try_from(self.labels.len()).expect("too many vertices");
        self.labels.push(label);
        self.out.push(Vec::new());
        self.in_.push(Vec::new());
        VertexId(id)
    }

    /// Add a directed edge. Endpoints must already exist.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, label: Symbol) {
        assert!(src.index() < self.labels.len(), "src out of range");
        assert!(dst.index() < self.labels.len(), "dst out of range");
        let idx = u32::try_from(self.edges.len()).expect("too many edges");
        self.edges.push(Edge { src, dst, label });
        self.out[src.index()].push(idx);
        self.in_[dst.index()].push(idx);
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Symbol {
        self.labels[v.index()]
    }

    /// Replace the label of vertex `v` (used when materializing possible
    /// worlds and when slotting templates).
    pub fn set_label(&mut self, v: VertexId, label: Symbol) {
        self.labels[v.index()] = label;
    }

    /// All vertex labels, indexed by vertex.
    #[inline]
    pub fn vertex_labels(&self) -> &[Symbol] {
        &self.labels
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.labels.len() as u32).map(VertexId)
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = &Edge> + '_ {
        self.out[v.index()].iter().map(move |&i| &self.edges[i as usize])
    }

    /// Incoming edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = &Edge> + '_ {
        self.in_[v.index()].iter().map(move |&i| &self.edges[i as usize])
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out[v.index()].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_[v.index()].len()
    }

    /// Total degree (in + out) of `v` — the degree notion used by the
    /// degree-distance bound (Def. 9 of the paper).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Total degrees of all vertices, sorted in non-increasing order
    /// (the sorted degree sequence of Def. 9).
    pub fn sorted_degrees(&self) -> Vec<u32> {
        let mut d: Vec<u32> =
            (0..self.labels.len() as u32).map(|v| self.degree(VertexId(v)) as u32).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }

    /// Labels of edges between the ordered pair `(src, dst)`.
    pub fn edge_labels_between(&self, src: VertexId, dst: VertexId) -> Vec<Symbol> {
        self.out[src.index()]
            .iter()
            .map(|&i| &self.edges[i as usize])
            .filter(|e| e.dst == dst)
            .map(|e| e.label)
            .collect()
    }

    /// Multiset of all edge labels, sorted.
    pub fn edge_label_multiset(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.edges.iter().map(|e| e.label).collect();
        v.sort_unstable();
        v
    }

    /// Multiset of all vertex labels, sorted.
    pub fn vertex_label_multiset(&self) -> Vec<Symbol> {
        let mut v = self.labels.clone();
        v.sort_unstable();
        v
    }

    /// `|V| + |E|` — the "size" of the graph as used in Lemma 1.
    #[inline]
    pub fn size(&self) -> usize {
        self.vertex_count() + self.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::SymbolTable;

    fn toy() -> (SymbolTable, Graph) {
        let mut t = SymbolTable::new();
        let mut g = Graph::new();
        let a = g.add_vertex(t.intern("?x"));
        let b = g.add_vertex(t.intern("Actor"));
        let c = g.add_vertex(t.intern("USA"));
        g.add_edge(a, b, t.intern("type"));
        g.add_edge(a, c, t.intern("birthPlace"));
        (t, g)
    }

    #[test]
    fn basic_accounting() {
        let (_, g) = toy();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.size(), 5);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(1)), 1);
        assert_eq!(g.sorted_degrees(), vec![2, 1, 1]);
    }

    #[test]
    fn edge_queries() {
        let (mut t, g) = toy();
        let ty = t.intern("type");
        assert_eq!(g.edge_labels_between(VertexId(0), VertexId(1)), vec![ty]);
        assert!(g.edge_labels_between(VertexId(1), VertexId(0)).is_empty());
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.in_degree(VertexId(1)), 1);
    }

    #[test]
    fn multi_edges_are_kept() {
        let mut t = SymbolTable::new();
        let mut g = Graph::new();
        let a = g.add_vertex(t.intern("?x"));
        let b = g.add_vertex(t.intern("?y"));
        g.add_edge(a, b, t.intern("p"));
        g.add_edge(a, b, t.intern("q"));
        assert_eq!(g.edge_labels_between(a, b).len(), 2);
        assert_eq!(g.degree(a), 2);
    }
}
