//! The NP-hardness construction (paper Theorem 2.17, Appendix A).
//!
//! The decision version of the optimal-label problem is NP-hard by
//! reduction from Vertex Cover. This module makes the construction
//! executable: given a graph it builds the reduction database (whose tuples
//! are defined on only 2–3 attributes — the reason the whole workspace
//! supports missing values), the pattern set `P`, and the size-bound
//! schedule `B_s(k)`, so tests can machine-check the equivalence
//! *"G has a vertex cover of size ≤ k ⟺ some label of size ≤ B_s(k) has
//! zero error on P"* on concrete instances.
//!
//! ## Two reproduction findings
//!
//! Implementing the appendix verbatim surfaced two issues, both verified
//! computationally by this module's tests:
//!
//! 1. **The published construction is flawed.** In each edge block the
//!    endpoint values are uniform over all four `(x_p, x_q)` combinations,
//!    so the label `L_{A_E}` *alone* estimates every pattern of `P`
//!    exactly: `c_D({A_E = e_r}) · ½ · ½ = 4|E|/4 = |E| = c_D(p_r)`. The
//!    proof of Lemma A.5 misses this sub-case (its "otherwise" branch
//!    assumes the anchor count is `|D|`), so zero-error labels exist even
//!    when no small vertex cover does. [`reduce_vertex_cover`] builds the
//!    verbatim construction; [`reduce_vertex_cover_repaired`] skews the
//!    edge blocks (`(x1,x1):|E|, (x1,x2):|E|, (x2,x1):|E|, (x2,x2):3|E|`,
//!    with the edge-pair diagonal shifted by `|E|` to keep every vertex
//!    marginal at ½) so that anchoring on `A_E` alone is off by `|E|/2`
//!    while anchoring on `A_E` plus either endpoint remains exact —
//!    restoring the intended equivalence, which the tests then verify
//!    exhaustively. The repair does not change *which* patterns occur,
//!    only their multiplicities, so Lemma A.8's size arithmetic is
//!    unaffected.
//! 2. **Label size is counted differently in the appendix.** Definition
//!    2.9 counts full patterns over `S`, but Lemma A.8's arithmetic counts
//!    the distinct partial projections with **at least two** defined
//!    attributes (single-attribute projections duplicate `VC` entries and
//!    are not charged). [`appendix_label_size`] implements that
//!    convention; the general engine keeps the main-text semantics.

use pclabel_data::dataset::{Dataset, DatasetBuilder, MISSING};
use pclabel_data::error::{DataError, Result};

use crate::attrset::AttrSet;
use crate::counting::GroupCounts;
use crate::pattern::Pattern;

/// A simple undirected graph for the Vertex Cover side of the reduction.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Creates a graph on vertices `0..n` with the given undirected edges.
    /// Matching the paper's Theorem A.2 preconditions: at least two
    /// vertices, at least one edge, no self-loops (duplicates are merged).
    pub fn new(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        if n < 2 {
            return Err(DataError::Invalid(
                "graph needs at least two vertices".into(),
            ));
        }
        let mut norm: Vec<(usize, usize)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if a == b {
                return Err(DataError::Invalid(format!("self loop at vertex {a}")));
            }
            if a >= n || b >= n {
                return Err(DataError::Invalid(format!("edge ({a},{b}) out of range")));
            }
            let e = (a.min(b), a.max(b));
            if !norm.contains(&e) {
                norm.push(e);
            }
        }
        if norm.is_empty() {
            return Err(DataError::Invalid("graph needs at least one edge".into()));
        }
        Ok(Self { n, edges: norm })
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Normalized edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Whether `cover` (a set of vertex indices) covers every edge.
    pub fn is_vertex_cover(&self, cover: &[usize]) -> bool {
        self.edges
            .iter()
            .all(|&(a, b)| cover.contains(&a) || cover.contains(&b))
    }

    /// Brute-force: does a vertex cover of size ≤ `k` exist? (Exponential;
    /// for the small instances used in tests.)
    pub fn has_cover_of_size(&self, k: usize) -> bool {
        assert!(self.n <= 20, "brute-force cover check is for small graphs");
        let k = k.min(self.n);
        (0u32..(1u32 << self.n))
            .filter(|m| m.count_ones() as usize <= k)
            .any(|m| {
                let cover: Vec<usize> = (0..self.n).filter(|&i| (m >> i) & 1 == 1).collect();
                self.is_vertex_cover(&cover)
            })
    }
}

/// The output of the reduction: a database, a pattern set, and the bound
/// schedule.
pub struct ReductionInstance {
    /// The constructed database. Attributes `0..n` are the vertex
    /// attributes `A_1..A_n` (domain `{x1, x2}`); attribute `n` is `A_E`
    /// (domain `{e_1..e_m}`). Tuples use missing values exactly as in
    /// Figure 12 of the paper.
    pub dataset: Dataset,
    /// The pattern set `P`: `{A_E = e_r, A_i = x1, A_j = x1}` per edge.
    pub patterns: Vec<Pattern>,
    n_vertices: usize,
    n_edges: usize,
}

impl ReductionInstance {
    /// Index of the edge attribute `A_E`.
    pub fn edge_attr(&self) -> usize {
        self.n_vertices
    }

    /// Index of the attribute for vertex `v`.
    pub fn vertex_attr(&self, v: usize) -> usize {
        debug_assert!(v < self.n_vertices);
        v
    }

    /// The size bound `B_s(k) = 2·|E| + 4·Σ_{i=1}^{k-1} i` from the
    /// reduction (to be checked against [`appendix_label_size`]).
    pub fn size_bound(&self, k: usize) -> u64 {
        let sum: u64 = (1..k as u64).sum();
        2 * self.n_edges as u64 + 4 * sum
    }

    /// The attribute set corresponding to a vertex subset plus `A_E`.
    pub fn label_attrs_for_cover(&self, cover: &[usize]) -> AttrSet {
        let mut s = AttrSet::singleton(self.edge_attr());
        for &v in cover {
            s = s.insert(self.vertex_attr(v));
        }
        s
    }
}

/// Per-block multiplicities, parameterized so the verbatim and repaired
/// constructions share the builder.
struct BlockWeights {
    /// Edge-block count for each `(p, q)` combination, indexed `[p][q]`.
    edge: [[usize; 2]; 2],
    /// Edge-pair-block counts for `(x1, x1)` and `(x2, x2)`.
    pair_edge: [usize; 2],
    /// Non-edge-pair-block count for each `(p, q)`.
    pair_non_edge: usize,
}

fn build(graph: &Graph, w: &BlockWeights) -> Result<ReductionInstance> {
    let n = graph.n_vertices();
    let m = graph.edges().len();
    if n + 1 > crate::attrset::MAX_ATTRS {
        return Err(DataError::Invalid("too many vertices for AttrSet".into()));
    }

    let vertex_names: Vec<String> = (1..=n).map(|i| format!("V{i}")).collect();
    let edge_values: Vec<String> = (1..=m).map(|r| format!("e{r}")).collect();
    let mut domains: Vec<(&str, Vec<&str>)> = vertex_names
        .iter()
        .map(|name| (name.as_str(), vec!["x1", "x2"]))
        .collect();
    domains.push(("AE", edge_values.iter().map(String::as_str).collect()));

    let mut b = DatasetBuilder::with_domains(domains);
    let width = n + 1;
    let mut row = vec![MISSING; width];

    // Edge tuples: for e_r = {v_i, v_j}, `w.edge[p][q]` copies of
    // (A_i = x_p, A_j = x_q, A_E = e_r).
    for (r, &(i, j)) in graph.edges().iter().enumerate() {
        for p in 0..2u32 {
            for q in 0..2u32 {
                row.iter_mut().for_each(|c| *c = MISSING);
                row[i] = p;
                row[j] = q;
                row[n] = r as u32;
                for _ in 0..w.edge[p as usize][q as usize] {
                    b.push_ids(&row)?;
                }
            }
        }
    }

    // Pair tuples for every unordered vertex pair.
    for i in 0..n {
        for j in (i + 1)..n {
            let is_edge = graph.edges().contains(&(i, j));
            if is_edge {
                for p in 0..2u32 {
                    row.iter_mut().for_each(|c| *c = MISSING);
                    row[i] = p;
                    row[j] = p;
                    for _ in 0..w.pair_edge[p as usize] {
                        b.push_ids(&row)?;
                    }
                }
            } else {
                for p in 0..2u32 {
                    for q in 0..2u32 {
                        row.iter_mut().for_each(|c| *c = MISSING);
                        row[i] = p;
                        row[j] = q;
                        for _ in 0..w.pair_non_edge {
                            b.push_ids(&row)?;
                        }
                    }
                }
            }
        }
    }

    let dataset = b.finish().with_name("vc-reduction");
    let patterns: Vec<Pattern> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(r, &(i, j))| Pattern::from_terms([(i, 0u32), (j, 0u32), (n, r as u32)]))
        .collect();

    Ok(ReductionInstance {
        dataset,
        patterns,
        n_vertices: n,
        n_edges: m,
    })
}

/// Builds the reduction database of Appendix A **verbatim**.
///
/// Note: as documented at module level (and demonstrated by the
/// `paper_construction_flaw_*` tests), this published construction does
/// *not* establish the intended equivalence — the label over `{A_E}` alone
/// already has zero error. Use [`reduce_vertex_cover_repaired`] for a
/// working instance.
pub fn reduce_vertex_cover(graph: &Graph) -> Result<ReductionInstance> {
    let m = graph.edges().len();
    build(
        graph,
        &BlockWeights {
            edge: [[m, m], [m, m]],
            pair_edge: [2 * m * m, 2 * m * m],
            pair_non_edge: m,
        },
    )
}

/// Builds a **repaired** reduction instance for which the Appendix-A
/// equivalence actually holds (see the module docs for the fix). Every
/// block multiplicity stays positive, so the pattern sets — and hence
/// Lemma A.8's size arithmetic — are identical to the verbatim
/// construction.
pub fn reduce_vertex_cover_repaired(graph: &Graph) -> Result<ReductionInstance> {
    let m = graph.edges().len();
    build(
        graph,
        &BlockWeights {
            // Skewed edge block: anchoring on A_E alone now estimates
            // (6m/4) = 1.5m ≠ m, while (a+b)/2 = m keeps the
            // A_E-plus-endpoint anchor exact.
            edge: [[m, m], [m, 3 * m]],
            // Each endpoint sees a 2m surplus of x2 inside its edge block;
            // shifting the pair-block diagonal by δ = m moves that
            // endpoint's x1 − x2 balance by +2m, restoring the 1/2–1/2
            // split (2m² − m > 0 for every m ≥ 1).
            pair_edge: [2 * m * m + m, 2 * m * m - m],
            pair_non_edge: m,
        },
    )
}

/// The label-size convention used implicitly by Lemma A.8: the number of
/// distinct partial projections onto `attrs` with **at least two** defined
/// attributes. (Single-attribute projections duplicate `VC` entries; the
/// main text's Definition 2.9, implemented by
/// [`crate::counting::label_size`], counts every non-empty projection
/// instead.)
pub fn appendix_label_size(dataset: &Dataset, attrs: AttrSet) -> u64 {
    GroupCounts::build(dataset, None, attrs)
        .0
        .iter()
        .filter(|(values, _)| values.iter().filter(|&&v| v != MISSING).count() >= 2)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    /// The 3-vertex path from the paper's Example A.3 / Figure 11:
    /// e1 = {v1, v2}, e2 = {v2, v3}.
    fn paper_example() -> Graph {
        Graph::new(3, &[(0, 1), (1, 2)]).unwrap()
    }

    /// Max error of the label over `s` on the instance's pattern set.
    fn max_error(inst: &ReductionInstance, s: AttrSet) -> f64 {
        let label = Label::build(&inst.dataset, s);
        inst.patterns
            .iter()
            .map(|p| (p.count_in(&inst.dataset) as f64 - label.estimate(p)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn graph_validation() {
        assert!(Graph::new(1, &[]).is_err());
        assert!(Graph::new(3, &[]).is_err());
        assert!(Graph::new(3, &[(0, 0)]).is_err());
        assert!(Graph::new(3, &[(0, 5)]).is_err());
        let g = Graph::new(3, &[(0, 1), (1, 0), (1, 2)]).unwrap();
        assert_eq!(g.edges().len(), 2); // duplicate merged
    }

    #[test]
    fn cover_checks() {
        let g = paper_example();
        assert!(g.is_vertex_cover(&[1]));
        assert!(!g.is_vertex_cover(&[0]));
        assert!(g.has_cover_of_size(1));
        let triangle = Graph::new(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert!(!triangle.has_cover_of_size(1));
        assert!(triangle.has_cover_of_size(2));
    }

    #[test]
    fn example_a3_database_shape() {
        // Figure 12: per edge 4 tuple shapes × |E| copies; edge pairs
        // contribute 2 shapes × 2|E|²; the non-edge pair {v1, v3}
        // contributes 4 shapes × |E|.
        let inst = reduce_vertex_cover(&paper_example()).unwrap();
        let d = &inst.dataset;
        assert_eq!(d.n_attrs(), 4);
        let expected = 2 * (4 * 2) + 2 * (2 * 2 * 2 * 2) + 4 * 2;
        assert_eq!(d.n_rows(), expected);
        assert!(d.has_any_missing());
    }

    #[test]
    fn vc_fractions_match_lemma_in_both_constructions() {
        // Proof A.6: every vertex attribute splits 1/2–1/2 and every edge
        // value has uniform fraction 1/|E| — the repair must preserve this.
        let g = paper_example();
        for inst in [
            reduce_vertex_cover(&g).unwrap(),
            reduce_vertex_cover_repaired(&g).unwrap(),
        ] {
            let l = Label::build(&inst.dataset, AttrSet::EMPTY);
            let vc = l.value_counts();
            let m = g.edges().len() as f64;
            for v in 0..g.n_vertices() {
                assert!((vc.fraction(inst.vertex_attr(v), 0) - 0.5).abs() < 1e-12);
                assert!((vc.fraction(inst.vertex_attr(v), 1) - 0.5).abs() < 1e-12);
            }
            for r in 0..g.edges().len() {
                assert!((vc.fraction(inst.edge_attr(), r as u32) - 1.0 / m).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pattern_counts_are_e() {
        // c_D(p) = |E| for every pattern in P (proof A.6), in both
        // constructions (the repair keeps the (x1, x1) cell at |E|).
        let g = paper_example();
        for inst in [
            reduce_vertex_cover(&g).unwrap(),
            reduce_vertex_cover_repaired(&g).unwrap(),
        ] {
            for p in &inst.patterns {
                assert_eq!(p.count_in(&inst.dataset), g.edges().len() as u64);
            }
        }
    }

    #[test]
    fn paper_construction_flaw_ae_alone_is_exact() {
        // Reproduction finding #1: in the verbatim construction the label
        // over {A_E} already has zero error on P, because each edge block
        // is uniform over the four endpoint combinations:
        // Est = c({A_E=e_r})·½·½ = 4|E|/4 = |E| = c(p).
        let g = paper_example();
        let inst = reduce_vertex_cover(&g).unwrap();
        let s = AttrSet::singleton(inst.edge_attr());
        assert_eq!(max_error(&inst, s), 0.0);
        // The repaired construction removes this shortcut.
        let fixed = reduce_vertex_cover_repaired(&g).unwrap();
        let err = max_error(&fixed, s);
        assert!(err > 0.0);
        // Specifically 6|E|/4 − |E| = |E|/2 = 1.
        assert!((err - 1.0).abs() < 1e-9, "{err}");
    }

    #[test]
    fn paper_construction_breaks_equivalence_on_triangle() {
        // Triangle has no size-1 cover, yet the verbatim construction
        // admits a zero-error label within B_s(1) = 2|E| = 6:
        // S = {A_E} has appendix size 0 ≤ 6 and zero error.
        let g = Graph::new(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert!(!g.has_cover_of_size(1));
        let inst = reduce_vertex_cover(&g).unwrap();
        let s = AttrSet::singleton(inst.edge_attr());
        assert_eq!(max_error(&inst, s), 0.0);
        assert!(appendix_label_size(&inst.dataset, s) <= inst.size_bound(1));
    }

    #[test]
    fn repaired_lemma_a5_exact_iff_ae_plus_endpoint() {
        // Lemma A.5 (as intended), on the repaired instance: a pattern
        // p_r is estimated exactly iff A_E ∈ S and an endpoint of e_r ∈ S.
        let g = paper_example();
        let inst = reduce_vertex_cover_repaired(&g).unwrap();
        let n = g.n_vertices();
        for sbits in 0u64..(1 << (n + 1)) {
            let s = AttrSet::from_bits(sbits);
            let label = Label::build(&inst.dataset, s);
            for (r, p) in inst.patterns.iter().enumerate() {
                let (i, j) = g.edges()[r];
                let expect_exact = s.contains(inst.edge_attr())
                    && (s.contains(inst.vertex_attr(i)) || s.contains(inst.vertex_attr(j)));
                let err = (p.count_in(&inst.dataset) as f64 - label.estimate(p)).abs();
                if expect_exact {
                    assert!(err < 1e-9, "S={s} edge {r}: err {err}");
                } else {
                    assert!(err > 1e-9, "S={s} edge {r}: unexpectedly exact");
                }
            }
        }
    }

    #[test]
    fn label_size_matches_lemma_a8_in_appendix_semantics() {
        // |L_S(D)| = 2|E'| + 4·Σ_{i=1}^{k-1} i for S = {A_E} ∪ (k vertex
        // attributes), E' = edges incident to the chosen vertices — under
        // the appendix's ≥2-defined-attributes counting convention.
        // Identical in both constructions (same pattern sets).
        let g = Graph::new(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        for inst in [
            reduce_vertex_cover(&g).unwrap(),
            reduce_vertex_cover_repaired(&g).unwrap(),
        ] {
            for cover_bits in 0u32..(1 << 4) {
                let cover: Vec<usize> = (0..4).filter(|&i| (cover_bits >> i) & 1 == 1).collect();
                let k = cover.len();
                let e_prime = g
                    .edges()
                    .iter()
                    .filter(|&&(a, b)| cover.contains(&a) || cover.contains(&b))
                    .count() as u64;
                let expected = 2 * e_prime + 4 * (1..k as u64).sum::<u64>();
                let attrs = inst.label_attrs_for_cover(&cover);
                assert_eq!(
                    appendix_label_size(&inst.dataset, attrs),
                    expected,
                    "cover {cover:?}"
                );
            }
        }
    }

    #[test]
    fn size_bound_schedule() {
        let inst = reduce_vertex_cover(&paper_example()).unwrap();
        // B_s(k) = 2|E| + 4·Σ_{i<k} i with |E| = 2.
        assert_eq!(inst.size_bound(1), 4);
        assert_eq!(inst.size_bound(2), 8);
        assert_eq!(inst.size_bound(3), 16);
    }

    #[test]
    fn repaired_equivalence_on_small_graphs() {
        // The reduction's headline, on the repaired construction:
        // ∃ zero-error label of appendix-size ≤ B_s(k) ⟺ ∃ vertex cover of
        // size ≤ k. Verified by exhaustive enumeration of S.
        let graphs = vec![
            paper_example(),
            Graph::new(3, &[(0, 1), (1, 2), (0, 2)]).unwrap(), // triangle
            Graph::new(4, &[(0, 1), (2, 3)]).unwrap(),         // matching
            Graph::new(4, &[(0, 1), (0, 2), (0, 3)]).unwrap(), // star
            Graph::new(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap(), // path
        ];
        for g in graphs {
            let inst = reduce_vertex_cover_repaired(&g).unwrap();
            let n = g.n_vertices();
            for k in 1..n {
                let bound = inst.size_bound(k);
                let mut label_exists = false;
                'outer: for sbits in 0u64..(1 << (n + 1)) {
                    let s = AttrSet::from_bits(sbits);
                    if appendix_label_size(&inst.dataset, s) > bound {
                        continue;
                    }
                    if max_error(&inst, s) < 1e-9 {
                        label_exists = true;
                        break 'outer;
                    }
                }
                assert_eq!(
                    label_exists,
                    g.has_cover_of_size(k),
                    "graph {:?} k={k}",
                    g.edges()
                );
            }
        }
    }

    #[test]
    fn single_edge_graph_works_in_both_constructions() {
        let g = Graph::new(2, &[(0, 1)]).unwrap();
        assert!(reduce_vertex_cover(&g).is_ok());
        let inst = reduce_vertex_cover_repaired(&g).unwrap();
        // The only cover {v1} gives an exact label.
        let s = inst.label_attrs_for_cover(&[0]);
        assert_eq!(max_error(&inst, s), 0.0);
    }
}
