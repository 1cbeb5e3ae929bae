//! The batched query API.
//!
//! A [`QueryRequest`] asks one stored dataset for the counts of many
//! patterns at once. Per pattern the planner picks the cheapest sound
//! answer:
//!
//! 1. **exact** — when `Attr(p) ⊆ S`, the stored `PC` group map answers
//!    exactly (paper §III-A: estimation is exact within the label's
//!    subset), via `Label::count_of_projection`;
//! 2. **estimate** — otherwise the paper's estimation function
//!    `Label::estimate` (Def. 2.11).
//!
//! A batch takes one snapshot of the entry (`Arc<Dataset>`,
//! `Arc<Label>`) and answers its patterns in order, in one loop on the
//! calling thread, so a concurrent refresh or append never mixes
//! generations within a response, and never waits for a batch.

use std::sync::Arc;

use pclabel_core::label::Label;
use pclabel_core::pattern::Pattern;
use pclabel_telemetry::{Phase, Trace};

use crate::store::{EngineError, LabelStore, StoreEntry};

/// One pattern, as resolvable `(attribute name, value label)` terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSpec {
    /// Attribute-name → value-label assignments.
    pub terms: Vec<(String, String)>,
}

impl PatternSpec {
    /// Builds a spec from string pairs.
    pub fn new<const N: usize>(terms: [(&str, &str); N]) -> Self {
        PatternSpec {
            terms: terms
                .iter()
                .map(|&(a, v)| (a.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// A batch of pattern-count queries against one stored dataset.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Optional client correlation id, echoed in the response.
    pub id: Option<String>,
    /// Name the dataset was registered under.
    pub dataset: String,
    /// Patterns to estimate (one result each, same order).
    pub patterns: Vec<PatternSpec>,
}

/// Per-pattern answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternEstimate {
    /// The estimated (or exact) count; 0.0 when `error` is set.
    pub estimate: f64,
    /// Whether the answer is exact (`Attr(p) ⊆ S`).
    pub exact: bool,
    /// Per-pattern failure (unknown attribute/value), leaving the rest of
    /// the batch unaffected.
    pub error: Option<String>,
}

/// Batch-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Answers taken from the stored `PC` map (exact path).
    pub exact: u64,
    /// Answers computed by the estimation function.
    pub estimated: u64,
    /// Patterns that failed to resolve.
    pub failed: u64,
}

/// Response to a [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Echo of [`QueryRequest::id`].
    pub id: Option<String>,
    /// Echo of the dataset name.
    pub dataset: String,
    /// `|D|` of the answering dataset.
    pub n_rows: u64,
    /// Attribute names of the answering label's subset `S`.
    pub label_attrs: Vec<String>,
    /// Label generation the batch was answered with.
    pub generation: u64,
    /// One answer per requested pattern, in request order.
    pub results: Vec<PatternEstimate>,
    /// Batch counters.
    pub stats: QueryStats,
}

/// What [`Engine::new`] takes, and ignores: every batch runs on the
/// calling thread. Kept until ROADMAP item 1 ports the benchmark, which
/// still builds its engines this way; other callers use
/// [`Engine::default`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Accepted and ignored (see [`EngineConfig`]).
    pub query_threads: usize,
}

/// The serving engine: a [`LabelStore`] plus batch execution.
#[derive(Debug, Default)]
pub struct Engine {
    store: Arc<LabelStore>,
    durability: std::sync::OnceLock<Arc<crate::durability::Durability>>,
}

impl Engine {
    /// [`Engine::default`]: an engine over an empty store. `_config` is
    /// ignored (see [`EngineConfig`]).
    pub fn new(_config: EngineConfig) -> Self {
        Engine::default()
    }

    /// The underlying dataset/label registry.
    pub fn store(&self) -> &LabelStore {
        &self.store
    }

    /// A shareable handle to the registry (what
    /// [`crate::durability::Durability::open`] takes).
    pub fn store_arc(&self) -> Arc<LabelStore> {
        Arc::clone(&self.store)
    }

    /// Attaches an opened durability plane so transports can expose its
    /// stats. First attach wins; later calls are ignored.
    pub fn attach_durability(&self, durability: Arc<crate::durability::Durability>) {
        let _ = self.durability.set(durability);
    }

    /// The attached durability plane, if the process runs with one.
    pub fn durability(&self) -> Option<&Arc<crate::durability::Durability>> {
        self.durability.get()
    }

    /// Executes a batch. Fails only when the dataset itself is unknown;
    /// individual bad patterns are reported per-result.
    ///
    /// The whole batch answers against one [`StoreEntry::snapshot`], so
    /// the response's results, generation and `label_attrs` all
    /// describe the same dataset/label version.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, EngineError> {
        self.execute_traced(request, None)
    }

    /// [`Engine::execute`] with an optional request trace: records the
    /// wait for the entry's snapshot.
    pub fn execute_traced(
        &self,
        request: &QueryRequest,
        trace: Option<&Trace>,
    ) -> Result<QueryResponse, EngineError> {
        let terms: Vec<(&str, &str)> = request
            .patterns
            .iter()
            .flat_map(|spec| spec.terms.iter().map(|(a, v)| (a.as_str(), v.as_str())))
            .collect();
        let lens = request.patterns.iter().map(|spec| spec.terms.len());
        let mut response = self.execute_terms(&request.dataset, &terms, lens, trace)?;
        response.id = request.id.clone();
        Ok(response)
    }

    /// The batch core behind [`Engine::execute_traced`] and the typed
    /// `query` wire path: answers each pattern against one snapshot of
    /// `dataset`. The patterns' borrowed `(attribute name, value label)`
    /// terms lie back to back in `terms`, `lens` giving each pattern's
    /// term count in order. The response carries no id.
    pub(crate) fn execute_terms(
        &self,
        dataset: &str,
        terms: &[(&str, &str)],
        lens: impl IntoIterator<Item = usize>,
        trace: Option<&Trace>,
    ) -> Result<QueryResponse, EngineError> {
        let entry = self.store.get(dataset)?;
        let lock_start = std::time::Instant::now();
        let (data, label, generation) = entry.snapshot();
        if let Some(trace) = trace {
            trace.add_phase(Phase::StoreWait, lock_start.elapsed());
        }
        let mut stats = QueryStats::default();
        let mut rest = terms;
        let results = lens
            .into_iter()
            .map(|n| {
                let (pattern, tail) = rest.split_at(n);
                rest = tail;
                match Pattern::parse(&data, pattern) {
                    Ok(pattern) => {
                        let (estimate, exact) = label_answer(&label, &pattern);
                        if exact {
                            stats.exact += 1;
                        } else {
                            stats.estimated += 1;
                        }
                        PatternEstimate {
                            estimate,
                            exact,
                            error: None,
                        }
                    }
                    Err(e) => {
                        stats.failed += 1;
                        PatternEstimate {
                            estimate: 0.0,
                            exact: false,
                            error: Some(e.to_string()),
                        }
                    }
                }
            })
            .collect();
        Ok(QueryResponse {
            id: None,
            dataset: dataset.to_string(),
            n_rows: label.n_rows(),
            label_attrs: StoreEntry::attr_names(&label),
            generation,
            results,
            stats,
        })
    }
}

/// The planner's answer rule for one resolved pattern against a label
/// snapshot: **exact** `PC` projection when `Attr(p) ⊆ S` (paper
/// §III-A), the paper's estimation function otherwise. Returns
/// `(estimate, exact)`. Shared by single-dataset batches and the
/// `estimate_multi` dispatch path so the two can never diverge.
pub(crate) fn label_answer(label: &Label, pattern: &Pattern) -> (f64, bool) {
    let exact = pattern.attrs().is_subset_of(label.attrs());
    let estimate = if exact {
        label.count_of_projection(pattern) as f64
    } else {
        label.estimate(pattern)
    };
    (estimate, exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LabelPolicy;
    use pclabel_data::generate::figure2_sample;

    /// The default search policy (refinement on) at `bound`.
    fn search_policy(bound: u64) -> LabelPolicy {
        LabelPolicy::Search {
            bound,
            refine: true,
        }
    }

    fn engine_with_census() -> Engine {
        let engine = Engine::default();
        engine
            .store()
            .register("census", figure2_sample(), search_policy(5))
            .unwrap();
        engine
    }

    #[test]
    fn example_2_12_served_through_engine() {
        let engine = engine_with_census();
        let request = QueryRequest {
            id: Some("q1".into()),
            dataset: "census".into(),
            patterns: vec![
                // Outside S = {age group, marital status}: estimated, 3.0.
                PatternSpec::new([
                    ("gender", "Female"),
                    ("age group", "20-39"),
                    ("marital status", "married"),
                ]),
                // Within S: exact, 6.
                PatternSpec::new([("age group", "20-39"), ("marital status", "married")]),
                // Subset of S: exact marginal, 12.
                PatternSpec::new([("age group", "20-39")]),
            ],
        };
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.id.as_deref(), Some("q1"));
        assert_eq!(response.n_rows, 18);
        assert_eq!(response.label_attrs, vec!["age group", "marital status"]);
        assert_eq!(response.results[0].estimate, 3.0);
        assert!(!response.results[0].exact);
        assert_eq!(response.results[1].estimate, 6.0);
        assert!(response.results[1].exact);
        assert_eq!(response.results[2].estimate, 12.0);
        assert!(response.results[2].exact);
        assert_eq!(response.stats.exact, 2);
        assert_eq!(response.stats.estimated, 1);
        assert_eq!(response.stats.failed, 0);
    }

    #[test]
    fn bad_patterns_fail_individually() {
        let engine = engine_with_census();
        let request = QueryRequest {
            id: None,
            dataset: "census".into(),
            patterns: vec![
                PatternSpec::new([("no such attr", "x")]),
                PatternSpec::new([("gender", "no such value")]),
                PatternSpec::new([("gender", "Female")]),
            ],
        };
        let response = engine.execute(&request).unwrap();
        assert!(response.results[0].error.is_some());
        assert!(response.results[1].error.is_some());
        assert!(response.results[2].error.is_none());
        assert_eq!(response.results[2].estimate, 9.0);
        assert_eq!(response.stats.failed, 2);
    }

    #[test]
    fn unknown_dataset_fails_whole_batch() {
        let engine = Engine::default();
        let request = QueryRequest {
            id: None,
            dataset: "nope".into(),
            patterns: vec![],
        };
        assert!(matches!(
            engine.execute(&request),
            Err(EngineError::UnknownDataset(_))
        ));
    }
}
