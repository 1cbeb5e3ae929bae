//! The batched query API.
//!
//! A [`QueryRequest`] asks one stored dataset for the counts of many
//! patterns at once. Per pattern the planner picks the cheapest sound
//! answer:
//!
//! 1. **cache** — a previous answer for the identical pattern (per-entry
//!    sharded cache, invalidated on label refresh);
//! 2. **exact** — when `Attr(p) ⊆ S`, the stored `PC` group map answers
//!    exactly (paper §III-A: estimation is exact within the label's
//!    subset), via `Label::count_of_projection`;
//! 3. **estimate** — otherwise the paper's estimation function
//!    `Label::estimate` (Def. 2.11).
//!
//! Large batches are chunked across `std::thread::scope` workers, which
//! resolve patterns and compute answers; the calling thread then probes
//! and fills the cache in batch order, so a chunked batch answers, and
//! leaves the cache, exactly as a one-thread batch does. The whole batch
//! answers against one label snapshot (`Arc<Label>`), so a concurrent
//! refresh never mixes generations within a response.

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
    /// Whether the answer came from the cache.
    pub cached: bool,
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
    /// Answers served from the pattern cache.
    pub cache_hits: u64,
    /// Patterns that missed the cache.
    pub cache_misses: u64,
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

/// Batches smaller than this stay on the calling thread.
const PARALLEL_BATCH_THRESHOLD: usize = 256;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Worker threads for batches of at least 256 patterns; `0` =
    /// available parallelism.
    pub query_threads: usize,
}

impl EngineConfig {
    fn resolve_threads(&self, batch: usize) -> usize {
        if batch < PARALLEL_BATCH_THRESHOLD {
            return 1;
        }
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        let configured = if self.query_threads == 0 {
            hw
        } else {
            self.query_threads
        };
        configured.min(batch).max(1)
    }
}

/// The serving engine: a [`LabelStore`] plus batch execution.
#[derive(Debug, Default)]
pub struct Engine {
    store: Arc<LabelStore>,
    config: EngineConfig,
    durability: std::sync::OnceLock<Arc<crate::durability::Durability>>,
}

impl Engine {
    /// Creates an engine with the given tuning.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            store: Arc::new(LabelStore::new()),
            config,
            durability: std::sync::OnceLock::new(),
        }
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
    /// The whole batch — estimation *and* cache writes — runs inside
    /// [`StoreEntry::with_snapshot`], so the response's results,
    /// generation and `label_attrs` all describe the same dataset/label
    /// version, and a concurrent refresh or append can never leave
    /// stale estimates behind in the cache.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, EngineError> {
        self.execute_traced(request, None)
    }

    /// [`Engine::execute`] with an optional request trace: records the
    /// wait for the entry's snapshot lock and the accumulated
    /// pattern-cache probe time.
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
        let mut rest = terms;
        let patterns: Vec<&[(&str, &str)]> = lens
            .into_iter()
            .map(|n| {
                let (pattern, tail) = rest.split_at(n);
                rest = tail;
                pattern
            })
            .collect();
        let entry = self.store.get(dataset)?;
        let threads = self.config.resolve_threads(patterns.len());

        let lock_start = std::time::Instant::now();
        let response = entry.with_snapshot(|data, label, generation| {
            if let Some(trace) = trace {
                trace.add_phase(Phase::StoreWait, lock_start.elapsed());
            }
            let resolve =
                |terms: &&[(&str, &str)]| Pattern::parse(data, terms).map_err(|e| e.to_string());
            let finish = |resolved: Result<(Pattern, Option<Answer>), String>| match resolved {
                Ok((pattern, answer)) => answer_cached(&entry, label, pattern, answer, trace),
                Err(error) => PatternEstimate {
                    estimate: 0.0,
                    exact: false,
                    cached: false,
                    error: Some(error),
                },
            };
            let results: Vec<PatternEstimate> = if threads <= 1 {
                patterns
                    .iter()
                    .map(|terms| finish(resolve(terms).map(|pattern| (pattern, None))))
                    .collect()
            } else {
                // Workers only read the label; the cache is probed and
                // filled here, in batch order, so which occurrence of a
                // repeated pattern is the cached one does not depend on
                // scheduling.
                let chunk = patterns.len().div_ceil(threads);
                let resolved: Vec<_> = std::thread::scope(|scope| {
                    let handles: Vec<_> = patterns
                        .chunks(chunk)
                        .map(|part| {
                            scope.spawn(move || {
                                let answer = |p: Pattern| {
                                    let answer = Answer::of(label, &p);
                                    (p, Some(answer))
                                };
                                part.iter()
                                    .map(|terms| resolve(terms).map(answer))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("query worker panicked"))
                        .collect()
                });
                resolved.into_iter().map(finish).collect()
            };

            let mut stats = QueryStats::default();
            for r in &results {
                if r.error.is_some() {
                    stats.failed += 1;
                } else if r.cached {
                    stats.cache_hits += 1;
                } else {
                    stats.cache_misses += 1;
                    if r.exact {
                        stats.exact += 1;
                    } else {
                        stats.estimated += 1;
                    }
                }
            }

            QueryResponse {
                id: None,
                dataset: dataset.to_string(),
                n_rows: label.n_rows(),
                label_attrs: StoreEntry::attr_names(label),
                generation,
                results,
                stats,
            }
        });
        Ok(response)
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

/// A resolved pattern's answer from the label snapshot, before the cache
/// is consulted.
struct Answer {
    estimate: f64,
    exact: bool,
    /// The `PC` count shard the answer was read from, when it was read
    /// from a single group (`Attr(p) = S`).
    count_shard: Option<u32>,
}

impl Answer {
    fn of(label: &Label, pattern: &Pattern) -> Answer {
        let (estimate, exact) = label_answer(label, pattern);
        let count_shard = label.count_shard_of(pattern).map(|s| s as u32);
        Answer {
            estimate,
            exact,
            count_shard,
        }
    }
}

/// Answers one resolved pattern from the cache, or else from `answer`
/// (computed here when `None`) and caches it. Must run inside
/// [`StoreEntry::with_snapshot`] — the cache insert below is only sound
/// while the entry's read lock pins the label the answer came from.
///
/// Answers whose value is read from a single `PC` group (`Attr(p) = S`)
/// are cached pinned to that group's count shard, so they survive
/// appends that do not touch the shard; every other answer depends on
/// marginals, `VC` fractions or `|D|` and is cached unpinned (dropped by
/// any append).
fn answer_cached(
    entry: &StoreEntry,
    label: &Label,
    pattern: Pattern,
    answer: Option<Answer>,
    trace: Option<&Trace>,
) -> PatternEstimate {
    let probe_start = trace.map(|_| std::time::Instant::now());
    let cached = entry.cache().get(&pattern);
    if let (Some(trace), Some(start)) = (trace, probe_start) {
        trace.add_phase(Phase::CacheLookup, start.elapsed());
    }
    if let Some(estimate) = cached {
        let exact = pattern.attrs().is_subset_of(label.attrs());
        return PatternEstimate {
            estimate,
            exact,
            cached: true,
            error: None,
        };
    }
    let answer = answer.unwrap_or_else(|| Answer::of(label, &pattern));
    entry
        .cache()
        .insert_tagged(pattern, answer.estimate, answer.count_shard);
    PatternEstimate {
        estimate: answer.estimate,
        exact: answer.exact,
        cached: false,
        error: None,
    }
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
        let engine = Engine::new(EngineConfig::default());
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
    fn repeat_batch_hits_cache() {
        let engine = engine_with_census();
        let request = QueryRequest {
            id: None,
            dataset: "census".into(),
            patterns: vec![PatternSpec::new([("gender", "Female")])],
        };
        let first = engine.execute(&request).unwrap();
        assert_eq!(first.stats.cache_misses, 1);
        let second = engine.execute(&request).unwrap();
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(first.results[0].estimate, second.results[0].estimate);
        assert!(second.results[0].cached);
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
        let engine = Engine::new(EngineConfig::default());
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

    #[test]
    fn chunked_batch_answers_and_caches_like_one_thread() {
        // 300 patterns cycling 16 distinct ones, above the default
        // parallel threshold, so 3 query threads chunk the batch: every
        // non-empty combination of four terms (inside, across and outside
        // S = {age group, marital status}) and one unknown value. Every
        // repeat of a resolvable pattern is a cache hit on one thread,
        // whatever the workers' timing.
        let terms = [
            ("gender", "Female"),
            ("age group", "20-39"),
            ("marital status", "married"),
            ("race", "Hispanic"),
        ];
        let mut distinct: Vec<PatternSpec> = (1..16u32)
            .map(|mask| PatternSpec {
                terms: (0..4)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| (terms[i].0.to_string(), terms[i].1.to_string()))
                    .collect(),
            })
            .collect();
        distinct.push(PatternSpec::new([("gender", "Other")]));
        let request = QueryRequest {
            id: None,
            dataset: "census".into(),
            patterns: distinct.iter().cycle().take(300).cloned().collect(),
        };
        let run = |query_threads: usize| {
            let engine = Engine::new(EngineConfig { query_threads });
            engine
                .store()
                .register("census", figure2_sample(), search_policy(5))
                .unwrap();
            let batches: Vec<_> = (0..2)
                .map(|_| {
                    let response = engine.execute(&request).unwrap();
                    (response.results, response.stats)
                })
                .collect();
            let entry = engine.store().get("census").unwrap();
            let stats = entry.cache().stats();
            (batches, stats.hits(), stats.misses(), entry.cache().len())
        };
        let one = run(1);
        assert_eq!(one.0[0].1.failed, 18);
        assert_eq!(one.0[0].1.cache_misses, 15);
        assert_eq!(one.0[1].1.cache_hits, 300 - 18);
        for _ in 0..50 {
            assert_eq!(run(3), one);
        }
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let engine = |query_threads| {
            let engine = Engine::new(EngineConfig { query_threads });
            engine
                .store()
                .register("census", figure2_sample(), search_policy(5))
                .unwrap();
            engine
        };
        let (sequential, parallel) = (engine(1), engine(4));

        // Every full row of figure 2, repeated past the chunking threshold.
        let d = figure2_sample();
        let mut patterns = Vec::new();
        for r in (0..d.n_rows())
            .cycle()
            .take(PARALLEL_BATCH_THRESHOLD + d.n_rows())
        {
            let spec = PatternSpec {
                terms: (0..d.n_attrs())
                    .map(|a| {
                        let name = d.schema().attr(a).unwrap().name().to_string();
                        let value = d.label_of(a, d.value_raw(r, a)).to_string();
                        (name, value)
                    })
                    .collect(),
            };
            patterns.push(spec);
        }
        assert_eq!(
            EngineConfig { query_threads: 4 }.resolve_threads(patterns.len()),
            4
        );
        let request = QueryRequest {
            id: None,
            dataset: "census".into(),
            patterns,
        };
        let a = sequential.execute(&request).unwrap();
        let b = parallel.execute(&request).unwrap();
        let ea: Vec<f64> = a.results.iter().map(|r| r.estimate).collect();
        let eb: Vec<f64> = b.results.iter().map(|r| r.estimate).collect();
        assert_eq!(ea, eb);
    }
}
