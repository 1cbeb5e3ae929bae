//! Bit-identity pins for the lattice-aware refinement evaluator.
//!
//! [`EvalContext::error_of`] must produce *exactly* the same
//! [`ErrorStats`] — every field, every `f64` bit — as the cold
//! `GroupCounts::build` path ([`Evaluator::error_of`]), across metrics,
//! early-exit on/off, counting thread counts and both key widths; and the searches must return identical outcomes with
//! refinement on and off. Lattice nodes are sized over the memoized
//! partitions too ([`EvalContext::child_size_bounded`]), which must agree
//! with the cold [`label_size_bounded`] scan on every node and leave every
//! search's walk unchanged. The top-down search's depth-first walk, on
//! any thread count, must match a BFS of the paper's Algorithm 1 whose
//! nodes are sized by that cold scan ([`ColdWalks::top_down`]).
//!
//! The walk's seeded soak over thousands of generated datasets is ignored
//! by default:
//!
//! ```text
//! cargo test --release -p pclabel-core --test search_refine -- --ignored
//! ```

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::{label_size, label_size_bounded, KeyCodec};
use pclabel_core::error::ErrorMetric;
use pclabel_core::lattice::{gen, Combinations};
use pclabel_core::pattern::Pattern;
use pclabel_core::patterns::PatternSet;
use pclabel_core::search::refine::Partition;
use pclabel_core::search::{
    naive_search, naive_search_limited, top_down_search, EvalContext, Evaluator, NaiveLimits,
    SearchOptions, SearchOutcome,
};
use pclabel_data::dataset::{Dataset, DatasetBuilder, MISSING};
use pclabel_data::error::Result;
use pclabel_data::generate::{
    bluenile, compas, correlated_pair, creditcard, figure2_sample, functional_chain,
    BlueNileConfig, CompasConfig, CreditCardConfig,
};
use pclabel_data::partition::{dense_slots, RefineScratch};

/// Small random dataset with optional missing cells (mirrors the core
/// proptests' generator).
fn arb_dataset_missing() -> impl Strategy<Value = Dataset> {
    (2usize..=4, 1usize..=40, 1u32..=3).prop_flat_map(|(n_attrs, n_rows, dom)| {
        proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.85, 0..dom), n_attrs),
            n_rows,
        )
        .prop_map(move |rows| {
            let names: Vec<String> = (0..n_attrs).map(|i| format!("a{i}")).collect();
            let mut b = DatasetBuilder::new(&names);
            let full: Vec<String> = (0..dom).map(|v| format!("v{v}")).collect();
            b.push_row(
                &full[..1]
                    .iter()
                    .cycle()
                    .take(n_attrs)
                    .cloned()
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            for row in rows {
                let fields: Vec<Option<String>> =
                    row.iter().map(|c| c.map(|v| format!("v{v}"))).collect();
                b.push_row_opt(&fields).unwrap();
            }
            b.finish()
        })
    })
}

/// Asserts the refinement context and the cold build agree bit-for-bit on
/// every subset of the schema, for both early-exit settings, against an
/// evaluator counting on the given thread count.
fn assert_paths_identical(d: &Dataset, ps: &PatternSet, threads: usize) {
    let ev = Evaluator::new(d, ps).with_count_threads(threads);
    let mut ctx = ev.context();
    for bits in 0..(1u64 << d.n_attrs().min(4)) {
        let attrs = AttrSet::from_bits(bits);
        for early in [false, true] {
            let cold = ev.error_of(attrs, early);
            let warm = ctx.error_of(attrs, early);
            assert_eq!(
                cold, warm,
                "paths diverged: attrs {attrs} early {early} threads {threads}"
            );
        }
    }
}

/// `d` with one more dictionary value per attribute that no row holds,
/// and an explicit pattern set over it: a pattern on that value (count 0)
/// followed by the first `partial` rows restricted to varying non-empty
/// subsets (marginals over `K ⊊ S` for most labels `S`).
fn with_explicit_patterns(d: &Dataset, partial: usize) -> (Dataset, PatternSet) {
    let n = d.n_attrs();
    let domains: Vec<Vec<String>> = (0..n)
        .map(|a| {
            let card = d.schema().attr(a).unwrap().cardinality() as u32;
            (0..card)
                .map(|v| d.label_of(a, v).to_string())
                .chain(["unseen".to_string()])
                .collect()
        })
        .collect();
    let names: Vec<String> = (0..n).map(|a| format!("a{a}")).collect();
    let mut b = DatasetBuilder::with_domains(
        names
            .iter()
            .zip(&domains)
            .map(|(name, values)| (name.as_str(), values.iter().map(String::as_str))),
    );
    for r in 0..d.n_rows() {
        b.push_ids(&d.row_to_vec(r)).unwrap();
    }
    let d = b.finish();
    let full = (1u64 << n) - 1;
    let unseen = domains[n - 1].len() as u32 - 1;
    let mut patterns = vec![Pattern::from_terms([(0, 0), (n - 1, unseen)])];
    patterns.extend(
        (0..d.n_rows().min(partial)).map(|r| {
            Pattern::from_row(&d, r).restrict(AttrSet::from_bits((r as u64 * 5 + 1) & full))
        }),
    );
    (d, PatternSet::Explicit(patterns))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Refinement vs cold build: bit-identical `ErrorStats` (all fields,
    /// hence all metrics) on random datasets with missing cells, across
    /// the cold path's counting thread counts.
    #[test]
    fn refinement_identical_to_cold_build(
        d in arb_dataset_missing(),
        threads in 1usize..=3,
    ) {
        assert_paths_identical(&d, &PatternSet::AllTuples, threads);
    }

    /// The same identity holds for restricted pattern sets, where the
    /// pattern rows are a passive suffix of the refinement universe and
    /// the marginal-coarsening path is exercised.
    #[test]
    fn refinement_identical_on_over_attrs_patterns(
        d in arb_dataset_missing(),
        bits in any::<u64>(),
    ) {
        let over = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        if over.is_empty() {
            return;
        }
        assert_paths_identical(&d, &PatternSet::OverAttrs(over), 1);
    }

    /// And for explicit pattern sets holding a pattern absent from the
    /// data and partially defined patterns, on both sides of the
    /// bitmap-priced scan prefix.
    #[test]
    fn refinement_identical_on_explicit_patterns(
        d in arb_dataset_missing(),
        partial in 0usize..=12,
    ) {
        let (d, ps) = with_explicit_patterns(&d, partial);
        assert_paths_identical(&d, &ps, 1);
    }

    /// Top-down and budgeted naive searches return identical outcomes
    /// with refinement on and off, under every metric; the top-down walk,
    /// on one to three threads, matches the cold-sized BFS oracle, and
    /// both naive walks match the cold-sized level-wise oracle.
    #[test]
    fn searches_identical_with_refinement_on_and_off(
        d in arb_dataset_missing(),
        bound in 1u64..40,
        metric_id in 0usize..4,
    ) {
        let metric = [
            ErrorMetric::MaxAbsolute,
            ErrorMetric::MeanAbsolute,
            ErrorMetric::MaxQ,
            ErrorMetric::MeanQ,
        ][metric_id];
        let on = SearchOptions::with_bound(bound).metric(metric);
        let off = on.clone().refine(false);
        let (t_on, t_off) =
            (top_down_search(&d, &on).unwrap(), top_down_search(&d, &off).unwrap());
        prop_assert_eq!(t_on.best_attrs, t_off.best_attrs);
        prop_assert_eq!(t_on.best_stats, t_off.best_stats);
        let ev = Evaluator::new(&d, &on.patterns);
        let mut cold = ColdWalks::new(&ev, &on);
        let oracle = cold.top_down();
        prop_assert_eq!(&Walk::of(&t_off), &oracle);
        for threads in 1..=3 {
            let walk = top_down_search(&d, &on.clone().threads(threads)).unwrap();
            prop_assert_eq!(&Walk::of(&walk), &oracle, "threads {}", threads);
            prop_assert_eq!(walk.best_stats, t_off.best_stats);
        }
        let limits = NaiveLimits {
            max_nodes: Some(PROPTEST_NAIVE_NODES),
        };
        let (n_on, n_off) = (
            naive_search_limited(&d, &on, limits).unwrap(),
            naive_search_limited(&d, &off, limits).unwrap(),
        );
        // The oracle pins both walks' winners, candidates and counters.
        let naive_oracle = cold.naive(PROPTEST_NAIVE_NODES);
        prop_assert_eq!(&Walk::of(&n_on), &naive_oracle);
        prop_assert_eq!(&Walk::of(&n_off), &naive_oracle);
        prop_assert_eq!(n_on.best_stats, n_off.best_stats);
    }

    /// Sizing a lattice node over its parent's memoized partition gives
    /// the cold scan's answer on every node and every parent of it, at
    /// the tightest bound that fits and one below, under each kind of
    /// pattern set (whose rows join the partitions as a passive suffix),
    /// with all-missing rows in play.
    #[test]
    fn child_sizing_matches_label_size_bounded(
        d in arb_dataset_missing(),
        all_missing_row in any::<bool>(),
        over_bits in any::<u64>(),
    ) {
        let mut d = d;
        if all_missing_row {
            d.push_row_ids(&vec![MISSING; d.n_attrs()]).unwrap();
        }
        let n = d.n_attrs();
        let full = (1u64 << n) - 1;
        let over = AttrSet::from_bits((over_bits & full).max(1));
        let explicit: Vec<Pattern> = (0..d.n_rows())
            .map(|r| Pattern::from_row(&d, r).restrict(AttrSet::from_bits((r as u64 + 1) & full)))
            .collect();
        for ps in [PatternSet::AllTuples, PatternSet::OverAttrs(over), PatternSet::Explicit(explicit)] {
            let ev = Evaluator::new(&d, &ps);
            let mut ctx = ev.context();
            for bits in 1..=full {
                let attrs = AttrSet::from_bits(bits);
                let exact = label_size(&d, attrs);
                for attr in attrs.iter() {
                    let parent = attrs.remove(attr);
                    prop_assert_eq!(ctx.child_size_bounded(parent, attr, exact), Some(exact));
                    prop_assert_eq!(label_size_bounded(&d, attrs, exact), Some(exact));
                    if exact > 0 {
                        prop_assert_eq!(ctx.child_size_bounded(parent, attr, exact - 1), None);
                        prop_assert_eq!(label_size_bounded(&d, attrs, exact - 1), None);
                    }
                }
            }
        }
    }
}

/// What a search's walk decides: the winner, the candidates, and the
/// walk's counters.
#[derive(Debug, Default, PartialEq)]
struct Walk {
    best: AttrSet,
    candidates: Vec<AttrSet>,
    nodes_examined: u64,
    candidates_evaluated: u64,
    truncated: bool,
}

impl Walk {
    fn of(out: &SearchOutcome) -> Walk {
        Walk {
            best: out.best_attrs.unwrap(),
            candidates: out.candidates.clone(),
            nodes_examined: out.stats.nodes_examined,
            candidates_evaluated: out.stats.candidates_evaluated,
            truncated: out.stats.truncated,
        }
    }
}

/// Node budget for the naive walks: unbounded, the naive search sizes
/// over a million subsets of the Credit-Card schema at bound 100. This
/// budget covers the pair and triple levels of every schema here.
const NAIVE_MAX_NODES: u64 = 3_000;

/// Node budget for the proptest's naive walks: a four-attribute lattice
/// has six pairs and four triples, so larger schemas stop inside the
/// triple level and smaller ones run to completion.
const PROPTEST_NAIVE_NODES: u64 = 8;

/// The search's candidate arg-min: smallest metric, ties to fewer
/// attributes then the smaller bitmask; the empty label when nothing fits.
fn argmin(cands: &[AttrSet], errors: &[f64]) -> AttrSet {
    cands
        .iter()
        .zip(errors)
        .min_by(|(a, ea), (b, eb)| {
            ea.total_cmp(eb)
                .then_with(|| (a.len(), a.bits()).cmp(&(b.len(), b.bits())))
        })
        .map_or(AttrSet::EMPTY, |(&s, _)| s)
}

/// Reference walks of the two searches, every node sized by a cold
/// [`label_size_bounded`] scan of the distinct table (once per node
/// across the walks). Errors come from one refinement context, pinned
/// bit-identical to the cold build by the tests above.
struct ColdWalks<'a> {
    distinct: Dataset,
    fits: HashMap<AttrSet, bool>,
    ctx: EvalContext<'a>,
    opts: &'a SearchOptions,
    n: usize,
}

impl<'a> ColdWalks<'a> {
    fn new(ev: &'a Evaluator, opts: &'a SearchOptions) -> Self {
        ColdWalks {
            distinct: ev.compressed().0.clone(),
            fits: HashMap::new(),
            ctx: ev.context(),
            opts,
            n: ev.n_attrs(),
        }
    }

    fn fits(&mut self, attrs: AttrSet) -> bool {
        let (distinct, bound) = (&self.distinct, self.opts.bound);
        *self
            .fits
            .entry(attrs)
            .or_insert_with(|| label_size_bounded(distinct, attrs, bound).is_some())
    }

    fn error(&mut self, attrs: AttrSet) -> f64 {
        let early = self.opts.early_exit && self.opts.metric.supports_early_exit();
        self.opts.metric.of(&self.ctx.error_of(attrs, early))
    }

    fn top_down(&mut self) -> Walk {
        let mut nodes_examined = 0;
        let mut queue = VecDeque::from([AttrSet::EMPTY]);
        let mut cands: Vec<AttrSet> = Vec::new();
        while let Some(curr) = queue.pop_front() {
            for child in gen(curr, self.n) {
                nodes_examined += 1;
                if self.fits(child) {
                    queue.push_back(child);
                    if child.len() >= 2 {
                        cands.retain(|c| !child.parents().any(|p| p == *c));
                        cands.push(child);
                    }
                }
            }
        }
        cands.sort_by_key(|s| (s.len(), s.bits()));
        let errors: Vec<f64> = cands.iter().map(|&s| self.error(s)).collect();
        Walk {
            best: argmin(&cands, &errors),
            candidates_evaluated: cands.len() as u64,
            candidates: cands,
            nodes_examined,
            ..Walk::default()
        }
    }

    fn naive(&mut self, max_nodes: u64) -> Walk {
        let mut nodes_examined = 0;
        let (mut cands, mut errors) = (Vec::new(), Vec::new());
        let mut truncated = false;
        'levels: for k in 2..=self.n {
            let mut any_fit = false;
            for s in Combinations::new(self.n, k) {
                if nodes_examined >= max_nodes {
                    truncated = true;
                    break 'levels;
                }
                nodes_examined += 1;
                if self.fits(s) {
                    any_fit = true;
                    cands.push(s);
                    errors.push(self.error(s));
                }
            }
            if !any_fit {
                break;
            }
        }
        Walk {
            best: argmin(&cands, &errors),
            candidates_evaluated: cands.len() as u64,
            candidates: cands,
            nodes_examined,
            truncated,
        }
    }
}

/// Each search's winner, candidates (in the order it reports them) and
/// counters on `d` equal those of the same walk sized by the cold scan,
/// at the paper's bounds.
fn assert_walks_match_cold_sizing(d: &Dataset) {
    for bound in [50u64, 100] {
        let opts = SearchOptions::with_bound(bound);
        let ev = Evaluator::new(d, &opts.patterns);
        let mut cold = ColdWalks::new(&ev, &opts);
        let name = d.name();
        assert_eq!(
            Walk::of(&top_down_search(d, &opts).unwrap()),
            cold.top_down(),
            "top-down {name} bound {bound}"
        );
        let limits = NaiveLimits {
            max_nodes: Some(NAIVE_MAX_NODES),
        };
        assert_eq!(
            Walk::of(&naive_search_limited(d, &opts, limits).unwrap()),
            cold.naive(NAIVE_MAX_NODES),
            "naive {name} bound {bound}"
        );
    }
}

#[test]
fn bluenile_walks_match_cold_sizing() {
    let cfg = BlueNileConfig {
        n_rows: 2000,
        seed: 3,
    };
    assert_walks_match_cold_sizing(&bluenile(&cfg).unwrap());
}

#[test]
fn compas_walks_match_cold_sizing() {
    let cfg = CompasConfig {
        n_rows: 4000,
        seed: 5,
    };
    assert_walks_match_cold_sizing(&compas(&cfg).unwrap());
}

#[test]
fn creditcard_walks_match_cold_sizing() {
    let cfg = CreditCardConfig {
        n_rows: 8000,
        seed: 7,
    };
    assert_walks_match_cold_sizing(&creditcard(&cfg).unwrap());
}

#[test]
fn unbounded_search_sizes_wide_children_by_hashing() {
    // `refine.rs`'s hash-fallback data: sizing {hi, hi2} over {hi}'s 998
    // groups (997 values and missing) by hi2's 991 codes would need ~990k
    // dense slots, far past the budget of max(4 × 2002 rows, 2^16), so the
    // pass must hash — an unbounded label bound must not size the scratch
    // space. One row misses `hi` (a partial pattern the label counts),
    // one misses both (the empty pattern it does not).
    let n = 2000usize;
    let mut b = DatasetBuilder::new(["hi", "hi2"]);
    for r in 0..n {
        b.push_row(&[format!("v{}", r % 997), format!("w{}", (r * 7) % 991)])
            .unwrap();
    }
    b.push_row_opt(&[None, Some("w0")]).unwrap();
    b.push_row_opt(&[None::<&str>, None]).unwrap();
    let d = b.finish();
    let pair = AttrSet::full(2);
    let exact = label_size(&d, pair);
    assert_eq!(exact, 2001);

    let weights = vec![1u64; d.n_rows()];
    let hi = Partition::unit(d.n_rows(), d.n_rows() as u64).refine(
        d.column(0),
        997,
        &weights,
        &mut RefineScratch::default(),
    );
    assert_eq!(hi.n_groups(), 998);
    assert_eq!(dense_slots(hi.n_groups(), 991, d.n_rows()), None);
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    let mut ctx = ev.context();
    for bound in [u64::MAX, exact, exact - 1] {
        assert_eq!(
            ctx.child_size_bounded(AttrSet::singleton(0), 1, bound),
            label_size_bounded(&d, pair, bound),
            "bound {bound}"
        );
    }

    type Search = fn(&Dataset, &SearchOptions) -> Result<SearchOutcome>;
    let searches: [(Search, u64); 2] = [(top_down_search, 3), (naive_search, 1)];
    for (search, nodes) in searches {
        let out = search(&d, &SearchOptions::with_bound(u64::MAX)).unwrap();
        assert!(out.candidates.contains(&pair), "{:?}", out.candidates);
        assert_eq!(out.stats.nodes_examined, nodes);
    }
}

#[test]
fn key_width_boundary_64_bits_is_identical() {
    // 8 attributes × cardinality 255 = exactly 64 packed key bits on the
    // cold path; the refinement path never packs keys but must agree.
    let domains: Vec<Vec<String>> = (0..8)
        .map(|_| (0..255).map(|v| format!("v{v}")).collect())
        .collect();
    let mut b = DatasetBuilder::with_domains(
        ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"]
            .iter()
            .zip(&domains)
            .map(|(n, d)| (*n, d.iter().map(|s| s.as_str()))),
    );
    b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 200]).unwrap();
    b.push_ids(&[MISSING, 254, 7, 100, 254, 0, 31, 200])
        .unwrap();
    b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 100]).unwrap();
    let d = b.finish();
    assert_eq!(KeyCodec::new(&d, AttrSet::full(8)).total_bits(), 64);
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    let mut ctx = ev.context();
    for bits in [0u64, 1, 0b11, 0b1011, 0xFF] {
        let attrs = AttrSet::from_bits(bits);
        for early in [false, true] {
            assert_eq!(ev.error_of(attrs, early), ctx.error_of(attrs, early));
        }
    }
}

#[test]
fn key_width_boundary_65_bits_is_identical() {
    // One more binary attribute pushes the cold path onto wide (boxed)
    // keys; the refinement path is key-width-oblivious and must agree.
    let mut domains: Vec<Vec<String>> = (0..8)
        .map(|_| (0..255).map(|v| format!("v{v}")).collect())
        .collect();
    domains.push(vec!["y".into(), "n".into()]);
    let names: Vec<String> = (0..9).map(|i| format!("a{i}")).collect();
    let mut b = DatasetBuilder::with_domains(
        names
            .iter()
            .zip(&domains)
            .map(|(n, d)| (n.as_str(), d.iter().map(|s| s.as_str()))),
    );
    b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 200, 0]).unwrap();
    b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 200, 1]).unwrap();
    b.push_ids(&[3, 11, 7, 100, 254, 0, 31, 200, 1]).unwrap();
    b.push_ids(&[MISSING, 11, 7, 100, 254, 0, 31, 200, 1])
        .unwrap();
    let d = b.finish();
    assert!(!KeyCodec::new(&d, AttrSet::full(9)).fits_u64());
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    let mut ctx = ev.context();
    for bits in [0u64, 1, 0b101, 0x1FF, 0x100, 0b110000011] {
        let attrs = AttrSet::from_bits(bits);
        for early in [false, true] {
            assert_eq!(ev.error_of(attrs, early), ctx.error_of(attrs, early));
        }
    }
}

#[test]
fn topdown_and_naive_regression_on_generators() {
    // The acceptance regression: identical best_attrs/best_stats with
    // refinement on and off on the bench generators and Figure 2.
    let datasets = vec![
        figure2_sample(),
        correlated_pair(6, 3000, 0.4, 9).unwrap(),
        functional_chain(5, 4, 1500, 8).unwrap(),
    ];
    for d in &datasets {
        for bound in [4u64, 20, 100] {
            let on = SearchOptions::with_bound(bound);
            let off = on.clone().refine(false);
            let (t_on, t_off) = (
                top_down_search(d, &on).unwrap(),
                top_down_search(d, &off).unwrap(),
            );
            assert_eq!(t_on.best_attrs, t_off.best_attrs, "topdown bound {bound}");
            assert_eq!(t_on.best_stats, t_off.best_stats, "topdown bound {bound}");
            assert_eq!(t_on.candidates, t_off.candidates);
            let (n_on, n_off) = (
                naive_search(d, &on).unwrap(),
                naive_search(d, &off).unwrap(),
            );
            assert_eq!(n_on.best_attrs, n_off.best_attrs, "naive bound {bound}");
            assert_eq!(n_on.best_stats, n_off.best_stats, "naive bound {bound}");
        }
    }
}

#[test]
fn parallel_evaluate_many_identical_with_refinement() {
    // Each parallel run starts from a fresh evaluator, so its workers race
    // to build the shared scan-prefix bitmaps on first use.
    let d = correlated_pair(8, 4000, 0.5, 21).unwrap();
    let cands = vec![
        AttrSet::EMPTY,
        AttrSet::from_indices([0]),
        AttrSet::from_indices([1]),
        AttrSet::from_indices([0, 1]),
    ];
    for metric in [ErrorMetric::MaxAbsolute, ErrorMetric::MeanQ] {
        let base = SearchOptions::with_bound(100).metric(metric);
        let seq = Evaluator::new(&d, &PatternSet::AllTuples).evaluate_many(&cands, &base);
        for threads in [2usize, 4] {
            let ev = Evaluator::new(&d, &PatternSet::AllTuples);
            let par = ev.evaluate_many(&cands, &base.clone().threads(threads));
            assert_eq!(seq, par, "{metric} threads {threads}");
            let cold = ev.evaluate_many(&cands, &base.clone().threads(threads).refine(false));
            assert_eq!(seq, cold, "{metric} cold threads {threads}");
        }
    }
}

/// A random dataset of 2–8 attributes and up to a few hundred rows, with
/// missing cells and domains of one to six values.
fn random_dataset(rng: &mut StdRng) -> Dataset {
    let n_attrs = rng.gen_range(2usize..=8);
    let n_rows = rng.gen_range(1usize..=300);
    let missing = rng.gen_range(0.0..0.3);
    let domains: Vec<u32> = (0..n_attrs).map(|_| rng.gen_range(1u32..=6)).collect();
    let names: Vec<String> = (0..n_attrs).map(|a| format!("a{a}")).collect();
    let mut b = DatasetBuilder::new(&names);
    for _ in 0..n_rows {
        let row: Vec<Option<String>> = domains
            .iter()
            .map(|&dom| (!rng.gen_bool(missing)).then(|| format!("v{}", rng.gen_range(0..dom))))
            .collect();
        b.push_row_opt(&row).unwrap();
    }
    b.finish()
}

/// The top-down walk on one to four threads against the cold-sized BFS
/// oracle, over `cases` seeded random datasets and bounds.
fn walk_soak(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let d = random_dataset(&mut rng);
        let opts = SearchOptions::with_bound(rng.gen_range(1u64..=120));
        let ev = Evaluator::new(&d, &opts.patterns);
        let oracle = ColdWalks::new(&ev, &opts).top_down();
        let mut best_stats = None;
        for threads in 1..=4 {
            let out = top_down_search(&d, &opts.clone().threads(threads)).unwrap();
            assert_eq!(
                Walk::of(&out),
                oracle,
                "case {case}: {} attrs, {} rows, bound {}, threads {threads}",
                d.n_attrs(),
                d.n_rows(),
                opts.bound
            );
            let stats = out.best_stats.unwrap();
            assert_eq!(*best_stats.get_or_insert(stats), stats, "case {case}");
        }
    }
}

#[test]
fn walk_matches_cold_bfs_on_random_datasets() {
    walk_soak(1, 200);
}

#[test]
#[ignore = "soak: several thousand datasets, run in release mode"]
fn walk_matches_cold_bfs_soak() {
    walk_soak(2, 5_000);
}
