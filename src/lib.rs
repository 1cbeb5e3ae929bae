//! # pclabel — Patterns Count-Based Labels for Datasets
//!
//! Facade crate re-exporting the full `pclabel` workspace: a reproduction
//! of *"Patterns Count-Based Labels for Datasets"* (Moskovitch & Jagadish,
//! ICDE 2021).
//!
//! A *label* annotates a dataset with (a) the count of every individual
//! attribute value and (b) the counts of all value combinations over one
//! chosen attribute subset. From that limited information the library
//! estimates the count of **any** attribute-value combination ("pattern"),
//! which is the key profiling primitive for fitness-for-use and fairness
//! auditing.
//!
//! ```
//! use pclabel::data::generate::figure2_sample;
//! use pclabel::core::prelude::*;
//!
//! let dataset = figure2_sample();
//! // Search for the best label of size at most 5 (paper Example 3.7).
//! let outcome = top_down_search(&dataset, &SearchOptions::with_bound(5)).unwrap();
//! let label = outcome.best_label().unwrap();
//! assert!(label.pattern_count_size() <= 5);
//! ```
//!
//! ## Serving labels: the engine
//!
//! Labels are built once and then *served* many times. The [`engine`]
//! crate turns the library into a servable system: a
//! [`engine::store::LabelStore`] registers named datasets and their labels
//! behind `Arc`/`RwLock`; the batched query API
//! ([`engine::query::Engine::execute`]) answers many patterns per call,
//! in one loop over one label snapshot — exactly from the stored `PC`
//! group map whenever the queried attributes fall inside the label's
//! subset `S`, via `Label::estimate` otherwise; and every label's `PC` is
//! counted by the one counting entry point,
//! `GroupCounts::build(dataset, weights, attrs)`, in one serial scan.
//! Candidate evaluation during a search is lattice-aware by
//! default (`SearchOptions::refine`, the `EvalContext` partition
//! refinement/coarsening engine — bit-identical errors, several times
//! the candidates/sec of the per-candidate rebuild it replaces). The
//! `pclabel-serve` binary exposes all of it as a line-delimited JSON
//! loop over stdin/stdout:
//!
//! ```
//! use pclabel::engine::prelude::*;
//! use pclabel::data::generate::figure2_sample;
//!
//! let engine = Engine::default();
//! engine
//!     .store()
//!     .register("census", figure2_sample(), LabelPolicy::Search { bound: 5, refine: true })
//!     .unwrap();
//! let response = engine
//!     .execute(&QueryRequest {
//!         id: None,
//!         dataset: "census".into(),
//!         patterns: vec![PatternSpec::new([
//!             ("gender", "Female"),
//!             ("age group", "20-39"),
//!             ("marital status", "married"),
//!         ])],
//!     })
//!     .unwrap();
//! assert_eq!(response.results[0].estimate, 3.0); // paper Example 2.12
//! ```
//!
//! ```text
//! $ pclabel-serve < requests.jsonl > responses.jsonl
//! {"op":"register","dataset":"census","generator":"figure2","bound":5}
//! {"op":"query","dataset":"census","patterns":[{"age group":"20-39"}]}
//! ```

pub use pclabel_baselines as baselines;
pub use pclabel_core as core;
pub use pclabel_data as data;
pub use pclabel_engine as engine;
pub use pclabel_net as net;
pub use pclabel_report as report;
pub use pclabel_wal as wal;
