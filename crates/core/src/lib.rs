//! # pclabel-core
//!
//! The primary contribution of *"Patterns Count-Based Labels for Datasets"*
//! (Moskovitch & Jagadish, ICDE 2021): pattern count-based labels (PCBL),
//! the estimation function that answers any pattern-count query from a
//! label, and the optimal-label search algorithms.
//!
//! ## Paper → module map
//!
//! | Paper | Module |
//! |---|---|
//! | Def. 2.1–2.3 patterns, counts | [`pattern`] |
//! | Def. 2.9 labels (`VC` + `PC`) | [`label`], [`counting`] |
//! | Def. 2.11 estimation function | [`label::Label::estimate`] |
//! | Def. 2.13 + §IV-B error metrics | [`error`] |
//! | Def. 2.15 pattern sets `P` | [`patterns`] |
//! | Theorem 2.17 NP-hardness | [`reduction`] |
//! | Def. 3.4–3.5 lattice, `gen` | [`lattice`] |
//! | §III naive algorithm | [`search::naive_search`] |
//! | Algorithm 1 top-down heuristic | [`search::top_down_search`] |
//! | §IV-C early-exit error scan | [`search::Evaluator`] |
//! | §II-C multi-label future work | [`multi`] |
//!
//! ## Quick start
//!
//! ```
//! use pclabel_core::prelude::*;
//! use pclabel_data::generate::figure2_sample;
//!
//! let dataset = figure2_sample();
//! let outcome = top_down_search(&dataset, &SearchOptions::with_bound(5)).unwrap();
//! let label = outcome.best_label().unwrap();
//!
//! // Estimate the count of married 20-39-year-old females (Example 2.12).
//! let p = Pattern::parse(&dataset, &[
//!     ("gender", "Female"),
//!     ("age group", "20-39"),
//!     ("marital status", "married"),
//! ]).unwrap();
//! assert_eq!(label.estimate(&p), 3.0);
//! ```

#![warn(missing_docs)]

pub mod attrset;
pub mod counting;
pub mod error;
pub use pclabel_data::hash;
pub mod label;
pub mod lattice;
pub mod multi;
pub mod pattern;
pub mod patterns;
pub mod reduction;
pub mod search;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::attrset::AttrSet;
    pub use crate::counting::{label_size, GroupCounts};
    pub use crate::error::{absolute_error, q_error, ErrorMetric, ErrorStats};
    pub use crate::label::{Label, ValueCounts};
    pub use crate::multi::{CombineStrategy, MultiLabel};
    pub use crate::pattern::Pattern;
    pub use crate::patterns::PatternSet;
    pub use crate::reduction::{reduce_vertex_cover, Graph, ReductionInstance};
    pub use crate::search::{
        naive_search, top_down_search, Evaluator, SearchOptions, SearchOutcome, SearchStats,
    };
}
