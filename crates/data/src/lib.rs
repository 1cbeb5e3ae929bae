//! # pclabel-data
//!
//! Dataset substrate for the `pclabel` workspace — the reproduction of
//! *"Patterns Count-Based Labels for Datasets"* (Moskovitch & Jagadish,
//! ICDE 2021).
//!
//! The paper operates on a single relational table of categorical
//! attributes. This crate provides everything needed to obtain such a
//! table:
//!
//! * [`dataset::Dataset`] — a columnar, dictionary-encoded categorical
//!   relation with missing-value support;
//! * [`partition`] — the one pass that groups rows by one more column,
//!   behind [`Dataset::compress`](dataset::Dataset::compress) and every
//!   grouping of the label search;
//! * [`csv`] — a dependency-free RFC 4180 reader/writer;
//! * [`bucketize`] — numeric-to-categorical binning (the paper's
//!   preprocessing for Credit Card and COMPAS age);
//! * [`generate`] — synthetic stand-ins for the paper's three evaluation
//!   datasets plus parametric generators for tests and benchmarks;
//! * [`sample`] — uniform row sampling used by the baseline estimators.
//!
//! ```
//! use pclabel_data::prelude::*;
//!
//! let mut b = DatasetBuilder::new(["gender", "race"]);
//! b.push_row(&["Female", "Hispanic"]).unwrap();
//! b.push_row(&["Male", "Caucasian"]).unwrap();
//! let dataset = b.finish();
//! assert_eq!(dataset.n_rows(), 2);
//! ```

#![warn(missing_docs)]

pub mod bucketize;
mod column;
pub mod csv;
pub mod dataset;
pub mod dictionary;
pub mod error;
pub mod generate;
pub mod hash;
pub mod mem;
pub mod partition;
pub mod sample;
pub mod schema;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bucketize::{bucketize_attr, bucketize_attrs, BucketStrategy, NonNumericPolicy};
    pub use crate::csv::{
        read_dataset_from_path, read_dataset_from_str, write_csv, CsvOptions, CsvWriteOptions,
    };
    pub use crate::dataset::{Dataset, DatasetBuilder, MISSING};
    pub use crate::dictionary::Dictionary;
    pub use crate::error::{DataError, Result};
    pub use crate::generate;
    pub use crate::mem::HeapBytes;
    pub use crate::sample::{sample_dataset, sample_indices};
    pub use crate::schema::{Attribute, Schema};
}
