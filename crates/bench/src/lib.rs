//! # pclabel-bench
//!
//! The experiment harness reproducing every table and figure of
//! *"Patterns Count-Based Labels for Datasets"* (§IV), plus the engine
//! and search benchmark binaries.
//!
//! * `cargo run -p pclabel-bench --release --bin repro -- all` regenerates
//!   every artifact (Figures 1, 4–10, Table I, the Appendix-A reduction
//!   check) as text tables;
//! * `engine_bench`, `microbench_counting` and `microbench_search` time
//!   the serving engine, the counting build and the label search, each
//!   printing one JSON report; `bench_trend` compares two such reports.
//!
//! Environment knobs: `PCLABEL_SCALE` (shrink dataset rows for quick
//! runs), `PCLABEL_NAIVE_LIMIT` (naive-search node budget standing in for
//! the paper's 30-minute timeout).

#![warn(missing_docs)]

pub mod datasets;
pub mod figures;
pub mod sweep;
