//! # pclabel-engine
//!
//! The concurrent label-serving subsystem of the `pclabel` workspace:
//! where `pclabel-core` *computes* pattern count-based labels, this crate
//! *serves* them — a label is built once and then answers pattern-count
//! queries many times, which is exactly the profiling primitive
//! fitness-for-use and fairness audits need.
//!
//! ## Pieces
//!
//! * [`parallel`] — the counting thread policy: picks the worker count
//!   [`pclabel_core::counting::GroupCounts::build`] runs on from row
//!   count and available hardware;
//! * [`store`] — [`store::LabelStore`]: a registry of named datasets and
//!   their computed labels behind `Arc`/`RwLock`, supporting concurrent
//!   registration, lookup and label refresh (with generation counters);
//! * [`query`] — the batched query API: a [`query::QueryRequest`]
//!   estimates many patterns in one call; the planner answers **exactly**
//!   from the stored `PC` group map when the queried attributes are a
//!   subset of the label's `S`, and falls back to `Label::estimate`
//!   otherwise;
//! * [`cache`] — a sharded pattern→estimate cache with hit/miss counters,
//!   one per stored dataset, invalidated on label refresh;
//! * [`durability`] — the optional durability plane: crash recovery
//!   from snapshot + write-ahead-log replay, append-before-publish
//!   logging of every store mutation, and background snapshotting with
//!   WAL truncation (formats in the `pclabel-wal` crate, byte-level
//!   spec in `docs/ONDISK_FORMAT.md`);
//! * [`json`] — a dependency-free JSON reader/writer for the wire format;
//! * [`serve`] — the transport-agnostic [`serve::Dispatcher`] (request
//!   JSON in → response JSON out) plus the thin stdin/stdout driver
//!   behind the `pclabel-serve` binary. The `pclabel-net` crate mounts
//!   the same dispatcher behind a length-prefixed TCP protocol and an
//!   HTTP/1.1 adapter, so every transport answers identically.
//!
//! ## Quick start
//!
//! ```
//! use pclabel_engine::prelude::*;
//! use pclabel_data::generate::figure2_sample;
//!
//! let engine = Engine::new(EngineConfig::default());
//! engine
//!     .store()
//!     .register("census", figure2_sample(), LabelPolicy::Search { bound: 5, refine: true })
//!     .unwrap();
//!
//! let request = QueryRequest {
//!     id: Some("audit-1".into()),
//!     dataset: "census".into(),
//!     patterns: vec![PatternSpec::new([
//!         ("gender", "Female"),
//!         ("age group", "20-39"),
//!         ("marital status", "married"),
//!     ])],
//! };
//! let response = engine.execute(&request).unwrap();
//! assert_eq!(response.results[0].estimate, 3.0); // paper Example 2.12
//! ```
//!
//! ## `pclabel-serve`
//!
//! ```text
//! $ pclabel-serve < requests.jsonl > responses.jsonl
//! {"op":"register","dataset":"census","generator":"figure2","bound":5}
//! {"op":"query","dataset":"census","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"}]}
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod durability;
pub mod health;
pub mod json;
pub mod parallel;
pub mod query;
pub mod serve;
pub mod store;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::cache::{CacheStats, ShardedCache};
    pub use crate::durability::{Durability, DurabilityOptions, DurabilityStats, RecoveryReport};
    pub use crate::health::{Health, HealthSnapshot};
    pub use crate::parallel::auto_threads;
    pub use crate::query::{
        Engine, EngineConfig, PatternEstimate, PatternSpec, QueryRequest, QueryResponse, QueryStats,
    };
    pub use crate::serve::{Dispatcher, ServeSummary};
    pub use crate::store::{EngineError, LabelPolicy, LabelStore, StoreEntry};
}
