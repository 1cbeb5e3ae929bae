//! The label store: a concurrent registry of named datasets + labels.
//!
//! The paper's central economics are *build once, serve forever*: a label
//! is a small artifact computed from a dataset that afterwards answers any
//! pattern-count query. The [`LabelStore`] is the serving-side home for
//! those artifacts — datasets are registered under a name, their label is
//! computed according to a [`LabelPolicy`], and concurrent readers resolve
//! `name → (dataset, label, cache)` without blocking each other.
//!
//! Labels can be *refreshed* in place (e.g. after re-profiling with a
//! different size bound) and datasets *appended* to; every refresh or
//! append bumps the entry's generation counter and empties its estimate
//! cache, so stale cached answers can never be served.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::CountingProfile;
use pclabel_core::hash::FxHashMap;
use pclabel_core::label::Label;
use pclabel_core::search::{top_down_search, SearchOptions};
use pclabel_data::dataset::Dataset;
use pclabel_data::error::DataError;
use pclabel_data::mem::HeapBytes;
use pclabel_telemetry::{Phase, Trace};
use pclabel_wal::record::{DatasetImage, PolicyRepr, WalOp};

use crate::cache::ShardedCache;
use crate::durability::WalSink;
use crate::health::Health;

/// Errors surfaced by the engine layers.
#[derive(Debug)]
pub enum EngineError {
    /// No dataset registered under this name.
    UnknownDataset(String),
    /// A dataset with this name already exists (remove or refresh it).
    AlreadyRegistered(String),
    /// A malformed request (bad attribute name, empty batch, …).
    BadRequest(String),
    /// An underlying data/search error.
    Data(DataError),
    /// The durability plane failed (WAL append, fsync, snapshot or
    /// recovery). Mutations fail rather than run unlogged.
    Durability(String),
    /// The store is in read-only degraded mode: the disk is failing,
    /// queries keep serving, mutations are rejected until the probe
    /// thread restores read-write. Carries the root-cause reason.
    Degraded(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDataset(name) => write!(f, "unknown dataset {name:?}"),
            EngineError::AlreadyRegistered(name) => {
                write!(f, "dataset {name:?} is already registered")
            }
            EngineError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            EngineError::Data(e) => write!(f, "{e}"),
            EngineError::Durability(msg) => write!(f, "durability error: {msg}"),
            EngineError::Degraded(reason) => {
                write!(f, "store is read-only (degraded): {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DataError> for EngineError {
    fn from(e: DataError) -> Self {
        EngineError::Data(e)
    }
}

/// How a registered dataset's label is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelPolicy {
    /// Build `L_S` over exactly this attribute subset.
    Attrs(AttrSet),
    /// Run the top-down optimal-label search with size bound `B_s` and
    /// auto-sized parallelism. `refine: true` is the default tuning (the
    /// lattice-aware refinement evaluator); the wire-level
    /// `"refine": false` escape hatch forces the cold per-candidate
    /// rebuild (bit-identical results, ablation/debugging only).
    Search {
        /// The size bound `B_s` on `|PC|`.
        bound: u64,
        /// Use the refinement evaluator (see
        /// [`SearchOptions::refine`](pclabel_core::search::SearchOptions)).
        refine: bool,
    },
}

/// The policy's wire/WAL representation (engine-agnostic, defined in
/// `pclabel-wal` so the on-disk format does not depend on this crate).
pub(crate) fn policy_repr(policy: LabelPolicy) -> PolicyRepr {
    match policy {
        LabelPolicy::Attrs(attrs) => PolicyRepr::Attrs(attrs.iter().map(|a| a as u32).collect()),
        LabelPolicy::Search { bound, refine } => PolicyRepr::Search { bound, refine },
    }
}

/// The label's selected attribute indices as logged in WAL records and
/// snapshots.
pub(crate) fn sel_of(label: &Label) -> Vec<u32> {
    label.attrs().iter().map(|a| a as u32).collect()
}

/// What [`LabelStore::append_rows`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReport {
    /// Rows appended by this call.
    pub appended: usize,
    /// `|D|` after the append.
    pub total_rows: u64,
    /// The entry's new generation.
    pub generation: u64,
    /// `true` when the label was updated incrementally; `false` when a
    /// dictionary of the label's subset grew and the label was rebuilt
    /// in full.
    pub incremental: bool,
}

/// Per-component heap footprint of one store entry, in bytes. The
/// component names double as the `component` label values of the
/// `pclabel_dataset_bytes` Prometheus gauges, so the breakdown reads
/// the same in the `stats` op, `/debug/memory` and a scrape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryMemory {
    /// Dataset columns + schema (dictionaries included — the dataset is
    /// the schema's primary owner; the label shares it via `Arc`).
    pub dataset: u64,
    /// The label's `PC` group map.
    pub label_pc: u64,
    /// The label's `VC` value-count tables.
    pub label_vc: u64,
    /// Lazily-materialized marginal tables cached on the label.
    pub label_marginals: u64,
    /// The per-dataset pattern→estimate cache.
    pub cache: u64,
}

impl EntryMemory {
    /// Sum over all components.
    pub fn total(&self) -> u64 {
        self.dataset + self.label_pc + self.label_vc + self.label_marginals + self.cache
    }

    /// `(component, bytes)` pairs in a fixed, stable order.
    pub fn components(&self) -> [(&'static str, u64); 5] {
        [
            ("dataset", self.dataset),
            ("label_pc", self.label_pc),
            ("label_vc", self.label_vc),
            ("label_marginals", self.label_marginals),
            ("cache", self.cache),
        ]
    }
}

/// One consistent dataset/label/generation triple; the three always
/// travel together under one lock so readers can never observe a mixed
/// view (e.g. an appended dataset with the pre-append label).
#[derive(Clone)]
pub(crate) struct EntryState {
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) label: Arc<Label>,
    pub(crate) generation: u64,
    /// LSN of the WAL record that produced this state (0 when the
    /// store runs without durability). Replay applies an op to an
    /// entry only when the op's LSN exceeds this, which is what makes
    /// replay idempotent without a store-wide barrier.
    pub(crate) applied_lsn: u64,
}

impl EntryState {
    /// `dataset` labelled over the attribute indices `sel` that WAL
    /// records and snapshots log: what recovery installs.
    pub(crate) fn recovered(dataset: Arc<Dataset>, sel: &[u32], generation: u64, lsn: u64) -> Self {
        let attrs = AttrSet::from_indices(sel.iter().map(|&a| a as usize));
        let label = Label::build(&dataset, attrs);
        EntryState {
            dataset,
            label: Arc::new(label),
            generation,
            applied_lsn: lsn,
        }
    }
}

/// One registered dataset: the data, its current label version and the
/// per-dataset estimate cache. Since appends arrived, the dataset itself
/// is versioned alongside the label — both swap atomically under the
/// entry's lock.
pub struct StoreEntry {
    name: Box<str>,
    /// The one-writer lock (see [`LabelStore`]), guarding whether the
    /// entry is still registered: a writer queued behind the remove that
    /// cleared it logs and publishes nothing.
    writer: Mutex<bool>,
    state: RwLock<EntryState>,
    cache: ShardedCache,
}

impl StoreEntry {
    fn new(name: String, state: EntryState) -> StoreEntry {
        StoreEntry {
            name: name.into_boxed_str(),
            writer: Mutex::new(true),
            state: RwLock::new(state),
            cache: ShardedCache::default(),
        }
    }

    /// The writer lock while the entry is registered, or
    /// [`EngineError::UnknownDataset`] once a remove has unlinked it.
    /// Taken through its poison: the flag's one update is a remove's last
    /// step, and a writer that fails or panics has published nothing.
    fn lock_writer(&self) -> Result<MutexGuard<'_, bool>, EngineError> {
        let registered = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let unknown = || EngineError::UnknownDataset(self.name.to_string());
        (*registered).then_some(registered).ok_or_else(unknown)
    }

    /// Makes `next` the version readers see and empties the cache with
    /// `invalidate`: [`ShardedCache::clear`] on refresh,
    /// [`ShardedCache::invalidate`] (which keeps the hit/miss counters)
    /// on append. Batches fill the cache under the read lock, so nothing
    /// older than `next` survives in it. The write lock covers only the
    /// swap and the invalidation; the replaced version is freed after it.
    fn publish(&self, next: EntryState, invalidate: impl FnOnce(&ShardedCache)) {
        let mut cur = self.state.write().expect("entry lock");
        let old = std::mem::replace(&mut *cur, next);
        invalidate(&self.cache);
        drop(cur);
        drop(old);
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The currently-registered dataset (cheap `Arc` clone).
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&self.state.read().expect("entry lock").dataset)
    }

    /// A handle to the current label (cheap `Arc` clone; never blocks
    /// writers for longer than the clone).
    pub fn label(&self) -> Arc<Label> {
        Arc::clone(&self.state.read().expect("entry lock").label)
    }

    /// Monotone counter, bumped by every [`LabelStore::refresh`] and
    /// [`LabelStore::append_rows`].
    pub fn generation(&self) -> u64 {
        self.state.read().expect("entry lock").generation
    }

    /// One consistent `(dataset, label, generation)` triple.
    pub fn snapshot(&self) -> (Arc<Dataset>, Arc<Label>, u64) {
        let cur = self.state();
        (cur.dataset, cur.label, cur.generation)
    }

    /// LSN of the WAL record that produced the current state (0 when
    /// the store runs without durability).
    pub fn applied_lsn(&self) -> u64 {
        self.state.read().expect("entry lock").applied_lsn
    }

    /// The whole current state, `applied_lsn` included — what the
    /// background snapshotter captures.
    pub(crate) fn state(&self) -> EntryState {
        self.state.read().expect("entry lock").clone()
    }

    /// Runs `f` against the current dataset/label version while holding
    /// the entry's read lock. A concurrent [`LabelStore::refresh`] or
    /// [`LabelStore::append_rows`] waits for `f` to finish before
    /// swapping the state and invalidating the cache, so anything `f`
    /// writes to [`StoreEntry::cache`] is guaranteed to be derived from
    /// the version it was handed — stale estimates can never outlive a
    /// refresh or append.
    pub fn with_snapshot<R>(&self, f: impl FnOnce(&Arc<Dataset>, &Arc<Label>, u64) -> R) -> R {
        let cur = self.state.read().expect("entry lock");
        f(&cur.dataset, &cur.label, cur.generation)
    }

    /// The per-dataset pattern→estimate cache.
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Deep heap accounting for this entry, broken down by component.
    /// Reads one consistent snapshot; the cache is measured as-is.
    pub fn memory(&self) -> EntryMemory {
        let (dataset, label, _) = self.snapshot();
        EntryMemory {
            dataset: dataset.heap_bytes(),
            label_pc: label.pc_heap_bytes(),
            label_vc: label.vc_heap_bytes(),
            label_marginals: label.marginal_heap_bytes(),
            cache: self.cache.heap_bytes(),
        }
    }

    /// Attribute names of `label`'s subset `S`, in index order.
    pub fn attr_names(label: &Label) -> Vec<String> {
        label
            .attrs()
            .iter()
            .map(|a| {
                label
                    .schema()
                    .attr(a)
                    .map(|at| at.name().to_string())
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Attribute names of the current label's subset `S`, in index order.
    pub fn label_attr_names(&self) -> Vec<String> {
        Self::attr_names(&self.label())
    }
}

impl HeapBytes for StoreEntry {
    fn heap_bytes(&self) -> u64 {
        self.name.len() as u64 + self.memory().total()
    }
}

impl fmt::Debug for StoreEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (dataset, label, generation) = self.snapshot();
        f.debug_struct("StoreEntry")
            .field("name", &self.name)
            .field("rows", &dataset.n_rows())
            .field("label_attrs", &label.attrs().to_vec())
            .field("generation", &generation)
            .finish()
    }
}

/// Folds a counting build profile into a request trace, when one is
/// attached.
fn record_profile(trace: Option<&Trace>, profile: &CountingProfile) {
    if let Some(trace) = trace {
        trace.add_phase_secs(Phase::CountCount, profile.count_secs);
        trace.add_phase_secs(Phase::CountAssemble, profile.assemble_secs);
        trace.record_peak_bytes(profile.peak_bytes);
    }
}

fn compute_label(
    dataset: &Dataset,
    policy: LabelPolicy,
    trace: Option<&Trace>,
) -> Result<Label, EngineError> {
    match policy {
        LabelPolicy::Attrs(attrs) => {
            let n = dataset.n_attrs();
            if let Some(bad) = attrs.iter().find(|&a| a >= n) {
                return Err(EngineError::BadRequest(format!(
                    "label attribute index {bad} out of range (dataset has {n} attributes)"
                )));
            }
            let (label, profile) = Label::build_profiled(dataset, attrs);
            record_profile(trace, &profile);
            Ok(label)
        }
        LabelPolicy::Search { bound, refine } => {
            compute_search_label(dataset, bound, refine, trace)
        }
    }
}

/// Datasets with at least this many rows search on every hardware
/// thread. Below it (the figure2 warm-up search, small uploads) the
/// search stays on the calling thread, where spawning workers would cost
/// more than the walk.
const SEARCH_PARALLEL_MIN_ROWS: usize = 4_096;

/// Runs the top-down search with serving-side tuning: the lattice walk
/// and candidate evaluation on every hardware thread for datasets of at
/// least [`SEARCH_PARALLEL_MIN_ROWS`] rows, and the lattice-aware
/// refinement evaluator on by default (`refine: false` is the
/// cold-rebuild ablation; results are bit-identical either way, at any
/// thread count).
///
/// The thread count is not divided by the daemon's dispatch workers:
/// concurrent searched registers each take every hardware thread. The
/// rule was measured with one search in flight on 2 hardware threads.
fn compute_search_label(
    dataset: &Dataset,
    bound: u64,
    refine: bool,
    trace: Option<&Trace>,
) -> Result<Label, EngineError> {
    let workers = if dataset.n_rows() >= SEARCH_PARALLEL_MIN_ROWS {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        1
    };
    let opts = SearchOptions::with_bound(bound)
        .refine(refine)
        .threads(workers);
    let outcome = top_down_search(dataset, &opts)?;
    if let Some(trace) = trace {
        trace.add_phase(Phase::SearchWalk, outcome.stats.search_time);
        trace.add_phase(Phase::SearchEval, outcome.stats.eval_time);
    }
    outcome.into_best_label().ok_or_else(|| {
        EngineError::BadRequest(format!("search with bound {bound} produced no label"))
    })
}

/// Everything guarded by the store's one registry lock. `entries` and
/// `retired` live under the same lock so a remove + re-register of the
/// same name can never race into a non-monotone generation.
#[derive(Debug, Default)]
struct StoreInner {
    entries: FxHashMap<String, Arc<StoreEntry>>,
    /// Generations of removed names: `name → (generation at removal,
    /// LSN of the remove record)`. A re-registration under the same
    /// name resumes *above* the retired generation, which keeps the
    /// `(name, generation)` pair unique across the store's whole
    /// history — the property WAL replay and response caching rely on.
    retired: FxHashMap<String, (u64, u64)>,
}

/// One retired-generation record: `(name, retired_generation, remove_lsn)`.
pub(crate) type RetiredRecord = (String, u64, u64);

/// Concurrent registry of named datasets and their labels.
///
/// Writes to one dataset run one at a time: [`LabelStore::refresh`],
/// [`LabelStore::append_rows_traced`] and [`LabelStore::remove`] hold
/// the entry's writer lock from the snapshot they compute against until
/// they publish, so each computes once against a state no other writer
/// can change. Writes to different datasets, and every query, run
/// alongside them. Locks are taken in one order: entry writer →
/// registry → WAL mutex; an entry's state lock is write-locked only to
/// publish, and takes no store lock inside it (only the cache's shard
/// mutexes, which are leaves). The writer lock orders the WAL; it is not
/// what keeps an append from writing rows an older dataset generation
/// reads, since generations share their columns safely without it (see
/// [`Dataset::clone`]).
///
/// When a `WalSink` is attached (the daemon runs with `--data-dir`),
/// every mutating path — register, refresh, append, remove — appends
/// its WAL record **before** the state change becomes visible to
/// readers, and fails the mutation if the append fails. Refresh and
/// append log under the writer lock but outside the state lock, so
/// queries never wait on the flush, and a dataset's WAL order is its
/// publish order. A store without a sink is purely in-memory.
#[derive(Debug, Default)]
pub struct LabelStore {
    inner: RwLock<StoreInner>,
    sink: OnceLock<Arc<WalSink>>,
    health: OnceLock<Arc<Health>>,
}

impl LabelStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the WAL sink. Called once by the durability layer
    /// after recovery, before the store is exposed to traffic; later
    /// calls are ignored.
    pub(crate) fn set_sink(&self, sink: Arc<WalSink>) {
        let _ = self.sink.set(sink);
    }

    /// Attaches the health state machine alongside the sink, so
    /// mutators can fail fast while the store is degraded.
    pub(crate) fn set_health(&self, health: Arc<Health>) {
        let _ = self.health.set(health);
    }

    /// Rejects mutations while degraded — checked at the top of every
    /// mutating op, before any work or lock. Queries never come here.
    fn check_writable(&self) -> Result<(), EngineError> {
        if let Some(health) = self.health.get() {
            if let Some(reason) = health.degraded_reason() {
                return Err(EngineError::Degraded(reason));
            }
        }
        Ok(())
    }

    /// The retired generation recorded for a removed name, if any.
    pub fn retired_generation(&self, name: &str) -> Option<u64> {
        self.inner
            .read()
            .expect("store lock")
            .retired
            .get(name)
            .map(|&(generation, _)| generation)
    }

    /// Registers `dataset` under `name`, computing its label according to
    /// `policy`. Label computation happens outside the registry lock, so
    /// concurrent lookups never stall behind an expensive registration.
    pub fn register(
        &self,
        name: impl Into<String>,
        dataset: Dataset,
        policy: LabelPolicy,
    ) -> Result<Arc<StoreEntry>, EngineError> {
        self.register_traced(name, dataset, policy, None)
    }

    /// [`LabelStore::register`] with an optional request trace recording
    /// the counting/search phases of the label build.
    pub fn register_traced(
        &self,
        name: impl Into<String>,
        dataset: Dataset,
        policy: LabelPolicy,
        trace: Option<&Trace>,
    ) -> Result<Arc<StoreEntry>, EngineError> {
        self.check_writable()?;
        let name = name.into();
        // Rows of no cells cost no bytes in a WAL record, so nothing
        // there could bound their count: the record decoder refuses them.
        if dataset.n_attrs() == 0 && dataset.n_rows() > 0 {
            return Err(EngineError::BadRequest(
                "register needs rows of at least one cell".to_string(),
            ));
        }
        if self
            .inner
            .read()
            .expect("store lock")
            .entries
            .contains_key(&name)
        {
            return Err(EngineError::AlreadyRegistered(name));
        }
        let label = compute_label(&dataset, policy, trace)?;
        // The WAL payload is captured outside the registry lock (the
        // dataset image is a full column copy); the append itself runs
        // under it, so the record order matches the publication order.
        let image = self
            .sink
            .get()
            .map(|_| DatasetImage::from_dataset(&dataset));
        let sel = sel_of(&label);
        let mut inner = self.inner.write().expect("store lock");
        if inner.entries.contains_key(&name) {
            return Err(EngineError::AlreadyRegistered(name));
        }
        // Resume above the retired generation (if any) so `(name,
        // generation)` stays unique across remove/re-register cycles.
        let generation = inner.retired.get(&name).map(|&(g, _)| g + 1).unwrap_or(0);
        let (applied_lsn, _) = self.log(|| WalOp::Register {
            name: name.clone(),
            generation,
            policy: policy_repr(policy),
            sel,
            dataset: image.expect("image captured when sink present"),
        })?;
        let entry = Arc::new(StoreEntry::new(
            name.clone(),
            EntryState {
                dataset: Arc::new(dataset),
                label: Arc::new(label),
                generation,
                applied_lsn,
            },
        ));
        inner.entries.insert(name, Arc::clone(&entry));
        Ok(entry)
    }

    /// Appends the record `op` builds to the WAL and returns its LSN with
    /// the record; 0, and nothing built, when the store runs without
    /// durability.
    fn log(&self, op: impl FnOnce() -> WalOp) -> Result<(u64, Option<WalOp>), EngineError> {
        let Some(sink) = self.sink.get() else {
            return Ok((0, None));
        };
        let op = op();
        Ok((sink.append(&op)?, Some(op)))
    }

    /// Resolves a name, or errors with [`EngineError::UnknownDataset`].
    pub fn get(&self, name: &str) -> Result<Arc<StoreEntry>, EngineError> {
        self.try_get(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))
    }

    /// Resolves a name if registered.
    pub fn try_get(&self, name: &str) -> Option<Arc<StoreEntry>> {
        self.inner
            .read()
            .expect("store lock")
            .entries
            .get(name)
            .cloned()
    }

    /// Recomputes an entry's label under a (possibly different) policy,
    /// bumps its generation and clears its estimate cache. The label is
    /// computed and the refresh logged under the entry's writer lock, so
    /// no append can change the dataset meanwhile; queries keep reading
    /// the old version until the swap, and no estimate they cached
    /// survives it. A refresh queued behind a [`LabelStore::remove`]
    /// answers [`EngineError::UnknownDataset`]. An optional request
    /// `trace` records the counting/search phases of the rebuild.
    pub fn refresh(
        &self,
        name: &str,
        policy: LabelPolicy,
        trace: Option<&Trace>,
    ) -> Result<u64, EngineError> {
        self.check_writable()?;
        let entry = self.get(name)?;
        let _writer = entry.lock_writer()?;
        let (dataset, _, generation) = entry.snapshot();
        let label = compute_label(&dataset, policy, trace)?;
        let generation = generation + 1;
        let (applied_lsn, _) = self.log(|| WalOp::Refresh {
            name: name.to_string(),
            generation,
            policy: policy_repr(policy),
            sel: sel_of(&label),
        })?;
        let next = EntryState {
            dataset,
            label: Arc::new(label),
            generation,
            applied_lsn,
        };
        entry.publish(next, ShardedCache::clear);
        Ok(generation)
    }

    /// Appends a batch of rows to a registered dataset and brings its
    /// label up to date, bumping the generation.
    ///
    /// While no dictionary of an attribute **inside the label's subset
    /// `S`** grows ([`Label::can_append`]), the label is updated
    /// **incrementally** ([`Label::with_appended`]): the new rows are
    /// folded into a copy of the `PC` map, without re-counting the
    /// existing rows. New values on attributes *outside* `S` stay
    /// incremental — the `VC` table grows in place. A new value on an
    /// attribute of `S` changes the packed-key layout, so the label is
    /// rebuilt in full over the *same* subset `S` the current label uses
    /// (a search-chosen `S` is kept, not re-searched);
    /// [`AppendReport::incremental`] reports which path ran. Either way
    /// every cached answer is dropped ([`ShardedCache::invalidate`]), and
    /// the cache's hit/miss counters keep counting.
    ///
    /// Like [`LabelStore::refresh`], the append holds the entry's writer
    /// lock while it copies the dataset, updates the label and logs the
    /// rows, so concurrent appends to one dataset land one after another,
    /// each computed once. Queries read the previous version until the
    /// swap and never see a half-applied append. An append queued behind
    /// a [`LabelStore::remove`] answers [`EngineError::UnknownDataset`].
    pub fn append_rows<S: AsRef<str>>(
        &self,
        name: &str,
        rows: &[Vec<Option<S>>],
    ) -> Result<AppendReport, EngineError> {
        self.append_rows_traced(name, rows, None)
    }

    /// [`LabelStore::append_rows`] with an optional request trace
    /// recording the label update's counting phases.
    pub fn append_rows_traced<S: AsRef<str>>(
        &self,
        name: &str,
        rows: &[Vec<Option<S>>],
        trace: Option<&Trace>,
    ) -> Result<AppendReport, EngineError> {
        self.check_writable()?;
        let entry = self.get(name)?;
        if rows.is_empty() {
            return Err(EngineError::BadRequest(
                "append_rows needs a non-empty rows batch".to_string(),
            ));
        }
        // Rows must match the schema, so only a dataset without
        // attributes takes rows of no cells. They cost no bytes in a WAL
        // record, which could then claim any row count, so the record
        // decoder refuses them and the store never logs them.
        if entry.dataset().n_attrs() == 0 {
            return Err(EngineError::BadRequest(
                "append_rows needs rows of at least one cell".to_string(),
            ));
        }
        let _writer = entry.lock_writer()?;
        let (base, label, generation) = entry.snapshot();
        let (dataset, label, incremental) = Self::appended_state(&base, &label, rows, trace)?;
        let generation = generation + 1;
        let (applied_lsn, record) = self.log(|| WalOp::AppendRows {
            name: name.to_string(),
            generation,
            rows: rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|cell| cell.as_ref().map(|s| s.as_ref().to_string()))
                        .collect()
                })
                .collect(),
        })?;
        let total_rows = dataset.n_rows() as u64;
        let next = EntryState {
            dataset: Arc::new(dataset),
            label: Arc::new(label),
            generation,
            applied_lsn,
        };
        entry.publish(next, ShardedCache::invalidate);
        // Freed only after the swap: a large batch's strings take
        // milliseconds to free, and a snapshot that captured the entry
        // meanwhile would see the batch logged but not published, and
        // retain one more WAL segment for it.
        drop(record);
        Ok(AppendReport {
            appended: rows.len(),
            total_rows,
            generation,
            incremental,
        })
    }

    /// Computes the post-append dataset and label from a snapshot, and
    /// whether the label was updated incrementally. While no dictionary
    /// of an attribute inside the label's subset `S` grows
    /// ([`Label::can_append`]), the label is updated incrementally
    /// ([`Label::with_appended`]); otherwise it is rebuilt in full over
    /// the *same* subset `S` (a search-chosen `S` is kept, not
    /// re-searched).
    ///
    /// The new dataset shares `base`'s columns and writes only the new
    /// rows, in place past `base`'s rows unless a copy is due (see
    /// [`Dataset::clone`]), so `base` reads as before for whoever holds it.
    fn appended_state<S: AsRef<str>>(
        base: &Dataset,
        label: &Label,
        rows: &[Vec<Option<S>>],
        trace: Option<&Trace>,
    ) -> Result<(Dataset, Label, bool), EngineError> {
        let mut dataset = base.clone();
        let old_rows = dataset.n_rows();
        dataset.append_labeled_rows(rows)?;
        let incremental = label.can_append(&dataset);
        let (label, profile) = if incremental {
            label.with_appended(&dataset, old_rows..dataset.n_rows())
        } else {
            Label::build_profiled(&dataset, label.attrs())
        };
        record_profile(trace, &profile);
        Ok((dataset, label, incremental))
    }

    /// Removes an entry; returns whether it existed.
    ///
    /// # Semantics
    ///
    /// Removal unlinks the name from the registry — it does **not**
    /// invalidate handles: an [`Arc<StoreEntry>`] obtained earlier (via
    /// [`LabelStore::get`] or a [`LabelStore::list`] snapshot) keeps
    /// reading the removed entry's final state until dropped, while a
    /// write that resolved the name before the remove and reaches the
    /// entry after it answers [`EngineError::UnknownDataset`] and logs
    /// nothing. A remove waits for a write already running on the entry.
    /// The removed entry's generation is *retired*, not forgotten: a
    /// later [`LabelStore::register`] under the same name starts at
    /// `retired_generation + 1`, so generations observed for a name are
    /// strictly monotone across the store's whole history — clients
    /// that cache `(name, generation)`-keyed answers can never collide
    /// a pre-remove generation with a post-re-register one.
    ///
    /// With durability attached, the `remove` record is logged before
    /// the name disappears; a WAL failure leaves the entry registered
    /// and returns [`EngineError::Durability`].
    pub fn remove(&self, name: &str) -> Result<bool, EngineError> {
        self.check_writable()?;
        let Some(entry) = self.try_get(name) else {
            return Ok(false);
        };
        let Ok(mut registered) = entry.lock_writer() else {
            return Ok(false);
        };
        let generation = entry.generation();
        let mut inner = self.inner.write().expect("store lock");
        let (lsn, _) = self.log(|| WalOp::Remove {
            name: name.to_string(),
            generation,
        })?;
        inner.entries.remove(name);
        inner.retired.insert(name.to_string(), (generation, lsn));
        *registered = false;
        Ok(true)
    }

    /// All entries, sorted by name.
    pub fn list(&self) -> Vec<Arc<StoreEntry>> {
        let mut out: Vec<Arc<StoreEntry>> = self
            .inner
            .read()
            .expect("store lock")
            .entries
            .values()
            .cloned()
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.inner.read().expect("store lock").entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One consistent capture for the background snapshotter: all live
    /// entries (sorted by name) plus the retired-generation table. Each
    /// entry is an `Arc` — the snapshotter reads its state afterwards
    /// via [`StoreEntry::state`], per-entry-consistent, which
    /// is all the on-disk format needs (per-entry `applied_lsn` makes
    /// replay idempotent without a store-wide barrier).
    pub(crate) fn capture_durable(&self) -> (Vec<Arc<StoreEntry>>, Vec<RetiredRecord>) {
        let inner = self.inner.read().expect("store lock");
        let mut entries: Vec<Arc<StoreEntry>> = inner.entries.values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut retired: Vec<RetiredRecord> = inner
            .retired
            .iter()
            .map(|(name, &(generation, lsn))| (name.clone(), generation, lsn))
            .collect();
        retired.sort();
        (entries, retired)
    }

    /// Installs an entry rebuilt from a snapshot during recovery. The
    /// store must not be serving yet; an existing name is a recovery
    /// bug and panics.
    pub(crate) fn install_recovered(&self, name: String, state: EntryState) {
        let entry = Arc::new(StoreEntry::new(name.clone(), state));
        let prev = self
            .inner
            .write()
            .expect("store lock")
            .entries
            .insert(name, entry);
        assert!(prev.is_none(), "install_recovered over a live entry");
    }

    /// Installs the retired-generation table from a snapshot during
    /// recovery.
    pub(crate) fn install_retired(&self, retired: impl IntoIterator<Item = (String, u64, u64)>) {
        let mut inner = self.inner.write().expect("store lock");
        for (name, generation, lsn) in retired {
            inner.retired.insert(name, (generation, lsn));
        }
    }

    /// Applies one replayed WAL record during recovery, publishing
    /// through the same step as the live mutators. Idempotent via
    /// per-entry `applied_lsn`: records at or below an entry's LSN (it
    /// came out of a snapshot taken after them) are skipped. Generation
    /// mismatches beyond that are corruption — the WAL's dense-LSN
    /// check should have caught any gap — and fail recovery rather
    /// than rebuild a silently different store.
    pub(crate) fn replay(&self, lsn: u64, op: WalOp) -> Result<(), EngineError> {
        match op {
            WalOp::Register { .. } => {
                {
                    let (name, generation) = (op.name(), op.generation());
                    let inner = self.inner.read().expect("store lock");
                    if let Some(entry) = inner.entries.get(name) {
                        if entry.applied_lsn() >= lsn {
                            return Ok(());
                        }
                        return Err(EngineError::Durability(format!(
                            "replay lsn {lsn}: register of live dataset {name:?}"
                        )));
                    }
                    if let Some(&(retired_generation, retired_lsn)) = inner.retired.get(name) {
                        if retired_lsn >= lsn {
                            return Ok(()); // register superseded by a later remove
                        }
                        if retired_generation + 1 != generation {
                            return Err(stale(lsn, &op, retired_generation + 1));
                        }
                    } else if generation != 0 {
                        return Err(stale(lsn, &op, 0));
                    }
                }
                let WalOp::Register {
                    name,
                    generation,
                    sel,
                    dataset,
                    ..
                } = op
                else {
                    unreachable!("matched a register");
                };
                let dataset = Arc::new(dataset.into_dataset()?);
                let state = EntryState::recovered(dataset, &sel, generation, lsn);
                self.install_recovered(name, state);
                Ok(())
            }
            WalOp::Refresh { ref sel, .. } => {
                let Some((entry, cur)) = self.replay_target(lsn, &op, "refresh of")? else {
                    return Ok(());
                };
                let next = EntryState::recovered(cur.dataset, sel, op.generation(), lsn);
                entry.publish(next, ShardedCache::clear);
                Ok(())
            }
            WalOp::AppendRows { ref rows, .. } => {
                let Some((entry, cur)) = self.replay_target(lsn, &op, "append to")? else {
                    return Ok(());
                };
                let (dataset, label, _) =
                    Self::appended_state(&cur.dataset, &cur.label, rows, None)?;
                let next = EntryState {
                    dataset: Arc::new(dataset),
                    label: Arc::new(label),
                    generation: op.generation(),
                    applied_lsn: lsn,
                };
                entry.publish(next, ShardedCache::invalidate);
                Ok(())
            }
            WalOp::Remove {
                ref name,
                generation,
            } => {
                let mut inner = self.inner.write().expect("store lock");
                let Some(entry) = inner.entries.get(name) else {
                    // Already absent: either the snapshot postdates the
                    // remove (retired table knows it) or this is a replay
                    // rerun; both are fine.
                    return Ok(());
                };
                let cur = entry.state();
                if cur.applied_lsn >= lsn {
                    return Ok(());
                }
                if cur.generation != generation {
                    return Err(stale(lsn, &op, cur.generation));
                }
                *entry.writer.lock().unwrap_or_else(PoisonError::into_inner) = false;
                inner.entries.remove(name);
                inner.retired.insert(name.clone(), (generation, lsn));
                Ok(())
            }
        }
    }

    /// The entry a replayed refresh or append at `lsn` applies to, with
    /// its current state, or `None` when the store already reflects the
    /// record (a snapshot taken after it, or a later remove).
    fn replay_target(
        &self,
        lsn: u64,
        op: &WalOp,
        unknown: &str,
    ) -> Result<Option<(Arc<StoreEntry>, EntryState)>, EngineError> {
        let name = op.name();
        let Some(entry) = self.try_get(name) else {
            // A *later* remove the store already reflects (the recovery
            // snapshot postdates it) makes the record stale history:
            // nothing of the removed entry survives.
            let retired = self
                .inner
                .read()
                .expect("store lock")
                .retired
                .get(name)
                .copied();
            if retired.is_some_and(|(_, removed_at)| removed_at >= lsn) {
                return Ok(None);
            }
            return Err(EngineError::Durability(format!(
                "replay lsn {lsn}: {unknown} unknown dataset {name:?}"
            )));
        };
        let cur = entry.state();
        if cur.applied_lsn >= lsn {
            return Ok(None);
        }
        if cur.generation + 1 != op.generation() {
            return Err(stale(lsn, op, cur.generation + 1));
        }
        Ok(Some((entry, cur)))
    }
}

/// The recovery error for a replayed record whose generation does not
/// follow the store's, which has `store_has`.
fn stale(lsn: u64, op: &WalOp, store_has: u64) -> EngineError {
    EngineError::Durability(format!(
        "replay lsn {lsn}: {} {:?} expects generation {}, store has {store_has}",
        op.kind(),
        op.name(),
        op.generation()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclabel_core::pattern::Pattern;
    use pclabel_data::dataset::DatasetBuilder;
    use pclabel_data::generate::figure2_sample;

    /// The default search policy (refinement on) at `bound`.
    fn search_policy(bound: u64) -> LabelPolicy {
        LabelPolicy::Search {
            bound,
            refine: true,
        }
    }

    #[test]
    fn register_lookup_refresh_remove() {
        let store = LabelStore::new();
        let entry = store
            .register("census", figure2_sample(), search_policy(5))
            .unwrap();
        assert_eq!(entry.label().attrs(), AttrSet::from_indices([1, 3]));
        assert_eq!(entry.generation(), 0);
        assert_eq!(store.len(), 1);

        // Duplicate names are rejected.
        assert!(matches!(
            store.register("census", figure2_sample(), search_policy(5)),
            Err(EngineError::AlreadyRegistered(_))
        ));

        // Refresh with an explicit subset bumps the generation.
        let generation = store
            .refresh(
                "census",
                LabelPolicy::Attrs(AttrSet::from_indices([0, 1])),
                None,
            )
            .unwrap();
        assert_eq!(generation, 1);
        let entry = store.get("census").unwrap();
        assert_eq!(entry.label().attrs(), AttrSet::from_indices([0, 1]));
        assert_eq!(entry.label_attr_names(), vec!["gender", "age group"]);

        assert!(store.remove("census").unwrap());
        assert!(!store.remove("census").unwrap());
        assert!(matches!(
            store.get("census"),
            Err(EngineError::UnknownDataset(_))
        ));
    }

    #[test]
    fn remove_and_reregister_keeps_generations_monotone() {
        let store = LabelStore::new();
        store
            .register(
                "census",
                figure2_sample(),
                LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
            )
            .unwrap();
        // Walk the generation up: one refresh + one append → generation 2.
        store
            .refresh(
                "census",
                LabelPolicy::Attrs(AttrSet::from_indices([0, 1])),
                None,
            )
            .unwrap();
        let report = store
            .append_rows(
                "census",
                &[vec![
                    Some("Female"),
                    Some("20-39"),
                    Some("Caucasian"),
                    Some("married"),
                ]],
            )
            .unwrap();
        assert_eq!(report.generation, 2);

        assert!(store.remove("census").unwrap());
        assert_eq!(store.retired_generation("census"), Some(2));

        // Re-registering the same name resumes above the retired
        // generation — (name, generation) pairs never repeat.
        let entry = store
            .register("census", figure2_sample(), search_policy(5))
            .unwrap();
        assert_eq!(entry.generation(), 3);
        let generation = store.refresh("census", search_policy(100), None).unwrap();
        assert_eq!(generation, 4);

        // A second remove/re-register cycle keeps climbing.
        assert!(store.remove("census").unwrap());
        assert_eq!(store.retired_generation("census"), Some(4));
        let entry = store
            .register("census", figure2_sample(), search_policy(5))
            .unwrap();
        assert_eq!(entry.generation(), 5);
    }

    #[test]
    fn bad_policies_are_rejected() {
        let store = LabelStore::new();
        let err = store
            .register(
                "x",
                figure2_sample(),
                LabelPolicy::Attrs(AttrSet::from_indices([0, 9])),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(_)), "{err}");
        assert!(store.is_empty());
    }

    #[test]
    fn refresh_invalidates_cache() {
        let store = LabelStore::new();
        let entry = store
            .register("census", figure2_sample(), search_policy(5))
            .unwrap();
        entry.cache().insert(Pattern::from_terms([(0, 0)]), 9.0);
        assert_eq!(entry.cache().len(), 1);
        store.refresh("census", search_policy(100), None).unwrap();
        assert!(entry.cache().is_empty());
    }

    #[test]
    fn append_rows_updates_label_incrementally() {
        let store = LabelStore::new();
        store
            .register(
                "census",
                figure2_sample(),
                LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
            )
            .unwrap();
        // Values already in the dictionaries: incremental path.
        let report = store
            .append_rows(
                "census",
                &[
                    vec![
                        Some("Female"),
                        Some("20-39"),
                        Some("Caucasian"),
                        Some("married"),
                    ],
                    vec![
                        Some("Male"),
                        Some("under 20"),
                        Some("African-American"),
                        Some("single"),
                    ],
                ],
            )
            .unwrap();
        assert!(report.incremental);
        assert_eq!(report.appended, 2);
        assert_eq!(report.total_rows, 20);
        assert_eq!(report.generation, 1);

        // The appended label equals a from-scratch build over the grown
        // dataset.
        let entry = store.get("census").unwrap();
        let (dataset, label, generation) = entry.snapshot();
        assert_eq!(generation, 1);
        assert_eq!(dataset.n_rows(), 20);
        let full = Label::build(&dataset, AttrSet::from_indices([1, 3]));
        assert_eq!(label.pattern_count_size(), full.pattern_count_size());
        for r in 0..dataset.n_rows() {
            let p = pclabel_core::pattern::Pattern::from_row(&dataset, r);
            assert_eq!(label.estimate(&p), full.estimate(&p), "row {r}");
        }
    }

    #[test]
    fn append_rows_with_new_value_rebuilds() {
        let store = LabelStore::new();
        store
            .register(
                "census",
                figure2_sample(),
                LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
            )
            .unwrap();
        let report = store
            .append_rows(
                "census",
                &[vec![
                    Some("Female"),
                    Some("60+"), // unseen age group: dictionary grows
                    Some("Caucasian"),
                    Some("married"),
                ]],
            )
            .unwrap();
        assert!(!report.incremental);
        let entry = store.get("census").unwrap();
        let (dataset, label, _) = entry.snapshot();
        // The rebuilt label keeps its subset S and covers the new value.
        assert_eq!(label.attrs(), AttrSet::from_indices([1, 3]));
        let p = pclabel_core::pattern::Pattern::parse(
            &dataset,
            &[("age group", "60+"), ("marital status", "married")],
        )
        .unwrap();
        assert_eq!(label.estimate(&p), 1.0);
    }

    #[test]
    fn append_rows_growth_outside_s_stays_incremental() {
        let store = LabelStore::new();
        store
            .register(
                "census",
                figure2_sample(),
                LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
            )
            .unwrap();
        // "Martian" is a new race value; race (2) is outside S = {1, 3},
        // so the packed-key layout is unchanged and the append must not
        // fall back to a rebuild.
        let report = store
            .append_rows(
                "census",
                &[vec![
                    Some("Female"),
                    Some("20-39"),
                    Some("Martian"),
                    Some("married"),
                ]],
            )
            .unwrap();
        assert!(report.incremental);
        let entry = store.get("census").unwrap();
        let (dataset, label, _) = entry.snapshot();
        let full = Label::build(&dataset, AttrSet::from_indices([1, 3]));
        let p = pclabel_core::pattern::Pattern::parse(
            &dataset,
            &[("race", "Martian"), ("age group", "20-39")],
        )
        .unwrap();
        assert_eq!(label.estimate(&p), full.estimate(&p));
        assert!(label.estimate(&p) > 0.0);
    }

    #[test]
    fn no_append_leaves_a_changed_answer_cached() {
        use crate::query::label_answer;
        use pclabel_core::pattern::Pattern;

        let s = AttrSet::from_indices([1, 3]);
        let store = LabelStore::new();
        store
            .register("census", figure2_sample(), LabelPolicy::Attrs(s))
            .unwrap();
        let entry = store.get("census").unwrap();
        // Every row's pattern on all of S, on part of S, outside S and
        // across it.
        let d = entry.dataset();
        let patterns: Vec<Pattern> = (0..d.n_rows())
            .flat_map(|r| {
                let p = Pattern::from_row(&d, r);
                [s, AttrSet::from_indices([1]), AttrSet::from_indices([0])]
                    .map(|k| p.restrict(k))
                    .into_iter()
                    .chain([p])
            })
            .collect();
        let appends = [
            // Known values: incremental.
            [
                Some("Male"),
                Some("20-39"),
                Some("Caucasian"),
                Some("married"),
            ],
            // A new value outside S: incremental.
            [
                Some("Female"),
                Some("20-39"),
                Some("Martian"),
                Some("married"),
            ],
            // A new value on S: rebuilt.
            [
                Some("Female"),
                Some("60+"),
                Some("Caucasian"),
                Some("married"),
            ],
        ];
        for (i, row) in appends.into_iter().enumerate() {
            let label = entry.label();
            for p in &patterns {
                entry.cache().insert(p.clone(), label_answer(&label, p).0);
            }
            let report = store.append_rows("census", &[row.to_vec()]).unwrap();
            assert_eq!(report.incremental, i < 2, "append {i}");
            let label = entry.label();
            for p in &patterns {
                if let Some(cached) = entry.cache().get(p) {
                    assert_eq!(cached, label_answer(&label, p).0, "append {i}: {p}");
                }
            }
        }
    }

    #[test]
    fn entry_memory_accounts_components_and_grows_with_appends() {
        let store = LabelStore::new();
        let entry = store
            .register(
                "census",
                figure2_sample(),
                LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
            )
            .unwrap();
        let before = entry.memory();
        assert!(before.dataset > 0, "dataset columns are accounted");
        assert!(before.label_pc > 0, "the PC group map is accounted");
        assert!(before.label_vc > 0, "VC tables are accounted");
        assert_eq!(
            before.total(),
            before.components().iter().map(|(_, b)| b).sum::<u64>()
        );
        assert!(entry.heap_bytes() >= before.total());

        // Estimating through the label materializes a marginal table;
        // caching an answer allocates cache slots. Both must show up.
        let d = entry.dataset();
        let p = pclabel_core::pattern::Pattern::parse(&d, &[("age group", "20-39")]).unwrap();
        let _ = entry.label().estimate(&p);
        entry.cache().insert(p, 6.0);
        let warmed = entry.memory();
        assert!(warmed.label_marginals > 0);
        assert!(warmed.cache > 0);

        // Appending rows grows the accounted dataset footprint, and the
        // total never shrinks: the acceptance bar for /debug/memory.
        let grown_rows: Vec<Vec<Option<&str>>> = (0..64)
            .map(|_| {
                vec![
                    Some("Female"),
                    Some("20-39"),
                    Some("Caucasian"),
                    Some("married"),
                ]
            })
            .collect();
        store.append_rows("census", &grown_rows).unwrap();
        let after = entry.memory();
        assert!(
            after.dataset > warmed.dataset,
            "dataset bytes must grow with appended rows ({} -> {})",
            warmed.dataset,
            after.dataset
        );
        // The dataset charges its column buffers' capacity, which its
        // generations share: an append that fits leaves the figure
        // unchanged, one that copies at most doubles it, and it never
        // falls below one u32 per cell. No batch here grows the schema.
        let capacity =
            |d: &Dataset, bytes: u64| bytes - d.n_attrs() as u64 - d.schema().heap_bytes();
        let (mut fits, mut copies) = (0, 0);
        for i in 0..40 {
            let (d, before) = (entry.dataset(), entry.memory().dataset);
            let held = capacity(&d, before);
            let batch = 1 + i % 16;
            store.append_rows("census", &grown_rows[..batch]).unwrap();
            let (grown, after) = (entry.dataset(), entry.memory().dataset);
            let cells = (grown.n_rows() * grown.n_attrs() * std::mem::size_of::<u32>()) as u64;
            let now = capacity(&grown, after);
            assert!(now >= cells, "capacity below {} rows", grown.n_rows());
            if cells <= held {
                assert_eq!(
                    after,
                    before,
                    "an append that fits, at {} rows",
                    grown.n_rows()
                );
                fits += 1;
            } else {
                assert!(
                    now <= 2 * held,
                    "{held} -> {now} bytes at {} rows",
                    grown.n_rows()
                );
                copies += 1;
            }
        }
        assert!(
            fits > 0 && copies > 0,
            "{fits} appends fit, {copies} copied"
        );
    }

    #[test]
    fn append_rows_rejects_bad_batches() {
        let store = LabelStore::new();
        store
            .register("census", figure2_sample(), search_policy(5))
            .unwrap();
        let empty: &[Vec<Option<&str>>] = &[];
        assert!(matches!(
            store.append_rows("census", empty),
            Err(EngineError::BadRequest(_))
        ));
        // Arity mismatch fails without mutating the entry.
        let before = store.get("census").unwrap().generation();
        assert!(store
            .append_rows("census", &[vec![Some("Female")]])
            .is_err());
        let entry = store.get("census").unwrap();
        assert_eq!(entry.generation(), before);
        assert_eq!(entry.dataset().n_rows(), 18);
        assert!(matches!(
            store.append_rows("ghost", &[vec![Some("x")]]),
            Err(EngineError::UnknownDataset(_))
        ));
        // Only a dataset without attributes has rows of no cells: it
        // registers empty, and takes no rows.
        let blank = || DatasetBuilder::new(Vec::<&str>::new());
        let mut one_row = blank();
        one_row.push_ids(&[]).unwrap();
        let no_attrs = || LabelPolicy::Attrs(AttrSet::from_indices([]));
        assert!(matches!(
            store.register("blank", one_row.finish(), no_attrs()),
            Err(EngineError::BadRequest(_))
        ));
        store
            .register("blank", blank().finish(), no_attrs())
            .unwrap();
        let zero_cells: &[Vec<Option<&str>>] = &[vec![], vec![]];
        assert!(matches!(
            store.append_rows("blank", zero_cells),
            Err(EngineError::BadRequest(_))
        ));
        let entry = store.get("blank").unwrap();
        assert_eq!((entry.generation(), entry.dataset().n_rows()), (0, 0));
    }

    #[test]
    fn search_policy_refine_ablation_matches_default() {
        let store = LabelStore::new();
        store
            .register("on", figure2_sample(), search_policy(5))
            .unwrap();
        store
            .register(
                "off",
                figure2_sample(),
                LabelPolicy::Search {
                    bound: 5,
                    refine: false,
                },
            )
            .unwrap();
        let on = store.get("on").unwrap().label();
        let off = store.get("off").unwrap().label();
        assert_eq!(on.attrs(), off.attrs());
        assert_eq!(on.pattern_count_size(), off.pattern_count_size());
    }

    #[test]
    fn concurrent_appends_all_land() {
        // Racing appends (some forcing the dictionary-growth rebuild
        // path) take turns on the entry's writer lock, each computing
        // against the state its predecessor published, and must each
        // land exactly once.
        let store = Arc::new(LabelStore::new());
        store
            .register(
                "census",
                figure2_sample(),
                LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
            )
            .unwrap();
        let writers = 6usize;
        std::thread::scope(|s| {
            for t in 0..writers {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    // Odd writers introduce a new age-group value (inside
                    // S → full rebuild); even writers stay incremental.
                    let age = if t % 2 == 0 {
                        "20-39".to_string()
                    } else {
                        format!("age-{t}")
                    };
                    let report = store
                        .append_rows(
                            "census",
                            &[vec![
                                Some("Female".to_string()),
                                Some(age),
                                Some("Caucasian".to_string()),
                                Some("married".to_string()),
                            ]],
                        )
                        .unwrap();
                    assert_eq!(report.appended, 1);
                });
            }
        });
        let entry = store.get("census").unwrap();
        let (dataset, label, generation) = entry.snapshot();
        assert_eq!(dataset.n_rows(), 18 + writers);
        assert_eq!(generation, writers as u64);
        // The final label equals a from-scratch build over the final data.
        let full = Label::build(&dataset, AttrSet::from_indices([1, 3]));
        assert_eq!(label.pattern_count_size(), full.pattern_count_size());
        for r in 0..dataset.n_rows() {
            let p = pclabel_core::pattern::Pattern::from_row(&dataset, r);
            assert_eq!(label.estimate(&p), full.estimate(&p), "row {r}");
        }
    }

    #[test]
    fn a_write_queued_behind_a_remove_is_refused_and_logs_nothing() {
        use crate::durability::{Durability, DurabilityOptions};
        use pclabel_telemetry::Registry;
        use pclabel_wal::wal::FsyncPolicy;
        use std::time::{Duration, Instant};

        let wait_until = |what: &str, done: &dyn Fn() -> bool| {
            let start = Instant::now();
            while !done() {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "waiting for {what}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let options = DurabilityOptions {
            fsync: FsyncPolicy::Always,
            snapshot_wal_bytes: u64::MAX,
        };
        let policy = LabelPolicy::Attrs(AttrSet::from_indices([1, 3]));
        for refresh in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "pclabel-store-unit-{}-queued-{refresh}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Arc::new(LabelStore::new());
            let durability =
                Durability::open(&dir, options, Arc::clone(&store), &Registry::new()).unwrap();
            store.register("d", figure2_sample(), policy).unwrap();
            let entry = store.get("d").unwrap();
            let write = || {
                if refresh {
                    store.refresh("d", policy, None).map(|_| ())
                } else {
                    let row = vec![Some("Male"), Some("20-39"), Some("Asian"), Some("single")];
                    store.append_rows("d", &[row]).map(|_| ())
                }
            };
            std::thread::scope(|scope| {
                // Readers held off: the remove takes the writer lock, then
                // waits to read the entry's generation.
                let state = entry.state.write().unwrap();
                let remove = scope.spawn(|| store.remove("d"));
                wait_until("the remove to take the writer lock", &|| {
                    entry.writer.try_lock().is_err()
                });
                let write = scope.spawn(write);
                // The write has resolved the name: the registry, this
                // handle, the remove and the write hold the entry.
                wait_until("the write to resolve the entry", &|| {
                    Arc::strong_count(&entry) == 4
                });
                drop(state);
                assert!(remove.join().unwrap().unwrap());
                let refused = write.join().unwrap();
                assert!(
                    matches!(refused, Err(EngineError::UnknownDataset(ref name)) if name == "d"),
                    "{refused:?}"
                );
            });
            // The register and the remove; the refused write logged and
            // published nothing.
            assert_eq!(durability.last_lsn(), 2);
            assert_eq!((entry.generation(), entry.dataset().n_rows()), (0, 18));
            drop(durability);
            let recovered = Arc::new(LabelStore::new());
            let reopened =
                Durability::open(&dir, options, Arc::clone(&recovered), &Registry::new()).unwrap();
            assert!(recovered.is_empty());
            assert_eq!(recovered.retired_generation("d"), Some(0));
            drop(reopened);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn concurrent_registration_and_lookup() {
        let store = Arc::new(LabelStore::new());
        std::thread::scope(|s| {
            for t in 0..8usize {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let name = format!("d{}", t % 4);
                    // Many racing registers of 4 names: exactly one per
                    // name wins; the rest must see AlreadyRegistered.
                    let _ = store.register(name.clone(), figure2_sample(), search_policy(5));
                    for _ in 0..50 {
                        if let Some(e) = store.try_get(&name) {
                            assert_eq!(e.dataset().n_rows(), 18);
                            let _ = e.label();
                        }
                    }
                });
            }
        });
        assert_eq!(store.len(), 4);
        assert_eq!(store.list().len(), 4);
    }
}
