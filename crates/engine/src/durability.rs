//! The durability plane: recovery, the live WAL sink, and background
//! snapshotting for a [`LabelStore`].
//!
//! The on-disk formats (segment/record/snapshot layouts, CRCs, the
//! torn-tail rule) live in the `pclabel-wal` crate and are specified in
//! `docs/ONDISK_FORMAT.md`; this module is the engine-side policy layer
//! that ties them to the store:
//!
//! * **Recovery** ([`Durability::open`]) — load the newest snapshot
//!   that passes full validation (format CRCs *and* a semantic check:
//!   the label rebuilt from the snapshot's dataset must reproduce the
//!   stored `PC`/`VC` tables exactly), fall back to its predecessor if
//!   not, then replay the WAL segments on top. Replay is idempotent via
//!   each entry's `applied_lsn`, so a snapshot taken mid-stream and the
//!   records around it compose without a store-wide barrier.
//! * **Logging** (`WalSink`) — every store mutation appends its record
//!   *before* publishing, under the chosen [`FsyncPolicy`].
//! * **Snapshotting** ([`Durability::snapshot_now`] and the background
//!   thread) — capture the store, write a snapshot (tmp + rename +
//!   directory fsync), rotate the WAL, then retire old snapshots and
//!   prune fully-covered segments.
//!
//! Recovery never appends to an existing segment: it opens a fresh one
//! at the recovered LSN and quarantines (renames to `*.torn`) anything
//! it could not trust, so a half-written tail is never re-read.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pclabel_core::label::Label;
use pclabel_data::dataset::{Dataset, MISSING};
use pclabel_telemetry::{Counter, Gauge, Histogram, Registry};
use pclabel_wal::dir::DataDir;
use pclabel_wal::record::WalOp;
use pclabel_wal::snapshot::{write_snapshot, SnapshotData, SnapshotEntry};
use pclabel_wal::wal::{
    read_segment, FsyncPolicy, TailState, WalWriter, BATCH_BYTES, BATCH_INTERVAL_MS, WAL_HEADER_LEN,
};

use crate::health::Health;
use crate::store::{sel_of, EngineError, EntryState, LabelStore, StoreEntry};

impl From<pclabel_wal::FormatError> for EngineError {
    fn from(e: pclabel_wal::FormatError) -> Self {
        EngineError::Durability(e.to_string())
    }
}

/// Tuning for the durability plane.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// When WAL appends reach disk (`--fsync always|batch|off`).
    pub fsync: FsyncPolicy,
    /// Unsnapshotted-WAL-byte threshold that triggers a background
    /// snapshot.
    pub snapshot_wal_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::Batch,
            snapshot_wal_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What [`Durability::open`] found and did, for boot logging and the
/// crash-recovery gate.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// `last_lsn` of the snapshot recovery loaded, if any.
    pub snapshot_lsn: Option<u64>,
    /// Snapshots that failed validation, newest first, with reasons.
    pub rejected_snapshots: Vec<(PathBuf, String)>,
    /// WAL records fed to replay (applied or idempotently skipped).
    pub replayed_records: u64,
    /// Highest trusted LSN after replay — the new segment's base.
    pub recovered_lsn: u64,
    /// Datasets live in the store after recovery.
    pub datasets: usize,
    /// Why replay stopped early (torn tail, segment gap, unreadable
    /// segment), if it did. The untrusted files are quarantined.
    pub stopped: Option<String>,
    /// Segment files renamed to `*.torn` because replay could not
    /// trust them.
    pub quarantined: Vec<PathBuf>,
}

/// A point-in-time view of the durability plane for `stats` /
/// `server_stats`.
#[derive(Debug, Clone)]
pub struct DurabilityStats {
    /// The data directory.
    pub data_dir: PathBuf,
    /// The configured fsync policy.
    pub fsync: FsyncPolicy,
    /// LSN of the last appended WAL record.
    pub last_lsn: u64,
    /// `last_lsn` of the newest on-disk snapshot (0 before the first).
    pub snapshot_lsn: u64,
    /// Seconds since the last snapshot was written (since boot before
    /// the first).
    pub snapshot_age_secs: f64,
    /// Total bytes across live WAL segments.
    pub wal_bytes: u64,
    /// Live WAL segment count.
    pub segments: usize,
    /// Live snapshot count.
    pub snapshots: usize,
}

/// The live write-ahead-log sink the store appends through.
///
/// One mutex serializes appends; it is the *leaf* of the lock hierarchy
/// (entry writer lock → store registry lock → this), which is what lets
/// mutators log while holding their writer or registry lock without
/// deadlocking against the snapshotter (which captures entry state
/// without ever taking this mutex while holding store locks). No entry's
/// state lock is held while it is: queries never wait on an append or
/// its fsync.
pub(crate) struct WalSink {
    writer: Mutex<WalWriter>,
    policy: FsyncPolicy,
    health: Arc<Health>,
    last_lsn: AtomicU64,
    /// Bytes appended since the last snapshot, driving the background
    /// snapshot trigger.
    unsnapshotted_bytes: AtomicU64,
    records_total: Arc<Counter>,
    last_lsn_gauge: Arc<Gauge>,
    unsnapshotted_gauge: Arc<Gauge>,
    fsync_seconds: Arc<Histogram>,
}

impl std::fmt::Debug for WalSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalSink")
            .field("policy", &self.policy)
            .field("last_lsn", &self.last_lsn.load(Ordering::Relaxed))
            .finish()
    }
}

impl WalSink {
    fn new(
        writer: WalWriter,
        policy: FsyncPolicy,
        registry: &Registry,
        health: Arc<Health>,
    ) -> WalSink {
        let last_lsn = writer.next_lsn().saturating_sub(1);
        WalSink {
            writer: Mutex::new(writer),
            policy,
            health,
            last_lsn: AtomicU64::new(last_lsn),
            unsnapshotted_bytes: AtomicU64::new(0),
            records_total: registry.counter(
                "pclabel_wal_records_total",
                "WAL records appended since boot",
                &[],
            ),
            last_lsn_gauge: registry.gauge(
                "pclabel_wal_last_lsn",
                "LSN of the last appended WAL record",
                &[],
            ),
            unsnapshotted_gauge: registry.gauge(
                "pclabel_wal_unsnapshotted_bytes",
                "WAL bytes appended since the last snapshot",
                &[],
            ),
            fsync_seconds: registry.histogram("pclabel_fsync_seconds", "WAL fsync latency", &[]),
        }
    }

    /// Appends one op, syncing per the fsync policy, and returns its
    /// LSN. An I/O failure is returned to the mutator, which must not
    /// publish its change — and flips the store into read-only degraded
    /// mode until the probe thread heals the data directory.
    pub(crate) fn append(&self, op: &WalOp) -> Result<u64, EngineError> {
        let mut writer = self.writer.lock().expect("wal mutex");
        // Checked *under the writer lock*: a concurrent mutator that
        // just failed (and rolled back) marks degraded before releasing
        // the lock, so no append can land between a rollback and the
        // heal's truncation.
        if let Some(reason) = self.health.degraded_reason() {
            return Err(EngineError::Degraded(reason));
        }
        let before = writer.bytes_written();
        let lsn = match writer.append(op) {
            Ok(lsn) => lsn,
            Err(e) => {
                // A failed (possibly partial) append leaves the
                // writer's counters untouched, so the torn bytes sit
                // beyond the trusted prefix and sanitize removes them.
                let reason = format!("WAL append: {e}");
                self.health.note_append_failure(&reason);
                return Err(EngineError::Degraded(reason));
            }
        };
        let appended = writer.bytes_written() - before;
        let synced = match self.policy {
            FsyncPolicy::Always => self.timed_sync(&mut writer),
            FsyncPolicy::Batch => {
                if writer.unsynced_bytes() >= BATCH_BYTES {
                    self.timed_sync(&mut writer)
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Off => Ok(()),
        };
        if let Err(e) = synced {
            // The record reached the file but not the platter, and the
            // mutator will not publish or acknowledge it. Un-count it
            // so sanitize truncates it during heal — otherwise an
            // unacknowledged op would replay on the next boot (and a
            // client retrying the degraded error would apply it twice).
            writer.rollback_last(appended);
            let reason = e.to_string();
            self.health.note_append_failure(&reason);
            return Err(EngineError::Degraded(reason));
        }
        drop(writer);
        self.last_lsn.store(lsn, Ordering::Release);
        self.records_total.inc();
        self.last_lsn_gauge.set(lsn);
        let total = self
            .unsnapshotted_bytes
            .fetch_add(appended, Ordering::Relaxed)
            + appended;
        self.unsnapshotted_gauge.set(total);
        Ok(lsn)
    }

    fn timed_sync(&self, writer: &mut WalWriter) -> Result<(), EngineError> {
        let t0 = Instant::now();
        writer
            .sync()
            .map_err(|e| EngineError::Durability(format!("WAL fsync: {e}")))?;
        self.fsync_seconds.observe(t0.elapsed().as_secs_f64());
        Ok(())
    }

    /// LSN of the last appended record.
    pub(crate) fn last_lsn(&self) -> u64 {
        self.last_lsn.load(Ordering::Acquire)
    }

    /// Time-half of [`FsyncPolicy::Batch`]: syncs when unsynced bytes
    /// have been sitting longer than [`BATCH_INTERVAL_MS`]. Driven by
    /// the background flusher thread.
    fn flush_if_due(&self) -> Result<(), EngineError> {
        let mut writer = self.writer.lock().expect("wal mutex");
        if writer.unsynced_bytes() > 0 && writer.millis_since_sync() >= BATCH_INTERVAL_MS {
            self.timed_sync(&mut writer)?;
        }
        Ok(())
    }

    /// Truncates the live segment back to its trusted prefix and fsyncs
    /// it — the first step of a degraded-mode heal (removes torn bytes
    /// from partial appends and rolled-back ghost records).
    fn sanitize(&self) -> Result<(), EngineError> {
        let mut writer = self.writer.lock().expect("wal mutex");
        writer
            .sanitize()
            .map_err(|e| EngineError::Durability(format!("WAL sanitize: {e}")))
    }

    /// Syncs the current segment and opens a fresh one whose base is
    /// the last written LSN. Skipped (returning `false`) when the
    /// current segment holds no records — rotation would recreate the
    /// same file name.
    fn rotate(&self, dir: &DataDir) -> Result<bool, EngineError> {
        let mut writer = self.writer.lock().expect("wal mutex");
        if writer.bytes_written() == WAL_HEADER_LEN as u64 {
            return Ok(false);
        }
        self.timed_sync(&mut writer)?;
        let base = writer.next_lsn() - 1;
        let fresh = WalWriter::create(dir.path(), base)
            .map_err(|e| EngineError::Durability(format!("WAL rotate: {e}")))?;
        *writer = fresh;
        Ok(true)
    }
}

/// The engine-side durability driver: owns the recovered [`DataDir`],
/// the `WalSink` wired into the store, and the background flusher and
/// snapshotter threads (joined on drop).
#[derive(Debug)]
pub struct Durability {
    dir: DataDir,
    options: DurabilityOptions,
    store: Arc<LabelStore>,
    sink: Arc<WalSink>,
    health: Arc<Health>,
    report: RecoveryReport,
    snapshot_mutex: Mutex<()>,
    last_snapshot_lsn: AtomicU64,
    last_snapshot_at: Mutex<Instant>,
    snapshots_total: Arc<Counter>,
    snapshot_lsn_gauge: Arc<Gauge>,
    snapshot_seconds: Arc<Histogram>,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Durability {
    /// Opens (creating if absent) `data_dir`, recovers the store from
    /// the newest valid snapshot plus WAL replay, wires the WAL sink
    /// into `store`, and starts the background flusher/snapshotter.
    ///
    /// The store must be empty and not yet serving. On return the store
    /// holds exactly the pre-crash durable state and every subsequent
    /// mutation is logged.
    pub fn open(
        data_dir: impl Into<PathBuf>,
        options: DurabilityOptions,
        store: Arc<LabelStore>,
        registry: &Registry,
    ) -> Result<Arc<Durability>, EngineError> {
        let dir = DataDir::open(data_dir.into())
            .map_err(|e| EngineError::Durability(format!("open data dir: {e}")))?;
        let mut report = RecoveryReport::default();

        // Phase 1: newest snapshot that passes format *and* semantic
        // validation. The semantic check stages the rebuilt entries so
        // a passing snapshot is installed without rebuilding twice.
        let mut staged: Vec<(String, EntryState)> = Vec::new();
        let pick = dir
            .pick_snapshot(|data| {
                staged.clear();
                for entry in &data.entries {
                    staged.push(stage_entry(entry)?);
                }
                Ok(())
            })
            .map_err(|e| EngineError::Durability(format!("scan snapshots: {e}")))?;
        for rejected in pick.rejected {
            report
                .rejected_snapshots
                .push((rejected.path, rejected.reason));
        }
        let mut cursor = 0u64;
        if let Some((_, data)) = pick.chosen {
            for (name, state) in staged.drain(..) {
                store.install_recovered(name, state);
            }
            store.install_retired(data.retired.iter().cloned());
            report.snapshot_lsn = Some(data.last_lsn);
            cursor = data.last_lsn;
        }

        // Phase 2: replay every segment in base order. Trust ends at
        // the first torn tail, LSN gap between segments, or unreadable
        // segment; everything at or after that point is quarantined.
        let segments = dir
            .list_segments()
            .map_err(|e| EngineError::Durability(format!("list segments: {e}")))?;
        let mut stop_at: Option<usize> = None;
        for (i, (base, path)) in segments.iter().enumerate() {
            if *base > cursor {
                report.stopped = Some(format!(
                    "segment gap: records {}..={} missing before {}",
                    cursor + 1,
                    base,
                    path.display()
                ));
                stop_at = Some(i);
                break;
            }
            let read = match read_segment(path) {
                Ok(read) => read,
                Err(e) => {
                    report.stopped = Some(format!("{}: {e}", path.display()));
                    stop_at = Some(i);
                    break;
                }
            };
            cursor = cursor.max(base + read.records.len() as u64);
            for (lsn, op) in read.records {
                store.replay(lsn, op)?;
                report.replayed_records += 1;
            }
            if let TailState::Torn { reason, offset } = read.tail {
                report.stopped = Some(format!(
                    "{}: torn tail at offset {offset}: {reason}",
                    path.display()
                ));
                stop_at = Some(i + 1);
                break;
            }
        }
        // Quarantine segments past the stop point, plus any segment
        // whose file name collides with the fresh segment recovery is
        // about to create (such a segment holds zero trusted records).
        if let Some(stop) = stop_at {
            for (_, path) in &segments[stop..] {
                report.quarantined.push(quarantine(path));
            }
        }
        let fresh_path = dir.path().join(pclabel_wal::wal::segment_file_name(cursor));
        if fresh_path.exists() {
            report.quarantined.push(quarantine(&fresh_path));
        }
        report.recovered_lsn = cursor;
        report.datasets = store.len();
        registry
            .counter(
                "pclabel_wal_quarantined_total",
                "WAL segments quarantined (renamed to *.torn) by boot recovery",
                &[],
            )
            .add(report.quarantined.len() as u64);

        // Phase 3: go live. A fresh segment at the recovered LSN —
        // never append to old files — the health state machine, and the
        // sink into the store.
        let writer = WalWriter::create(dir.path(), cursor)
            .map_err(|e| EngineError::Durability(format!("create WAL segment: {e}")))?;
        let health = Health::new(registry);
        let sink = Arc::new(WalSink::new(
            writer,
            options.fsync,
            registry,
            Arc::clone(&health),
        ));
        store.set_sink(Arc::clone(&sink));
        store.set_health(Arc::clone(&health));

        let snapshot_lsn = dir
            .list_snapshots()
            .ok()
            .and_then(|s| s.last().map(|&(lsn, _)| lsn))
            .unwrap_or(0);
        let durability = Arc::new(Durability {
            dir,
            options,
            store,
            sink,
            health,
            report,
            snapshot_mutex: Mutex::new(()),
            last_snapshot_lsn: AtomicU64::new(snapshot_lsn),
            last_snapshot_at: Mutex::new(Instant::now()),
            snapshots_total: registry.counter(
                "pclabel_snapshots_total",
                "Snapshots written since boot",
                &[],
            ),
            snapshot_lsn_gauge: registry.gauge(
                "pclabel_snapshot_lsn",
                "last_lsn of the newest on-disk snapshot",
                &[],
            ),
            snapshot_seconds: registry.histogram(
                "pclabel_snapshot_seconds",
                "Snapshot capture+write+rotate latency",
                &[],
            ),
            stop: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
        });
        durability.snapshot_lsn_gauge.set(snapshot_lsn);
        durability.spawn_background();
        Ok(durability)
    }

    fn spawn_background(self: &Arc<Self>) {
        let mut threads = self.threads.lock().expect("threads lock");
        if self.options.fsync == FsyncPolicy::Batch {
            let sink = Arc::clone(&self.sink);
            let health = Arc::clone(&self.health);
            let stop = Arc::clone(&self.stop);
            threads.push(
                std::thread::Builder::new()
                    .name("pclabel-wal-flush".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(BATCH_INTERVAL_MS / 2 + 1));
                            // While degraded the probe thread owns the
                            // disk; pending acked-unsynced bytes reach
                            // the platter via the heal's sanitize+fsync.
                            if health.is_degraded() {
                                continue;
                            }
                            if let Err(e) = sink.flush_if_due() {
                                health.note_flush_failure(&e.to_string());
                            }
                        }
                        let _ = sink.flush_if_due();
                    })
                    .expect("spawn flusher"),
            );
        }
        let this = Arc::clone(self);
        let stop = Arc::clone(&self.stop);
        threads.push(
            std::thread::Builder::new()
                .name("pclabel-snapshot".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(200));
                        if this.health.is_degraded() {
                            continue;
                        }
                        let pending = this.sink.unsnapshotted_bytes.load(Ordering::Relaxed);
                        if pending >= this.options.snapshot_wal_bytes {
                            if let Err(e) = this.snapshot_now() {
                                this.health.note_snapshot_failure(&e.to_string());
                            }
                        }
                    }
                })
                .expect("spawn snapshotter"),
        );
        let this = Arc::clone(self);
        let stop = Arc::clone(&self.stop);
        threads.push(
            std::thread::Builder::new()
                .name("pclabel-health-probe".into())
                .spawn(move || {
                    // Seeded LCG drives the jitter; it only shapes retry
                    // pacing, never correctness.
                    let mut rng: u64 = 0x243f_6a88_85a3_08d3;
                    let mut attempt: u32 = 0;
                    while !stop.load(Ordering::Relaxed) {
                        if !this.health.is_degraded() {
                            attempt = 0;
                            std::thread::sleep(Duration::from_millis(25));
                            continue;
                        }
                        this.health.tick();
                        // Jittered exponential backoff: 100ms·2^attempt
                        // capped at 5s, scaled to 50–100%.
                        let exp = Duration::from_millis(100u64 << attempt.min(6))
                            .min(Duration::from_secs(5));
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let frac = ((rng >> 33) % 1000) as f64 / 1000.0;
                        let backoff = exp.mul_f64(0.5 + frac / 2.0);
                        // Sleep in slices so shutdown stays prompt.
                        let until = Instant::now() + backoff;
                        while Instant::now() < until && !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        if stop.load(Ordering::Relaxed) || !this.health.is_degraded() {
                            continue;
                        }
                        this.health.count_recovery_attempt();
                        if this.try_heal().is_ok() {
                            attempt = 0;
                        } else {
                            attempt = attempt.saturating_add(1);
                        }
                    }
                })
                .expect("spawn health probe"),
        );
    }

    /// One degraded-mode recovery attempt: truncate the live segment
    /// back to its trusted prefix (removing torn bytes from partial or
    /// rolled-back appends) and fsync the clean tail, then run a full
    /// snapshot — which re-persists every published entry to a brand-new
    /// file, rotates to a fresh segment and prunes — and only then
    /// restore read-write. The fresh snapshot is the recovery-style
    /// revalidation: even if the old segment silently lost dirty pages
    /// to the failed fsync, replay starts from the new snapshot, so
    /// nothing acknowledged depends on the suspect tail.
    fn try_heal(&self) -> Result<(), EngineError> {
        self.sink.sanitize()?;
        self.snapshot_now()?;
        self.health.mark_healthy();
        Ok(())
    }

    /// The shared health state machine (degraded/read-only status).
    pub fn health(&self) -> &Arc<Health> {
        &self.health
    }

    /// The recovery report from boot.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// LSN of the last appended WAL record.
    pub fn last_lsn(&self) -> u64 {
        self.sink.last_lsn()
    }

    /// Captures the store, writes a snapshot, rotates the WAL, and
    /// prunes files no retained snapshot needs. Returns the snapshot's
    /// `last_lsn`. Concurrent calls serialize; mutations proceed freely
    /// while the capture runs (per-entry consistency is all the format
    /// needs).
    pub fn snapshot_now(&self) -> Result<u64, EngineError> {
        let _guard = self.snapshot_mutex.lock().expect("snapshot mutex");
        let t0 = Instant::now();

        let (entries, retired) = self.store.capture_durable();
        let mut snap_entries = Vec::with_capacity(entries.len());
        let mut min_required: Option<u64> = None;
        for entry in &entries {
            let snap = capture_entry(entry);
            min_required = Some(match min_required {
                Some(m) => m.min(snap.applied_lsn),
                None => snap.applied_lsn,
            });
            snap_entries.push(snap);
        }
        // Read the WAL position *after* capturing entry states: every
        // captured applied_lsn is ≤ this, so the snapshot plus records
        // above min_required_lsn reproduces at least everything up to
        // last_lsn for each entry. Writers log before they publish, so
        // this position may cover a record whose entry was captured
        // before the record was published: to the snapshot it looks like
        // a record logged after the capture. The entry's older
        // applied_lsn keeps that record above min_required_lsn, so its
        // segment is retained and replay applies it.
        let last_lsn = self.sink.last_lsn();
        let data = SnapshotData {
            last_lsn,
            min_required_lsn: min_required.unwrap_or(last_lsn),
            entries: snap_entries,
            retired,
        };
        write_snapshot(self.dir.path(), &data)
            .map_err(|e| EngineError::Durability(format!("write snapshot: {e}")))?;
        self.sink.rotate(&self.dir)?;
        // Retention floor comes from the *retained* set, so a reader
        // falling back to the older snapshot still finds its records.
        let _ = self.dir.retire_old_snapshots();
        if let Ok(Some(floor)) = self.dir.truncation_floor() {
            let _ = self.dir.prune_segments(floor);
        }
        self.sink.unsnapshotted_bytes.store(0, Ordering::Relaxed);
        self.sink.unsnapshotted_gauge.set(0);
        self.last_snapshot_lsn.store(last_lsn, Ordering::Relaxed);
        *self.last_snapshot_at.lock().expect("snapshot clock") = Instant::now();
        self.snapshots_total.inc();
        self.snapshot_lsn_gauge.set(last_lsn);
        self.snapshot_seconds.observe(t0.elapsed().as_secs_f64());
        Ok(last_lsn)
    }

    /// A point-in-time durability summary for `stats`/`server_stats`.
    pub fn stats(&self) -> DurabilityStats {
        let segments = self.dir.list_segments().map(|s| s.len()).unwrap_or(0);
        let snapshots = self.dir.list_snapshots().map(|s| s.len()).unwrap_or(0);
        DurabilityStats {
            data_dir: self.dir.path().to_path_buf(),
            fsync: self.options.fsync,
            last_lsn: self.sink.last_lsn(),
            snapshot_lsn: self.last_snapshot_lsn.load(Ordering::Relaxed),
            snapshot_age_secs: self
                .last_snapshot_at
                .lock()
                .expect("snapshot clock")
                .elapsed()
                .as_secs_f64(),
            wal_bytes: self.dir.wal_bytes().unwrap_or(0),
            segments,
            snapshots,
        }
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.threads.lock().expect("threads lock").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Renames an untrusted file to `<name>.torn` (ignored by recovery,
/// kept for post-mortems). Falls back to the original path if the
/// rename fails — recovery then still never reads it, because it only
/// opens `wal-*.log` names it has vetted.
fn quarantine(path: &std::path::Path) -> PathBuf {
    let mut target = path.as_os_str().to_owned();
    target.push(".torn");
    let target = PathBuf::from(target);
    match std::fs::rename(path, &target) {
        Ok(()) => target,
        Err(_) => path.to_path_buf(),
    }
}

/// Rebuilds one snapshot entry into live store state, verifying that
/// the rebuilt label reproduces the stored `PC`/`VC` tables exactly. A
/// label is fully determined by `(dataset, sel)`, so any divergence
/// means the snapshot does not describe this build's semantics — the
/// caller rejects it and falls back to the previous snapshot.
fn stage_entry(entry: &SnapshotEntry) -> Result<(String, EntryState), String> {
    let dataset = entry
        .dataset
        .clone()
        .into_dataset()
        .map_err(|e| format!("entry {:?}: {e}", entry.name))?;
    let state = EntryState::recovered(
        Arc::new(dataset),
        &entry.sel,
        entry.generation,
        entry.applied_lsn,
    );
    let rebuilt = pc_table(&state.label);
    if rebuilt != entry.pc {
        return Err(format!(
            "entry {:?}: rebuilt PC diverges from snapshot ({} vs {} patterns)",
            entry.name,
            rebuilt.len(),
            entry.pc.len()
        ));
    }
    let vc = vc_tables(&state.dataset, &state.label);
    if vc != entry.vc {
        return Err(format!(
            "entry {:?}: rebuilt VC diverges from snapshot",
            entry.name
        ));
    }
    Ok((entry.name.clone(), state))
}

/// Captures one live entry into its snapshot form.
fn capture_entry(entry: &Arc<StoreEntry>) -> SnapshotEntry {
    let cur = entry.state();
    SnapshotEntry {
        name: entry.name().to_string(),
        generation: cur.generation,
        applied_lsn: cur.applied_lsn,
        sel: sel_of(&cur.label),
        dataset: pclabel_wal::record::DatasetImage::from_dataset(&cur.dataset),
        pc: pc_table(&cur.label),
        vc: vc_tables(&cur.dataset, &cur.label),
    }
}

/// The label's `PC` as `(packed key, count)` rows: keys are the
/// pattern's value ids in `sel` order (missing terms as the `MISSING`
/// sentinel), sorted so snapshot bytes are deterministic.
fn pc_table(label: &Label) -> Vec<(Vec<u32>, u64)> {
    let sel: Vec<usize> = label.attrs().iter().collect();
    let mut rows: Vec<(Vec<u32>, u64)> = label
        .pc_entries()
        .into_iter()
        .map(|(pattern, count)| {
            let key = sel
                .iter()
                .map(|&a| pattern.value_of(a).unwrap_or(MISSING))
                .collect();
            (key, count)
        })
        .collect();
    rows.sort();
    rows
}

/// The label's `VC` as one table per **dataset** attribute (not just
/// the selected subset), each indexed by value id.
fn vc_tables(dataset: &Dataset, label: &Label) -> Vec<Vec<u64>> {
    let vc = label.value_counts();
    (0..dataset.n_attrs())
        .map(|attr| {
            let cardinality = dataset
                .schema()
                .attr(attr)
                .map(|a| a.cardinality())
                .unwrap_or(0);
            (0..cardinality as u32).map(|v| vc.count(attr, v)).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Engine, EngineConfig, PatternSpec, QueryRequest};
    use crate::store::LabelPolicy;
    use pclabel_core::attrset::AttrSet;
    use pclabel_data::generate::figure2_sample;
    use pclabel_telemetry::{Phase, Telemetry};
    use std::sync::mpsc;

    /// An append logs before it publishes, and holds no lock readers take
    /// while it waits on the WAL: with the sink's mutex held, an append
    /// to a dataset is stuck at its log step, and a query batch on that
    /// dataset still answers from the previous version.
    #[test]
    fn a_query_answers_while_an_append_waits_on_the_wal() {
        let dir = std::env::temp_dir().join(format!(
            "pclabel-durability-unit-{}-wal-wait",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new(EngineConfig::default());
        let options = DurabilityOptions {
            fsync: FsyncPolicy::Always,
            snapshot_wal_bytes: u64::MAX,
        };
        let durability = Durability::open(&dir, options, engine.store_arc(), &Registry::new())
            .expect("open data dir");
        let policy = LabelPolicy::Attrs(AttrSet::from_indices([1, 3]));
        engine
            .store()
            .register("census", figure2_sample(), policy)
            .unwrap();
        let entry = engine.store().get("census").unwrap();
        // The entry and this handle share the dataset; the append's
        // snapshot holds a third reference until it returns.
        let dataset = entry.dataset();
        assert_eq!(Arc::strong_count(&dataset), 2);
        let query = QueryRequest {
            id: None,
            dataset: "census".to_string(),
            patterns: vec![PatternSpec::new([("age group", "20-39")])],
        };
        let row = || {
            vec![
                Some("Female"),
                Some("20-39"),
                Some("Caucasian"),
                Some("married"),
            ]
        };

        let trace = Telemetry::new().begin("append_rows");
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

        std::thread::scope(|scope| {
            let wal = durability.sink.writer.lock().expect("wal mutex");
            let append = scope.spawn(|| {
                let rows = [row()];
                engine
                    .store()
                    .append_rows_traced("census", &rows, Some(&trace))
            });
            wait_until("the append's snapshot", &|| {
                Arc::strong_count(&dataset) == 3
            });
            // The incremental label update is traced once computed; all
            // that is left is to log, which waits on the mutex held here.
            wait_until("the label update", &|| {
                trace.phase_secs(Phase::CountCount) > 0.0
            });
            let (answered_tx, answered) = mpsc::channel();
            let (engine, query) = (&engine, &query);
            scope.spawn(move || {
                let _ = answered_tx.send(engine.execute(query));
            });
            let response = answered.recv_timeout(Duration::from_secs(10));
            // Released before any assertion, so a failure cannot hang.
            drop(wal);
            let response = response
                .expect("the query batch waited on the append's WAL flush")
                .expect("query answered");
            assert_eq!(response.generation, 0);
            assert_eq!(response.n_rows, 18);
            assert_eq!(response.results[0].estimate, 12.0);
            let report = append.join().unwrap().expect("append landed");
            assert_eq!((report.generation, report.total_rows), (1, 19));
        });
        assert_eq!(entry.applied_lsn(), 2);
        assert_eq!(engine.execute(&query).unwrap().results[0].estimate, 13.0);
        drop(durability);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
