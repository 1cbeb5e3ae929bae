//! End-to-end durability tests: a store mutated through the WAL sink
//! must reopen to exactly the same state, through every combination of
//! snapshot presence, WAL tails and snapshot corruption.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pclabel_core::attrset::AttrSet;
use pclabel_data::generate::figure2_sample;
use pclabel_engine::durability::{Durability, DurabilityOptions};
use pclabel_engine::store::{LabelPolicy, LabelStore};
use pclabel_telemetry::Registry;
use pclabel_wal::record::DatasetImage;
use pclabel_wal::wal::FsyncPolicy;

use proptest::prelude::*;

/// The default search policy (refinement on) at `bound`.
fn search_policy(bound: u64) -> LabelPolicy {
    LabelPolicy::Search {
        bound,
        refine: true,
    }
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty temp data directory unique to this test process.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pclabel-durability-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Always,
        // Keep the background snapshotter quiet; tests snapshot
        // explicitly where they mean to.
        snapshot_wal_bytes: u64::MAX,
    }
}

/// Opens a fresh store over `dir` and recovers it.
fn open(dir: &PathBuf) -> (Arc<LabelStore>, Arc<Durability>) {
    let store = Arc::new(LabelStore::new());
    let durability =
        Durability::open(dir, options(), Arc::clone(&store), &Registry::new()).expect("recovery");
    (store, durability)
}

/// Everything that defines a store's logical state, in comparable form.
fn state_of(store: &LabelStore) -> Vec<(String, u64, DatasetImage, Vec<usize>, u64)> {
    store
        .list()
        .iter()
        .map(|entry| {
            let (dataset, label, generation) = entry.snapshot();
            (
                entry.name().to_string(),
                generation,
                DatasetImage::from_dataset(&dataset),
                label.attrs().iter().collect(),
                label.pattern_count_size(),
            )
        })
        .collect()
}

fn row(gender: &str, age: &str, race: &str, marital: &str) -> Vec<Option<String>> {
    vec![
        Some(gender.to_string()),
        Some(age.to_string()),
        Some(race.to_string()),
        Some(marital.to_string()),
    ]
}

#[test]
fn reopen_replays_wal_to_identical_state() {
    let dir = temp_dir("replay");
    let (store, durability) = open(&dir);
    store
        .register("census", figure2_sample(), search_policy(5))
        .unwrap();
    store
        .append_rows(
            "census",
            &[
                row("Female", "20-39", "Caucasian", "married"),
                row("Male", "60+", "Caucasian", "single"), // new value → rebuild path
            ],
        )
        .unwrap();
    store
        .refresh(
            "census",
            LabelPolicy::Attrs(AttrSet::from_indices([0, 1])),
            None,
        )
        .unwrap();
    store
        .register("scratch", figure2_sample(), search_policy(3))
        .unwrap();
    assert!(store.remove("scratch").unwrap());
    let expected = state_of(&store);
    assert_eq!(durability.last_lsn(), 5, "five mutations, five records");
    drop(durability);
    drop(store);

    let (store2, durability2) = open(&dir);
    assert_eq!(state_of(&store2), expected);
    let report = durability2.recovery();
    assert_eq!(report.snapshot_lsn, None);
    assert_eq!(report.replayed_records, 5);
    assert_eq!(report.recovered_lsn, 5);
    assert_eq!(report.datasets, 1);
    assert!(report.stopped.is_none(), "{:?}", report.stopped);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_plus_tail_replay_compose() {
    let dir = temp_dir("snapshot");
    let (store, durability) = open(&dir);
    store
        .register(
            "census",
            figure2_sample(),
            LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
        )
        .unwrap();
    store
        .append_rows("census", &[row("Female", "20-39", "Caucasian", "married")])
        .unwrap();
    let snap_lsn = durability.snapshot_now().unwrap();
    assert_eq!(snap_lsn, 2);
    // Ops after the snapshot live only in the WAL tail.
    store
        .append_rows("census", &[row("Male", "under 20", "Hispanic", "single")])
        .unwrap();
    store
        .refresh(
            "census",
            LabelPolicy::Attrs(AttrSet::from_indices([0, 3])),
            None,
        )
        .unwrap();
    let expected = state_of(&store);
    drop(durability);
    drop(store);

    let (store2, durability2) = open(&dir);
    assert_eq!(state_of(&store2), expected);
    let report = durability2.recovery();
    assert_eq!(report.snapshot_lsn, Some(2));
    assert_eq!(report.recovered_lsn, 4);
    assert!(report.rejected_snapshots.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_predecessor() {
    let dir = temp_dir("fallback");
    let (store, durability) = open(&dir);
    store
        .register(
            "census",
            figure2_sample(),
            LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
        )
        .unwrap();
    durability.snapshot_now().unwrap();
    store
        .append_rows("census", &[row("Female", "20-39", "Caucasian", "married")])
        .unwrap();
    durability.snapshot_now().unwrap();
    let expected = state_of(&store);
    drop(durability);
    drop(store);

    // Flip a byte in the newest snapshot's middle: its section CRCs
    // must reject it and recovery must fall back to the older one,
    // replaying the WAL records the fallback does not cover.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max()
        .expect("snapshots on disk");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, &bytes).unwrap();

    let (store2, durability2) = open(&dir);
    assert_eq!(state_of(&store2), expected);
    let report = durability2.recovery();
    assert_eq!(
        report.snapshot_lsn,
        Some(1),
        "fell back to the older snapshot"
    );
    assert_eq!(report.rejected_snapshots.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generations_stay_monotone_across_restart_and_reregister() {
    let dir = temp_dir("monotone");
    let (store, durability) = open(&dir);
    store
        .register(
            "census",
            figure2_sample(),
            LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
        )
        .unwrap();
    store
        .append_rows("census", &[row("Female", "20-39", "Caucasian", "married")])
        .unwrap();
    assert!(store.remove("census").unwrap());
    drop(durability);
    drop(store);

    // The retirement must survive the restart: re-registering resumes
    // above the pre-restart generation, never back at 0.
    let (store2, durability2) = open(&dir);
    assert_eq!(store2.len(), 0);
    assert_eq!(store2.retired_generation("census"), Some(1));
    let entry = store2
        .register("census", figure2_sample(), search_policy(5))
        .unwrap();
    assert_eq!(entry.generation(), 2);
    drop(durability2);
    drop(store2);

    // And again through a snapshot instead of raw WAL replay.
    let (store3, durability3) = open(&dir);
    durability3.snapshot_now().unwrap();
    assert!(store3.remove("census").unwrap());
    drop(durability3);
    drop(store3);
    let (store4, _durability4) = open(&dir);
    assert_eq!(store4.retired_generation("census"), Some(2));
    let entry = store4
        .register("census", figure2_sample(), search_policy(5))
        .unwrap();
    assert_eq!(entry.generation(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_wal_tail_recovers_prefix() {
    let dir = temp_dir("torn");
    let (store, durability) = open(&dir);
    store
        .register(
            "census",
            figure2_sample(),
            LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
        )
        .unwrap();
    store
        .append_rows("census", &[row("Female", "20-39", "Caucasian", "married")])
        .unwrap();
    store
        .append_rows("census", &[row("Male", "40-59", "Asian", "single")])
        .unwrap();
    drop(durability);
    let expected_rows = 19; // 18 + first append; the second is torn off
    drop(store);

    // Tear the last record: chop bytes off the only segment's tail.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .expect("segment on disk");
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..bytes.len() - 7]).unwrap();

    let (store2, durability2) = open(&dir);
    let entry = store2.get("census").unwrap();
    assert_eq!(entry.dataset().n_rows(), expected_rows);
    assert_eq!(entry.generation(), 1);
    let report = durability2.recovery();
    assert_eq!(report.recovered_lsn, 2);
    assert!(report.stopped.as_deref().unwrap_or("").contains("torn"));
    // The torn segment was quarantined and a fresh one opened; writes
    // continue from the recovered LSN.
    store2
        .append_rows("census", &[row("Male", "40-59", "Asian", "single")])
        .unwrap();
    assert_eq!(store2.get("census").unwrap().applied_lsn(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- replay ≡ in-memory, property-tested over random op sequences ----

#[derive(Debug, Clone)]
enum Op {
    Register(u8),
    AppendSeen(u8),
    AppendNew(u8),
    Refresh(u8),
    Remove(u8),
    Snapshot,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..6, 0u8..2).prop_map(|(kind, i)| match kind {
        0 => Op::Register(i),
        1 => Op::AppendSeen(i),
        2 => Op::AppendNew(i),
        3 => Op::Refresh(i),
        4 => Op::Remove(i),
        _ => Op::Snapshot,
    })
}

fn name_of(i: u8) -> String {
    format!("d{i}")
}

/// Applies one op to a store, mirroring exactly what the durable and
/// the in-memory runs both do. `fresh` tags appended values so "new
/// dictionary value" appends stay new per call.
fn apply(store: &LabelStore, op: &Op, fresh: &mut u32) {
    match op {
        Op::Register(i) => {
            let _ = store.register(
                name_of(*i),
                figure2_sample(),
                LabelPolicy::Attrs(AttrSet::from_indices([1, 3])),
            );
        }
        Op::AppendSeen(i) => {
            let _ = store.append_rows(
                &name_of(*i),
                &[row("Female", "20-39", "Caucasian", "married")],
            );
        }
        Op::AppendNew(i) => {
            *fresh += 1;
            let _ = store.append_rows(
                &name_of(*i),
                &[row("Male", &format!("age-{fresh}"), "Caucasian", "single")],
            );
        }
        Op::Refresh(i) => {
            let _ = store.refresh(
                &name_of(*i),
                LabelPolicy::Attrs(AttrSet::from_indices([0, 3])),
                None,
            );
        }
        Op::Remove(i) => {
            let _ = store.remove(&name_of(*i));
        }
        Op::Snapshot => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any op sequence, durable-logged then recovered, equals the same
    /// sequence applied to a plain in-memory store — with snapshots
    /// taken at arbitrary points in between.
    #[test]
    fn recovery_equals_in_memory(ops in proptest::collection::vec(arb_op(), 1..14)) {
        let dir = temp_dir("prop");
        let (durable, durability) = open(&dir);
        let memory = LabelStore::new();
        let (mut fresh_a, mut fresh_b) = (0u32, 0u32);
        for op in &ops {
            if matches!(op, Op::Snapshot) {
                durability.snapshot_now().unwrap();
            }
            apply(&durable, op, &mut fresh_a);
            apply(&memory, op, &mut fresh_b);
        }
        prop_assert_eq!(state_of(&durable), state_of(&memory));
        drop(durability);
        drop(durable);

        let (recovered, _durability) = open(&dir);
        prop_assert_eq!(state_of(&recovered), state_of(&memory));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
