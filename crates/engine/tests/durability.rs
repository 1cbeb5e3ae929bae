//! End-to-end durability tests: a store mutated through the WAL sink
//! must reopen to exactly the same state, through every combination of
//! snapshot presence, WAL tails and snapshot corruption.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pclabel_core::attrset::AttrSet;
use pclabel_core::label::Label;
use pclabel_data::dataset::Dataset;
use pclabel_data::generate::{bluenile, figure2_sample, BlueNileConfig};
use pclabel_engine::durability::{Durability, DurabilityOptions};
use pclabel_engine::store::{EngineError, LabelPolicy, LabelStore, StoreEntry};
use pclabel_telemetry::Registry;
use pclabel_wal::record::DatasetImage;
use pclabel_wal::wal::FsyncPolicy;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

// ---- writes racing a remove ----

/// Rows of the BlueNile-like catalog the race tests write to: enough that
/// a label build takes far longer than a remove or a small register.
const RACE_ROWS: usize = 100_000;

/// The label subset the race tests register with: `cut` and `symmetry`.
fn race_policy() -> LabelPolicy {
    LabelPolicy::Attrs(AttrSet::from_indices([1, 5]))
}

/// A BlueNile row of the given `cut`: one outside the catalog's four is a
/// new value on the label's subset, so appending it rebuilds the label.
fn diamond(cut: &str) -> Vec<Option<String>> {
    ["Round", cut, "G", "VS1", "Excellent", "Excellent", "None"]
        .iter()
        .map(|v| Some(v.to_string()))
        .collect()
}

/// Registers `d` on a durable store at `fsync always` and races `write`
/// on it against a remove of `d`, issued once the write has taken its
/// snapshot, followed by `then`, which returns how many records it
/// logged. The write must land before the remove or answer `unknown
/// dataset` and log nothing; either way the reopened store equals the
/// live one.
fn race_remove(
    tag: &str,
    write: impl FnOnce(&LabelStore) -> Result<(), EngineError> + Send,
    then: impl FnOnce(&LabelStore) -> u64,
) {
    let dir = temp_dir(tag);
    let (store, durability) = open(&dir);
    let catalog = bluenile(&BlueNileConfig {
        n_rows: RACE_ROWS,
        seed: 7,
    })
    .unwrap();
    store.register("d", catalog, race_policy()).unwrap();
    // The entry and this handle share the dataset; the write's snapshot
    // holds a third reference.
    let dataset = store.get("d").unwrap().dataset();
    assert_eq!(Arc::strong_count(&dataset), 2);
    let (written, then_logged) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write(&store));
        let start = Instant::now();
        while Arc::strong_count(&dataset) < 3 && !writer.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "the write never began"
            );
            std::thread::yield_now();
        }
        assert!(store.remove("d").unwrap(), "d was registered");
        let logged = then(&store);
        (writer.join().unwrap(), logged)
    });
    match &written {
        Ok(()) => {}
        Err(EngineError::UnknownDataset(name)) => assert_eq!(name, "d"),
        Err(e) => panic!("the write failed: {e}"),
    }
    // The register, the write if it was acknowledged, the remove, then.
    let records = 2 + u64::from(written.is_ok()) + then_logged;
    assert_eq!(durability.last_lsn(), records);
    let live = state_of(&store);
    drop(durability);
    drop(store);
    let (recovered, _durability) = open(&dir);
    assert_eq!(state_of(&recovered), live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_append_that_rebuilds_the_label_racing_a_remove_recovers() {
    race_remove(
        "race-append",
        |store| store.append_rows("d", &[diamond("Superb")]).map(drop),
        |_| 0,
    );
}

#[test]
fn a_refresh_racing_a_remove_recovers() {
    race_remove(
        "race-refresh",
        |store| {
            let policy = LabelPolicy::Attrs(AttrSet::from_indices([0, 1, 2]));
            store.refresh("d", policy, None).map(drop)
        },
        |_| 0,
    );
}

#[test]
fn an_append_racing_a_remove_and_a_reregister_recovers() {
    race_remove(
        "race-reregister",
        |store| store.append_rows("d", &[diamond("Superb")]).map(drop),
        |store| {
            let policy = LabelPolicy::Attrs(AttrSet::from_indices([1, 3]));
            store.register("d", figure2_sample(), policy).unwrap();
            1
        },
    );
}

// ---- writer-mix soak ----

/// A version of an entry a reader holds, with the copy of its dataset
/// taken when it was read.
struct Held {
    dataset: Arc<Dataset>,
    label: Arc<Label>,
    image: DatasetImage,
}

impl Held {
    fn read(entry: &StoreEntry) -> Held {
        let (dataset, label, _) = entry.snapshot();
        let image = DatasetImage::from_dataset(&dataset);
        Held {
            dataset,
            label,
            image,
        }
    }

    /// The held dataset still reads as it did when it was taken, whatever
    /// was appended to its entry since, and the held label is the one a
    /// fresh build over it gives.
    fn check(&self, seed: u64) {
        let now = DatasetImage::from_dataset(&self.dataset);
        assert!(now == self.image, "seed {seed}: a held dataset changed");
        let mut pc = self.label.pc_entries();
        pc.sort();
        let mut rebuilt = Label::build(&self.dataset, self.label.attrs()).pc_entries();
        rebuilt.sort();
        assert_eq!(pc, rebuilt, "seed {seed}: a held label's PC");
    }
}

/// Counts a writer thread out when it ends, panicking or not, so the
/// readers stop.
struct Finished<'a>(&'a AtomicUsize);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Four threads append (some rows with a new value on the label's
/// subset), refresh, remove and re-register two names on a durable store
/// at `fsync always`, snapshotting now and then, while two readers hold
/// entry snapshots across those writes: every held dataset must read as
/// it did when it was taken, and every held label must equal a fresh
/// build over it. Every acknowledged write must be logged once and a
/// refused one not at all, no append or refresh may acknowledge a
/// `(name, generation)` pair twice, and the reopened store must equal the
/// live one.
fn writer_mix(seed: u64, ops_per_thread: usize) {
    let dir = temp_dir("writer-mix");
    let (store, durability) = open(&dir);
    let names = ["a", "b"];
    let policies = [
        LabelPolicy::Attrs(AttrSet::from_indices([1, 5])),
        LabelPolicy::Attrs(AttrSet::from_indices([0, 1])),
    ];
    let catalog = |rng: &mut StdRng| {
        bluenile(&BlueNileConfig {
            n_rows: rng.gen_range(200..2_000usize),
            seed: rng.next_u64(),
        })
        .unwrap()
    };
    // Acknowledged `(name, generation)` pairs, and records logged.
    let acked: Mutex<Vec<(&str, u64)>> = Mutex::new(Vec::new());
    let logged = AtomicUsize::new(0);
    let writing = AtomicUsize::new(4);
    std::thread::scope(|scope| {
        for reader in 0..2 {
            let (store, writing) = (&store, &writing);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(!(seed * 2 + reader));
                let mut held: Vec<Held> = Vec::new();
                while writing.load(Ordering::SeqCst) > 0 {
                    if let Ok(entry) = store.get(names[rng.gen_range(0..2usize)]) {
                        let taken = Held::read(&entry);
                        if held.len() < 8 {
                            held.push(taken);
                        } else {
                            let i = rng.gen_range(0..8usize);
                            std::mem::replace(&mut held[i], taken).check(seed);
                        }
                    }
                    std::thread::yield_now();
                }
                held.iter().for_each(|h| h.check(seed));
            });
        }
        for thread in 0..4 {
            let (store, durability, acked, logged) = (&store, &durability, &acked, &logged);
            let finished = Finished(&writing);
            scope.spawn(move || {
                let _finished = finished;
                let mut rng = StdRng::seed_from_u64(seed * 4 + thread);
                for op in 0..ops_per_thread {
                    let name = names[rng.gen_range(0..2usize)];
                    let policy = policies[rng.gen_range(0..2usize)];
                    let generation = match rng.gen_range(0..10u32) {
                        0..=2 => {
                            let rows: Vec<_> = (0..rng.gen_range(1..5usize))
                                .map(|_| diamond(["Good", "Ideal"][rng.gen_range(0..2usize)]))
                                .collect();
                            store.append_rows(name, &rows).map(|r| Some(r.generation))
                        }
                        3..=4 => {
                            let rows = [diamond(&format!("cut-{seed}-{thread}-{op}"))];
                            store.append_rows(name, &rows).map(|r| Some(r.generation))
                        }
                        5 => store.refresh(name, policy, None).map(Some),
                        6 => store.remove(name).map(|removed| {
                            logged.fetch_add(usize::from(removed), Ordering::Relaxed);
                            None
                        }),
                        // A register's generation is not read back: a
                        // racing write may already have moved it on.
                        7..=8 => match store.register(name, catalog(&mut rng), policy) {
                            Err(EngineError::AlreadyRegistered(_)) => Ok(None),
                            registered => registered.map(|_| {
                                logged.fetch_add(1, Ordering::Relaxed);
                                None
                            }),
                        },
                        _ => durability.snapshot_now().map(|_| None),
                    };
                    match generation {
                        Ok(Some(generation)) => {
                            logged.fetch_add(1, Ordering::Relaxed);
                            acked.lock().unwrap().push((name, generation));
                        }
                        Ok(None) | Err(EngineError::UnknownDataset(_)) => {}
                        Err(e) => panic!("seed {seed}: thread {thread} op {op}: {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(
        durability.last_lsn(),
        logged.load(Ordering::Relaxed) as u64,
        "seed {seed}: every acknowledged write logged once, a refused one not at all"
    );
    let mut acked = acked.into_inner().unwrap();
    acked.sort_unstable();
    let pairs = acked.len();
    acked.dedup();
    assert_eq!(
        acked.len(),
        pairs,
        "seed {seed}: a (name, generation) acknowledged twice"
    );
    for entry in store.list() {
        let acked = acked.iter().filter(|(name, _)| *name == entry.name());
        assert!(
            acked.map(|&(_, g)| g).all(|g| g <= entry.generation()),
            "seed {seed}: {} acknowledged a generation above its live one",
            entry.name()
        );
    }
    let live = state_of(&store);
    drop(durability);
    drop(store);
    let (recovered, _durability) = open(&dir);
    assert_eq!(state_of(&recovered), live, "seed {seed}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writer_mix_recovers_what_it_acknowledged() {
    for seed in 0..6 {
        writer_mix(seed, 40);
    }
}

/// The release soak: `cargo test --release -p pclabel-engine --test
/// durability -- --ignored`.
#[test]
#[ignore = "soak; run with --release -- --ignored"]
fn writer_mix_soak() {
    for seed in 100..300 {
        writer_mix(seed, 60);
    }
}
