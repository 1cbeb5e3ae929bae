//! Fault-injection tests for the durability plane: degraded mode,
//! self-healing recovery, and snapshot-failure accounting.
//!
//! The fault plan is process-global, so these tests live in their own
//! integration binary, and each holds one mutex from its first line to
//! its last: no store of one test runs while the other has a plan armed.
//! A guard disarms the plan on drop even when an assertion fails.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pclabel_data::generate::figure2_sample;
use pclabel_engine::durability::{Durability, DurabilityOptions};
use pclabel_engine::store::{EngineError, LabelPolicy, LabelStore};
use pclabel_telemetry::{Registry, SnapshotValue};
use pclabel_wal::faults::{install, FaultPlan};
use pclabel_wal::wal::FsyncPolicy;

/// The default search policy (refinement on) at `bound`.
fn search_policy(bound: u64) -> LabelPolicy {
    LabelPolicy::Search {
        bound,
        refine: true,
    }
}

/// Held by each test from its first line to its last. A test that
/// failed while holding it has disarmed its plan, so the next one takes
/// the poisoned guard.
static SERIAL: Mutex<()> = Mutex::new(());
static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Disarms the plan on drop.
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        install(None);
    }
}

/// Installs the plan `spec`; the caller holds `SERIAL`.
fn arm(spec: &str) -> Armed {
    let plan = FaultPlan::parse(spec).expect("plan parses");
    install(Some(Arc::new(plan)));
    Armed
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pclabel-faults-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf, registry: &Registry) -> (Arc<LabelStore>, Arc<Durability>) {
    let store = Arc::new(LabelStore::new());
    let options = DurabilityOptions {
        fsync: FsyncPolicy::Always,
        snapshot_wal_bytes: u64::MAX,
    };
    let durability =
        Durability::open(dir, options, Arc::clone(&store), registry).expect("recovery");
    (store, durability)
}

fn row(age: &str) -> Vec<Option<String>> {
    vec![
        Some("Male".to_string()),
        Some(age.to_string()),
        Some("Caucasian".to_string()),
        Some("single".to_string()),
    ]
}

fn gauge(registry: &Registry, name: &str) -> u64 {
    registry
        .snapshot()
        .iter()
        .find_map(|series| match (&series.name, &series.value) {
            (n, SnapshotValue::Gauge(v)) if n == name => Some(*v),
            _ => None,
        })
        .unwrap_or_else(|| panic!("gauge {name} not registered"))
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .snapshot()
        .iter()
        .find_map(|series| match (&series.name, &series.value) {
            (n, SnapshotValue::Counter(v)) if n == name => Some(*v),
            _ => None,
        })
        .unwrap_or_else(|| panic!("counter {name} not registered"))
}

/// The satellite gate: a snapshot attempt that fails (here: its rename
/// is injected to fail) must advance neither `pclabel_snapshot_lsn` nor
/// `pclabel_snapshots_total`, and must never publish a `.snap` file.
#[test]
fn failing_snapshot_does_not_advance_snapshot_lsn() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::new();
    let dir = temp_dir("snapfail");
    let (store, durability) = open(&dir, &registry);
    store
        .register("census", figure2_sample(), search_policy(5))
        .expect("register");
    let first = durability.snapshot_now().expect("clean snapshot");
    assert_eq!(gauge(&registry, "pclabel_snapshot_lsn"), first);
    let snapshots_before = counter(&registry, "pclabel_snapshots_total");
    store
        .append_rows("census", &[row("age-x")])
        .expect("append");

    {
        let _armed = arm("snap.rename=eio@0..");
        let err = durability.snapshot_now().expect_err("rename injected");
        assert!(
            err.to_string().contains("write snapshot"),
            "unexpected error: {err}"
        );
        assert_eq!(
            gauge(&registry, "pclabel_snapshot_lsn"),
            first,
            "failed snapshot must not advance the gauge"
        );
        assert_eq!(
            counter(&registry, "pclabel_snapshots_total"),
            snapshots_before
        );
    }

    // Disarmed: the next attempt lands and the gauge moves.
    let healed = durability.snapshot_now().expect("snapshot after disarm");
    assert!(healed > first);
    assert_eq!(gauge(&registry, "pclabel_snapshot_lsn"), healed);
}

/// The tentpole gate, in-process: a persistent WAL fsync failure flips
/// the store into read-only degraded mode (mutators rejected with the
/// typed error, queries still served), the probe thread heals it once
/// the disk recovers, and the unacknowledged record never survives to a
/// reopened store.
#[test]
fn wal_failure_degrades_store_and_probe_heals_it() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Registry::new();
    let dir = temp_dir("degrade");
    let rows_at_rest;
    {
        let (store, durability) = open(&dir, &registry);
        store
            .register("census", figure2_sample(), search_policy(5))
            .expect("register");

        {
            let _armed = arm("wal.fsync=eio@0..");
            let err = store
                .append_rows("census", &[row("ghost")])
                .expect_err("fsync injected");
            assert!(matches!(err, EngineError::Degraded(_)), "got {err}");
            assert!(durability.health().is_degraded());
            assert_eq!(gauge(&registry, "pclabel_health_state"), 1);
            assert!(counter(&registry, "pclabel_wal_append_failures_total") >= 1);

            // Mutators fail fast with the retained root cause...
            let err = store
                .register("other", figure2_sample(), search_policy(5))
                .expect_err("degraded rejects mutators");
            match &err {
                EngineError::Degraded(reason) => {
                    assert!(reason.contains("WAL fsync"), "reason: {reason}")
                }
                other => panic!("expected Degraded, got {other}"),
            }
            // ...while reads keep serving the published state.
            let entry = store.get("census").expect("query while degraded");
            let (dataset, _, _) = entry.snapshot();
            assert_eq!(dataset.n_rows(), 18, "ghost row must not be visible");
        }

        // Fault cleared: the probe thread must heal without help.
        let deadline = Instant::now() + Duration::from_secs(20);
        while durability.health().is_degraded() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!durability.health().is_degraded(), "probe did not heal");
        assert_eq!(gauge(&registry, "pclabel_health_state"), 0);
        assert!(counter(&registry, "pclabel_recovery_attempts_total") >= 1);

        // Read-write is restored atomically: mutations work again.
        store
            .append_rows("census", &[row("age-post-heal")])
            .expect("append after heal");
        let (dataset, _, _) = store.get("census").expect("entry").snapshot();
        rows_at_rest = dataset.n_rows();
        assert_eq!(rows_at_rest, 19);
    }

    // Reopen: the acked post-heal row survives, the unacked ghost row
    // (appended but never fsynced or published) does not resurrect.
    let (store, _durability) = open(&dir, &Registry::new());
    let (dataset, _, _) = store.get("census").expect("entry").snapshot();
    assert_eq!(dataset.n_rows(), rows_at_rest);
    let has_ghost = (0..dataset.n_rows()).any(|r| {
        (0..dataset.n_attrs())
            .any(|a| dataset.value(r, a).map(|id| dataset.label_of(a, id)) == Some("ghost"))
    });
    assert!(!has_ghost, "unacknowledged record replayed after heal");
}
