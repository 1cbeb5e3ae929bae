//! Deterministic fuzzing of the durability plane's two decoders, WAL
//! record payloads (`WalOp::decode`) and snapshot files
//! (`decode_snapshot`), over seeded streams of cases:
//!
//! * round trip — random ops of all four kinds, and random snapshots,
//!   decode to what was encoded;
//! * mutations — byte edits and truncations of valid encodings never
//!   panic and fail only with a `FormatError`. Snapshot mutations also
//!   edit one section's payload, or the section list, and re-seal every
//!   section with a fresh length and CRC, so they reach the section
//!   decoders past the checksum;
//! * bounded allocation — a counting global allocator holds the most
//!   bytes a decode holds at once to `ALLOC_PER_BYTE` times its input
//!   plus `ALLOC_SLACK`, so no count read from the input reserves memory
//!   the input cannot back.
//!
//! A short budget runs in `cargo test`; the soak (a million cases per
//! property) runs with
//! `cargo test --release -p pclabel-wal --test decode_fuzz -- --ignored`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pclabel_wal::crc::Crc32;
use pclabel_wal::record::{DatasetImage, PolicyRepr, WalOp};
use pclabel_wal::snapshot::{
    decode_snapshot, encode_snapshot, SnapshotData, SnapshotEntry, SNAP_HEADER_LEN,
};
use pclabel_wal::FormatError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forwards to the system allocator and counts, per thread, the bytes
/// held and their high-water mark, so tests running side by side do not
/// see each other's allocations. `GlobalAlloc`'s default `realloc` and
/// `alloc_zeroed` go through these two methods.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: a thread being torn down still frees memory.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: both methods hand their caller's arguments to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-locals without destructors, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A decode may hold this many bytes per input byte at once: the
/// densest shape, an `append_rows` row of one missing cell, holds a
/// 24-byte cell and a 24-byte row vector per byte of payload.
const ALLOC_PER_BYTE: usize = 64;

/// What a decode may hold beyond its per-byte share: error messages.
const ALLOC_SLACK: usize = 4096;

/// `decode(input)`, which must not panic, must not hold more than
/// `ALLOC_PER_BYTE` × its input plus `ALLOC_SLACK` bytes at once, and
/// may fail only with an error of the format, never of I/O.
fn checked<T>(decode: fn(&[u8]) -> Result<T, FormatError>, input: &[u8]) -> Result<T, FormatError> {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(input)));
    let held = (PEAK.with(Cell::get) - base) as usize;
    let shown = format!("{:02x?}", &input[..input.len().min(64)]);
    let outcome = outcome.unwrap_or_else(|_| panic!("decode panicked on {shown}"));
    let bound = ALLOC_PER_BYTE * input.len() + ALLOC_SLACK;
    assert!(
        held <= bound,
        "decoding {} bytes held {held} bytes at once (bound {bound}): {shown}",
        input.len()
    );
    if let Err(FormatError::Io(e)) = &outcome {
        panic!("decode failed with I/O error {e} on {shown}");
    }
    outcome
}

// --- generators ---------------------------------------------------------------

/// A short string: empty, ASCII, multi-byte characters or a NUL.
fn text(rng: &mut StdRng) -> String {
    const PIECES: [&str; 8] = ["a", "census", "é", "漢", "🦀", " ", "\0", "-"];
    (0..rng.gen_range(0..=4))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

/// A value id: small, the missing sentinel, or any `u32`.
fn id(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0u32..4) {
        0 => u32::MAX,
        1 => rng.gen(),
        _ => rng.gen_range(0u32..8),
    }
}

/// A count, generation or LSN: small or any `u64`.
fn number(rng: &mut StdRng) -> u64 {
    if rng.gen_bool(0.5) {
        rng.gen()
    } else {
        rng.gen_range(0u64..100)
    }
}

/// Up to `max` items.
fn many<T>(rng: &mut StdRng, max: usize, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..rng.gen_range(0..=max)).map(|_| item(rng)).collect()
}

fn policy(rng: &mut StdRng) -> PolicyRepr {
    if rng.gen_bool(0.5) {
        PolicyRepr::Attrs(many(rng, 4, id))
    } else {
        PolicyRepr::Search {
            bound: number(rng),
            refine: rng.gen_bool(0.5),
        }
    }
}

/// A dataset image; one without attributes has no rows, since rows of
/// no cells are refused.
fn image(rng: &mut StdRng) -> DatasetImage {
    let attrs = many(rng, 3, |rng| (text(rng), many(rng, 4, text)));
    let n_rows = if attrs.is_empty() {
        0
    } else {
        rng.gen_range(0u64..=6)
    };
    DatasetImage {
        name: text(rng),
        columns: attrs
            .iter()
            .map(|_| (0..n_rows).map(|_| id(rng)).collect())
            .collect(),
        attrs,
        n_rows,
    }
}

/// A random op of the given kind (0–3: register, refresh, append,
/// remove).
fn op(rng: &mut StdRng, kind: usize) -> WalOp {
    let (name, generation) = (text(rng), number(rng));
    match kind {
        0 => WalOp::Register {
            name,
            generation,
            policy: policy(rng),
            sel: many(rng, 4, id),
            dataset: image(rng),
        },
        1 => WalOp::Refresh {
            name,
            generation,
            policy: policy(rng),
            sel: many(rng, 4, id),
        },
        2 => {
            // Rows of one to four cells, about a third of them missing.
            let n_cols = rng.gen_range(1..=4);
            let rows = many(rng, 5, |rng| {
                (0..n_cols)
                    .map(|_| rng.gen_bool(0.7).then(|| text(rng)))
                    .collect()
            });
            WalOp::AppendRows {
                name,
                generation,
                rows,
            }
        }
        _ => WalOp::Remove { name, generation },
    }
}

fn snapshot(rng: &mut StdRng) -> SnapshotData {
    // Distinct leading digits keep the entry names unique and in order.
    let entries = (0..rng.gen_range(0..=3))
        .map(|i| {
            let (dataset, sel) = (image(rng), many(rng, 3, id));
            let key_len = sel.len();
            SnapshotEntry {
                name: format!("{i}{}", text(rng)),
                generation: number(rng),
                applied_lsn: number(rng),
                pc: many(rng, 4, |rng| {
                    ((0..key_len).map(|_| id(rng)).collect(), number(rng))
                }),
                vc: dataset.attrs.iter().map(|_| many(rng, 4, number)).collect(),
                sel,
                dataset,
            }
        })
        .collect();
    SnapshotData {
        last_lsn: number(rng),
        min_required_lsn: number(rng),
        entries,
        retired: many(rng, 3, |rng| (text(rng), number(rng), number(rng))),
    }
}

// --- mutations ----------------------------------------------------------------

/// Counts a mutation writes over four bytes: small, at a byte's and a
/// sign bit's edge, 2^20 and the largest `u32`.
const COUNTS: [u32; 7] = [0, 1, 0xff, 0x100, 1 << 20, 0x8000_0000, u32::MAX];

/// One to three random edits: replace, insert or delete bytes, repeat a
/// short range, or overwrite four bytes with a count.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=bytes.len());
        let end = (at + rng.gen_range(1usize..=8)).min(bytes.len());
        match rng.gen_range(0u32..5) {
            0 if at < end => bytes[at] = rng.gen::<u32>() as u8,
            1 => bytes.insert(at, rng.gen::<u32>() as u8),
            2 => drop(bytes.drain(at..end)),
            3 if at + 4 <= bytes.len() => {
                let count = COUNTS[rng.gen_range(0..COUNTS.len())];
                bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
            }
            _ => {
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
}

/// An encoded snapshot's sections as `(tag, payload)`, past its header.
fn sections(file: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    let mut at = SNAP_HEADER_LEN;
    while at < file.len() {
        let len = u64::from_le_bytes(file[at + 1..at + 9].try_into().unwrap()) as usize;
        out.push((file[at], file[at + 13..at + 13 + len].to_vec()));
        at += 13 + len;
    }
    out
}

/// A snapshot file of `header` and `sections`, each framed with its
/// length and a fresh CRC.
fn seal(header: &[u8], sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut file = header.to_vec();
    for (tag, payload) in sections {
        let mut crc = Crc32::new();
        crc.update(&[*tag]);
        crc.update(payload);
        file.push(*tag);
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&crc.finish().to_le_bytes());
        file.extend_from_slice(payload);
    }
    file
}

// --- properties ---------------------------------------------------------------

fn round_trips(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let op = op(&mut rng, case % 4);
        assert_eq!(checked(WalOp::decode, &op.encode()).unwrap(), op);
        let data = snapshot(&mut rng);
        let file = encode_snapshot(&data);
        assert_eq!(seal(&file[..SNAP_HEADER_LEN], &sections(&file)), file);
        assert_eq!(checked(decode_snapshot, &file).unwrap(), data);
    }
}

#[test]
fn random_ops_and_snapshots_round_trip() {
    round_trips(1, 2_000);
}

fn mutated_records_fail_cleanly(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut decoded = 0;
    for case in 0..cases {
        let mut bytes = op(&mut rng, case % 4).encode();
        if rng.gen_bool(0.2) {
            bytes.truncate(rng.gen_range(0..bytes.len()));
        } else {
            mutate(&mut rng, &mut bytes);
        }
        decoded += usize::from(checked(WalOp::decode, &bytes).is_ok());
    }
    // Both outcomes must be common for the property to mean anything.
    assert!(
        decoded > cases / 20 && decoded < cases / 2,
        "{decoded} of {cases} decoded"
    );
}

#[test]
fn mutated_records_fail_only_with_format_errors() {
    mutated_records_fail_cleanly(2, 5_000);
}

fn mutated_snapshots_fail_cleanly(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut resealed, mut past_checksum) = (0, 0);
    for _ in 0..cases {
        let file = encode_snapshot(&snapshot(&mut rng));
        let mut parts = sections(&file);
        let at = rng.gen_range(0..parts.len());
        let edit = rng.gen_range(0u32..10);
        match edit {
            // The file's raw bytes edited or cut, below.
            0..=2 => {}
            // A section dropped, repeated, moved or retagged.
            3 | 4 => match rng.gen_range(0u32..4) {
                0 => drop(parts.remove(at)),
                1 => parts.insert(rng.gen_range(0..=parts.len()), parts[at].clone()),
                2 => parts.swap(at, rng.gen_range(0..=at)),
                _ => parts[at].0 = rng.gen_range(0u8..=5),
            },
            // A section's payload edited or cut.
            _ => {
                let payload = &mut parts[at].1;
                if rng.gen_bool(0.2) {
                    payload.truncate(rng.gen_range(0..=payload.len()));
                } else {
                    mutate(&mut rng, payload);
                }
            }
        }
        let bytes = match edit {
            0 | 1 => {
                let mut bytes = file.clone();
                mutate(&mut rng, &mut bytes);
                bytes
            }
            2 => file[..rng.gen_range(0..file.len())].to_vec(),
            _ => seal(&file[..SNAP_HEADER_LEN], &parts),
        };
        let is_resealed = edit > 2;
        resealed += usize::from(is_resealed);
        match checked(decode_snapshot, &bytes) {
            Err(FormatError::CrcMismatch { .. }) if is_resealed => {
                panic!("a re-sealed snapshot failed its checksum")
            }
            Err(FormatError::Corrupt(_)) if is_resealed => past_checksum += 1,
            _ => {}
        }
    }
    assert!(
        past_checksum > resealed / 2,
        "{past_checksum} of {resealed} re-sealed cases failed past the checksum"
    );
}

#[test]
fn mutated_snapshots_fail_only_with_format_errors() {
    mutated_snapshots_fail_cleanly(3, 3_000);
}

/// Counts no payload can back, in a record and in a snapshot's META,
/// reserve nothing; the densest legal batch stays within the bound.
#[test]
fn counts_past_the_payload_reserve_nothing() {
    // `append_rows` of 2^20 rows of no cells: tag, name, generation and
    // the two counts.
    let mut record = vec![3, 1, 0, 0, 0, b'd'];
    record.extend_from_slice(&7u64.to_le_bytes());
    record.extend_from_slice(&(1u32 << 20).to_le_bytes());
    record.extend_from_slice(&0u32.to_le_bytes());
    assert!(checked(WalOp::decode, &record).is_err());

    let dense = WalOp::AppendRows {
        name: "d".into(),
        generation: 7,
        rows: vec![vec![None]; 10_000],
    };
    assert_eq!(checked(WalOp::decode, &dense.encode()).unwrap(), dense);

    // META promising 2^20 retired names over an empty RETIRED section.
    let file = encode_snapshot(&SnapshotData::default());
    let mut parts = sections(&file);
    parts[0].1[20..24].copy_from_slice(&(1u32 << 20).to_le_bytes());
    assert!(checked(decode_snapshot, &seal(&file[..SNAP_HEADER_LEN], &parts)).is_err());
}

#[test]
#[ignore = "soak: a million cases per property, run in release mode"]
fn decode_fuzz_soak() {
    round_trips(11, 1_000_000);
    mutated_records_fail_cleanly(12, 1_000_000);
    mutated_snapshots_fail_cleanly(13, 1_000_000);
}
