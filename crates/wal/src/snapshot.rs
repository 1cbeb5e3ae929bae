//! Snapshot files: a CRC-checked, sectioned image of the whole label
//! store at one LSN.
//!
//! ## File layout
//!
//! A snapshot `snapshot-<last_lsn, 20 decimal digits>.snap` starts with
//! a 16-byte header:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PCLBSNP1"
//! 8       4     format version, u32 LE (currently 1)
//! 12      4     reserved, u32 LE (written 0, ignored on read)
//! ```
//!
//! followed by a sequence of sections, each framed as:
//!
//! ```text
//! [tag: u8] [len: u64 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the tag byte followed by the payload, so
//! a section parsed under the wrong tag fails its checksum. Section
//! order is fixed: one `META` (tag 1), `META.entry_count` × `ENTRY`
//! (tag 2) sorted by dataset name, one `RETIRED` (tag 3), one `FOOTER`
//! (tag 4). The footer is written last; **a snapshot without a valid
//! footer is torn** (the writer crashed mid-snapshot) and must be
//! rejected, which is why the loader falls back to the previous
//! retained snapshot.
//!
//! ## Determinism
//!
//! Entries are sorted by name and every map inside an entry (pattern
//! counts) is written in sorted key order, so snapshotting the same
//! logical state twice produces byte-identical files — which is what
//! lets the crash-recovery gate diff recovered state against a
//! reference byte-for-byte.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::codec::{put_str, put_u32, put_u32s, put_u64, put_u64s, Reader};
use crate::crc::Crc32;
use crate::faults::{self, FaultPoint};
use crate::record::DatasetImage;
use crate::wal::sync_dir;
use crate::{FormatError, Result};

/// Magic bytes opening every snapshot.
pub const SNAP_MAGIC: &[u8; 8] = b"PCLBSNP1";
/// Current snapshot format version.
pub const SNAP_VERSION: u32 = 1;
/// Fixed byte length of the snapshot header.
pub const SNAP_HEADER_LEN: usize = 16;

/// Section tag: snapshot-wide metadata.
pub const SEC_META: u8 = 1;
/// Section tag: one store entry (dataset + label image).
pub const SEC_ENTRY: u8 = 2;
/// Section tag: retired generations of removed names.
pub const SEC_RETIRED: u8 = 3;
/// Section tag: completeness marker, always last.
pub const SEC_FOOTER: u8 = 4;

/// File name for the snapshot taken at `last_lsn`.
pub fn snapshot_file_name(last_lsn: u64) -> String {
    format!("snapshot-{last_lsn:020}.snap")
}

/// Parses a snapshot file name back to its LSN.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One store entry as persisted: the dataset image plus the label's
/// verification material.
///
/// The label itself is *recomputed* on load (it is fully determined by
/// the dataset and the selected attribute set); the stored pattern
/// counts and value counts exist so the loader can verify the rebuilt
/// label against what the pre-crash process served, turning silent
/// divergence into a loud snapshot rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Store key.
    pub name: String,
    /// Entry generation at snapshot time.
    pub generation: u64,
    /// LSN of the last WAL op applied to this entry (0 = none).
    pub applied_lsn: u64,
    /// Attribute indices the label selects.
    pub sel: Vec<u32>,
    /// Full dataset contents.
    pub dataset: DatasetImage,
    /// Pattern counts: each key is one id per selected attribute
    /// (`0xFFFF_FFFF` = ⊥/wildcard), sorted lexicographically.
    pub pc: Vec<(Vec<u32>, u64)>,
    /// Per-attribute value counts indexed by value id — one table per
    /// *dataset* attribute in schema order (the VC part of a label
    /// covers every attribute, not just the selected subset).
    pub vc: Vec<Vec<u64>>,
}

/// Everything a snapshot holds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotData {
    /// LSN of the last WAL record reflected in this snapshot.
    pub last_lsn: u64,
    /// Smallest LSN still needed to recover from this snapshot: WAL
    /// segments entirely below it can be deleted once this snapshot
    /// is the oldest retained one.
    pub min_required_lsn: u64,
    /// Store entries sorted by name.
    pub entries: Vec<SnapshotEntry>,
    /// Retired generations: `(name, generation, remove LSN)` for names
    /// that were removed, so re-registration resumes above the retired
    /// generation after replay.
    pub retired: Vec<(String, u64, u64)>,
}

fn write_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&[tag]);
    crc.update(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(payload);
}

fn encode_entry(e: &SnapshotEntry) -> Vec<u8> {
    let mut p = Vec::new();
    put_str(&mut p, &e.name);
    put_u64(&mut p, e.generation);
    put_u64(&mut p, e.applied_lsn);
    put_u32s(&mut p, &e.sel);
    e.dataset.encode(&mut p);
    put_u64(&mut p, e.pc.len() as u64);
    for (key, count) in &e.pc {
        debug_assert_eq!(key.len(), e.sel.len());
        for &id in key {
            put_u32(&mut p, id);
        }
        put_u64(&mut p, *count);
    }
    put_u32(&mut p, e.vc.len() as u32);
    for counts in &e.vc {
        put_u64s(&mut p, counts);
    }
    p
}

fn decode_entry(payload: &[u8]) -> Result<SnapshotEntry> {
    let mut r = Reader::new(payload);
    let name = r.str("entry name")?;
    let generation = r.u64("entry generation")?;
    let applied_lsn = r.u64("entry applied_lsn")?;
    let sel = r.u32s("entry sel")?;
    let dataset = DatasetImage::decode(&mut r)?;
    let pc_len = r.u64("entry pc count")? as usize;
    let key_len = sel.len();
    if pc_len.saturating_mul(key_len.saturating_mul(4) + 8) > r.remaining() {
        return Err(FormatError::Corrupt(format!(
            "entry {name:?}: pc count {pc_len} exceeds payload"
        )));
    }
    let mut pc = Vec::with_capacity(pc_len);
    for _ in 0..pc_len {
        let mut key = Vec::with_capacity(key_len);
        for _ in 0..key_len {
            key.push(r.u32("pc key id")?);
        }
        pc.push((key, r.u64("pc count")?));
    }
    // VC covers *every* dataset attribute (not just the selected
    // subset): one table per attribute, in schema order.
    let vc_len = r.u32("entry vc count")? as usize;
    if vc_len != dataset.attrs.len() {
        return Err(FormatError::Corrupt(format!(
            "entry {name:?}: {vc_len} vc tables for {} dataset attrs",
            dataset.attrs.len()
        )));
    }
    let mut vc = Vec::with_capacity(vc_len);
    for _ in 0..vc_len {
        vc.push(r.u64s("vc counts")?);
    }
    r.expect_end("entry section")?;
    Ok(SnapshotEntry {
        name,
        generation,
        applied_lsn,
        sel,
        dataset,
        pc,
        vc,
    })
}

/// Serializes a full snapshot into its file bytes.
pub fn encode_snapshot(data: &SnapshotData) -> Vec<u8> {
    debug_assert!(
        data.entries.windows(2).all(|w| w[0].name < w[1].name),
        "snapshot entries must be sorted by name"
    );
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());

    let mut meta = Vec::new();
    put_u64(&mut meta, data.last_lsn);
    put_u64(&mut meta, data.min_required_lsn);
    put_u32(&mut meta, data.entries.len() as u32);
    put_u32(&mut meta, data.retired.len() as u32);
    write_section(&mut out, SEC_META, &meta);

    for e in &data.entries {
        write_section(&mut out, SEC_ENTRY, &encode_entry(e));
    }

    let mut retired = Vec::new();
    for (name, generation, lsn) in &data.retired {
        put_str(&mut retired, name);
        put_u64(&mut retired, *generation);
        put_u64(&mut retired, *lsn);
    }
    write_section(&mut out, SEC_RETIRED, &retired);

    let mut footer = Vec::new();
    // Sections before the footer: META + entries + RETIRED.
    put_u32(&mut footer, 2 + data.entries.len() as u32);
    put_u64(&mut footer, data.last_lsn);
    write_section(&mut out, SEC_FOOTER, &footer);
    out
}

/// Writes a snapshot durably: encode to `snapshot-<lsn>.snap.tmp`,
/// fsync, rename into place, fsync the directory. Returns the final
/// path. A crash at any point leaves either no snapshot (tmp file,
/// ignored by recovery) or a complete one.
pub fn write_snapshot(dir: &Path, data: &SnapshotData) -> Result<PathBuf> {
    let bytes = encode_snapshot(data);
    let final_path = dir.join(snapshot_file_name(data.last_lsn));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(data.last_lsn)));
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp_path)?;
    if let Some(injected) = faults::check(FaultPoint::SnapWrite) {
        // A partial snapshot write leaves a real truncated tmp file —
        // exactly what a crash mid-write leaves; recovery ignores and
        // sweeps it.
        if let Some(cut) = injected.partial {
            let _ = f.write_all(&bytes[..cut.min(bytes.len())]);
        }
        return Err(injected.error.into());
    }
    f.write_all(&bytes)?;
    if let Some(injected) = faults::check(FaultPoint::SnapFsync) {
        return Err(injected.error.into());
    }
    f.sync_all()?;
    drop(f);
    if let Some(injected) = faults::check(FaultPoint::SnapRename) {
        return Err(injected.error.into());
    }
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Parses snapshot bytes, validating magic, every section CRC, the
/// section layout, and footer presence/consistency.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotData> {
    if bytes.len() < SNAP_HEADER_LEN {
        return Err(FormatError::BadMagic(format!(
            "{} bytes is shorter than the snapshot header",
            bytes.len()
        )));
    }
    if &bytes[0..8] != SNAP_MAGIC {
        return Err(FormatError::BadMagic("not a snapshot file".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(FormatError::BadMagic(format!(
            "snapshot version {version}, this build reads {SNAP_VERSION}"
        )));
    }

    let mut pos = SNAP_HEADER_LEN;
    let mut sections: Vec<(u8, &[u8])> = Vec::new();
    while pos < bytes.len() {
        if bytes.len() - pos < 13 {
            return Err(FormatError::Corrupt(format!(
                "truncated section frame at offset {pos}"
            )));
        }
        let tag = bytes[pos];
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().unwrap());
        let payload_start = pos + 13;
        if len > bytes.len() - payload_start {
            return Err(FormatError::Corrupt(format!(
                "section tag {tag} at offset {pos}: length {len} exceeds file"
            )));
        }
        let payload = &bytes[payload_start..payload_start + len];
        let mut crc = Crc32::new();
        crc.update(&[tag]);
        crc.update(payload);
        let computed = crc.finish();
        if computed != stored_crc {
            return Err(FormatError::CrcMismatch {
                what: format!("snapshot section tag {tag} at offset {pos}"),
                stored: stored_crc,
                computed,
            });
        }
        sections.push((tag, payload));
        pos = payload_start + len;
    }

    // Structure: META, entries…, RETIRED, FOOTER.
    let Some(&(last_tag, footer_payload)) = sections.last() else {
        return Err(FormatError::Corrupt("snapshot has no sections".into()));
    };
    if last_tag != SEC_FOOTER {
        return Err(FormatError::Corrupt(
            "snapshot footer missing (torn snapshot)".into(),
        ));
    }
    let mut fr = Reader::new(footer_payload);
    let counted = fr.u32("footer section count")? as usize;
    let footer_lsn = fr.u64("footer lsn")?;
    fr.expect_end("footer")?;
    if counted != sections.len() - 1 {
        return Err(FormatError::Corrupt(format!(
            "footer counts {counted} sections, file has {}",
            sections.len() - 1
        )));
    }

    let (first_tag, meta_payload) = sections[0];
    if first_tag != SEC_META {
        return Err(FormatError::Corrupt(format!(
            "first section has tag {first_tag}, expected META"
        )));
    }
    let mut mr = Reader::new(meta_payload);
    let last_lsn = mr.u64("meta last_lsn")?;
    let min_required_lsn = mr.u64("meta min_required_lsn")?;
    let entry_count = mr.u32("meta entry count")? as usize;
    let retired_count = mr.u32("meta retired count")? as usize;
    mr.expect_end("meta")?;
    if footer_lsn != last_lsn {
        return Err(FormatError::Corrupt(format!(
            "footer lsn {footer_lsn} disagrees with meta last_lsn {last_lsn}"
        )));
    }
    if sections.len() != entry_count + 3 {
        return Err(FormatError::Corrupt(format!(
            "meta promises {entry_count} entries, file has {} sections",
            sections.len()
        )));
    }

    let mut entries = Vec::with_capacity(entry_count);
    for &(tag, payload) in &sections[1..1 + entry_count] {
        if tag != SEC_ENTRY {
            return Err(FormatError::Corrupt(format!(
                "expected ENTRY section, found tag {tag}"
            )));
        }
        entries.push(decode_entry(payload)?);
    }
    for w in entries.windows(2) {
        if w[0].name >= w[1].name {
            return Err(FormatError::Corrupt(format!(
                "entries out of order: {:?} then {:?}",
                w[0].name, w[1].name
            )));
        }
    }

    let (rtag, rpayload) = sections[1 + entry_count];
    if rtag != SEC_RETIRED {
        return Err(FormatError::Corrupt(format!(
            "expected RETIRED section, found tag {rtag}"
        )));
    }
    // An entry takes at least 20 bytes (a name length, a generation and
    // an LSN), so the section bounds the count before anything is
    // reserved for it.
    if retired_count.saturating_mul(20) > rpayload.len() {
        return Err(FormatError::Corrupt(format!(
            "meta promises {retired_count} retired names, the section holds {} bytes",
            rpayload.len()
        )));
    }
    let mut rr = Reader::new(rpayload);
    let mut retired = Vec::with_capacity(retired_count);
    for _ in 0..retired_count {
        let name = rr.str("retired name")?;
        let generation = rr.u64("retired generation")?;
        let lsn = rr.u64("retired lsn")?;
        retired.push((name, generation, lsn));
    }
    rr.expect_end("retired section")?;

    Ok(SnapshotData {
        last_lsn,
        min_required_lsn,
        entries,
        retired,
    })
}

/// Reads and validates a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<SnapshotData> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DatasetImage;

    fn sample() -> SnapshotData {
        let dataset = DatasetImage {
            name: "adult".into(),
            attrs: vec![
                ("gender".into(), vec!["f".into(), "m".into()]),
                ("age".into(), vec!["u20".into(), "o20".into()]),
            ],
            n_rows: 2,
            columns: vec![vec![0, 1], vec![1, 1]],
        };
        SnapshotData {
            last_lsn: 7,
            min_required_lsn: 5,
            entries: vec![SnapshotEntry {
                name: "adult".into(),
                generation: 3,
                applied_lsn: 7,
                sel: vec![0, 1],
                dataset,
                pc: vec![(vec![0, 1], 1), (vec![1, 1], 1), (vec![u32::MAX, 1], 2)],
                vc: vec![vec![1, 1], vec![0, 2]],
            }],
            retired: vec![("old".into(), 4, 2)],
        }
    }

    #[test]
    fn roundtrip() {
        let data = sample();
        let bytes = encode_snapshot(&data);
        assert_eq!(decode_snapshot(&bytes).unwrap(), data);
    }

    #[test]
    fn deterministic_bytes() {
        let data = sample();
        assert_eq!(encode_snapshot(&data), encode_snapshot(&data.clone()));
    }

    #[test]
    fn write_and_read_file() {
        let dir = std::env::temp_dir().join(format!("pclabel-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = sample();
        let path = write_snapshot(&dir, &data).unwrap();
        assert_eq!(path.file_name().unwrap(), snapshot_file_name(7).as_str());
        assert_eq!(read_snapshot(&path).unwrap(), data);
        // No tmp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let bytes = encode_snapshot(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn single_bit_corruption_is_rejected() {
        let bytes = encode_snapshot(&sample());
        // Flip a byte in every section region (skip only the reserved
        // header word, which is explicitly ignored).
        for pos in (0..bytes.len()).step_by(7) {
            if (12..16).contains(&pos) {
                continue;
            }
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                decode_snapshot(&bad).is_err(),
                "corruption at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn footerless_snapshot_is_torn() {
        let data = sample();
        let full = encode_snapshot(&data);
        // Drop the footer section: find its start by re-encoding
        // without it being counted — simpler: footer payload is 12
        // bytes + 13 frame = last 25 bytes.
        let torn = &full[..full.len() - 25];
        let err = decode_snapshot(torn).unwrap_err();
        assert!(
            err.to_string().contains("footer"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn snapshot_names_roundtrip() {
        assert_eq!(parse_snapshot_name(&snapshot_file_name(9)), Some(9));
        assert_eq!(parse_snapshot_name("snapshot-9.snap"), None);
        assert_eq!(parse_snapshot_name("wal-00000000000000000009.log"), None);
        assert_eq!(
            parse_snapshot_name(&format!("{}.tmp", snapshot_file_name(9))),
            None
        );
    }

    #[test]
    fn retired_count_is_bounded_by_its_section() {
        // META promises 2^20 retired names over an empty RETIRED section;
        // decoding used to reserve 40 bytes for each before reading it.
        let mut data = sample();
        data.retired.clear();
        let mut bytes = encode_snapshot(&data);
        let count_at = SNAP_HEADER_LEN + 13 + 8 + 8 + 4;
        bytes[count_at..count_at + 4].copy_from_slice(&(1u32 << 20).to_le_bytes());
        let meta_len = 8 + 8 + 4 + 4;
        let mut crc = Crc32::new();
        crc.update(&[SEC_META]);
        crc.update(&bytes[SNAP_HEADER_LEN + 13..SNAP_HEADER_LEN + 13 + meta_len]);
        bytes[SNAP_HEADER_LEN + 9..SNAP_HEADER_LEN + 13]
            .copy_from_slice(&crc.finish().to_le_bytes());
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(err.to_string().contains("1048576 retired names"), "{err}");
    }

    #[test]
    fn entry_vc_arity_must_match_dataset_attrs() {
        let mut data = sample();
        data.entries[0].vc.pop();
        let bytes = encode_snapshot(&data);
        assert!(decode_snapshot(&bytes).is_err());
    }
}
