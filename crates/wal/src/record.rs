//! WAL record payloads: one mutating `LabelStore` operation per record.
//!
//! A [`WalOp`] is the logical content of a WAL record — the framing
//! (length, CRC, LSN) lives in [`crate::wal`]. Ops are designed for
//! deterministic replay: each carries the dataset *name*, the
//! *resulting generation* the live store assigned, and enough input to
//! rebuild the exact post-op state (a full [`DatasetImage`] for
//! `register`, the appended rows for `append_rows`, the label policy
//! and selected attributes for `register`/`refresh`). Labels themselves
//! are never logged — a label is fully determined by its dataset and
//! selected attribute set, so replay recomputes it.

use pclabel_data::dataset::Dataset;
use pclabel_data::schema::{Attribute, Schema};

use crate::codec::{put_str, put_u32, put_u32s, put_u64, put_u8, Reader};
use crate::{FormatError, Result};

/// Serialized form of a label policy, engine-agnostic.
///
/// The engine's `LabelPolicy` has a search variant whose budget only
/// matters at build time; what replay needs is recorded separately as
/// the resulting selected-attribute set, but the policy is kept so a
/// recovered entry refreshes under the same rules as before the crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyRepr {
    /// Fixed attribute set (indices into the dataset schema).
    Attrs(Vec<u32>),
    /// Size-bounded label search (the engine runs the top-down search).
    Search {
        /// Label size budget in counter cells.
        bound: u64,
        /// Which evaluator prices the search's candidates: the lattice
        /// refinement (`true`) or the cold per-candidate rebuild
        /// (`false`). Both select the same label.
        refine: bool,
    },
}

impl PolicyRepr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PolicyRepr::Attrs(attrs) => {
                put_u8(out, 0);
                put_u32s(out, attrs);
            }
            PolicyRepr::Search { bound, refine } => {
                put_u8(out, 1);
                put_u64(out, *bound);
                put_u8(out, u8::from(*refine));
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<PolicyRepr> {
        match r.u8("policy tag")? {
            0 => Ok(PolicyRepr::Attrs(r.u32s("policy attrs")?)),
            1 => Ok(PolicyRepr::Search {
                bound: r.u64("policy bound")?,
                refine: r.u8("policy refine")? != 0,
            }),
            tag => Err(FormatError::Corrupt(format!("unknown policy tag {tag}"))),
        }
    }
}

/// A self-contained serialized dataset: schema dictionaries plus raw id
/// columns.
///
/// The image preserves dictionary id order exactly, so ids in the
/// columns (and in logged patterns) mean the same thing after a
/// round-trip. Missing cells use the sentinel `0xFFFF_FFFF`
/// ([`pclabel_data::dataset::MISSING`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetImage {
    /// Dataset name.
    pub name: String,
    /// Per-attribute `(name, dictionary labels in id order)`.
    pub attrs: Vec<(String, Vec<String>)>,
    /// Row count.
    pub n_rows: u64,
    /// Per-attribute raw id columns, each `n_rows` long.
    pub columns: Vec<Vec<u32>>,
}

impl DatasetImage {
    /// Captures a live dataset into its serialized image.
    pub fn from_dataset(dataset: &Dataset) -> DatasetImage {
        let attrs = dataset
            .schema()
            .iter()
            .map(|a| {
                (
                    a.name().to_string(),
                    a.dictionary()
                        .iter()
                        .map(|(_, label)| label.to_string())
                        .collect(),
                )
            })
            .collect();
        let columns = (0..dataset.n_attrs())
            .map(|i| dataset.column(i).to_vec())
            .collect();
        DatasetImage {
            name: dataset.name().to_string(),
            attrs,
            n_rows: dataset.n_rows() as u64,
            columns,
        }
    }

    /// Reconstructs the live dataset, moving each column in as its
    /// buffer. Fails with [`FormatError::Corrupt`] when columns and
    /// dictionaries disagree (a column too many or too few, a short
    /// column, an id out of dictionary range).
    pub fn into_dataset(self) -> Result<Dataset> {
        let mut schema = Schema::new();
        for (name, labels) in &self.attrs {
            schema.push(Attribute::with_values(name.as_str(), labels));
        }
        let corrupt = |e| FormatError::Corrupt(format!("dataset image {:?}: {e}", self.name));
        let n_rows =
            usize::try_from(self.n_rows).map_err(|_| corrupt(format!("{} rows", self.n_rows)))?;
        let dataset = Dataset::from_columns(schema, self.columns, n_rows)
            .map_err(|e| corrupt(e.to_string()))?;
        Ok(dataset.with_name(self.name))
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        put_u32(out, self.attrs.len() as u32);
        for (name, labels) in &self.attrs {
            put_str(out, name);
            put_u32(out, labels.len() as u32);
            for label in labels {
                put_str(out, label);
            }
        }
        put_u64(out, self.n_rows);
        for col in &self.columns {
            for &id in col {
                put_u32(out, id);
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<DatasetImage> {
        let name = r.str("dataset name")?;
        let n_attrs = r.u32("dataset attr count")? as usize;
        // Reservations are bounded by the payload: an attribute takes at
        // least 8 bytes (two lengths), a label at least 4.
        let mut attrs = Vec::with_capacity(n_attrs.min(r.remaining() / 8));
        for _ in 0..n_attrs {
            let attr_name = r.str("attr name")?;
            let dict_len = r.u32("dict length")? as usize;
            let mut labels = Vec::with_capacity(dict_len.min(r.remaining() / 4));
            for _ in 0..dict_len {
                labels.push(r.str("dict label")?);
            }
            attrs.push((attr_name, labels));
        }
        let n_rows = r.u64("dataset row count")?;
        // Cells bound the rows by the payload. Rows of no cells would
        // take no bytes, and the store never logs them.
        if n_attrs == 0 && n_rows > 0 {
            return Err(FormatError::Corrupt(format!(
                "dataset image {name:?}: {n_rows} rows of no cells"
            )));
        }
        if (n_rows as usize).saturating_mul(n_attrs) > r.remaining() {
            return Err(FormatError::Corrupt(format!(
                "dataset image {name:?}: {n_rows} rows × {n_attrs} attrs exceeds payload"
            )));
        }
        let mut columns = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let mut col = Vec::with_capacity(n_rows as usize);
            for _ in 0..n_rows {
                col.push(r.u32("dataset cell")?);
            }
            columns.push(col);
        }
        Ok(DatasetImage {
            name,
            attrs,
            n_rows,
            columns,
        })
    }
}

/// One appended row: `None` marks a missing cell, `Some` a string label
/// (which may be previously unseen — appends can grow dictionaries).
pub type RowLabels = Vec<Option<String>>;

/// One logical mutating operation against the label store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `register`: a new dataset with its initial label.
    Register {
        /// Store key.
        name: String,
        /// Generation assigned by the live store (0 for a fresh name,
        /// higher after a remove + re-register of the same name).
        generation: u64,
        /// Policy the entry was registered under.
        policy: PolicyRepr,
        /// Attribute indices the built label actually selected.
        sel: Vec<u32>,
        /// Full dataset contents at registration time.
        dataset: DatasetImage,
    },
    /// `refresh`: the label was rebuilt (possibly under a new policy).
    Refresh {
        /// Store key.
        name: String,
        /// Generation after the refresh.
        generation: u64,
        /// Policy the refresh ran under.
        policy: PolicyRepr,
        /// Attribute indices the rebuilt label selected.
        sel: Vec<u32>,
    },
    /// `append_rows`: rows appended to the dataset, label updated.
    AppendRows {
        /// Store key.
        name: String,
        /// Generation after the append.
        generation: u64,
        /// The appended rows as string labels (missing = `None`).
        rows: Vec<RowLabels>,
    },
    /// `remove`: the entry was dropped; its generation is retired.
    Remove {
        /// Store key.
        name: String,
        /// The generation the entry had when removed — re-registering
        /// the same name must resume above it.
        generation: u64,
    },
}

const TAG_REGISTER: u8 = 1;
const TAG_REFRESH: u8 = 2;
const TAG_APPEND: u8 = 3;
const TAG_REMOVE: u8 = 4;

impl WalOp {
    /// The store key this op targets.
    pub fn name(&self) -> &str {
        match self {
            WalOp::Register { name, .. }
            | WalOp::Refresh { name, .. }
            | WalOp::AppendRows { name, .. }
            | WalOp::Remove { name, .. } => name,
        }
    }

    /// The generation the live store recorded for this op.
    pub fn generation(&self) -> u64 {
        match self {
            WalOp::Register { generation, .. }
            | WalOp::Refresh { generation, .. }
            | WalOp::AppendRows { generation, .. }
            | WalOp::Remove { generation, .. } => *generation,
        }
    }

    /// Short op name for logs and errors.
    pub fn kind(&self) -> &'static str {
        match self {
            WalOp::Register { .. } => "register",
            WalOp::Refresh { .. } => "refresh",
            WalOp::AppendRows { .. } => "append_rows",
            WalOp::Remove { .. } => "remove",
        }
    }

    /// Encodes the op into its record payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalOp::Register {
                name,
                generation,
                policy,
                sel,
                dataset,
            } => {
                put_u8(&mut out, TAG_REGISTER);
                put_str(&mut out, name);
                put_u64(&mut out, *generation);
                policy.encode(&mut out);
                put_u32s(&mut out, sel);
                dataset.encode(&mut out);
            }
            WalOp::Refresh {
                name,
                generation,
                policy,
                sel,
            } => {
                put_u8(&mut out, TAG_REFRESH);
                put_str(&mut out, name);
                put_u64(&mut out, *generation);
                policy.encode(&mut out);
                put_u32s(&mut out, sel);
            }
            WalOp::AppendRows {
                name,
                generation,
                rows,
            } => {
                put_u8(&mut out, TAG_APPEND);
                put_str(&mut out, name);
                put_u64(&mut out, *generation);
                put_u32(&mut out, rows.len() as u32);
                let n_cols = rows.first().map_or(0, Vec::len);
                debug_assert!(rows.is_empty() || n_cols > 0, "zero-cell rows");
                put_u32(&mut out, n_cols as u32);
                for row in rows {
                    debug_assert_eq!(row.len(), n_cols);
                    for cell in row {
                        match cell {
                            None => put_u8(&mut out, 0),
                            Some(s) => {
                                put_u8(&mut out, 1);
                                put_str(&mut out, s);
                            }
                        }
                    }
                }
            }
            WalOp::Remove { name, generation } => {
                put_u8(&mut out, TAG_REMOVE);
                put_str(&mut out, name);
                put_u64(&mut out, *generation);
            }
        }
        out
    }

    /// Decodes a record payload, requiring it to be consumed exactly.
    pub fn decode(payload: &[u8]) -> Result<WalOp> {
        let mut r = Reader::new(payload);
        let tag = r.u8("op tag")?;
        let name = r.str("op name")?;
        let generation = r.u64("op generation")?;
        let op = match tag {
            TAG_REGISTER => WalOp::Register {
                name,
                generation,
                policy: PolicyRepr::decode(&mut r)?,
                sel: r.u32s("op sel")?,
                dataset: DatasetImage::decode(&mut r)?,
            },
            TAG_REFRESH => WalOp::Refresh {
                name,
                generation,
                policy: PolicyRepr::decode(&mut r)?,
                sel: r.u32s("op sel")?,
            },
            TAG_APPEND => {
                let n_rows = r.u32("append row count")? as usize;
                let n_cols = r.u32("append col count")? as usize;
                // Every cell takes at least its tag byte, so the payload
                // bounds the batch. A zero-cell row would take none, and
                // the store never logs one.
                if n_rows > 0 && n_cols == 0 {
                    return Err(FormatError::Corrupt(format!(
                        "append_rows {name:?}: {n_rows} rows of no cells"
                    )));
                }
                if n_rows.saturating_mul(n_cols) > r.remaining() {
                    return Err(FormatError::Corrupt(format!(
                        "append_rows {name:?}: {n_rows}×{n_cols} cells exceeds payload"
                    )));
                }
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let mut row = Vec::with_capacity(n_cols);
                    for _ in 0..n_cols {
                        row.push(match r.u8("append cell tag")? {
                            0 => None,
                            1 => Some(r.str("append cell")?),
                            t => {
                                return Err(FormatError::Corrupt(format!(
                                    "append_rows {name:?}: unknown cell tag {t}"
                                )))
                            }
                        });
                    }
                    rows.push(row);
                }
                WalOp::AppendRows {
                    name,
                    generation,
                    rows,
                }
            }
            TAG_REMOVE => WalOp::Remove { name, generation },
            tag => return Err(FormatError::Corrupt(format!("unknown op tag {tag}"))),
        };
        r.expect_end("op payload")?;
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclabel_data::dataset::MISSING;

    fn tiny_image() -> DatasetImage {
        DatasetImage {
            name: "adult".into(),
            attrs: vec![
                ("gender".into(), vec!["female".into(), "male".into()]),
                ("age".into(), vec!["u20".into(), "20-39".into()]),
            ],
            n_rows: 3,
            columns: vec![vec![0, 1, 0], vec![1, MISSING, 0]],
        }
    }

    #[test]
    fn dataset_image_roundtrips_through_dataset() {
        let img = tiny_image();
        let dataset = img.clone().into_dataset().unwrap();
        assert_eq!(dataset.name(), "adult");
        assert_eq!(dataset.n_rows(), 3);
        assert_eq!(dataset.label_of(0, 0), "female");
        assert_eq!(dataset.value(1, 1), None);
        assert_eq!(DatasetImage::from_dataset(&dataset), img);
    }

    #[test]
    fn dataset_image_rejects_out_of_range_ids() {
        let mut img = tiny_image();
        img.columns[0][1] = 7;
        assert!(img.into_dataset().is_err());
    }

    #[test]
    fn ops_roundtrip() {
        let ops = vec![
            WalOp::Register {
                name: "adult".into(),
                generation: 0,
                policy: PolicyRepr::Search {
                    bound: 512,
                    refine: true,
                },
                sel: vec![0, 1],
                dataset: tiny_image(),
            },
            WalOp::Refresh {
                name: "adult".into(),
                generation: 1,
                policy: PolicyRepr::Attrs(vec![1]),
                sel: vec![1],
            },
            WalOp::AppendRows {
                name: "adult".into(),
                generation: 2,
                rows: vec![
                    vec![Some("male".into()), None],
                    vec![Some("new-value".into()), Some("u20".into())],
                ],
            },
            WalOp::Remove {
                name: "adult".into(),
                generation: 2,
            },
        ];
        for op in ops {
            let bytes = op.encode();
            assert_eq!(
                WalOp::decode(&bytes).unwrap(),
                op,
                "roundtrip {}",
                op.kind()
            );
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let op = WalOp::Remove {
            name: "d".into(),
            generation: 9,
        };
        let mut bytes = op.encode();
        for cut in 0..bytes.len() {
            assert!(WalOp::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        bytes.push(0);
        assert!(WalOp::decode(&bytes).is_err());
        assert!(WalOp::decode(&[99]).is_err());
    }

    #[test]
    fn decode_rejects_rows_of_no_cells() {
        // 2^20 rows of no cells fit in a 22-byte payload, and decoding
        // them used to reserve a 24-byte row vector for each.
        let mut payload = vec![TAG_APPEND];
        put_str(&mut payload, "d");
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 1 << 20);
        put_u32(&mut payload, 0);
        let err = WalOp::decode(&payload).unwrap_err();
        assert!(err.to_string().contains("rows of no cells"), "{err}");
        // An empty batch still round trips.
        let empty = WalOp::AppendRows {
            name: "d".into(),
            generation: 1,
            rows: Vec::new(),
        };
        assert_eq!(WalOp::decode(&empty.encode()).unwrap(), empty);
    }
}
