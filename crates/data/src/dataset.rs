//! In-memory columnar datasets of categorical attributes.
//!
//! A [`Dataset`] is the paper's single relation `D`: every attribute is
//! categorical (numeric attributes must be bucketized first, see
//! [`crate::bucketize`]) and every cell stores a dense dictionary id.
//! Missing values — required by the NP-hardness reduction of Appendix A,
//! whose construction uses tuples defined on only a few attributes — are
//! stored as the sentinel [`MISSING`].
//!
//! # Generations share their columns
//!
//! Each column is an append-only buffer that every dataset cloned or
//! appended from it shares (`Arc`), and each dataset reads only its own
//! `n_rows` prefix of it. An append claims the cells past that prefix
//! with one compare-and-swap on the buffer's high-water mark and writes
//! them in place; only when the claim fails (another generation already
//! grew past this one) or the buffer is full does it copy its prefix into
//! a buffer of twice the rows. So an append costs amortised O(batch),
//! [`Dataset::clone`] costs O(attributes), and [`Dataset::column`] stays a
//! contiguous slice. The sharing is sound without any lock held by the
//! caller, because no reader sees a cell past its own prefix, and no
//! writer writes below another generation's length (the private
//! `column` module spells both rules out at its `unsafe` code).

use std::sync::Arc;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::partition::{group_by_columns, group_weights};
use crate::schema::{Attribute, Schema};

/// Sentinel id for a missing (undefined) cell.
pub const MISSING: u32 = u32::MAX;

/// A columnar, dictionary-encoded categorical relation.
#[derive(Debug)]
pub struct Dataset {
    name: Box<str>,
    schema: Arc<Schema>,
    /// Each column's `len` is `n_rows`.
    columns: Vec<Column>,
    n_rows: usize,
    has_missing: Vec<bool>,
}

impl Clone for Dataset {
    /// Copies no cell: O(attributes). The clone shares every column
    /// buffer (and the schema) with `self`, and the two read the same
    /// rows. Appending to either one writes past both prefixes: in place
    /// for the first to append, into a copy of its own rows for the
    /// other, never into rows the other reads (see the module doc).
    fn clone(&self) -> Dataset {
        Dataset {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            columns: self.columns.clone(),
            n_rows: self.n_rows,
            has_missing: self.has_missing.clone(),
        }
    }
}

impl Dataset {
    /// Dataset name used in reports (defaults to `"dataset"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the dataset (builder-style).
    pub fn with_name(mut self, name: impl Into<Box<str>>) -> Self {
        self.name = name.into();
        self
    }

    /// The schema shared by all rows.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Cheaply clonable handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of rows (the paper's `|D|`, tuple multiset cardinality).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.schema.len()
    }

    /// Whether the dataset has zero rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Raw id column for `attr` (may contain [`MISSING`]).
    pub fn column(&self, attr: usize) -> &[u32] {
        &self.columns[attr]
    }

    /// Capacity of `attr`'s column buffer, in cells — what the deep
    /// memory accounting charges, as opposed to `n_rows`. Generations
    /// sharing the buffer share this figure.
    pub(crate) fn column_capacity(&self, attr: usize) -> usize {
        self.columns[attr].capacity()
    }

    /// Cell accessor: `None` when the value is missing.
    pub fn value(&self, row: usize, attr: usize) -> Option<u32> {
        let v = self.columns[attr][row];
        (v != MISSING).then_some(v)
    }

    /// Cell accessor returning the raw id including the missing sentinel.
    pub fn value_raw(&self, row: usize, attr: usize) -> u32 {
        self.columns[attr][row]
    }

    /// Human-readable label of `(attr, id)`, or `"⊥"` for missing.
    pub fn label_of(&self, attr: usize, id: u32) -> &str {
        if id == MISSING {
            return "⊥";
        }
        self.schema
            .attr(attr)
            .and_then(|a| a.dictionary().label(id))
            .unwrap_or("?")
    }

    /// Whether column `attr` contains any missing cell.
    pub fn attr_has_missing(&self, attr: usize) -> bool {
        self.has_missing[attr]
    }

    /// Whether any column contains a missing cell.
    pub fn has_any_missing(&self) -> bool {
        self.has_missing.iter().any(|&b| b)
    }

    /// Copies row `r` into a fresh vector of raw ids.
    pub fn row_to_vec(&self, r: usize) -> Vec<u32> {
        self.columns.iter().map(|c| c[r]).collect()
    }

    /// Writes row `r`'s raw ids into `buf` (cleared first).
    pub fn read_row(&self, r: usize, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c[r]));
    }

    /// Appends a row given by raw ids (use [`MISSING`] for undefined cells).
    ///
    /// Every non-missing id must already exist in the corresponding
    /// dictionary.
    pub fn push_row_ids(&mut self, ids: &[u32]) -> Result<()> {
        if ids.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                got: ids.len(),
                row: self.n_rows,
            });
        }
        for (attr, &id) in ids.iter().enumerate() {
            if id != MISSING {
                let card = self.schema.attr(attr).expect("attr in range").cardinality();
                if id as usize >= card {
                    return Err(DataError::ValueOutOfRange {
                        attr,
                        value: id,
                        len: card,
                    });
                }
            }
        }
        for (attr, &id) in ids.iter().enumerate() {
            self.columns[attr].extend_from_slice(&[id]);
            if id == MISSING {
                self.has_missing[attr] = true;
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Appends labeled rows (`None` marks a missing cell), interning
    /// previously-unseen values. Returns `true` when any dictionary grew —
    /// the signal that structures keyed on the old value-id layout (packed
    /// group-count keys, label codecs) must be rebuilt rather than
    /// incrementally updated.
    ///
    /// Every row is arity-checked up front, so a failed call leaves the
    /// dataset unchanged. Existing value ids are never renumbered:
    /// interning only appends, which is what makes schema-stable appends
    /// incremental-safe.
    pub fn append_labeled_rows<S: AsRef<str>>(&mut self, rows: &[Vec<Option<S>>]) -> Result<bool> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != self.schema.len() {
                return Err(DataError::ArityMismatch {
                    expected: self.schema.len(),
                    got: row.len(),
                    row: self.n_rows + i,
                });
            }
        }
        // Fast path first: resolve every cell against the existing
        // dictionaries. Only an actual unseen value pays the
        // copy-on-write schema clone (the schema `Arc` is shared with
        // labels and older dataset snapshots, so an unconditional
        // `make_mut` would deep-copy every dictionary on every append).
        let (n, n_attrs) = (rows.len(), self.schema.len());
        if n_attrs == 0 || n == 0 {
            self.n_rows += n;
            return Ok(false);
        }
        // Resolved column by column: `ids[attr * n + r]` is row `r`'s cell.
        let mut ids: Vec<u32> = vec![MISSING; n * n_attrs];
        let mut grew = false;
        'resolve: for (r, row) in rows.iter().enumerate() {
            for (attr, cell) in row.iter().enumerate() {
                if let Some(s) = cell {
                    let dict = self.schema.attr(attr).expect("attr in range").dictionary();
                    match dict.lookup(s.as_ref()) {
                        Some(id) => ids[attr * n + r] = id,
                        None => {
                            grew = true;
                            break 'resolve;
                        }
                    }
                }
            }
        }
        if grew {
            let schema = Arc::make_mut(&mut self.schema);
            for (r, row) in rows.iter().enumerate() {
                for (attr, cell) in row.iter().enumerate() {
                    if let Some(s) = cell {
                        ids[attr * n + r] =
                            schema.attr_mut(attr).dictionary_mut().intern(s.as_ref());
                    }
                }
            }
        }
        for (attr, cells) in ids.chunks_exact(n).enumerate() {
            self.columns[attr].extend_from_slice(cells);
            self.has_missing[attr] |= cells.contains(&MISSING);
        }
        self.n_rows += n;
        Ok(grew)
    }

    /// Restricts the dataset to the attributes at `indices` (in the given
    /// order), keeping all rows. Dictionaries are copied unchanged, and
    /// the kept column buffers are shared, as by [`Dataset::clone`].
    pub fn project(&self, indices: &[usize]) -> Result<Dataset> {
        let mut schema = Schema::new();
        let mut columns = Vec::with_capacity(indices.len());
        let mut has_missing = Vec::with_capacity(indices.len());
        for &i in indices {
            let attr = self.schema.attr_checked(i)?;
            schema.push(attr.clone());
            columns.push(self.columns[i].clone());
            has_missing.push(self.has_missing[i]);
        }
        Ok(Dataset {
            name: self.name.clone(),
            schema: Arc::new(schema),
            columns,
            n_rows: self.n_rows,
            has_missing,
        })
    }

    /// Keeps only the rows at `rows` (in the given order, duplicates allowed).
    pub fn take_rows(&self, rows: &[usize]) -> Dataset {
        let columns = self
            .columns
            .iter()
            .map(|c| rows.iter().map(|&r| c[r]).collect())
            .collect();
        Dataset::with_columns(
            self.name.clone(),
            Arc::clone(&self.schema),
            columns,
            rows.len(),
        )
    }

    /// Returns a dataset with the same schema and zero rows (for building
    /// derived tables such as materialized pattern sets).
    pub fn empty_like(&self) -> Dataset {
        let columns = (0..self.schema.len()).map(|_| Vec::new()).collect();
        Dataset::with_columns(self.name.clone(), Arc::clone(&self.schema), columns, 0)
    }

    /// Returns a same-schema dataset where every column *not* listed in
    /// `keep` is replaced by all-missing cells. Useful for restricting
    /// analyses to a subset of attributes without renumbering them.
    pub fn mask_attrs(&self, keep: &[usize]) -> Result<Dataset> {
        for &i in keep {
            self.schema.attr_checked(i)?;
        }
        let columns = (0..self.schema.len())
            .map(|i| {
                if keep.contains(&i) {
                    self.columns[i].to_vec()
                } else {
                    vec![MISSING; self.n_rows]
                }
            })
            .collect();
        Ok(Dataset::with_columns(
            self.name.clone(),
            Arc::clone(&self.schema),
            columns,
            self.n_rows,
        ))
    }

    /// Collapses duplicate rows, returning the distinct-row dataset together
    /// with per-row multiplicities. Row order is first-occurrence order.
    ///
    /// All label-size and error computations run on this compressed form:
    /// the set of distinct full tuples is exactly the paper's default
    /// pattern set `P_A`, and multiplicities are the pattern counts.
    ///
    /// The rows are grouped by folding the one refinement pass of
    /// [`partition`](crate::partition) over every column
    /// ([`group_by_columns`]), the pass the label search groups by too; its
    /// group ids number the distinct tuples in first-occurrence order.
    pub fn compress(&self) -> (Dataset, Vec<u64>) {
        let cards = self.schema.iter().map(|a| a.cardinality() as u32);
        let columns = self.columns.iter().map(|c| c.as_slice());
        let (ids, firsts) = group_by_columns(self.n_rows, columns.zip(cards));
        let weights = group_weights(&ids, std::iter::repeat(1), firsts.len());
        (self.take_rows(&firsts), weights)
    }

    /// Per-attribute counts of each value id over the rows, ignoring missing
    /// cells; `counts[attr][id]` is the paper's `c_D({A_attr = id})`.
    pub fn value_counts(&self) -> Vec<Vec<u64>> {
        self.weighted_value_counts(None)
    }

    /// Like [`Dataset::value_counts`] but each row `r` counts `weights[r]`
    /// times (used with [`Dataset::compress`]).
    pub fn weighted_value_counts(&self, weights: Option<&[u64]>) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = self
            .schema
            .iter()
            .map(|a| vec![0u64; a.cardinality()])
            .collect();
        for (attr, col) in self.columns.iter().enumerate() {
            let counts = &mut out[attr];
            match weights {
                None => {
                    for &v in col.iter() {
                        if v != MISSING {
                            counts[v as usize] += 1;
                        }
                    }
                }
                Some(w) => {
                    debug_assert_eq!(w.len(), col.len());
                    for (&v, &wt) in col.iter().zip(w) {
                        if v != MISSING {
                            counts[v as usize] += wt;
                        }
                    }
                }
            }
        }
        out
    }
}

impl Dataset {
    /// A dataset of raw id `columns` over `schema`'s dictionaries, named
    /// `"dataset"`, each column moved in as its buffer, uncopied. Fails
    /// unless there is one column per attribute, each `n_rows` long and
    /// holding only [`MISSING`] or ids inside its attribute's dictionary.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<u32>>, n_rows: usize) -> Result<Dataset> {
        if columns.len() != schema.len() {
            return Err(DataError::Invalid(format!(
                "{} columns for {} attributes",
                columns.len(),
                schema.len()
            )));
        }
        for (attr, (column, a)) in columns.iter().zip(schema.iter()).enumerate() {
            if column.len() != n_rows {
                return Err(DataError::Invalid(format!(
                    "column {attr} has {} rows, expected {n_rows}",
                    column.len()
                )));
            }
            let len = a.cardinality();
            if let Some(&value) = column.iter().find(|&&v| v != MISSING && v as usize >= len) {
                return Err(DataError::ValueOutOfRange { attr, value, len });
            }
        }
        Ok(Dataset::with_columns(
            "dataset".into(),
            Arc::new(schema),
            columns,
            n_rows,
        ))
    }

    /// Crate-internal constructor from raw parts (used by transforms such as
    /// bucketization that rebuild single columns).
    pub(crate) fn from_parts(
        name: Box<str>,
        schema: Schema,
        columns: Vec<Vec<u32>>,
        n_rows: usize,
    ) -> Dataset {
        Dataset::with_columns(name, Arc::new(schema), columns, n_rows)
    }

    /// A dataset over `columns`, each `n_rows` long and each moved in as
    /// its column's buffer.
    fn with_columns(
        name: Box<str>,
        schema: Arc<Schema>,
        columns: Vec<Vec<u32>>,
        n_rows: usize,
    ) -> Dataset {
        debug_assert_eq!(schema.len(), columns.len());
        debug_assert!(columns.iter().all(|c| c.len() == n_rows));
        let has_missing = columns.iter().map(|c| c.contains(&MISSING)).collect();
        Dataset {
            name,
            schema,
            columns: columns.into_iter().map(Column::from_vec).collect(),
            n_rows,
            has_missing,
        }
    }
}

/// Row-at-a-time builder that interns labels on the fly.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    name: Box<str>,
    schema: Schema,
    columns: Vec<Vec<u32>>,
    n_rows: usize,
}

impl DatasetBuilder {
    /// Starts a dataset with the given attribute names and empty domains.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let schema = Schema::from_names(names);
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        Self {
            name: "dataset".into(),
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// Starts a dataset whose attribute domains are fixed up front, so rows
    /// can be appended as raw ids with [`DatasetBuilder::push_ids`].
    pub fn with_domains<'a, I, V>(attrs: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, V)>,
        V: IntoIterator,
        V::Item: AsRef<str>,
    {
        let mut schema = Schema::new();
        for (name, values) in attrs {
            schema.push(Attribute::with_values(name, values));
        }
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        Self {
            name: "dataset".into(),
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// Sets the dataset name.
    pub fn name(mut self, name: impl Into<Box<str>>) -> Self {
        self.name = name.into();
        self
    }

    /// Reserves capacity for `rows` additional rows in every column.
    pub fn reserve(&mut self, rows: usize) {
        for c in &mut self.columns {
            c.reserve(rows);
        }
    }

    /// Releases column capacity beyond the rows appended so far.
    pub(crate) fn shrink_to_fit(&mut self) {
        for c in &mut self.columns {
            c.shrink_to_fit();
        }
    }

    /// Number of rows appended so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Read access to the schema built so far.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends a fully-defined row of string labels (interned per attribute).
    pub fn push_row<S: AsRef<str>>(&mut self, fields: &[S]) -> Result<()> {
        if fields.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                got: fields.len(),
                row: self.n_rows,
            });
        }
        for (attr, f) in fields.iter().enumerate() {
            let id = self
                .schema
                .attr_mut(attr)
                .dictionary_mut()
                .intern(f.as_ref());
            self.columns[attr].push(id);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Appends a row where `None` marks a missing cell.
    pub fn push_row_opt<S: AsRef<str>>(&mut self, fields: &[Option<S>]) -> Result<()> {
        if fields.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                got: fields.len(),
                row: self.n_rows,
            });
        }
        for (attr, f) in fields.iter().enumerate() {
            let id = match f {
                Some(s) => self
                    .schema
                    .attr_mut(attr)
                    .dictionary_mut()
                    .intern(s.as_ref()),
                None => MISSING,
            };
            self.columns[attr].push(id);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Appends a row of raw ids against the pre-declared domains.
    pub fn push_ids(&mut self, ids: &[u32]) -> Result<()> {
        if ids.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                got: ids.len(),
                row: self.n_rows,
            });
        }
        for (attr, &id) in ids.iter().enumerate() {
            if id != MISSING {
                let card = self.schema.attr(attr).expect("attr in range").cardinality();
                if id as usize >= card {
                    return Err(DataError::ValueOutOfRange {
                        attr,
                        value: id,
                        len: card,
                    });
                }
            }
        }
        for (attr, &id) in ids.iter().enumerate() {
            self.columns[attr].push(id);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Joins builders that were fed consecutive runs of one table's rows
    /// under the same attribute names, in order, into one dataset.
    ///
    /// Each later part's labels are interned into the first part's
    /// dictionaries in that part's own id (first-seen) order, which
    /// assigns exactly the ids one builder fed every row in turn would
    /// have; the part's ids are then remapped. Each column keeps the
    /// first part's buffer, grown at most once, and ends with a capacity
    /// equal to the total row count; a later part's column is freed as soon
    /// as it is copied.
    pub(crate) fn concat(parts: Vec<DatasetBuilder>) -> Dataset {
        let mut parts = parts.into_iter();
        let mut joined = parts.next().expect("concat needs at least one part");
        let mut rest: Vec<DatasetBuilder> = parts.collect();
        let rows = joined.n_rows + rest.iter().map(|p| p.n_rows).sum::<usize>();
        let mut remap = Vec::new();
        for (attr, column) in joined.columns.iter_mut().enumerate() {
            column.reserve_exact(rows - column.len());
            let dictionary = joined.schema.attr_mut(attr).dictionary_mut();
            for part in &mut rest {
                remap.clear();
                remap.extend(
                    part.schema
                        .attr(attr)
                        .expect("parts share the attribute names")
                        .dictionary()
                        .iter()
                        .map(|(_, label)| dictionary.intern(label)),
                );
                let ids = std::mem::take(&mut part.columns[attr]);
                column.extend(ids.iter().map(|&id| {
                    if id == MISSING {
                        MISSING
                    } else {
                        remap[id as usize]
                    }
                }));
            }
            column.shrink_to_fit();
        }
        joined.n_rows = rows;
        joined.finish()
    }

    /// Finalizes the builder into an immutable [`Dataset`].
    pub fn finish(self) -> Dataset {
        Dataset::with_columns(self.name, Arc::new(self.schema), self.columns, self.n_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut b = DatasetBuilder::new(["color", "size"]);
        b.push_row(&["red", "small"]).unwrap();
        b.push_row(&["red", "large"]).unwrap();
        b.push_row(&["blue", "small"]).unwrap();
        b.push_row(&["red", "small"]).unwrap();
        b.finish().with_name("tiny")
    }

    #[test]
    fn builder_interns_and_counts_rows() {
        let d = tiny();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_attrs(), 2);
        assert_eq!(d.schema().attr(0).unwrap().cardinality(), 2);
        assert_eq!(d.schema().attr(1).unwrap().cardinality(), 2);
        assert_eq!(d.value(0, 0), Some(0));
        assert_eq!(d.label_of(0, 0), "red");
        assert_eq!(d.label_of(0, 1), "blue");
        assert!(!d.has_any_missing());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        let err = b.push_row(&["only one"]).unwrap_err();
        assert!(matches!(
            err,
            DataError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn missing_values_tracked_per_column() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row_opt(&[Some("x"), None::<&str>]).unwrap();
        b.push_row_opt(&[Some("y"), Some("z")]).unwrap();
        let d = b.finish();
        assert!(!d.attr_has_missing(0));
        assert!(d.attr_has_missing(1));
        assert!(d.has_any_missing());
        assert_eq!(d.value(0, 1), None);
        assert_eq!(d.label_of(1, MISSING), "⊥");
    }

    #[test]
    fn value_counts_ignore_missing() {
        let mut b = DatasetBuilder::new(["a"]);
        b.push_row_opt(&[Some("x")]).unwrap();
        b.push_row_opt(&[None::<&str>]).unwrap();
        b.push_row_opt(&[Some("x")]).unwrap();
        let d = b.finish();
        assert_eq!(d.value_counts(), vec![vec![2]]);
    }

    #[test]
    fn compress_collapses_duplicates_preserving_counts() {
        let d = tiny();
        let (distinct, weights) = d.compress();
        assert_eq!(distinct.n_rows(), 3);
        assert_eq!(weights, vec![2, 1, 1]);
        assert_eq!(weights.iter().sum::<u64>(), d.n_rows() as u64);
        // Value counts agree between raw and compressed forms.
        assert_eq!(
            d.value_counts(),
            distinct.weighted_value_counts(Some(&weights))
        );
    }

    #[test]
    fn project_keeps_rows_and_order() {
        let d = tiny();
        let p = d.project(&[1]).unwrap();
        assert_eq!(p.n_attrs(), 1);
        assert_eq!(p.n_rows(), 4);
        assert_eq!(p.schema().attr(0).unwrap().name(), "size");
        assert!(d.project(&[5]).is_err());
    }

    #[test]
    fn take_rows_selects_and_duplicates() {
        let d = tiny();
        let t = d.take_rows(&[2, 2, 0]);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.label_of(0, t.value(0, 0).unwrap()), "blue");
        assert_eq!(t.label_of(0, t.value(2, 0).unwrap()), "red");
    }

    #[test]
    fn empty_like_preserves_schema() {
        let d = tiny();
        let e = d.empty_like();
        assert_eq!(e.n_rows(), 0);
        assert!(e.is_empty());
        assert_eq!(e.n_attrs(), 2);
        assert_eq!(e.schema().names(), d.schema().names());
    }

    #[test]
    fn mask_attrs_blanks_other_columns() {
        let d = tiny();
        let m = d.mask_attrs(&[1]).unwrap();
        assert_eq!(m.n_rows(), d.n_rows());
        assert!(m.attr_has_missing(0));
        assert!(!m.attr_has_missing(1));
        for r in 0..m.n_rows() {
            assert_eq!(m.value(r, 0), None);
            assert_eq!(m.value(r, 1), d.value(r, 1));
        }
        assert!(d.mask_attrs(&[9]).is_err());
    }

    #[test]
    fn push_row_ids_validates() {
        let mut d = tiny();
        assert!(d.push_row_ids(&[0, 1]).is_ok());
        assert_eq!(d.n_rows(), 5);
        assert!(matches!(
            d.push_row_ids(&[9, 0]),
            Err(DataError::ValueOutOfRange { .. })
        ));
        assert!(d.push_row_ids(&[0]).is_err());
        assert!(d.push_row_ids(&[MISSING, 0]).is_ok());
        assert!(d.attr_has_missing(0));
    }

    #[test]
    fn append_labeled_rows_tracks_dictionary_growth() {
        let mut d = tiny();
        // Known values only: no growth, ids stable.
        let grew = d
            .append_labeled_rows(&[vec![Some("blue"), Some("large")]])
            .unwrap();
        assert!(!grew);
        assert_eq!(d.n_rows(), 5);
        assert_eq!(d.label_of(0, d.value_raw(4, 0)), "blue");

        // A missing cell is not growth either.
        let grew = d
            .append_labeled_rows(&[vec![Some("red"), None::<&str>]])
            .unwrap();
        assert!(!grew);
        assert!(d.attr_has_missing(1));

        // An unseen value grows the dictionary and reports it; old ids
        // keep their labels.
        let grew = d
            .append_labeled_rows(&[vec![Some("green"), Some("small")]])
            .unwrap();
        assert!(grew);
        assert_eq!(d.schema().attr(0).unwrap().cardinality(), 3);
        assert_eq!(d.label_of(0, 0), "red");

        // Arity mismatch rejects atomically (no rows appended).
        let before = d.n_rows();
        assert!(d
            .append_labeled_rows(&[vec![Some("red")], vec![Some("red"), Some("small")]])
            .is_err());
        assert_eq!(d.n_rows(), before);
    }

    #[test]
    fn append_without_growth_shares_the_schema_arc() {
        // The schema is copy-on-write: a schema-stable append must not
        // pay the dictionary deep-clone (the common incremental path).
        let original = tiny();
        let mut copy = original.clone();
        copy.append_labeled_rows(&[vec![Some("red"), Some("small")]])
            .unwrap();
        assert!(Arc::ptr_eq(&original.schema_arc(), &copy.schema_arc()));
        // Growth breaks the sharing (and only then).
        copy.append_labeled_rows(&[vec![Some("green"), Some("small")]])
            .unwrap();
        assert!(!Arc::ptr_eq(&original.schema_arc(), &copy.schema_arc()));
    }

    #[test]
    fn append_labeled_rows_does_not_mutate_shared_schema() {
        // The schema Arc is copy-on-write: a clone appended with a new
        // value must not change the original's cardinalities.
        let original = tiny();
        let mut copy = original.clone();
        copy.append_labeled_rows(&[vec![Some("green"), Some("small")]])
            .unwrap();
        assert_eq!(original.schema().attr(0).unwrap().cardinality(), 2);
        assert_eq!(copy.schema().attr(0).unwrap().cardinality(), 3);
    }

    /// One live handle of [`shared_columns_match_a_per_handle_model`]:
    /// the dataset, the cells and dictionary sizes it must read, and the
    /// model buffer its columns sit in.
    #[derive(Clone)]
    struct Handle {
        dataset: Dataset,
        columns: Vec<Vec<u32>>,
        cards: Vec<usize>,
        buffer: usize,
    }

    impl Handle {
        fn check(&self) {
            let d = &self.dataset;
            assert_eq!(d.n_rows(), self.columns[0].len());
            let cards: Vec<usize> = d.schema().iter().map(|a| a.cardinality()).collect();
            assert_eq!(cards, self.cards);
            let mut counts: Vec<Vec<u64>> = self.cards.iter().map(|&c| vec![0; c]).collect();
            for (attr, column) in self.columns.iter().enumerate() {
                assert_eq!(d.column(attr), &column[..], "column {attr}");
                assert_eq!(d.attr_has_missing(attr), column.contains(&MISSING));
                for &v in column.iter().filter(|&&v| v != MISSING) {
                    counts[attr][v as usize] += 1;
                }
                assert!(d.column_capacity(attr) >= d.n_rows());
            }
            assert_eq!(d.value_counts(), counts);
        }

        /// Where each column's cells start: moves only when a column is
        /// copied.
        fn starts(&self) -> Vec<*const u32> {
            (0..self.columns.len())
                .map(|a| self.dataset.column(a).as_ptr())
                .collect()
        }
    }

    /// How one step is read: what it does, which live handle it picks,
    /// how many rows it appends and the raw draws its cells come from.
    type Step = (u8, usize, usize, Vec<u32>);

    /// Random steps over a family of handles sharing column buffers
    /// (clone, append known values and missing cells, append a value
    /// that grows a dictionary, `push_row_ids`, a failing append, drop),
    /// each handle checked after every step against its own model. The
    /// model also tracks each buffer's claimed mark, so every append is
    /// checked to write in place exactly when its handle ends at the mark
    /// and the rows fit, and else to copy into room for twice the rows.
    /// Returns how often an append wrote in place, copied past a newer
    /// generation and copied out of a full buffer.
    fn run_steps(steps: &[Step]) -> [usize; 3] {
        let domains = [("a", 3), ("b", 2), ("c", 4)];
        let mut b = DatasetBuilder::with_domains(
            domains.map(|(name, card)| (name, (0..card).map(|v| format!("v{v}")))),
        );
        let mut columns = vec![Vec::new(); domains.len()];
        for r in 0..5u32 {
            let row = [r % 3, MISSING, r % 4];
            b.push_ids(&row).unwrap();
            for (column, &id) in columns.iter_mut().zip(&row) {
                column.push(id);
            }
        }
        let mut handles = vec![Handle {
            dataset: b.finish(),
            columns,
            cards: domains.map(|(_, card)| card).to_vec(),
            buffer: 0,
        }];
        let mut claimed = vec![5];
        let mut reached = [0; 3];
        for (kind, pick, batch, draws) in steps {
            let h = pick % handles.len();
            let n_attrs = handles[h].columns.len();
            match kind {
                0 => handles.push(handles[h].clone()),
                1..=4 => {
                    let handle = &mut handles[h];
                    let (len, cap) = (handle.columns[0].len(), handle.dataset.column_capacity(0));
                    let starts = handle.starts();
                    // A cell draws a known id or missing; kind 3 also
                    // draws one new value into the first row.
                    let mut ids: Vec<Vec<u32>> = (0..*batch)
                        .map(|r| {
                            (0..n_attrs)
                                .map(|a| {
                                    let card = handle.cards[a] as u32;
                                    let v = draws[r * n_attrs + a] % (card + 1);
                                    if v == card {
                                        MISSING
                                    } else {
                                        v
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    let grows = *kind == 3;
                    if grows {
                        let a = draws[0] as usize % n_attrs;
                        ids[0][a] = handle.cards[a] as u32;
                    }
                    if *kind == 4 {
                        ids.truncate(1);
                        handle.dataset.push_row_ids(&ids[0]).unwrap();
                    } else {
                        let rows: Vec<Vec<Option<String>>> = ids
                            .iter()
                            .map(|row| {
                                let cell = |&v: &u32| (v != MISSING).then(|| format!("v{v}"));
                                row.iter().map(cell).collect()
                            })
                            .collect();
                        assert_eq!(handle.dataset.append_labeled_rows(&rows).unwrap(), grows);
                    }
                    let k = ids.len();
                    for row in &ids {
                        for (a, &id) in row.iter().enumerate() {
                            handle.columns[a].push(id);
                            if id != MISSING {
                                handle.cards[a] = handle.cards[a].max(id as usize + 1);
                            }
                        }
                    }
                    let in_place = claimed[handle.buffer] == len && len + k <= cap;
                    let moved: Vec<bool> = handle
                        .starts()
                        .iter()
                        .zip(&starts)
                        .map(|(a, b)| a != b)
                        .collect();
                    assert_eq!(moved, vec![!in_place; n_attrs], "{len} rows, cap {cap}");
                    if in_place {
                        claimed[handle.buffer] = len + k;
                        reached[0] += 1;
                    } else {
                        reached[if claimed[handle.buffer] > len { 1 } else { 2 }] += 1;
                        assert_eq!(handle.dataset.column_capacity(0), (2 * len).max(len + k));
                        handle.buffer = claimed.len();
                        claimed.push(len + k);
                    }
                }
                5 => {
                    let handle = &mut handles[h];
                    let mut rows = vec![vec![Some("v0"); n_attrs]; *batch];
                    rows[draws[0] as usize % *batch].pop();
                    let before = handle.starts();
                    assert!(handle.dataset.append_labeled_rows(&rows).is_err());
                    assert_eq!(handle.starts(), before);
                }
                _ => {
                    if handles.len() > 1 {
                        handles.swap_remove(h);
                    }
                }
            }
            for handle in &handles {
                handle.check();
            }
        }
        reached
    }

    /// The property behind [`run_steps`], over random step sequences; the
    /// cases between them reach every path of an append.
    #[test]
    fn shared_columns_match_a_per_handle_model() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        let steps = proptest::collection::vec(
            (
                0u8..7,
                any::<usize>(),
                1usize..=5,
                proptest::collection::vec(any::<u32>(), 15),
            ),
            1..60,
        );
        let mut rng = TestRng::from_env("shared_columns_match_a_per_handle_model");
        let mut reached = [0; 3];
        for _ in 0..256 {
            let counts = run_steps(&steps.generate(&mut rng));
            for (total, n) in reached.iter_mut().zip(counts) {
                *total += n;
            }
        }
        let [in_place, past_newer, full] = reached;
        assert!(
            in_place > 0 && past_newer > 0 && full > 0,
            "in place {in_place}, copied past a newer generation {past_newer}, out of a full buffer {full}"
        );
    }

    #[test]
    fn with_domains_and_push_ids() {
        let mut b =
            DatasetBuilder::with_domains([("g", vec!["f", "m"]), ("r", vec!["a", "b", "c"])]);
        b.push_ids(&[0, 2]).unwrap();
        b.push_ids(&[1, 0]).unwrap();
        assert!(b.push_ids(&[2, 0]).is_err());
        let d = b.finish();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.label_of(1, 2), "c");
    }
}
