//! In-memory columnar datasets of categorical attributes.
//!
//! A [`Dataset`] is the paper's single relation `D`: every attribute is
//! categorical (numeric attributes must be bucketized first, see
//! [`crate::bucketize`]) and every cell stores a dense dictionary id.
//! Missing values — required by the NP-hardness reduction of Appendix A,
//! whose construction uses tuples defined on only a few attributes — are
//! stored as the sentinel [`MISSING`].

use std::sync::Arc;

use crate::error::{DataError, Result};
use crate::partition::{group_by_columns, group_weights};
use crate::schema::{Attribute, Schema};

/// Sentinel id for a missing (undefined) cell.
pub const MISSING: u32 = u32::MAX;

/// A columnar, dictionary-encoded categorical relation.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: Box<str>,
    schema: Arc<Schema>,
    columns: Vec<Vec<u32>>,
    n_rows: usize,
    has_missing: Vec<bool>,
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

    /// Allocated capacity of `attr`'s column buffer, in elements — what
    /// the deep memory accounting charges, as opposed to `n_rows`.
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
            self.columns[attr].push(id);
            if id == MISSING {
                self.has_missing[attr] = true;
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// A copy whose columns each hold room for `extra_rows` more rows,
    /// allocated once. Appending that many rows to it reallocates
    /// nothing, where a plain `clone` (capacity = rows) doubles every
    /// column on its first append.
    pub fn clone_with_headroom(&self, extra_rows: usize) -> Dataset {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let mut copy = Vec::with_capacity(c.len() + extra_rows);
                copy.extend_from_slice(c);
                copy
            })
            .collect();
        Dataset {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            columns,
            n_rows: self.n_rows,
            has_missing: self.has_missing.clone(),
        }
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
        let n_attrs = self.schema.len();
        if n_attrs == 0 {
            self.n_rows += rows.len();
            return Ok(false);
        }
        let mut ids: Vec<u32> = Vec::with_capacity(rows.len() * n_attrs);
        let mut grew = false;
        'resolve: for row in rows {
            for (attr, cell) in row.iter().enumerate() {
                match cell {
                    None => ids.push(MISSING),
                    Some(s) => {
                        let dict = self.schema.attr(attr).expect("attr in range").dictionary();
                        match dict.lookup(s.as_ref()) {
                            Some(id) => ids.push(id),
                            None => {
                                grew = true;
                                break 'resolve;
                            }
                        }
                    }
                }
            }
        }
        if grew {
            ids.clear();
            let schema = Arc::make_mut(&mut self.schema);
            for row in rows {
                for (attr, cell) in row.iter().enumerate() {
                    ids.push(match cell {
                        None => MISSING,
                        Some(s) => schema.attr_mut(attr).dictionary_mut().intern(s.as_ref()),
                    });
                }
            }
        }
        for row in ids.chunks_exact(n_attrs) {
            for (attr, &id) in row.iter().enumerate() {
                self.columns[attr].push(id);
                if id == MISSING {
                    self.has_missing[attr] = true;
                }
            }
            self.n_rows += 1;
        }
        Ok(grew)
    }

    /// Restricts the dataset to the attributes at `indices` (in the given
    /// order), keeping all rows. Dictionaries are shared unchanged.
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
        let columns: Vec<Vec<u32>> = self
            .columns
            .iter()
            .map(|c| rows.iter().map(|&r| c[r]).collect())
            .collect();
        let has_missing = columns
            .iter()
            .map(|c: &Vec<u32>| c.contains(&MISSING))
            .collect();
        Dataset {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            columns,
            n_rows: rows.len(),
            has_missing,
        }
    }

    /// Returns a dataset with the same schema and zero rows (for building
    /// derived tables such as materialized pattern sets).
    pub fn empty_like(&self) -> Dataset {
        Dataset {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            columns: (0..self.schema.len()).map(|_| Vec::new()).collect(),
            n_rows: 0,
            has_missing: vec![false; self.schema.len()],
        }
    }

    /// Returns a same-schema dataset where every column *not* listed in
    /// `keep` is replaced by all-missing cells. Useful for restricting
    /// analyses to a subset of attributes without renumbering them.
    pub fn mask_attrs(&self, keep: &[usize]) -> Result<Dataset> {
        for &i in keep {
            self.schema.attr_checked(i)?;
        }
        let columns: Vec<Vec<u32>> = (0..self.schema.len())
            .map(|i| {
                if keep.contains(&i) {
                    self.columns[i].clone()
                } else {
                    vec![MISSING; self.n_rows]
                }
            })
            .collect();
        let has_missing = columns
            .iter()
            .map(|c: &Vec<u32>| c.contains(&MISSING))
            .collect();
        Ok(Dataset {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            columns,
            n_rows: self.n_rows,
            has_missing,
        })
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
        let (ids, firsts) = group_by_columns(self.n_rows, self.columns.iter().zip(cards));
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
                    for &v in col {
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
    /// Crate-internal constructor from raw parts (used by transforms such as
    /// bucketization that rebuild single columns).
    pub(crate) fn from_parts(
        name: Box<str>,
        schema: Schema,
        columns: Vec<Vec<u32>>,
        n_rows: usize,
    ) -> Dataset {
        debug_assert_eq!(schema.len(), columns.len());
        debug_assert!(columns.iter().all(|c| c.len() == n_rows));
        let has_missing = columns.iter().map(|c| c.contains(&MISSING)).collect();
        Dataset {
            name,
            schema: Arc::new(schema),
            columns,
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
        let has_missing = self.columns.iter().map(|c| c.contains(&MISSING)).collect();
        Dataset {
            name: self.name,
            schema: Arc::new(self.schema),
            columns: self.columns,
            n_rows: self.n_rows,
            has_missing,
        }
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
