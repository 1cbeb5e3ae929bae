//! CSV input/output for datasets.
//!
//! The paper's evaluation datasets (BlueNile, COMPAS, Credit Card) ship as
//! CSV files; this module provides a dependency-free RFC 4180 reader/writer
//! so users can point the library at their own files.
//!
//! Reading is a single pass over the document's bytes: the scanner splits
//! each record into `&str` slices of the input, and
//! [`read_dataset_from_str`] interns them straight into the dataset's
//! dictionary-encoded columns. Only quoted fields holding `""` escapes are
//! copied; no per-field `String` and no list of records is built. Columns
//! are reserved from the document's newline count and end with a capacity
//! equal to the row count.

mod parse;
mod write;

pub use parse::CsvOptions;
pub use write::{write_csv, CsvWriteOptions};

use std::borrow::Cow;
use std::collections::HashSet;
use std::path::Path;

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::{DataError, Result};
use parse::{count_newlines, Scanner};

/// Parses a CSV document into a [`Dataset`], treating every column as a
/// categorical attribute.
///
/// Header names become attribute names and must be unique (synthetic
/// `col0..colN` names are generated in headerless mode); fields matching
/// [`CsvOptions::missing_tokens`] become missing cells. A syntax error
/// anywhere in the document is reported before an arity mismatch, and an
/// arity mismatch before a duplicate header name.
pub fn read_dataset_from_str(input: &str, opts: &CsvOptions) -> Result<Dataset> {
    let mut scanner = Scanner::new(input, opts)?;
    let mut fields: Vec<Cow<str>> = Vec::new();
    let mut more = scanner.next_record(&mut fields)?;
    let names: Vec<String> = if opts.has_header {
        if !more {
            return Err(DataError::Csv {
                line: 1,
                message: "expected a header row in an empty document".into(),
            });
        }
        let names = fields.iter().map(|f| f.to_string()).collect();
        more = scanner.next_record(&mut fields)?;
        names
    } else {
        (0..fields.len()).map(|i| format!("col{i}")).collect()
    };
    // An arity mismatch or a duplicate name is held until the document
    // ends, since a later syntax error takes precedence; rows are no
    // longer built once one is held.
    let mut error = duplicate_name(&names);
    let mut builder = DatasetBuilder::new(&names);
    builder.reserve(rows_to_reserve(input, opts.has_header, names.len()));
    let mut row = Vec::with_capacity(names.len());
    let mut record = 0usize;
    while more {
        if fields.len() != names.len() {
            if opts.strict_arity && !matches!(error, Some(DataError::ArityMismatch { .. })) {
                error = Some(DataError::ArityMismatch {
                    expected: names.len(),
                    got: fields.len(),
                    row: record,
                });
            }
        } else if error.is_none() {
            row.clear();
            row.extend(
                fields
                    .drain(..)
                    .map(|f| (!opts.is_missing(&f)).then_some(f)),
            );
            builder.push_row_opt(&row)?;
        }
        record += 1;
        more = scanner.next_record(&mut fields)?;
    }
    if let Some(e) = error {
        return Err(e);
    }
    builder.shrink_to_fit();
    Ok(builder.finish())
}

/// Rows to reserve per column: the number of data records, exact unless a
/// quoted field spans lines or a record ends in a bare `\r`. A row of
/// `width` fields takes at least `width` bytes with its line end, which
/// bounds the reservation by the input's size however wide the header is.
fn rows_to_reserve(input: &str, has_header: bool, width: usize) -> usize {
    let bytes = input.as_bytes();
    let records = count_newlines(bytes) + usize::from(bytes.last().is_some_and(|&b| b != b'\n'));
    let rows = records.saturating_sub(usize::from(has_header));
    rows.min(bytes.len() / width.max(1) + 1)
}

/// The first header name that repeats an earlier one, as an error:
/// patterns and label attributes address columns by name.
fn duplicate_name(names: &[String]) -> Option<DataError> {
    let mut seen = HashSet::with_capacity(names.len());
    let name = names.iter().find(|n| !seen.insert(n.as_str()))?;
    Some(DataError::Csv {
        line: 1,
        message: format!("duplicate column name {name:?}"),
    })
}

/// Reads a [`Dataset`] from a CSV file on disk.
pub fn read_dataset_from_path(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Dataset> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("dataset")
        .to_string();
    Ok(read_dataset_from_str(&text, opts)?.with_name(name))
}

/// Writes a [`Dataset`] to a CSV file on disk.
pub fn write_dataset_to_path(
    dataset: &Dataset,
    path: impl AsRef<Path>,
    opts: &CsvWriteOptions,
) -> Result<()> {
    std::fs::write(path, write_csv(dataset, opts))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::HeapBytes;

    #[test]
    fn read_dataset_interns_and_handles_missing() {
        let doc = "gender,race\nF,black\nM,\nF,white\n";
        let d = read_dataset_from_str(doc, &CsvOptions::default()).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_attrs(), 2);
        assert_eq!(d.schema().names(), vec!["gender", "race"]);
        assert_eq!(d.value(1, 1), None);
        assert_eq!(d.value_counts(), vec![vec![2, 1], vec![1, 1]]);
    }

    #[test]
    fn headerless_generates_column_names() {
        let opts = CsvOptions::default().with_header(false);
        let d = read_dataset_from_str("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(d.schema().names(), vec!["col0", "col1"]);
        assert_eq!(d.n_rows(), 2);
    }

    #[test]
    fn custom_missing_tokens() {
        let opts = CsvOptions::default().missing("NA");
        let d = read_dataset_from_str("a\nNA\nx\n\n", &opts).unwrap();
        // The blank line at the end is a record with one empty (missing) field.
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.value(0, 0), None);
        assert_eq!(d.value(1, 0), Some(0));
        assert_eq!(d.value(2, 0), None);
    }

    #[test]
    fn empty_document() {
        let err = read_dataset_from_str("", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 1, .. }));
        let opts = CsvOptions::default().with_header(false);
        let d = read_dataset_from_str("", &opts).unwrap();
        assert_eq!((d.n_rows(), d.n_attrs()), (0, 0));
    }

    #[test]
    fn arity_mismatch_strict_vs_lenient() {
        let doc = "a,b\n1,2\nonly-one\n3,4\n";
        let err = read_dataset_from_str(doc, &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err,
            DataError::ArityMismatch {
                expected: 2,
                got: 1,
                row: 1
            }
        );
        let opts = CsvOptions {
            strict_arity: false,
            ..CsvOptions::default()
        };
        let d = read_dataset_from_str(doc, &opts).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.label_of(0, d.value_raw(1, 0)), "3");
    }

    #[test]
    fn syntax_error_beats_earlier_arity_mismatch() {
        let doc = "a,b\nonly-one\n1,x\"y\n";
        let err = read_dataset_from_str(doc, &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err,
            DataError::Csv {
                line: 3,
                message: "quote inside unquoted field".into()
            }
        );
    }

    #[test]
    fn duplicate_header_names_rejected() {
        let err = read_dataset_from_str("a,a\nx,1\ny,2\n", &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err,
            DataError::Csv {
                line: 1,
                message: "duplicate column name \"a\"".into()
            }
        );
        assert_eq!(
            err.to_string(),
            "csv error at line 1: duplicate column name \"a\""
        );
        // An arity mismatch further down is reported first.
        let err = read_dataset_from_str("a,b,a\nx,1\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { row: 0, .. }));
    }

    #[test]
    fn column_capacity_equals_rows() {
        let base = (2 * std::mem::size_of::<u32>()) as u64;
        for doc in [
            "a,b\n",
            "a,b\nx,1\n",
            "a,b\nx,1\ny,2\nz,3\nw,4\nv,5",
            "a,b\r\nx,\"1\n2\"\r\ny,2\r\n",
            "a,b\rx,1\ry,2\r",
        ] {
            let d = read_dataset_from_str(doc, &CsvOptions::default()).unwrap();
            // Deep accounting charges capacity: one u32 per row per column.
            let expected = base * d.n_rows() as u64 + 2 + d.schema().heap_bytes();
            assert_eq!(d.heap_bytes(), expected, "{doc:?}");
        }
    }

    #[test]
    fn reservation_is_bounded_by_input_size() {
        assert_eq!(rows_to_reserve("a,b\nx,1\ny,2", true, 2), 2);
        assert_eq!(rows_to_reserve("x,1\r\ny,2\r\n", false, 2), 2);
        // 100,000 blank lines under a 10,000-column header: too narrow to
        // be rows that wide, so they must not reserve 10^9 cells.
        let doc = format!("{}\n{}", ",".repeat(9_999), "\n".repeat(100_000));
        let width = 10_000;
        assert!(rows_to_reserve(&doc, true, width) * width <= doc.len() + width);
        let err = read_dataset_from_str(&doc, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { row: 0, .. }));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pclabel_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");

        let doc = "a,b\nx,1\ny,2\n";
        let d = read_dataset_from_str(doc, &CsvOptions::default()).unwrap();
        write_dataset_to_path(&d, &path, &CsvWriteOptions::default()).unwrap();
        let d2 = read_dataset_from_path(&path, &CsvOptions::default()).unwrap();
        assert_eq!(d2.n_rows(), 2);
        assert_eq!(d2.name(), "roundtrip");
        assert_eq!(d2.schema().names(), vec!["a", "b"]);
        std::fs::remove_file(&path).ok();
    }
}
