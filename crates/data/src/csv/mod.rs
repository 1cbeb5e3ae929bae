//! CSV input/output for datasets.
//!
//! The paper's evaluation datasets (BlueNile, COMPAS, Credit Card) ship as
//! CSV files; this module provides a dependency-free RFC 4180 reader/writer
//! so users can point the library at their own files.
//!
//! Reading is one pass over the document's bytes: the scanner splits each
//! record into `&str` slices of the input, and [`read_dataset_from_str`]
//! interns them straight into the dataset's dictionary-encoded columns.
//! Only quoted fields holding `""` escapes are copied; no per-field
//! `String` and no list of records is built. Columns end with a capacity
//! equal to the row count. A cell whose label its column met recently is
//! answered by the dictionary's intern cache without hashing (see
//! [`Dictionary::intern`](crate::dictionary::Dictionary::intern)); only
//! the others reach its `SipHash` index.
//!
//! A document of at least 2 MiB is read on several threads: one per
//! hardware thread (`available_parallelism`), but no fewer than 1 MiB of
//! the document each, so smaller uploads stay on the calling thread. The
//! body after the header is cut into chunks that each start just after a
//! `\n` at even quote parity, which is a record boundary in any document
//! the scanner accepts. Each chunk is scanned and interned into
//! dictionaries of its own on its own thread. The calling thread then
//! interns each chunk's labels, in the chunk's first-seen order, into the
//! first chunk's dictionaries, which yields exactly the ids a one-thread
//! read assigns, and remaps the chunk's ids. If any chunk meets an error,
//! or the header repeats a name, the whole document is read again on the
//! calling thread, so every error, its line and the precedence between
//! errors are the one-thread reader's.

mod parse;
mod write;

pub use parse::CsvOptions;
pub use write::{write_csv, CsvWriteOptions};

use std::borrow::Cow;
use std::collections::HashSet;
use std::path::Path;

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::{DataError, Result};
use parse::{count_byte, Scanner};

/// The least share of a document a chunk thread is given: below it,
/// spawning the thread and merging its dictionaries cost more than the
/// scan it takes over.
const MIN_CHUNK_BYTES: usize = 1 << 20;

/// Parses a CSV document into a [`Dataset`], treating every column as a
/// categorical attribute.
///
/// Header names become attribute names and must be unique (synthetic
/// `col0..colN` names are generated in headerless mode); fields matching
/// [`CsvOptions::missing_tokens`] become missing cells. A syntax error
/// anywhere in the document is reported before an arity mismatch, and an
/// arity mismatch before a duplicate header name. Large documents are read
/// on several threads (see the [module docs](self)); the result and every
/// error are the same on one.
pub fn read_dataset_from_str(input: &str, opts: &CsvOptions) -> Result<Dataset> {
    read_dataset_in_chunks(input, opts, auto_chunks(input.len()))
}

/// [`read_dataset_from_str`] with the number of chunks fixed instead of
/// taken from the document's size and the hardware threads (`0` and `1`
/// read on the calling thread). Every count gives the same result; tests
/// use this to hold the chunked read to the one-thread read.
#[doc(hidden)]
pub fn read_dataset_in_chunks(input: &str, opts: &CsvOptions, chunks: usize) -> Result<Dataset> {
    let mut scanner = Scanner::new(input, opts)?;
    let mut fields: Vec<Cow<str>> = Vec::new();
    let mut more = scanner.next_record(&mut fields)?;
    // `body` is where the data records start.
    let (names, body): (Vec<String>, usize) = if opts.has_header {
        if !more {
            return Err(DataError::Csv {
                line: 1,
                message: "expected a header row in an empty document".into(),
            });
        }
        let names = fields.iter().map(|f| f.to_string()).collect();
        (names, scanner.offset())
    } else {
        ((0..fields.len()).map(|i| format!("col{i}")).collect(), 0)
    };
    let duplicate = duplicate_name(&names);
    if chunks > 1 && duplicate.is_none() {
        if let Some(dataset) = read_chunks(input, body, chunks, &names, opts) {
            return Ok(dataset);
        }
    }
    if opts.has_header {
        more = scanner.next_record(&mut fields)?;
    }
    let mut builder = reserved_builder(&names, &input[body..]);
    push_records(
        &mut scanner,
        &mut fields,
        more,
        opts,
        &mut builder,
        duplicate,
    )?;
    builder.shrink_to_fit();
    Ok(builder.finish())
}

/// One chunk per hardware thread, but none smaller than
/// [`MIN_CHUNK_BYTES`].
fn auto_chunks(len: usize) -> usize {
    if len < 2 * MIN_CHUNK_BYTES {
        return 1;
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    threads.min(len / MIN_CHUNK_BYTES)
}

/// Reads the records of `input[body..]` as up to `chunks` chunks, the
/// first on the calling thread and each other one on a scoped thread of
/// its own, and joins them. `None` when the body does not split or any
/// chunk meets an error: the caller then reads the document on one thread.
fn read_chunks(
    input: &str,
    body: usize,
    chunks: usize,
    names: &[String],
    opts: &CsvOptions,
) -> Option<Dataset> {
    let bounds = chunk_bounds(input.as_bytes(), body, chunks);
    if bounds.len() < 3 {
        return None;
    }
    // Every chunk's columns are reserved here, on the calling thread, so
    // that they come from its allocator arena: freed by the merge, they are
    // reused by the calling thread instead of staying resident in a worker
    // thread's arena.
    let mut reserved = bounds.windows(2).map(|w| {
        let text = &input[w[0]..w[1]];
        (text, reserved_builder(names, text))
    });
    let (first, first_builder) = reserved.next().expect("at least two chunks");
    let parts = std::thread::scope(|scope| {
        let workers: Vec<_> = reserved
            .map(|(text, builder)| scope.spawn(move || read_chunk(text, builder, opts)))
            .collect();
        let mut parts = vec![read_chunk(first, first_builder, opts)];
        parts.extend(workers.into_iter().map(|worker| {
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        parts
    });
    let parts = parts.into_iter().collect::<Result<Vec<_>>>().ok()?;
    Some(DatasetBuilder::concat(parts))
}

/// Where the chunks of `bytes[body..]` start, plus the end of `bytes`.
/// Each chunk after the first starts just after the first `\n` at or past
/// its even share of the body with an even count of quotes between `body`
/// and it. In a document the scanner accepts, that is a record boundary:
/// outside quoted fields every quote so far belongs to a whole `"…"`
/// field, and inside one the count is odd. (A start inside a quoted field
/// would leave the chunk before it with an unterminated quote, so a wrong
/// start could only cost a re-read on one thread.) No chunk is empty.
fn chunk_bounds(bytes: &[u8], body: usize, chunks: usize) -> Vec<usize> {
    let mut bounds = vec![body];
    let mut at = body;
    // Whether `bytes[body..at]` holds an odd number of quotes.
    let mut odd = false;
    for k in 1..chunks {
        let target = body + (bytes.len() - body) * k / chunks;
        if target > at {
            odd ^= count_byte(&bytes[at..target], b'"') % 2 == 1;
            at = target;
        }
        loop {
            let Some(i) = bytes[at..].iter().position(|&b| b == b'\n' || b == b'"') else {
                bounds.push(bytes.len());
                return bounds;
            };
            at += i + 1;
            if bytes[at - 1] == b'"' {
                odd = !odd;
            } else if !odd {
                break;
            }
        }
        if at == bytes.len() {
            break;
        }
        bounds.push(at);
    }
    bounds.push(bytes.len());
    bounds
}

/// Reads one chunk of records into `builder`.
fn read_chunk(
    text: &str,
    mut builder: DatasetBuilder,
    opts: &CsvOptions,
) -> Result<DatasetBuilder> {
    let mut scanner = Scanner::new(text, opts)?;
    let mut fields = Vec::new();
    let more = scanner.next_record(&mut fields)?;
    push_records(&mut scanner, &mut fields, more, opts, &mut builder, None)?;
    Ok(builder)
}

/// A builder over `names` with its columns reserved for the records of
/// `body`.
fn reserved_builder(names: &[String], body: &str) -> DatasetBuilder {
    let mut builder = DatasetBuilder::new(names);
    builder.reserve(rows_to_reserve(body, names.len()));
    builder
}

/// Pushes the scanner's records into `builder`, starting with the one in
/// `fields` when `more` is set. An arity mismatch (under
/// [`CsvOptions::strict_arity`]; otherwise such a record is skipped) and
/// `error`, one found before the records, are returned only once the
/// document ends, since a later syntax error takes precedence; rows are no
/// longer built once one is held.
fn push_records<'a>(
    scanner: &mut Scanner<'a>,
    fields: &mut Vec<Cow<'a, str>>,
    mut more: bool,
    opts: &CsvOptions,
    builder: &mut DatasetBuilder,
    mut error: Option<DataError>,
) -> Result<()> {
    let width = builder.schema().len();
    let mut row = Vec::with_capacity(width);
    let mut record = 0usize;
    while more {
        if fields.len() != width {
            if opts.strict_arity && !matches!(error, Some(DataError::ArityMismatch { .. })) {
                error = Some(DataError::ArityMismatch {
                    expected: width,
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
        more = scanner.next_record(fields)?;
    }
    error.map_or(Ok(()), Err)
}

/// Rows to reserve per column for the records of `body`: exact unless a
/// quoted field spans lines or a record ends in a bare `\r`. A row of
/// `width` fields takes at least `width` bytes with its line end, which
/// bounds the reservation by the input's size however wide the header is.
fn rows_to_reserve(body: &str, width: usize) -> usize {
    let bytes = body.as_bytes();
    let records = count_byte(bytes, b'\n') + usize::from(bytes.last().is_some_and(|&b| b != b'\n'));
    records.min(bytes.len() / width.max(1) + 1)
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
        assert_eq!(rows_to_reserve("x,1\ny,2", 2), 2);
        assert_eq!(rows_to_reserve("x,1\r\ny,2\r\n", 2), 2);
        // 100,000 blank lines under a 10,000-column header: too narrow to
        // be rows that wide, so they must not reserve 10^9 cells.
        let doc = format!("{}\n{}", ",".repeat(9_999), "\n".repeat(100_000));
        let (width, body) = (10_000, &doc[10_000..]);
        assert!(rows_to_reserve(body, width) * width <= body.len() + width);
        let err = read_dataset_from_str(&doc, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { row: 0, .. }));
    }

    #[test]
    fn chunks_start_after_line_ends_outside_quotes() {
        // Records start at 4, 12 (after a quoted line break), 20 (after a
        // quoted `""` escape and line break) and 24 (the end).
        let doc = "a,b\nx,\"1\n2\"\ny,\"\"\"\n\"\nz,3\n";
        let bytes = doc.as_bytes();
        assert_eq!(chunk_bounds(bytes, 4, 4), [4, 12, 20, 24]);
        assert_eq!(chunk_bounds(bytes, 4, 2), [4, 20, 24]);
        assert_eq!(chunk_bounds(bytes, 4, 1), [4, 24]);
        // No line end outside quotes past the first share: one chunk.
        assert_eq!(chunk_bounds(b"a\n\"x\ny\nz\"", 2, 3), [2, 9]);
        assert_eq!(chunk_bounds(b"a\n", 2, 3), [2, 2]);

        let opts = CsvOptions::default();
        let names = ["a".to_string(), "b".to_string()];
        let chunked = read_chunks(doc, 4, 4, &names, &opts).expect("three chunks");
        let whole = read_dataset_in_chunks(doc, &opts, 1).unwrap();
        assert_eq!(chunked.n_rows(), 3);
        for attr in 0..2 {
            assert_eq!(chunked.column(attr), whole.column(attr));
        }
        assert_eq!(chunked.label_of(1, chunked.value_raw(1, 1)), "\"\n");
    }

    #[test]
    fn a_chunk_error_rereads_the_document_on_one_thread() {
        let opts = CsvOptions::default();
        let names = ["a".to_string(), "b".to_string()];
        // A ragged row in the first chunk, a syntax error in the last: the
        // one-thread reader reports the syntax error, with its line.
        let doc = "a,b\nonly-one\n1,2\n3,4\n5,x\"y\n";
        assert!(read_chunks(doc, 4, 3, &names, &opts).is_none());
        let want = Err(DataError::Csv {
            line: 5,
            message: "quote inside unquoted field".into(),
        });
        for chunks in 1..=4 {
            assert_eq!(read_dataset_in_chunks(doc, &opts, chunks).map(|_| ()), want);
        }
        // A repeated name is held behind the rows' arity errors.
        let err = read_dataset_in_chunks("a,a\nx,1\ny\nz,3\n", &opts, 3).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { row: 1, .. }));
    }

    #[test]
    fn small_documents_stay_on_one_thread() {
        assert_eq!(auto_chunks(0), 1);
        assert_eq!(auto_chunks(2 * MIN_CHUNK_BYTES - 1), 1);
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(auto_chunks(2 * MIN_CHUNK_BYTES), threads.min(2));
        assert_eq!(auto_chunks(64 * MIN_CHUNK_BYTES), threads.min(64));
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
