//! The CSV parser `pclabel_data` used before its single-pass scanner,
//! kept verbatim as the differential oracle for `read_dataset_from_str`.
//!
//! It materializes the whole document as `Vec<Vec<String>>` and builds
//! the dataset from those records afterwards, so its rules are easy to
//! read off: a syntax error anywhere in the document wins over an arity
//! mismatch, which is only checked once the whole document has parsed.

use pclabel_data::csv::CsvOptions;
use pclabel_data::dataset::{Dataset, DatasetBuilder};
use pclabel_data::error::{DataError, Result};

/// Result of parsing a CSV document into raw records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOutput {
    /// Header fields (empty when `has_header` is false).
    pub header: Vec<String>,
    /// Data records, one `Vec<String>` per row.
    pub records: Vec<Vec<String>>,
    /// Rows dropped due to arity mismatch in lenient mode.
    pub skipped_rows: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// At the start of a field.
    FieldStart,
    /// Inside an unquoted field.
    Unquoted,
    /// Inside a quoted field.
    Quoted,
    /// Just saw a quote inside a quoted field (could be escape or close).
    QuoteInQuoted,
}

/// Parses an entire CSV document held in memory.
pub fn parse_csv(input: &str, opts: &CsvOptions) -> Result<ParseOutput> {
    if !opts.delimiter.is_ascii() {
        return Err(DataError::Invalid(format!(
            "delimiter {:?} must be ASCII",
            opts.delimiter
        )));
    }
    let delim = opts.delimiter;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut state = State::FieldStart;
    let mut line = 1usize;
    // True once the current record has any content (field text, a completed
    // field, or an opened quote); used to ignore a trailing newline.
    let mut record_started = false;

    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        match state {
            State::FieldStart => match c {
                '"' => {
                    state = State::Quoted;
                    record_started = true;
                }
                c if c == delim => {
                    record.push(std::mem::take(&mut field));
                    record_started = true;
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    end_record(&mut rows, &mut record, &mut field, &mut record_started);
                    line += 1;
                }
                '\n' => {
                    end_record(&mut rows, &mut record, &mut field, &mut record_started);
                    line += 1;
                }
                _ => {
                    field.push(c);
                    state = State::Unquoted;
                    record_started = true;
                }
            },
            State::Unquoted => match c {
                c if c == delim => {
                    record.push(std::mem::take(&mut field));
                    state = State::FieldStart;
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    end_record(&mut rows, &mut record, &mut field, &mut record_started);
                    state = State::FieldStart;
                    line += 1;
                }
                '\n' => {
                    end_record(&mut rows, &mut record, &mut field, &mut record_started);
                    state = State::FieldStart;
                    line += 1;
                }
                '"' => {
                    return Err(DataError::Csv {
                        line,
                        message: "quote inside unquoted field".into(),
                    })
                }
                _ => field.push(c),
            },
            State::Quoted => match c {
                '"' => state = State::QuoteInQuoted,
                '\n' => {
                    field.push(c);
                    line += 1;
                }
                _ => field.push(c),
            },
            State::QuoteInQuoted => match c {
                '"' => {
                    field.push('"');
                    state = State::Quoted;
                }
                c if c == delim => {
                    record.push(std::mem::take(&mut field));
                    state = State::FieldStart;
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    end_record(&mut rows, &mut record, &mut field, &mut record_started);
                    state = State::FieldStart;
                    line += 1;
                }
                '\n' => {
                    end_record(&mut rows, &mut record, &mut field, &mut record_started);
                    state = State::FieldStart;
                    line += 1;
                }
                other => {
                    return Err(DataError::Csv {
                        line,
                        message: format!("unexpected {other:?} after closing quote"),
                    })
                }
            },
        }
    }
    match state {
        State::Quoted => {
            return Err(DataError::Csv {
                line,
                message: "unterminated quoted field".into(),
            })
        }
        State::Unquoted | State::QuoteInQuoted => {
            end_record(&mut rows, &mut record, &mut field, &mut record_started);
        }
        State::FieldStart => {
            if record_started {
                end_record(&mut rows, &mut record, &mut field, &mut record_started);
            }
        }
    }

    let mut iter = rows.into_iter();
    let header = if opts.has_header {
        iter.next().ok_or(DataError::Csv {
            line: 1,
            message: "expected a header row in an empty document".into(),
        })?
    } else {
        Vec::new()
    };
    let arity = if opts.has_header {
        header.len()
    } else {
        // Lenient documents without headers take the first record's arity.
        0
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    let mut expected = arity;
    for (i, rec) in iter.enumerate() {
        if expected == 0 {
            expected = rec.len();
        }
        if rec.len() != expected {
            if opts.strict_arity {
                return Err(DataError::ArityMismatch {
                    expected,
                    got: rec.len(),
                    row: i,
                });
            }
            skipped += 1;
            continue;
        }
        records.push(rec);
    }
    Ok(ParseOutput {
        header,
        records,
        skipped_rows: skipped,
    })
}

fn end_record(
    rows: &mut Vec<Vec<String>>,
    record: &mut Vec<String>,
    field: &mut String,
    record_started: &mut bool,
) {
    record.push(std::mem::take(field));
    rows.push(std::mem::take(record));
    *record_started = false;
}

/// The library's former `read_dataset_from_str`: parse the whole
/// document, then intern it record by record.
pub fn read_dataset(input: &str, opts: &CsvOptions) -> Result<Dataset> {
    let parsed = parse_csv(input, opts)?;
    let names: Vec<String> = if opts.has_header {
        parsed.header.clone()
    } else {
        let width = parsed.records.first().map_or(0, Vec::len);
        (0..width).map(|i| format!("col{i}")).collect()
    };
    let mut builder = DatasetBuilder::new(&names);
    builder.reserve(parsed.records.len());
    let mut fields: Vec<Option<&str>> = Vec::new();
    for record in &parsed.records {
        fields.clear();
        fields.extend(record.iter().map(|f| {
            if opts.is_missing(f) {
                None
            } else {
                Some(f.as_str())
            }
        }));
        builder.push_row_opt(&fields)?;
    }
    Ok(builder.finish())
}
