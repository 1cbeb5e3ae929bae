//! CSV serialization of datasets.

use std::fmt::Write as _;

use crate::dataset::{Dataset, MISSING};

/// Writer configuration.
#[derive(Debug, Clone)]
pub struct CsvWriteOptions {
    /// Field delimiter.
    pub delimiter: char,
    /// Whether to emit a header row with attribute names.
    pub write_header: bool,
    /// Token emitted for missing cells (empty string by default).
    pub missing_token: String,
}

impl Default for CsvWriteOptions {
    fn default() -> Self {
        Self {
            delimiter: ',',
            write_header: true,
            missing_token: String::new(),
        }
    }
}

/// Serializes `dataset` as a CSV document.
///
/// Fields containing the delimiter, quotes, or newlines are quoted with
/// RFC 4180 `""` escaping, so every field reads back unchanged through
/// [`crate::csv::read_dataset_from_str`].
pub fn write_csv(dataset: &Dataset, opts: &CsvWriteOptions) -> String {
    let mut out = String::new();
    let n_attrs = dataset.n_attrs();
    if opts.write_header {
        for (i, attr) in dataset.schema().iter().enumerate() {
            if i > 0 {
                out.push(opts.delimiter);
            }
            push_field(&mut out, attr.name(), opts.delimiter);
        }
        out.push('\n');
    }
    for r in 0..dataset.n_rows() {
        for attr in 0..n_attrs {
            if attr > 0 {
                out.push(opts.delimiter);
            }
            let id = dataset.value_raw(r, attr);
            if id == MISSING {
                push_field(&mut out, &opts.missing_token, opts.delimiter);
            } else {
                push_field(&mut out, dataset.label_of(attr, id), opts.delimiter);
            }
        }
        out.push('\n');
    }
    out
}

fn push_field(out: &mut String, field: &str, delimiter: char) {
    let needs_quoting = field.contains(delimiter)
        || field.contains('"')
        || field.contains('\n')
        || field.contains('\r');
    if needs_quoting {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        let _ = write!(out, "{field}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{read_dataset_from_str, CsvOptions};
    use crate::dataset::DatasetBuilder;

    #[test]
    fn writes_header_and_rows() {
        let mut b = DatasetBuilder::new(["x", "y"]);
        b.push_row(&["1", "a"]).unwrap();
        b.push_row(&["2", "b"]).unwrap();
        let csv = write_csv(&b.finish(), &CsvWriteOptions::default());
        assert_eq!(csv, "x,y\n1,a\n2,b\n");
    }

    #[test]
    fn quotes_special_fields() {
        let mut b = DatasetBuilder::new(["f"]);
        b.push_row(&["plain"]).unwrap();
        b.push_row(&["a,b"]).unwrap();
        b.push_row(&["say \"hi\""]).unwrap();
        b.push_row(&["two\nlines"]).unwrap();
        let csv = write_csv(&b.finish(), &CsvWriteOptions::default());
        assert_eq!(
            csv,
            "f\nplain\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"two\nlines\"\n"
        );
    }

    #[test]
    fn missing_cells_use_token() {
        let mut b = DatasetBuilder::new(["f", "g"]);
        b.push_row_opt(&[Some("v"), None::<&str>]).unwrap();
        let opts = CsvWriteOptions {
            missing_token: "NA".into(),
            ..Default::default()
        };
        let csv = write_csv(&b.finish(), &opts);
        assert_eq!(csv, "f,g\nv,NA\n");
    }

    #[test]
    fn roundtrips_through_parser() {
        let mut b = DatasetBuilder::new(["name", "note"]);
        b.push_row(&["alice", "likes,commas"]).unwrap();
        b.push_row(&["bob", "multi\nline \"quoted\""]).unwrap();
        b.push_row(&["", "empty name"]).unwrap();
        let d = b.finish();
        let csv = write_csv(&d, &CsvWriteOptions::default());
        let parsed = read_dataset_from_str(&csv, &CsvOptions::default()).unwrap();
        assert_eq!(parsed.schema().names(), vec!["name", "note"]);
        assert_eq!(parsed.n_rows(), d.n_rows());
        assert_eq!(
            parsed.label_of(1, parsed.value_raw(1, 1)),
            "multi\nline \"quoted\""
        );
        // The empty name reads back as a missing cell.
        assert_eq!(parsed.value(2, 0), None);
    }
}
