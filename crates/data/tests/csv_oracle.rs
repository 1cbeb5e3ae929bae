//! Differential tests of `read_dataset_from_str` against the parser it
//! replaced (`oracle/mod.rs`): a proptest over structured documents, and a
//! seeded alphabet-soup fuzz run over the bytes the scanner branches on.
//! Every document is read in one to four chunks, each on its own thread.
//! The soup's million-document soak and the full-size paper uploads are
//! ignored by default:
//!
//! ```text
//! cargo test --release -p pclabel-data --test csv_oracle -- --ignored
//! ```

mod oracle;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pclabel_data::csv::{read_dataset_in_chunks, write_csv, CsvOptions, CsvWriteOptions};
use pclabel_data::dataset::Dataset;
use pclabel_data::error::DataError;
use pclabel_data::generate::{
    bluenile, compas, creditcard, BlueNileConfig, CompasConfig, CreditCardConfig,
};
use pclabel_data::mem::HeapBytes;

/// Everything a dataset read from CSV consists of, in comparable form.
#[derive(Debug, PartialEq)]
struct Shape {
    names: Vec<String>,
    /// Each attribute's labels in id (first-seen) order.
    dictionaries: Vec<Vec<String>>,
    columns: Vec<Vec<u32>>,
    has_missing: Vec<bool>,
    n_rows: usize,
}

fn shape(d: &Dataset) -> Shape {
    let attrs = 0..d.n_attrs();
    Shape {
        names: d.schema().names().iter().map(|n| n.to_string()).collect(),
        dictionaries: d
            .schema()
            .iter()
            .map(|a| a.dictionary().iter().map(|(_, l)| l.to_string()).collect())
            .collect(),
        columns: attrs.clone().map(|a| d.column(a).to_vec()).collect(),
        has_missing: attrs.map(|a| d.attr_has_missing(a)).collect(),
        n_rows: d.n_rows(),
    }
}

/// The oracle's answer, plus the one rule the scanner adds: a header that
/// repeats a name is refused.
fn expected(doc: &str, opts: &CsvOptions) -> Result<Shape, DataError> {
    let d = oracle::read_dataset(doc, opts)?;
    let names = d.schema().names();
    if let Some(name) =
        (1..names.len()).find_map(|j| names[..j].contains(&names[j]).then_some(names[j]))
    {
        return Err(DataError::Csv {
            line: 1,
            message: format!("duplicate column name {name:?}"),
        });
    }
    Ok(shape(&d))
}

/// Reads `doc` in `chunks` chunks, asserting that its columns hold no
/// capacity beyond the rows.
fn read(doc: &str, opts: &CsvOptions, chunks: usize) -> Result<Shape, DataError> {
    read_dataset_in_chunks(doc, opts, chunks).map(|d| {
        let cells = (d.n_rows() * d.n_attrs() * std::mem::size_of::<u32>()) as u64;
        let exact = cells + d.n_attrs() as u64 + d.schema().heap_bytes();
        assert_eq!(
            d.heap_bytes(),
            exact,
            "column capacity != rows for {doc:?} in {chunks} chunks"
        );
        shape(&d)
    })
}

/// Asserts that the scanner reads `doc` as the oracle does in one to four
/// chunks.
fn check(doc: &str, opts: &CsvOptions) {
    let want = expected(doc, opts);
    for chunks in 1..=4 {
        assert_eq!(
            read(doc, opts, chunks),
            want,
            "document {doc:?} with {opts:?} in {chunks} chunks"
        );
    }
}

const DELIMITERS: [char; 4] = [',', ';', '\t', '|'];
const TERMINATORS: [&str; 3] = ["\n", "\r\n", "\r"];

/// A field as `(kind, short value, text with CSV-special characters)`.
type Cell = (u8, String, String);
/// A record as `(shape, cells, terminator)`.
type Row = (u8, Vec<Cell>, usize);
/// `(delimiter, header, strict, "NA" token, width, final line end)`.
type Config = (usize, bool, bool, bool, usize, bool);

fn arb_cell() -> impl Strategy<Value = Cell> {
    (
        0u8..32,
        proptest::string::string_regex("[a-c]{1,2}").expect("valid regex"),
        proptest::string::string_regex("[a-cé ,;|\t\"\n\r]{0,6}").expect("valid regex"),
    )
}

fn arb_doc() -> impl Strategy<Value = (Config, Vec<Row>)> {
    (
        (
            0usize..4,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            1usize..=4,
            any::<bool>(),
        ),
        proptest::collection::vec(
            (0u8..16, proptest::collection::vec(arb_cell(), 5), 0usize..3),
            0..10,
        ),
    )
}

fn push_quoted(doc: &mut String, text: &str) {
    doc.push('"');
    doc.push_str(&text.replace('"', "\"\""));
    doc.push('"');
}

fn push_cell(doc: &mut String, (kind, value, text): &Cell) {
    match kind {
        0..=19 => doc.push_str(value),
        20 => push_quoted(doc, value),
        21..=25 => push_quoted(doc, text),
        26 | 27 => {}
        28 | 29 => doc.push_str("NA"),
        30 => doc.push_str("\"\""),
        // Raw special characters: mostly a syntax error or a ragged row.
        _ => doc.push_str(text),
    }
}

/// Renders a document: an optional header (sometimes repeating a name),
/// then records that are mostly `width` wide, with ragged, blank and
/// trailing-delimiter records mixed in.
fn render(config: &Config, rows: &[Row]) -> (String, CsvOptions) {
    let &(delimiter, has_header, strict_arity, na, width, final_line_end) = config;
    let delimiter = DELIMITERS[delimiter];
    let mut opts = CsvOptions::default()
        .with_delimiter(delimiter)
        .with_header(has_header);
    opts.strict_arity = strict_arity;
    if na {
        opts = opts.missing("NA");
    }
    let mut doc = String::new();
    if has_header {
        for i in 0..width {
            if i > 0 {
                doc.push(delimiter);
            }
            // One header in eight repeats its first name last.
            let repeat = i > 0 && i + 1 == width && rows.first().is_some_and(|r| r.0 % 8 == 0);
            let name = if repeat {
                "h0".to_string()
            } else {
                format!("h{i}")
            };
            if i % 2 == 1 {
                push_quoted(&mut doc, &name);
            } else {
                doc.push_str(&name);
            }
        }
        doc.push('\n');
    }
    for (r, (kind, cells, terminator)) in rows.iter().enumerate() {
        let n = match kind {
            11 => width - 1,
            12 => width + 1,
            13 => 0,
            _ => width,
        };
        for (i, cell) in cells[..n].iter().enumerate() {
            if i > 0 {
                doc.push(delimiter);
            }
            push_cell(&mut doc, cell);
        }
        if *kind == 14 {
            doc.push(delimiter);
        }
        if r + 1 < rows.len() || final_line_end {
            doc.push_str(TERMINATORS[*terminator]);
        }
    }
    (doc, opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The scanner reads every structured document as the oracle does.
    #[test]
    fn scanner_matches_oracle((config, rows) in arb_doc()) {
        let (doc, opts) = render(&config, &rows);
        check(&doc, &opts);
    }
}

/// The proptest's documents reach every outcome it compares: datasets
/// with missing cells, lenient skips, each error kind and the
/// duplicate-name refusal.
#[test]
fn structured_documents_cover_each_outcome() {
    let strategy = arb_doc();
    let mut rng = TestRng::from_env("scanner_matches_oracle");
    let (mut with_missing, mut skipped, mut syntax, mut arity, mut duplicate) = (0, 0, 0, 0, 0);
    for _ in 0..2048 {
        let (config, rows) = strategy.generate(&mut rng);
        let (doc, opts) = render(&config, &rows);
        match expected(&doc, &opts) {
            Ok(s) => with_missing += usize::from(s.has_missing.contains(&true)),
            Err(DataError::ArityMismatch { .. }) => arity += 1,
            Err(DataError::Csv { message, .. }) if message.starts_with("duplicate") => {
                duplicate += 1
            }
            Err(_) => syntax += 1,
        }
        if let Ok(parsed) = oracle::parse_csv(&doc, &opts) {
            skipped += usize::from(parsed.skipped_rows > 0);
        }
    }
    for (outcome, count) in [
        ("missing cells", with_missing),
        ("lenient skips", skipped),
        ("syntax errors", syntax),
        ("arity errors", arity),
        ("duplicate names", duplicate),
    ] {
        assert!(count >= 20, "only {count} documents with {outcome}");
    }
}

const SOUP: [&str; 7] = ["a", "é", ",", ";", "\"", "\r", "\n"];

/// Checks `docs` random documents of up to 24 soup symbols each, under
/// random options.
fn alphabet_soup(seed: u64, docs: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = String::new();
    for _ in 0..docs {
        doc.clear();
        for _ in 0..rng.gen_range(0usize..=24) {
            doc.push_str(SOUP[rng.gen_range(0..SOUP.len())]);
        }
        let mut opts = CsvOptions::default()
            .with_delimiter([',', ';'][rng.gen_range(0usize..2)])
            .with_header(rng.gen_bool(0.7));
        opts.strict_arity = rng.gen_bool(0.5);
        if rng.gen_bool(0.3) {
            opts = opts.missing("a");
        }
        check(&doc, &opts);
    }
}

#[test]
fn alphabet_soup_matches_oracle() {
    alphabet_soup(1, 20_000);
}

#[test]
#[ignore = "soak: a million documents, run in release mode"]
fn alphabet_soup_soak() {
    alphabet_soup(2, 1_000_000);
}

/// Asserts that `doc` reads the same in two to four chunks as in one, and
/// returns that result.
fn same_in_any_chunk_count(doc: &str, opts: &CsvOptions) -> Result<Shape, DataError> {
    let one = read(doc, opts, 1);
    for chunks in 2..=4 {
        assert!(
            read(doc, opts, chunks) == one,
            "{chunks} chunks differ from one"
        );
    }
    one
}

/// `csv` with the line at `share` of its lines (the header is line 0)
/// replaced by `edit` of it.
fn edit_line(csv: &str, share: f64, edit: impl Fn(&str) -> String) -> String {
    let mut lines: Vec<String> = csv.split_inclusive('\n').map(str::to_string).collect();
    let at = (lines.len() as f64 * share) as usize;
    lines[at] = edit(&lines[at]);
    lines.concat()
}

/// The three paper-shaped uploads and the 200,000-row BlueNile upload, at
/// `1 / divisor` of their rows, read the same in one to four chunks:
/// names, dictionaries in id order, columns and `has_missing`. So do
/// copies of COMPAS broken by a syntax error, an unterminated quote, a
/// ragged row or a repeated header name, with the same error.
fn paper_uploads(divisor: usize) {
    let opts = CsvOptions::default();
    let uploads = [
        bluenile(&BlueNileConfig {
            n_rows: 116_300 / divisor,
            ..BlueNileConfig::default()
        }),
        bluenile(&BlueNileConfig {
            n_rows: 200_000 / divisor,
            ..BlueNileConfig::default()
        }),
        compas(&CompasConfig {
            n_rows: 60_843 / divisor,
            ..CompasConfig::default()
        }),
        creditcard(&CreditCardConfig {
            n_rows: 30_000 / divisor,
            ..CreditCardConfig::default()
        }),
    ]
    .map(|d| {
        write_csv(
            &d.expect("paper-shaped generator"),
            &CsvWriteOptions::default(),
        )
    });
    for csv in &uploads {
        let shape = same_in_any_chunk_count(csv, &opts).expect("a written upload reads back");
        assert_eq!(shape.n_rows + 1, csv.lines().count());
    }

    let compas = &uploads[2];
    let quote = edit_line(compas, 0.7, |l| format!("x\"y{l}"));
    let unterminated = edit_line(compas, 0.4, |l| format!("\"{l}"));
    let ragged = edit_line(compas, 0.3, |l| l.replacen(',', "", 1));
    let ragged_then_quote = edit_line(&ragged, 0.9, |l| format!("x\"y{l}"));
    let first = compas.split(',').next().expect("a header");
    let repeated = edit_line(compas, 0.0, |l| {
        let (_, rest) = l
            .split_once(',')
            .and_then(|(_, r)| r.split_once(','))
            .expect("3 names");
        format!("{first},{first},{rest}")
    });
    let syntax = |line: usize, message: &str| {
        Err(DataError::Csv {
            line,
            message: message.into(),
        })
    };
    let lines = compas.lines().count();
    for (doc, want) in [
        (
            &quote,
            syntax(lines * 7 / 10 + 1, "quote inside unquoted field"),
        ),
        (
            &unterminated,
            syntax(lines + 1, "unterminated quoted field"),
        ),
        (
            &ragged_then_quote,
            syntax(lines * 9 / 10 + 1, "quote inside unquoted field"),
        ),
        (
            &repeated,
            syntax(1, &format!("duplicate column name {first:?}")),
        ),
    ] {
        assert_eq!(same_in_any_chunk_count(doc, &opts), want);
    }
    let Err(DataError::ArityMismatch { row, .. }) = same_in_any_chunk_count(&ragged, &opts) else {
        panic!("a ragged row is an arity error");
    };
    assert_eq!(row, lines * 3 / 10 - 1);
    let mut lenient = opts.clone();
    lenient.strict_arity = false;
    let skipped = same_in_any_chunk_count(&ragged, &lenient).expect("lenient read");
    assert_eq!(skipped.n_rows + 2, lines);
}

#[test]
fn paper_uploads_read_alike_in_any_chunk_count() {
    paper_uploads(20);
}

#[test]
#[ignore = "soak: the full-size uploads, run in release mode"]
fn paper_uploads_soak() {
    paper_uploads(1);
}
