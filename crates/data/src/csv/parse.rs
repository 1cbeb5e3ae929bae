//! Byte-level RFC 4180 scanning.
//!
//! The scanner walks the document's bytes once and yields each record as
//! field slices borrowed from the input. It supports configurable
//! single-byte delimiters, `"`-quoted fields with `""` escapes (the only
//! fields it copies), embedded delimiters and newlines inside quotes, and
//! `\n`, `\r\n` and bare `\r` record terminators. Input is `&str` and every
//! byte the scanner splits on is ASCII, so every slice is valid UTF-8.

use std::borrow::Cow;

use crate::error::{DataError, Result};

/// Parser configuration.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter: a single ASCII character other than `"`, `\r` and
    /// `\n` (`,` by default).
    pub delimiter: char,
    /// Whether the first record is a header row.
    pub has_header: bool,
    /// Field contents treated as missing values (e.g. `""`, `"NA"`).
    pub missing_tokens: Vec<String>,
    /// When `true`, records with the wrong arity are an error; when `false`
    /// they are skipped.
    pub strict_arity: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            delimiter: ',',
            has_header: true,
            missing_tokens: vec![String::new()],
            strict_arity: true,
        }
    }
}

impl CsvOptions {
    /// Convenience: options with a given delimiter.
    pub fn with_delimiter(mut self, d: char) -> Self {
        self.delimiter = d;
        self
    }

    /// Convenience: toggles the header flag.
    pub fn with_header(mut self, has: bool) -> Self {
        self.has_header = has;
        self
    }

    /// Convenience: adds a token treated as a missing value.
    pub fn missing(mut self, token: impl Into<String>) -> Self {
        self.missing_tokens.push(token.into());
        self
    }

    /// Whether `field` should be interpreted as missing.
    pub fn is_missing(&self, field: &str) -> bool {
        self.missing_tokens.iter().any(|t| t == field)
    }
}

/// Splits a document into records of fields.
pub(super) struct Scanner<'a> {
    input: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
    /// One-based line of `pos`: record terminators and newlines inside
    /// quoted fields each start a line.
    line: usize,
    delimiter: u8,
}

impl<'a> Scanner<'a> {
    /// Starts a scan of `input`, rejecting delimiters the scanner cannot
    /// tell apart from a quote or a line end.
    pub(super) fn new(input: &'a str, opts: &CsvOptions) -> Result<Self> {
        let d = opts.delimiter;
        if !d.is_ascii() {
            return Err(DataError::Invalid(format!("delimiter {d:?} must be ASCII")));
        }
        if matches!(d, '"' | '\r' | '\n') {
            return Err(DataError::Invalid(format!(
                "delimiter {d:?} cannot be a quote or a line end"
            )));
        }
        Ok(Self {
            input,
            pos: 0,
            line: 1,
            delimiter: d as u8,
        })
    }

    /// Byte offset of the next unread byte: after a record, where the
    /// next one starts.
    pub(super) fn offset(&self) -> usize {
        self.pos
    }

    /// Reads the next record into `fields` (cleared first) and returns
    /// `Ok(false)` once the input is exhausted. Every line end closes a
    /// record, a blank line included; text after the last line end is a
    /// final record.
    pub(super) fn next_record(&mut self, fields: &mut Vec<Cow<'a, str>>) -> Result<bool> {
        fields.clear();
        let bytes = self.input.as_bytes();
        if self.pos == bytes.len() {
            return Ok(false);
        }
        loop {
            let field = if bytes.get(self.pos) == Some(&b'"') {
                self.quoted()?
            } else {
                self.unquoted()?
            };
            fields.push(field);
            match bytes.get(self.pos) {
                Some(&b) if b == self.delimiter => self.pos += 1,
                None => return Ok(true),
                Some(&b) => {
                    // A line end: fields stop nowhere else.
                    let crlf = b == b'\r' && bytes.get(self.pos + 1) == Some(&b'\n');
                    self.pos += 1 + usize::from(crlf);
                    self.line += 1;
                    return Ok(true);
                }
            }
        }
    }

    /// An unquoted field: the bytes up to the next delimiter, line end or
    /// end of input. A quote inside it is an error.
    fn unquoted(&mut self) -> Result<Cow<'a, str>> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let delimiter = self.delimiter;
        let len = bytes[start..]
            .iter()
            .position(|&b| b == delimiter || b == b'\n' || b == b'\r' || b == b'"')
            .unwrap_or(bytes.len() - start);
        self.pos = start + len;
        if bytes.get(self.pos) == Some(&b'"') {
            return Err(self.error("quote inside unquoted field".into()));
        }
        Ok(Cow::Borrowed(&self.input[start..self.pos]))
    }

    /// A quoted field, starting at its opening quote. It stays borrowed
    /// unless it holds `""` escapes, which are unescaped into a copy.
    fn quoted(&mut self) -> Result<Cow<'a, str>> {
        let bytes = self.input.as_bytes();
        let start = self.pos + 1;
        let mut copy: Option<String> = None;
        // `copy` holds the unescaped text of `start..uncopied`.
        let mut uncopied = start;
        let mut at = start;
        let close = loop {
            let Some(offset) = bytes[at..].iter().position(|&b| b == b'"') else {
                self.line += count_byte(&bytes[at..], b'\n');
                return Err(self.error("unterminated quoted field".into()));
            };
            let quote = at + offset;
            self.line += count_byte(&bytes[at..quote], b'\n');
            if bytes.get(quote + 1) != Some(&b'"') {
                break quote;
            }
            // `""` stands for one quote: copy up to the first of the pair.
            copy.get_or_insert_with(String::new)
                .push_str(&self.input[uncopied..=quote]);
            uncopied = quote + 2;
            at = quote + 2;
        };
        self.pos = close + 1;
        match bytes.get(self.pos) {
            None | Some(b'\n' | b'\r') => {}
            Some(&b) if b == self.delimiter => {}
            Some(_) => {
                let c = self.input[self.pos..]
                    .chars()
                    .next()
                    .expect("a byte after the quote starts a char");
                return Err(self.error(format!("unexpected {c:?} after closing quote")));
            }
        }
        Ok(match copy {
            None => Cow::Borrowed(&self.input[start..close]),
            Some(mut text) => {
                text.push_str(&self.input[uncopied..close]);
                Cow::Owned(text)
            }
        })
    }

    fn error(&self, message: String) -> DataError {
        DataError::Csv {
            line: self.line,
            message,
        }
    }
}

/// How many times `byte` occurs in `bytes`. Summing `u8` flags over
/// blocks of at most 255 bytes lets the compiler compare a vector of bytes
/// at a time without widening each flag to `usize`, several times faster
/// than `filter(..).count()`.
pub(super) fn count_byte(bytes: &[u8], byte: u8) -> usize {
    bytes
        .chunks(255)
        .map(|block| usize::from(block.iter().map(|&b| u8::from(b == byte)).sum::<u8>()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(doc: &str, opts: &CsvOptions) -> Result<Vec<Vec<String>>> {
        let mut scanner = Scanner::new(doc, opts)?;
        let mut fields = Vec::new();
        let mut out = Vec::new();
        while scanner.next_record(&mut fields)? {
            out.push(fields.iter().map(|f| f.to_string()).collect());
        }
        Ok(out)
    }

    fn parse(doc: &str) -> Vec<Vec<String>> {
        records(doc, &CsvOptions::default()).unwrap()
    }

    fn parse_err(doc: &str) -> DataError {
        records(doc, &CsvOptions::default()).unwrap_err()
    }

    #[test]
    fn basic_header_and_rows() {
        let out = parse("a,b,c\n1,2,3\n4,5,6\n");
        assert_eq!(out, vec![["a", "b", "c"], ["1", "2", "3"], ["4", "5", "6"]]);
    }

    #[test]
    fn no_trailing_newline() {
        assert_eq!(parse("a,b\n1,2"), vec![["a", "b"], ["1", "2"]]);
    }

    #[test]
    fn crlf_and_bare_cr_terminators() {
        let out = parse("a,b\r\n1,2\r3,4\r\n");
        assert_eq!(out, vec![["a", "b"], ["1", "2"], ["3", "4"]]);
    }

    #[test]
    fn blank_lines_are_single_empty_field_records() {
        assert_eq!(parse("a\n\n\r\nb"), vec![["a"], [""], [""], ["b"]]);
        assert!(parse("").is_empty());
    }

    #[test]
    fn quoted_fields_with_delimiters_newlines_escapes() {
        let doc = "\"x,y\",\"line1\nline2\"\n\"he said \"\"hi\"\"\",plain\n";
        let opts = CsvOptions::default();
        let mut scanner = Scanner::new(doc, &opts).unwrap();
        let mut fields = Vec::new();
        assert!(scanner.next_record(&mut fields).unwrap());
        assert_eq!(fields, ["x,y", "line1\nline2"]);
        assert!(fields.iter().all(|f| matches!(f, Cow::Borrowed(_))));
        assert!(scanner.next_record(&mut fields).unwrap());
        assert_eq!(fields, ["he said \"hi\"", "plain"]);
        // Only the field with `""` escapes is copied.
        assert!(matches!(fields[0], Cow::Owned(_)));
        assert!(matches!(fields[1], Cow::Borrowed(_)));
        assert!(!scanner.next_record(&mut fields).unwrap());
    }

    #[test]
    fn empty_fields_and_trailing_delimiter() {
        let out = parse("a,b,c\n,,\n1,,3\n1,");
        assert_eq!(
            out,
            vec![
                vec!["a", "b", "c"],
                vec!["", "", ""],
                vec!["1", "", "3"],
                vec!["1", ""]
            ]
        );
    }

    #[test]
    fn quoted_empty_field_counts_as_content() {
        assert_eq!(parse("a\n\"\"\n"), vec![["a"], [""]]);
    }

    #[test]
    fn unterminated_quote_reports_the_last_line() {
        let err = parse_err("a\n\"oops\nmore\n");
        assert_eq!(
            err,
            DataError::Csv {
                line: 4,
                message: "unterminated quoted field".into()
            }
        );
    }

    #[test]
    fn garbage_after_closing_quote_is_error() {
        let err = parse_err("a\n\"x\ny\"é\n");
        assert_eq!(
            err,
            DataError::Csv {
                line: 3,
                message: "unexpected 'é' after closing quote".into()
            }
        );
    }

    #[test]
    fn quote_in_unquoted_field_is_error() {
        let err = parse_err("a\r\nx\"y\n");
        assert_eq!(
            err,
            DataError::Csv {
                line: 2,
                message: "quote inside unquoted field".into()
            }
        );
    }

    #[test]
    fn count_byte_spans_blocks() {
        assert_eq!(count_byte(b"", b'"'), 0);
        let bytes: Vec<u8> = (0..2_000)
            .map(|i| if i % 3 == 0 { b'"' } else { b'x' })
            .collect();
        for end in [1, 254, 255, 256, 765, 1_999, 2_000] {
            let want = bytes[..end].iter().filter(|&&b| b == b'"').count();
            assert_eq!(count_byte(&bytes[..end], b'"'), want, "first {end} bytes");
        }
        assert_eq!(count_byte(&[b'"'; 600], b'"'), 600);
    }

    #[test]
    fn custom_delimiter() {
        let opts = CsvOptions::default().with_delimiter(';');
        let out = records("a;b\n1;\"2;3\"\n4;5,6\n", &opts).unwrap();
        assert_eq!(out, vec![["a", "b"], ["1", "2;3"], ["4", "5,6"]]);
    }

    #[test]
    fn non_ascii_delimiter_rejected() {
        let opts = CsvOptions::default().with_delimiter('☃');
        assert!(matches!(
            records("a\n1\n", &opts),
            Err(DataError::Invalid(_))
        ));
    }

    #[test]
    fn quote_delimiter_rejected() {
        let opts = CsvOptions::default().with_delimiter('"');
        assert!(matches!(
            records("a\"b\n", &opts),
            Err(DataError::Invalid(_))
        ));
    }

    #[test]
    fn carriage_return_delimiter_rejected() {
        let opts = CsvOptions::default().with_delimiter('\r');
        assert!(matches!(
            records("a\rb\r\n", &opts),
            Err(DataError::Invalid(_))
        ));
    }

    #[test]
    fn newline_delimiter_rejected() {
        let opts = CsvOptions::default().with_delimiter('\n');
        assert!(matches!(
            records("a\nb\n1\n", &opts),
            Err(DataError::Invalid(_))
        ));
    }
}
