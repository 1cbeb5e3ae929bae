//! Dependency-free JSON reading/writing for the serve protocol.
//!
//! The workspace builds offline with no registry crates, so the
//! line-delimited JSON wire format of [`crate::serve`] is handled by this
//! module instead of `serde_json`. [`Json`] is a DOM that covers full
//! JSON (RFC 8259): objects, arrays, strings with escapes (including
//! `\uXXXX` and surrogate pairs), numbers, booleans and null. Object
//! member order is preserved. Numbers round-trip through Rust's
//! shortest-representation float formatting, so `f64` estimates survive
//! write → parse losslessly.
//!
//! Strings are scanned eight bytes per step. A SWAR test over one `u64`
//! word flags quotes, backslashes and control bytes at once, so the end
//! of each run that needs no unescaping is found without a per-byte
//! branch, and the run is returned as a slice of the input `&str`, whose
//! UTF-8 its caller already checked: a register's multi-megabyte `csv`
//! member costs one scan and one copy of each run. Arrays and objects
//! nest at most 128 levels, so a line of brackets is a [`JsonError`] at
//! the first bracket too deep instead of a stack overflow, and a `\u`
//! escape takes exactly four hex digits.
//!
//! `QueryFrame::decode` is the typed path beside the DOM: it reads a
//! `query` request straight into `(attribute, value)` terms that borrow
//! from the line wherever a string holds no escape, with the same
//! parser routines (whitespace, strings, numbers) the DOM uses. It
//! accepts only the canonical request shape and returns `None` for
//! anything else, so every other line — including every malformed one —
//! is left to the DOM and answers exactly as before.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source member order.
    Obj(Vec<(String, Json)>),
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(input);
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Appends the serialized form to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object member lookup (linear scan; objects on this wire are small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, when integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        // 2^64, the first float past `u64::MAX`. `u64::MAX as f64` rounds
        // up to it, so `<=` against that would let 2^64 saturate.
        const END: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < END => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Compact serialization (`value.to_string()` produces wire-ready JSON).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Appends a number exactly as [`Json::Num`] serializes it.
pub(crate) fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        // Integral values print without the ".0" suffix `{:?}` would add.
        fmt::Write::write_fmt(out, format_args!("{}", n as i64)).expect("write to String");
    } else {
        // `{:?}` is Rust's shortest round-trip representation.
        fmt::Write::write_fmt(out, format_args!("{n:?}")).expect("write to String");
    }
}

/// Appends a string exactly as [`Json::Str`] serializes it.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32))
                    .expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deeply arrays and objects may nest. No request is more than three
/// levels deep; the cap keeps a line of brackets from recursing the
/// parser off its thread's stack.
const MAX_DEPTH: usize = 128;

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([1; 8]);

/// Whether `b` ends a run of string bytes that need no unescaping: a
/// quote, a backslash or a control character (which RFC 8259 requires
/// escaped).
fn ends_run(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The high bit of every byte of `word` (eight input bytes, little
/// endian) that [`ends_run`]. A subtraction's borrow can flag a byte
/// above a flagged one, never below it, so the lowest flag is exact.
fn run_ends(word: u64) -> u64 {
    let zero_byte = |x: u64| x.wrapping_sub(ONES) & !x;
    let below_space = word.wrapping_sub(ONES * 0x20) & !word;
    (zero_byte(word ^ (ONES * u64::from(b'"')))
        | zero_byte(word ^ (ONES * u64::from(b'\\')))
        | below_space)
        & (ONES << 7)
}

/// A cursor over one input. An error ends the parse: nothing reads on
/// after one, so the nesting depth is not unwound on that path.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            input,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.input.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.input.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|p, key| {
                    members.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Walks one object, calling `member` with each key while the parser
    /// stands on that key's value; `member` must consume the value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.nested(b'{', b'}', "expected ',' or '}' in object", |p| {
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            member(p, key)
        })
    }

    /// Walks one array, calling `item` while the parser stands on each
    /// item; `item` must consume it.
    fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.nested(b'[', b']', "expected ',' or ']' in array", item)
    }

    /// One array or object: `open`, comma-separated items, `close`. It
    /// sits one level deeper than its container, and is refused at its
    /// opening byte past [`MAX_DEPTH`] levels.
    fn nested(
        &mut self,
        open: u8,
        close: u8,
        unclosed: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() == Some(open) && self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.eat(open)?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err(unclosed)),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// The four hex digits of a `\u` escape. RFC 8259 allows nothing
    /// else there; `u16::from_str_radix` would also take a sign.
    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        let Some(digits) = self.input.as_bytes().get(self.pos..end) else {
            return Err(self.err("truncated \\u escape"));
        };
        if std::str::from_utf8(digits).is_err() {
            return Err(self.err("non-ASCII in \\u escape"));
        }
        let code = digits.iter().try_fold(0u16, |code, &b| {
            Some(code << 4 | (b as char).to_digit(16)? as u16)
        });
        let Some(code) = code else {
            return Err(self.err("invalid \\u escape"));
        };
        self.pos = end;
        Ok(code)
    }

    /// One string token, borrowed from the input when it holds no
    /// escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let run = self.unescaped_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let short = match self.peek() {
                        Some(b'"') => Some('"'),
                        Some(b'\\') => Some('\\'),
                        Some(b'/') => Some('/'),
                        Some(b'b') => Some('\u{08}'),
                        Some(b'f') => Some('\u{0C}'),
                        Some(b'n') => Some('\n'),
                        Some(b'r') => Some('\r'),
                        Some(b't') => Some('\t'),
                        Some(b'u') => None,
                        _ => return Err(self.err("invalid escape")),
                    };
                    self.pos += 1;
                    out.push(match short {
                        Some(c) => c,
                        None => self.unicode_escape()?,
                    });
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => out.push_str(self.unescaped_run()),
            }
        }
    }

    /// The character of a `\u` escape whose digits the parser stands on,
    /// with the low half of a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(u32::from(hi)).ok_or_else(|| self.err("invalid \\u escape"));
        }
        if self.peek() != Some(b'\\') {
            return Err(self.err("unpaired high surrogate"));
        }
        self.pos += 1;
        self.eat(b'u')?;
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(self.err("unpaired high surrogate"));
        }
        let code = 0x10000 + ((u32::from(hi) - 0xD800) << 10) + (u32::from(lo) - 0xDC00);
        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
    }

    /// Consumes the maximal run of bytes that need no unescaping, eight
    /// bytes per step, and returns it as a slice of the input. The bytes
    /// that end a run are all ASCII, so the run starts and ends on char
    /// boundaries and needs no UTF-8 check of its own.
    fn unescaped_run(&mut self) -> &'a str {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut end = start;
        while let Some(word) = bytes.get(end..end + 8) {
            let hits = run_ends(u64::from_le_bytes(word.try_into().expect("eight bytes")));
            if hits != 0 {
                end += hits.trailing_zeros() as usize / 8;
                self.pos = end;
                return &self.input[start..end];
            }
            end += 8;
        }
        end += bytes[end..]
            .iter()
            .position(|&b| ends_run(b))
            .unwrap_or(bytes.len() - end);
        self.pos = end;
        &self.input[start..end]
    }

    /// RFC 8259 number grammar: `-? (0 | [1-9][0-9]*) (\.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?` — stricter than `f64::from_str` (no leading
    /// zeros, no bare/trailing dot, no `inf`/`NaN`).
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("digit expected in number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| JsonError {
                message: "invalid number".into(),
                offset: start,
            })
    }
}

/// A `query` request decoded straight from its line, without a DOM:
/// `{"op":"query","dataset":…,"id":…,"patterns":[{attr:value,…},…]}`.
/// Strings borrow from the line unless they hold an escape.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueryFrame<'a> {
    /// The `"id"` member when it is a string. Any other id is accepted
    /// and not echoed, as on the DOM path.
    pub(crate) id: Option<Cow<'a, str>>,
    /// The `"dataset"` member.
    pub(crate) dataset: Cow<'a, str>,
    /// Every pattern's `(attribute, value)` terms, back to back in
    /// request order. A numeric value is already its label text (the
    /// number as [`Json::Num`] writes it).
    pub(crate) terms: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    /// How many of [`QueryFrame::terms`] each pattern has, in request
    /// order.
    pub(crate) lens: Vec<usize>,
}

impl<'a> QueryFrame<'a> {
    /// Decodes one request line, or returns `None` for any line off the
    /// typed shape: another op, a missing, repeated or unknown top-level
    /// member, a non-string `"op"` or `"dataset"`, a `"patterns"` that is
    /// not an array of objects, a pattern value that is neither a string
    /// nor a number, or malformed JSON. Those lines are left to
    /// [`Json::parse`] and the DOM dispatch path.
    pub(crate) fn decode(line: &'a str) -> Option<QueryFrame<'a>> {
        let mut p = Parser::new(line);
        let mut frame = QueryFrame {
            id: None,
            dataset: Cow::Borrowed(""),
            terms: Vec::new(),
            lens: Vec::new(),
        };
        let [mut op, mut dataset, mut id, mut patterns] = [false; 4];
        p.skip_ws();
        p.object(|p, key| {
            let seen = match &*key {
                "op" => &mut op,
                "dataset" => &mut dataset,
                "id" => &mut id,
                "patterns" => &mut patterns,
                _ => return Err(p.err("off the typed query shape")),
            };
            if std::mem::replace(seen, true) {
                return Err(p.err("off the typed query shape"));
            }
            match &*key {
                "op" => {
                    if p.string()? != "query" {
                        return Err(p.err("off the typed query shape"));
                    }
                }
                "dataset" => frame.dataset = p.string()?,
                "id" if p.peek() == Some(b'"') => frame.id = Some(p.string()?),
                "id" => {
                    p.value()?;
                }
                _ => p.array(|p| {
                    let start = frame.terms.len();
                    p.object(|p, attr| {
                        let value = match p.peek() {
                            Some(b'"') => p.string()?,
                            _ => {
                                let mut text = String::new();
                                write_number(p.number()?, &mut text);
                                Cow::Owned(text)
                            }
                        };
                        frame.terms.push((attr, value));
                        Ok(())
                    })?;
                    frame.lens.push(frame.terms.len() - start);
                    Ok(())
                })?,
            }
            Ok(())
        })
        .ok()?;
        p.skip_ws();
        (p.pos == line.len() && op && dataset && patterns).then_some(frame)
    }
}

/// Convenience constructors for building response objects.
impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-2.5e-3").unwrap(), Json::Num(-0.0025));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ back ü 末 \u{1F600} \u{07}";
        let mut encoded = String::new();
        write_string(original, &mut encoded);
        let decoded = Json::parse(&encoded).unwrap();
        assert_eq!(decoded.as_str(), Some(original));
    }

    #[test]
    fn every_control_character_round_trips() {
        // RFC 8259 §7: U+0000–U+001F MUST be escaped. Each one, plus the
        // two mandatory printable escapes, must survive serialize → parse
        // both as a value and as an object key.
        for code in (0u32..0x20).chain(['"' as u32, '\\' as u32]) {
            let c = char::from_u32(code).unwrap();
            let original = format!("a{c}z");
            let encoded = Json::Str(original.clone()).to_string();
            assert!(
                encoded.bytes().all(|b| b >= 0x20),
                "U+{code:04X} not escaped: {encoded:?}"
            );
            let decoded = Json::parse(&encoded).unwrap();
            assert_eq!(decoded.as_str(), Some(original.as_str()), "U+{code:04X}");

            let obj = Json::Obj(vec![(original.clone(), Json::Bool(true))]);
            let back = Json::parse(&obj.to_string()).unwrap();
            assert_eq!(
                back.get(&original),
                Some(&Json::Bool(true)),
                "key U+{code:04X}"
            );
        }
    }

    #[test]
    fn control_characters_use_standard_short_escapes() {
        assert_eq!(
            Json::Str("\u{08}\u{0C}\n\r\t".into()).to_string(),
            r#""\b\f\n\r\t""#
        );
        assert_eq!(
            Json::Str("\u{00}\u{1f}".into()).to_string(),
            "\"\\u0000\\u001f\""
        );
        assert_eq!(Json::Str("\"\\".into()).to_string(), r#""\"\\""#);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""ü末""#).unwrap().as_str(), Some("ü末"));
        // 😀 = U+1F600 = 😀.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
        assert!(Json::parse(r#""\uD83D""#).is_err());
        assert!(Json::parse(r#""\uDE00""#).is_err());
    }

    #[test]
    fn floats_round_trip_losslessly() {
        for n in [
            0.0,
            3.0,
            1.0 / 3.0,
            2.5e-9,
            1e15,
            123456.789,
            f64::MIN_POSITIVE,
        ] {
            let text = Json::Num(n).to_string();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(n), "text {text}");
        }
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[01abc]",
            "\"\u{01}\"",
            "01",
            "-01",
            "1.",
            "-.5",
            ".5",
            "1e",
            "1e+",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn object_order_preserved_and_writes_compact() {
        let v = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::num(2.0)),
            ("name", Json::str("x")),
        ]);
        assert_eq!(v.to_string(), r#"{"ok":true,"n":2,"name":"x"}"#);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn query_frame_borrows_unescaped_strings() {
        let line = r#" {"patterns":[{"a":"x","b\"":1.5e3},{}],"id":3,"op":"query","dataset":"d"} "#;
        let frame = QueryFrame::decode(line).expect("typed shape");
        assert!(matches!(frame.dataset, Cow::Borrowed("d")));
        assert_eq!(frame.id, None);
        assert!(matches!(
            frame.terms[0],
            (Cow::Borrowed("a"), Cow::Borrowed("x"))
        ));
        assert!(matches!(
            &frame.terms[1],
            (Cow::Owned(attr), Cow::Owned(value)) if attr == "b\"" && value == "1500"
        ));
        assert_eq!(frame.lens, vec![2, 0]);

        for off_shape in [
            r#"{"op":"query","dataset":"d"}"#,
            r#"{"op":"list","dataset":"d","patterns":[]}"#,
            r#"{"op":"query","dataset":"d","patterns":[],"op":"query"}"#,
            r#"{"op":"query","dataset":"d","patterns":[{"a":null}]}"#,
            r#"{"op":"query","dataset":"d","patterns":[]} x"#,
        ] {
            assert_eq!(QueryFrame::decode(off_shape), None, "{off_shape}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(
            Json::parse(r#""\uaBcD""#).unwrap().as_str(),
            Some("\u{ABCD}")
        );
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                ("invalid \\u escape", 3)
            );
            let line = format!(r#"{{"op":"query","dataset":{bad},"patterns":[]}}"#);
            assert_eq!(QueryFrame::decode(&line), None, "{line}");
        }
    }

    #[test]
    fn nesting_is_capped_in_both_parsers() {
        let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        let err = Json::parse(&deep(10_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(Json::parse(&objects).unwrap_err().offset, 5 * MAX_DEPTH);

        // The typed decoder's own levels count: the request object is the
        // first, so the id may nest one level less than a bare value.
        let query = |id: &str| format!(r#"{{"op":"query","dataset":"d","id":{id},"patterns":[]}}"#);
        assert!(QueryFrame::decode(&query(&deep(MAX_DEPTH - 1))).is_some());
        assert!(Json::parse(&query(&deep(MAX_DEPTH - 1))).is_ok());
        for levels in [MAX_DEPTH, 10_000] {
            assert_eq!(QueryFrame::decode(&query(&deep(levels))), None);
            assert!(Json::parse(&query(&deep(levels))).is_err());
        }
    }

    #[test]
    fn word_scan_flags_exactly_the_bytes_that_end_a_run() {
        // Every byte value at every lane, among bytes that do not end a
        // run and among ones that do.
        for b in 0..=u8::MAX {
            for lane in 0..8 {
                for fill in [b'a', 0xC3, 0x7F, b'"', 0x00] {
                    let mut word = [fill; 8];
                    word[lane] = b;
                    let expected = word.iter().position(|&x| ends_run(x));
                    let hits = run_ends(u64::from_le_bytes(word));
                    let first = (hits != 0).then(|| hits.trailing_zeros() as usize / 8);
                    assert_eq!(first, expected, "{word:?}");
                }
            }
        }
    }

    #[test]
    fn u64_accessor_guards_range_and_fraction() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        // The largest float below 2^64 fits; 2^64 itself does not.
        let below = Json::parse("18446744073709549568").unwrap();
        assert_eq!(below.as_u64(), Some(18_446_744_073_709_549_568));
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::Num(2f64.powi(64)).as_u64(), None);
    }
}
