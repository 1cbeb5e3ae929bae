//! Deterministic fuzzing of `Json::parse`, above all of its string
//! scanner, which finds the end of each unescaped run eight bytes at a
//! time. Three properties, each over a seeded stream of cases:
//!
//! * round trip — a random value, written with randomly chosen escapes
//!   and whitespace, parses back to itself. Its strings put quotes,
//!   backslashes, every control byte, `\u` escapes (surrogate pairs
//!   included) and 2–4-byte characters at every offset modulo 8;
//! * reference — a random string token, valid or not, parses to what a
//!   byte-at-a-time unescaper written here reads, or fails with the same
//!   message at the same offset;
//! * mutations — byte mutations of valid request lines never panic, and
//!   an error's offset lies within the line.
//!
//! A short budget runs in `cargo test`; the soak (a million cases per
//! property) runs with
//! `cargo test --release -p pclabel-engine --test json_fuzz -- --ignored`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pclabel_engine::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Characters a string draws from beside plain ASCII: the two that must
/// be escaped, a slash, the edges of the control range, DEL, and
/// characters of two, three and four UTF-8 bytes.
const SPECIAL_CHARS: [char; 13] = [
    '"', '\\', '/', '\u{0}', '\u{8}', '\n', '\u{1f}', '\u{7f}', 'é', '\u{80}', '末', '€', '😀',
];

/// Any control character, or one of [`SPECIAL_CHARS`].
fn special_char(rng: &mut StdRng) -> char {
    if rng.gen_bool(0.3) {
        char::from(rng.gen_range(0u8..0x20))
    } else {
        SPECIAL_CHARS[rng.gen_range(0..SPECIAL_CHARS.len())]
    }
}

/// Printable ASCII other than a quote or a backslash, of a random length
/// (up to two scan words and a bit), so the characters after it land at
/// every offset modulo 8.
fn plain(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.gen_range(0usize..=17) {
        let c = char::from(rng.gen_range(b'#'..=b'~'));
        out.push(if c == '\\' { ' ' } else { c });
    }
}

fn random_string(rng: &mut StdRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0usize..6) {
        plain(rng, &mut s);
        s.push(special_char(rng));
    }
    if rng.gen_bool(0.5) {
        plain(rng, &mut s);
    }
    s
}

fn random_number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..4) {
        0 => f64::from(rng.gen_range(-1000i32..1000)),
        1 => rng.gen_range(-1e15..1e15f64).trunc(),
        2 => rng.gen::<f64>() * 10f64.powi(rng.gen_range(-20i32..20)),
        _ => -rng.gen::<f64>() * 1e300,
    }
}

fn random_value(rng: &mut StdRng, depth: usize) -> Json {
    let kinds = if depth < 4 { 7 } else { 5 };
    match rng.gen_range(0u32..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 | 4 => Json::Str(random_string(rng)),
        5 => Json::Arr(
            (0..rng.gen_range(0usize..5))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..5))
                .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// JSON whitespace, sometimes.
fn ws(rng: &mut StdRng, out: &mut String) {
    if rng.gen_bool(0.2) {
        for _ in 0..rng.gen_range(1usize..3) {
            out.push([' ', '\t', '\n', '\r'][rng.gen_range(0usize..4)]);
        }
    }
}

/// `c` as `\u` escapes (a surrogate pair above the BMP), with hex digits
/// in random case.
fn push_unicode_escape(rng: &mut StdRng, c: char, out: &mut String) {
    let mut units = [0u16; 2];
    for unit in c.encode_utf16(&mut units) {
        out.push_str("\\u");
        for digit in format!("{unit:04x}").chars() {
            out.push(if rng.gen_bool(0.5) {
                digit.to_ascii_uppercase()
            } else {
                digit
            });
        }
    }
}

/// Writes `s` as a string token, escaping what must be escaped (and, at
/// random, other characters too) in a randomly chosen valid form.
fn write_string(rng: &mut StdRng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let must = c == '"' || c == '\\' || u32::from(c) < 0x20;
        match (rng.gen_range(0u32..3), short) {
            (0, _) if !must => out.push(c),
            (1, Some(short)) => out.push_str(short),
            _ if !must && rng.gen_bool(0.6) => out.push(c),
            _ => push_unicode_escape(rng, c, out),
        }
    }
    out.push('"');
}

/// Writes `value` with random escapes and whitespace.
fn write_value(rng: &mut StdRng, value: &Json, out: &mut String) {
    ws(rng, out);
    match value {
        Json::Str(s) => write_string(rng, s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                write_string(rng, key, out);
                ws(rng, out);
                out.push(':');
                write_value(rng, item, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_string()),
    }
    ws(rng, out);
}

/// `Json::parse`, with the input named if it panics.
fn parse(text: &str) -> Result<Json, (String, usize)> {
    catch_unwind(AssertUnwindSafe(|| Json::parse(text)))
        .unwrap_or_else(|_| panic!("Json::parse panicked on {text:?}"))
        .map_err(|e| (e.message, e.offset))
}

fn round_trip(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases {
        let value = random_value(&mut rng, 0);
        let mut text = String::new();
        write_value(&mut rng, &value, &mut text);
        assert_eq!(parse(&text), Ok(value.clone()), "text {text:?}");
        assert_eq!(parse(&value.to_string()), Ok(value));
    }
}

#[test]
fn every_special_character_at_every_offset_round_trips() {
    let mut rng = StdRng::seed_from_u64(0);
    let specials = SPECIAL_CHARS.into_iter().chain((0u8..0x20).map(char::from));
    for c in specials {
        for offset in 0..16 {
            for tail in 0..10 {
                let s = format!("{}{c}{}", "x".repeat(offset), "y".repeat(tail));
                let mut text = String::new();
                write_string(&mut rng, &s, &mut text);
                assert_eq!(parse(&text), Ok(Json::Str(s.clone())), "text {text:?}");
                let canonical = Json::Str(s.clone()).to_string();
                assert_eq!(parse(&canonical), Ok(Json::Str(s)), "text {canonical:?}");
            }
        }
    }
}

#[test]
fn written_values_parse_back() {
    round_trip(1, 3_000);
}

// --- the reference unescaper ------------------------------------------------

type RefResult<T> = Result<T, (String, usize)>;

fn fail<T>(message: &str, at: usize) -> RefResult<T> {
    Err((message.to_string(), at))
}

/// The four hex digits at `*at`, byte by byte.
fn reference_hex4(bytes: &[u8], at: &mut usize) -> RefResult<u32> {
    let Some(quad) = bytes.get(*at..*at + 4) else {
        return fail("truncated \\u escape", *at);
    };
    if std::str::from_utf8(quad).is_err() {
        return fail("non-ASCII in \\u escape", *at);
    }
    let mut code = 0;
    for &b in quad {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ => return fail("invalid \\u escape", *at),
        };
        code = code * 16 + u32::from(digit);
    }
    *at += 4;
    Ok(code)
}

/// Reads a document holding one string token, one byte at a time.
fn reference(doc: &str) -> RefResult<Json> {
    let bytes = doc.as_bytes();
    let is_ws = |b: &u8| matches!(b, b' ' | b'\t' | b'\n' | b'\r');
    let mut at = bytes.iter().take_while(|b| is_ws(b)).count();
    if bytes.get(at) != Some(&b'"') {
        unreachable!("the generator starts every token with a quote");
    }
    at += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(at) else {
            return fail("unterminated string", at);
        };
        match b {
            b'"' => {
                at += 1;
                break;
            }
            b'\\' => {
                at += 1;
                let c = match bytes.get(at) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        at += 1;
                        let hi = reference_hex4(bytes, &mut at)?;
                        let code = match hi {
                            0xDC00..=0xDFFF => return fail("unpaired low surrogate", at),
                            0xD800..=0xDBFF => {
                                if bytes.get(at) != Some(&b'\\') {
                                    return fail("unpaired high surrogate", at);
                                }
                                at += 1;
                                if bytes.get(at) != Some(&b'u') {
                                    return fail("expected 'u'", at);
                                }
                                at += 1;
                                let lo = reference_hex4(bytes, &mut at)?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return fail("unpaired high surrogate", at);
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            }
                            _ => hi,
                        };
                        out.push(char::from_u32(code).expect("a scalar value"));
                        continue;
                    }
                    _ => return fail("invalid escape", at),
                };
                out.push(c);
                at += 1;
            }
            b if b < 0x20 => return fail("raw control character in string", at),
            _ => {
                // Copy one whole character.
                let c = doc[at..].chars().next().expect("a char boundary");
                out.push(c);
                at += c.len_utf8();
            }
        }
    }
    at += bytes[at..].iter().take_while(|b| is_ws(b)).count();
    if at != bytes.len() {
        return fail("trailing characters after JSON value", at);
    }
    Ok(Json::Str(out))
}

/// Fragments of string tokens, valid and not.
const FRAGMENTS: [&str; 24] = [
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\n",
    "\\r",
    "\\t",
    "\\x",
    "\\é",
    "\\",
    "\"",
    "\\u",
    "\\ud83d\\ude00",
    "\\uD83D",
    "\\uDE00",
    "\\uD83D\\u0041",
    "\\uD83Dx",
    "\\ud83d\\x",
    "\\ud83d\\",
    "\u{7f}",
    "é",
    "末",
    "😀",
];

/// Characters a `\u` escape's digits are drawn from.
const HEX_ISH: [char; 10] = ['0', '7', 'a', 'F', 'g', '+', '-', ' ', 'é', '"'];

/// A random string token over the scanner's alphabet, mostly closed,
/// sometimes followed by whitespace or stray characters.
fn random_token(rng: &mut StdRng) -> String {
    let mut token = String::new();
    ws(rng, &mut token);
    token.push('"');
    for _ in 0..rng.gen_range(0usize..8) {
        plain(rng, &mut token);
        match rng.gen_range(0u32..4) {
            0 => token.push(char::from(rng.gen_range(0u8..0x20))),
            1 => {
                token.push_str("\\u");
                for _ in 0..rng.gen_range(0usize..=5) {
                    token.push(HEX_ISH[rng.gen_range(0..HEX_ISH.len())]);
                }
            }
            _ => token.push_str(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]),
        }
    }
    plain(rng, &mut token);
    if rng.gen_bool(0.9) {
        token.push('"');
    }
    ws(rng, &mut token);
    if rng.gen_bool(0.05) {
        token.push('x');
    }
    token
}

fn tokens_match_the_reference(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parsed = 0usize;
    for _ in 0..cases {
        let token = random_token(&mut rng);
        let expected = reference(&token);
        parsed += usize::from(expected.is_ok());
        assert_eq!(parse(&token), expected, "token {token:?}");
    }
    // Both outcomes must be common for the comparison to mean anything.
    let share = parsed as f64 / cases as f64;
    assert!((0.1..0.9).contains(&share), "parsed share {share}");
}

#[test]
fn string_tokens_read_like_the_reference() {
    tokens_match_the_reference(2, 30_000);
}

// --- mutations of request lines ----------------------------------------------

/// Valid request lines of every shape the serve protocol takes.
fn request_lines() -> Vec<String> {
    let csv = "gender,race\nFemale,\"Hispanic\"\nMale,Caucasian\n\"a \"\"q\"\"\",é\n";
    let register = Json::obj([
        ("op", Json::str("register")),
        ("dataset", Json::str("t")),
        ("csv", Json::str(csv)),
        ("label_attrs", Json::Arr(vec![Json::str("gender")])),
    ])
    .to_string();
    let mut lines: Vec<String> = [
        r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#,
        r#"{"op":"query","dataset":"census","id":"q1","patterns":[{"gender":"Female","age group":"20-39"},{"age group":"20-39"}]}"#,
        r#"{"op":"query","dataset":"t","patterns":[{"a":1.5e3},{"a":-0},{"b":"é😀"}]}"#,
        r#"{"op":"append_rows","dataset":"t","rows":[["1","x"],["2",null]]}"#,
        r#"{"op":"estimate_multi","patterns":[{"gender":"Female"}],"strategy":"min"}"#,
        r#"{"op":"stats","dataset":"census"}"#,
        r#" { "op" : "health" } "#,
        r#"{"op":"refresh","dataset":"census","label_attrs":["gender","age group"],"trace":true}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    lines.push(register);
    lines
}

/// Bytes a mutation inserts or substitutes: JSON's structural bytes, a
/// backslash, a control byte and parts of multi-byte characters.
const MUTANT_BYTES: [u8; 16] = [
    b'{', b'}', b'[', b']', b'"', b'\\', b':', b',', b'u', b'0', b'-', b'e', 0x00, 0x1f, 0xc3, 0xa9,
];

/// One to three random byte edits: replace, insert, delete, or repeat a
/// short range.
fn mutate(rng: &mut StdRng, line: &str) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1usize..=3) {
        let at = rng.gen_range(0..=bytes.len());
        let byte = if rng.gen_bool(0.7) {
            MUTANT_BYTES[rng.gen_range(0..MUTANT_BYTES.len())]
        } else {
            rng.gen::<u64>() as u8
        };
        match rng.gen_range(0u32..4) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                let end = (at + rng.gen_range(1usize..=4)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let end = (at + rng.gen_range(1usize..=8)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
    bytes
}

fn mutated_lines_never_panic(seed: u64, cases: usize) {
    let lines = request_lines();
    for line in &lines {
        assert!(parse(line).is_ok(), "seed line {line}");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checked = 0usize;
    for _ in 0..cases {
        let line = &lines[rng.gen_range(0..lines.len())];
        let bytes = mutate(&mut rng, line);
        // Lines that are not UTF-8 never reach the parser: the transports
        // answer them with their own error.
        let Ok(line) = std::str::from_utf8(&bytes) else {
            continue;
        };
        checked += 1;
        if let Err((message, offset)) = parse(line) {
            assert!(offset <= line.len(), "{message} at {offset} in {line:?}");
        }
    }
    assert!(checked > cases / 2, "only {checked} mutants were UTF-8");
}

#[test]
fn mutated_request_lines_never_panic() {
    mutated_lines_never_panic(3, 20_000);
}

#[test]
#[ignore = "soak: a million cases per property, run in release mode"]
fn json_fuzz_soak() {
    round_trip(11, 1_000_000);
    tokens_match_the_reference(12, 1_000_000);
    mutated_lines_never_panic(13, 1_000_000);
}
