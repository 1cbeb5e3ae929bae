//! Deterministic fuzzing of the byte-level decoders a peer can reach:
//! the HTTP head parser with its body framing, the incremental chunked
//! decoder, and the length-prefixed frame reader. Each property runs
//! over a seeded stream of cases:
//!
//! * chunked round trip — a random body, re-encoded with random chunk
//!   sizes, hex case, leading zeros, `;ext` extensions and trailers and
//!   followed by pipelined bytes, decodes to the body through random
//!   1 B–8 KiB splits and leaves the pipelined bytes in the buffer.
//!   Under a cap below the body's length it fails with 413 instead, and
//!   the decoded body never grows past the cap;
//! * chunked mutations — byte mutations of valid encodings never panic
//!   and fail only with 400, 413 or 431;
//! * heads — byte mutations of valid request heads never panic in
//!   `parse_head` or `body_framing`, and fail only with a 4xx or 5xx;
//! * frames — random streams, read in random pieces, never panic in
//!   `read_frame`, read what a byte-level reference reads, and never
//!   allocate a payload past `max`.
//!
//! A short budget runs in `cargo test`; the soak (a million cases per
//! property) runs with
//! `cargo test --release -p pclabel-net --lib decoder_fuzz -- --ignored`.

use std::io::{self, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::{read_frame, FrameError};
use crate::http::{body_framing, parse_head, ChunkedDecoder};

/// A size from 1 to `2^max_bits`, log-uniform, so byte-at-a-time feeds
/// are as common as bulk ones.
fn log_size(rng: &mut StdRng, max_bits: u32) -> usize {
    let bits = rng.gen_range(0..=max_bits);
    rng.gen_range(1usize..=1 << bits)
}

/// A random split of a feed: 1 B to 8 KiB.
fn split(rng: &mut StdRng) -> usize {
    log_size(rng, 13)
}

/// Random bytes, CR and LF included, of a log-uniform length up to
/// `2^max_bits`.
fn random_bytes(rng: &mut StdRng, max_bits: u32) -> Vec<u8> {
    let len = log_size(rng, max_bits) - 1;
    (0..len)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => b'\r',
            1 => b'\n',
            _ => rng.gen::<u32>() as u8,
        })
        .collect()
}

/// A short token for extension names, values and trailer fields.
fn token(rng: &mut StdRng) -> String {
    (0..rng.gen_range(1usize..=8))
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

/// `body` as a chunked encoding with random chunk sizes, hex case,
/// leading zeros, `;ext` extensions and trailers.
fn encode_chunked(rng: &mut StdRng, body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut rest = body;
    loop {
        let size = if rest.is_empty() {
            0
        } else {
            log_size(rng, 12).min(rest.len())
        };
        let mut line = "0".repeat(rng.gen_range(0usize..=3));
        if rng.gen_bool(0.5) {
            line.push_str(&format!("{size:x}"));
        } else {
            line.push_str(&format!("{size:X}"));
        }
        for _ in 0..rng.gen_range(0u32..=2) {
            if rng.gen_bool(0.2) {
                line.push(' ');
            }
            line.push(';');
            line.push_str(&token(rng));
            match rng.gen_range(0u32..3) {
                0 => {}
                1 => line.push_str(&format!("={}", token(rng))),
                _ => line.push_str(&format!("=\"{};\\\"{}\"", token(rng), token(rng))),
            }
        }
        line.push_str("\r\n");
        wire.extend_from_slice(line.as_bytes());
        if size == 0 {
            break;
        }
        wire.extend_from_slice(&rest[..size]);
        wire.extend_from_slice(b"\r\n");
        rest = &rest[size..];
    }
    for _ in 0..rng.gen_range(0u32..=3) {
        wire.extend_from_slice(format!("{}: {}\r\n", token(rng), token(rng)).as_bytes());
    }
    wire.extend_from_slice(b"\r\n");
    wire
}

/// What may follow a chunked body on a keep-alive connection.
const PIPELINED: [&[u8]; 5] = [
    b"",
    b"GET /healthz HTTP/1.1\r\n\r\n",
    b"0\r\n\r\n",
    b"\r\n",
    b"\x00\x00\x00\x05hello",
];

/// The start of `wire`, for a failure message.
fn shown(wire: &[u8]) -> String {
    String::from_utf8_lossy(&wire[..wire.len().min(200)]).into_owned()
}

/// Fed to completion: the decoded body and the bytes left after it.
type Decoded = Option<(Vec<u8>, Vec<u8>)>;

/// Feeds `wire` to a fresh decoder capped at `max` in random splits.
/// Returns the body and everything left in the buffer once it completes,
/// `None` if the bytes run out first, or the decoder's error. Asserts
/// after every call that the decoded body is within the cap.
fn feed(rng: &mut StdRng, wire: &[u8], max: usize) -> Result<Decoded, (u16, &'static str)> {
    let mut decoder = ChunkedDecoder::new(max);
    let mut buf = Vec::new();
    let mut at = 0;
    loop {
        let end = (at + split(rng)).min(wire.len());
        buf.extend_from_slice(&wire[at..end]);
        at = end;
        let done = catch_unwind(AssertUnwindSafe(|| decoder.decode(&mut buf)))
            .unwrap_or_else(|_| panic!("decode panicked on {:?}", shown(wire)))?;
        assert!(
            decoder.decoded_len() <= max,
            "body of {} bytes past the cap of {max} on {:?}",
            decoder.decoded_len(),
            shown(wire)
        );
        if done {
            buf.extend_from_slice(&wire[at..]);
            return Ok(Some((decoder.into_body(), buf)));
        }
        if at == wire.len() {
            return Ok(None);
        }
    }
}

fn chunked_round_trips(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut capped = 0usize;
    for _ in 0..cases {
        let body = random_bytes(&mut rng, 13);
        let mut wire = encode_chunked(&mut rng, &body);
        let pipelined = PIPELINED[rng.gen_range(0..PIPELINED.len())];
        wire.extend_from_slice(pipelined);
        if !body.is_empty() && rng.gen_bool(0.2) {
            capped += 1;
            let max = rng.gen_range(0..body.len());
            let outcome = feed(&mut rng, &wire, max);
            assert!(
                matches!(outcome, Err((413, _))),
                "cap {max} below a {}-byte body: {outcome:?}",
                body.len()
            );
        } else {
            let max = body.len() + rng.gen_range(0usize..=16);
            assert_eq!(
                feed(&mut rng, &wire, max),
                Ok(Some((body, pipelined.to_vec()))),
                "wire {:?}",
                shown(&wire)
            );
        }
    }
    assert!(capped > cases / 10, "only {capped} capped cases");
}

#[test]
fn chunked_bodies_round_trip_through_random_splits() {
    chunked_round_trips(1, 2_000);
}

/// Bytes a mutation inserts or substitutes: the framing's own bytes
/// (CR, LF, `;`, `=`, `"`, `:`), hex digits and signs, whitespace, a NUL
/// and parts of a two-byte character.
const MUTANT_BYTES: [u8; 18] = [
    b'\r', b'\n', b';', b'=', b'"', b':', b'0', b'9', b'a', b'F', b'x', b'+', b'-', b' ', b'\t',
    0x00, 0xc3, 0xa9,
];

/// One to three random byte edits: replace, insert, delete, or repeat a
/// short range.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1usize..=3) {
        let at = rng.gen_range(0..=bytes.len());
        let byte = if rng.gen_bool(0.7) {
            MUTANT_BYTES[rng.gen_range(0..MUTANT_BYTES.len())]
        } else {
            rng.gen::<u32>() as u8
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
}

fn chunked_mutations_fail_cleanly(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut decoded, mut failed) = (0usize, 0usize);
    for _ in 0..cases {
        let body = random_bytes(&mut rng, 8);
        let mut wire = encode_chunked(&mut rng, &body);
        mutate(&mut rng, &mut wire);
        let max = rng.gen_range(0usize..=512);
        // `feed` holds the body within `max` on every call.
        match feed(&mut rng, &wire, max) {
            Ok(Some(_)) => decoded += 1,
            Ok(None) => {}
            Err((status, message)) => {
                failed += 1;
                assert!(
                    matches!(status, 400 | 413 | 431),
                    "{status} {message} on {:?}",
                    shown(&wire)
                );
            }
        }
    }
    // Both outcomes must be common for the property to mean anything.
    assert!(decoded > cases / 10, "only {decoded} of {cases} decoded");
    assert!(failed > cases / 10, "only {failed} of {cases} failed");
}

#[test]
fn mutated_chunked_bodies_fail_only_with_client_errors() {
    chunked_mutations_fail_cleanly(2, 5_000);
}

/// Valid request heads (without the blank line that ends them) of the
/// shapes clients send.
const HEADS: [&str; 6] = [
    "GET /healthz HTTP/1.1\r\nHost: x",
    "POST /query HTTP/1.1\r\nHost: localhost:7341\r\nContent-Type: application/json\r\nContent-Length: 42",
    "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nExpect: 100-continue",
    "HEAD /stats?dataset=census HTTP/1.0\r\nConnection: keep-alive",
    "POST /append_rows HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 007\r\nConnection: close",
    "GET /debug/traces?op=query&slowest=1 HTTP/1.1\r\nAccept: */*\r\nUser-Agent: fuzz",
];

fn heads_fail_cleanly(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut checked, mut parsed) = (0usize, 0usize);
    for _ in 0..cases {
        let mut bytes = HEADS[rng.gen_range(0..HEADS.len())].as_bytes().to_vec();
        mutate(&mut rng, &mut bytes);
        // The reactor answers a head that is not UTF-8 with its own 400
        // before parsing it.
        let Ok(head) = std::str::from_utf8(&bytes) else {
            continue;
        };
        checked += 1;
        let outcome = catch_unwind(|| parse_head(head).and_then(|request| body_framing(&request)))
            .unwrap_or_else(|_| panic!("head parsing panicked on {head:?}"));
        match outcome {
            Ok(_) => parsed += 1,
            Err((status, message)) => assert!(
                (400..600).contains(&status),
                "{status} {message} on {head:?}"
            ),
        }
    }
    assert!(checked > cases / 2, "only {checked} mutants were UTF-8");
    assert!(
        parsed > checked / 10 && parsed < checked - checked / 10,
        "{parsed} of {checked} heads parsed"
    );
}

#[test]
fn mutated_heads_fail_only_with_error_statuses() {
    heads_fail_cleanly(3, 20_000);
}

/// A reader that hands out its bytes in random pieces and now and then
/// reports `Interrupted`, as a socket may.
struct Trickle<'a> {
    data: &'a [u8],
    rng: StdRng,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rng.gen_bool(0.05) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = split(&mut self.rng).min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// How a stream of frames ends.
#[derive(Debug, PartialEq)]
enum Ending {
    /// At a frame boundary.
    Clean,
    /// Inside a frame.
    Eof,
    /// At a header declaring more than the cap; the offset is where the
    /// header ends.
    TooLarge { len: u32, at: usize },
}

/// Reads `stream` as frames byte by byte: the payloads and how the
/// stream ends.
fn reference_frames(stream: &[u8], max: u32) -> (Vec<Vec<u8>>, Ending) {
    let mut frames = Vec::new();
    let mut at = 0;
    loop {
        let rest = &stream[at..];
        if rest.is_empty() {
            return (frames, Ending::Clean);
        }
        if rest.len() < 4 {
            return (frames, Ending::Eof);
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
        if len > max {
            return (frames, Ending::TooLarge { len, at: at + 4 });
        }
        let Some(payload) = rest.get(4..4 + len as usize) else {
            return (frames, Ending::Eof);
        };
        frames.push(payload.to_vec());
        at += 4 + len as usize;
    }
}

/// A stream of up to four frames (a few with a random length field),
/// cut at a random point or not at all, or plain random bytes.
fn random_stream(rng: &mut StdRng) -> Vec<u8> {
    if rng.gen_bool(0.2) {
        return random_bytes(rng, 10);
    }
    let mut stream = Vec::new();
    for _ in 0..rng.gen_range(0u32..=4) {
        let payload = random_bytes(rng, 12);
        let len = if rng.gen_bool(0.1) {
            rng.gen::<u32>()
        } else {
            payload.len() as u32
        };
        stream.extend_from_slice(&len.to_be_bytes());
        stream.extend_from_slice(&payload);
    }
    if !stream.is_empty() && rng.gen_bool(0.3) {
        stream.truncate(rng.gen_range(0..stream.len()));
    }
    stream
}

fn frame_streams_read_like_the_reference(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases {
        let stream = random_stream(&mut rng);
        let max = log_size(&mut rng, 14) as u32 - 1;
        let (expected_frames, expected_end) = reference_frames(&stream, max);
        let mut reader = Trickle {
            data: &stream,
            rng: StdRng::seed_from_u64(rng.gen()),
        };
        let mut frames = Vec::new();
        let end = loop {
            let read = catch_unwind(AssertUnwindSafe(|| read_frame(&mut reader, max)))
                .unwrap_or_else(|_| panic!("read_frame panicked on {:?}", shown(&stream)));
            match read {
                Ok(Some(payload)) => {
                    assert!(payload.capacity() <= max as usize, "payload past max {max}");
                    frames.push(payload);
                }
                Ok(None) => break Ending::Clean,
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
                    break Ending::Eof;
                }
                Err(FrameError::TooLarge { len, max: cap }) => {
                    assert_eq!(cap, max);
                    // Nothing past the header was read, so nothing was
                    // allocated for the refused payload.
                    let at = stream.len() - reader.data.len();
                    break Ending::TooLarge { len, at };
                }
            }
        };
        assert_eq!(
            (frames, end),
            (expected_frames, expected_end),
            "max {max} on {:?}",
            shown(&stream)
        );
    }
}

#[test]
fn frame_streams_read_like_the_reference_reader() {
    frame_streams_read_like_the_reference(4, 5_000);
}

#[test]
#[ignore = "soak: a million cases per property, run in release mode"]
fn decoder_fuzz_soak() {
    chunked_round_trips(11, 1_000_000);
    chunked_mutations_fail_cleanly(12, 1_000_000);
    heads_fail_cleanly(13, 1_000_000);
    frame_streams_read_like_the_reference(14, 1_000_000);
}
