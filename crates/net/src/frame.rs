//! The length-prefixed wire format: `u32` big-endian payload length,
//! then that many bytes of JSON.
//!
//! Both sides enforce a maximum frame size — a reader never allocates
//! more than `max` bytes on the say-so of an untrusted peer, and a
//! writer refuses to emit a frame the peer's default limit would reject.
//! The cap also keeps the format unambiguous with HTTP on a shared port:
//! every ASCII method prefix decodes to a length of ≥ ~1.14 GB
//! (`"DELE"` = `0x44454C45`), far above [`MAX_FRAME_CEILING`].

use std::fmt;
use std::io::{self, Read, Write};

/// Default maximum frame payload size (1 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Hard ceiling for configurable frame limits (256 MiB). Keeps every
/// legal length prefix below the smallest ASCII HTTP-method prefix, so
/// protocol sniffing can never misclassify a frame.
pub const MAX_FRAME_CEILING: u32 = 1 << 28;

/// Framing failures.
#[derive(Debug)]
pub enum FrameError {
    /// An underlying I/O error (includes timeouts and mid-frame EOF).
    Io(io::Error),
    /// The peer declared (or the caller tried to send) a payload larger
    /// than the configured maximum.
    TooLarge {
        /// Declared payload length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds maximum of {max} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serialises one frame (length prefix + payload) into an owned buffer.
/// Used by the reactor, which queues whole responses for non-blocking
/// writes instead of writing to a stream.
pub fn encode_frame(payload: &[u8], max: u32) -> Result<Vec<u8>, FrameError> {
    let len =
        u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge { len: u32::MAX, max })?;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&len.to_be_bytes());
    bytes.extend_from_slice(payload);
    Ok(bytes)
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max: u32) -> Result<(), FrameError> {
    let len =
        u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge { len: u32::MAX, max })?;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF *between* frames;
/// EOF inside a frame is an [`FrameError::Io`] with
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R, max: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"list\"}", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut wire, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some(b"{\"op\":\"list\"}".as_slice())
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some(b"".as_slice())
        );
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn length_prefix_is_big_endian() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcde", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(&wire[..4], &[0, 0, 0, 5]);
        assert_eq!(&wire[4..], b"abcde");
    }

    #[test]
    fn encode_matches_write() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"list\"}", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(
            encode_frame(b"{\"op\":\"list\"}", DEFAULT_MAX_FRAME).unwrap(),
            wire
        );
        assert!(matches!(
            encode_frame(&[0u8; 100], 10),
            Err(FrameError::TooLarge { len: 100, max: 10 })
        ));
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let mut wire = Vec::new();
        assert!(matches!(
            write_frame(&mut wire, &[0u8; 100], 10),
            Err(FrameError::TooLarge { len: 100, max: 10 })
        ));
        // A peer declaring 1 GiB must be refused before allocation.
        let mut r: &[u8] = &[0x40, 0, 0, 0, b'x'];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn truncation_is_unexpected_eof() {
        // Header cut short.
        let mut r: &[u8] = &[0, 0];
        match read_frame(&mut r, DEFAULT_MAX_FRAME) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF error, got {other:?}"),
        }
        // Payload cut short.
        let mut r: &[u8] = &[0, 0, 0, 9, b'a', b'b'];
        match read_frame(&mut r, DEFAULT_MAX_FRAME) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF error, got {other:?}"),
        }
    }
}
