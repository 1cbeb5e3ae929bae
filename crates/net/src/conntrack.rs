//! Live connection-state tracking for `/debug/conns`.
//!
//! Every reactor loop registers each connection it admits in a shared
//! [`ConnTable`] and mirrors its coarse state into the entry's atomics.
//! The table's mutex is touched only on admit/close and by a snapshot;
//! every per-byte and per-request update is a relaxed atomic on an
//! entry the updater already holds an `Arc` to. A `/debug/conns` scrape
//! therefore reads a consistent-enough picture of the fleet without
//! ever stalling an event loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coarse connection state, mirrored by the owning event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Accepted; the protocol sniff has not finished yet.
    Sniffing = 0,
    /// Between requests (keep-alive), nothing in flight.
    Idle = 1,
    /// Bytes of an unfinished request have arrived.
    Reading = 2,
    /// A request is queued for or running on a worker.
    Dispatching = 3,
    /// A response is queued or mid-write back to the peer.
    Writing = 4,
}

impl ConnState {
    pub(crate) fn name(self) -> &'static str {
        match self {
            ConnState::Sniffing => "sniffing",
            ConnState::Idle => "idle",
            ConnState::Reading => "reading",
            ConnState::Dispatching => "dispatching",
            ConnState::Writing => "writing",
        }
    }

    fn from_u8(v: u8) -> ConnState {
        match v {
            1 => ConnState::Idle,
            2 => ConnState::Reading,
            3 => ConnState::Dispatching,
            4 => ConnState::Writing,
            _ => ConnState::Sniffing,
        }
    }
}

/// Sniffed wire protocol (0 = not yet known).
const PROTO_UNKNOWN: u8 = 0;
const PROTO_FRAMED: u8 = 1;
const PROTO_HTTP: u8 = 2;

/// One live connection's bookkeeping. Updates are relaxed atomics: the
/// snapshot is diagnostic, not transactional.
pub(crate) struct ConnTrack {
    id: u64,
    peer: String,
    created: Instant,
    protocol: AtomicU8,
    state: AtomicU8,
    /// Milliseconds from `created` to the last byte/request activity.
    last_activity_ms: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    requests: AtomicU64,
    /// Bytes currently buffered for this connection (unconsumed read
    /// bytes + queued unsent output). The reactor keeps this bounded by
    /// the write watermark plus one read chunk; `/debug/conns` exposes
    /// it so tests can assert streaming stays O(watermark), not O(body).
    buffered: AtomicU64,
}

impl ConnTrack {
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Records the protocol sniff (first request's prologue).
    pub(crate) fn set_protocol(&self, framed: bool) {
        let proto = if framed { PROTO_FRAMED } else { PROTO_HTTP };
        self.protocol.store(proto, Ordering::Relaxed);
    }

    pub(crate) fn set_state(&self, state: ConnState) {
        self.state.store(state as u8, Ordering::Relaxed);
    }

    fn touch(&self) {
        self.last_activity_ms
            .store(self.created.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// Adds received bytes and refreshes the activity stamp.
    pub(crate) fn add_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
        self.touch();
    }

    /// Adds sent bytes and refreshes the activity stamp.
    pub(crate) fn add_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
        self.touch();
    }

    /// Counts one complete request read off this connection.
    pub(crate) fn inc_requests(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.touch();
    }

    /// Records the bytes currently buffered for this connection.
    pub(crate) fn set_buffered(&self, n: u64) {
        self.buffered.store(n, Ordering::Relaxed);
    }
}

/// One row of a [`ConnTable::snapshot`].
pub(crate) struct ConnRow {
    pub(crate) id: u64,
    pub(crate) peer: String,
    pub(crate) protocol: &'static str,
    pub(crate) state: ConnState,
    pub(crate) age: Duration,
    /// Time since the last byte/request activity.
    pub(crate) since_activity: Duration,
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    pub(crate) requests: u64,
    pub(crate) buffered: u64,
}

/// The process-wide table of live connections.
#[derive(Default)]
pub(crate) struct ConnTable {
    next_id: AtomicU64,
    conns: Mutex<HashMap<u64, Arc<ConnTrack>>>,
}

impl ConnTable {
    /// Admits a connection; the returned entry is the updater's handle
    /// and must be paired with [`ConnTable::deregister`] on close.
    pub(crate) fn register(&self, peer: String) -> Arc<ConnTrack> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let track = Arc::new(ConnTrack {
            id,
            peer,
            created: Instant::now(),
            protocol: AtomicU8::new(PROTO_UNKNOWN),
            state: AtomicU8::new(ConnState::Sniffing as u8),
            last_activity_ms: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
        });
        self.conns
            .lock()
            .expect("conn table")
            .insert(id, Arc::clone(&track));
        track
    }

    pub(crate) fn deregister(&self, id: u64) {
        self.conns.lock().expect("conn table").remove(&id);
    }

    /// A point-in-time dump of every live connection, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<ConnRow> {
        let tracks: Vec<Arc<ConnTrack>> = self
            .conns
            .lock()
            .expect("conn table")
            .values()
            .cloned()
            .collect();
        let mut rows: Vec<ConnRow> = tracks
            .iter()
            .map(|t| {
                let age = t.created.elapsed();
                let last_ms = t.last_activity_ms.load(Ordering::Relaxed);
                ConnRow {
                    id: t.id,
                    peer: t.peer.clone(),
                    protocol: match t.protocol.load(Ordering::Relaxed) {
                        PROTO_FRAMED => "framed",
                        PROTO_HTTP => "http",
                        _ => "unknown",
                    },
                    state: ConnState::from_u8(t.state.load(Ordering::Relaxed)),
                    age,
                    since_activity: age.saturating_sub(Duration::from_millis(last_ms)),
                    bytes_in: t.bytes_in.load(Ordering::Relaxed),
                    bytes_out: t.bytes_out.load(Ordering::Relaxed),
                    requests: t.requests.load(Ordering::Relaxed),
                    buffered: t.buffered.load(Ordering::Relaxed),
                }
            })
            .collect();
        rows.sort_by_key(|r| r.id);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_update_snapshot_deregister() {
        let table = ConnTable::default();
        let a = table.register("127.0.0.1:1000".to_string());
        let b = table.register("127.0.0.1:2000".to_string());

        a.set_protocol(true);
        a.set_state(ConnState::Dispatching);
        a.add_in(17);
        a.add_out(40);
        a.inc_requests();
        a.set_buffered(9);
        b.set_protocol(false);

        let rows = table.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].peer, "127.0.0.1:1000");
        assert_eq!(rows[0].protocol, "framed");
        assert_eq!(rows[0].state, ConnState::Dispatching);
        assert_eq!(rows[0].bytes_in, 17);
        assert_eq!(rows[0].bytes_out, 40);
        assert_eq!(rows[0].requests, 1);
        assert_eq!(rows[0].buffered, 9);
        assert_eq!(rows[1].protocol, "http");
        assert_eq!(rows[1].state, ConnState::Sniffing);

        table.deregister(a.id());
        let rows = table.snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].peer, "127.0.0.1:2000");
    }
}
