//! The cells of one attribute, shared by every dataset generation grown
//! from them.
//!
//! A [`Column`] is a prefix — its first `len` cells — of an append-only
//! buffer that every handle cloned or appended from it shares. Cloning a
//! handle copies no cell. Appending to a handle writes the new cells past
//! the end of its prefix, in place when it can: the buffer counts how
//! many of its cells some handle has `claimed`, and an append whose
//! handle ends exactly there claims its range with one compare-and-swap
//! and writes into it. Otherwise — another generation already grew past
//! this one, or the buffer is full — the append copies its prefix into a
//! new buffer of twice the rows and writes there. Appends therefore cost
//! amortised O(batch), and [`Column::as_slice`] stays one contiguous
//! slice.
//!
//! # Why the sharing is sound
//!
//! Handles on one buffer read and write its cells without a lock. Two
//! rules keep every access either disjoint from or ordered after every
//! write:
//!
//! 1. **No reader sees a cell past its own prefix.** A handle reads only
//!    its cells `[0, len)`, and each of them was written before the
//!    handle existed: by [`Column::from_vec`], or by the append that made
//!    this handle, which writes its cells before it sets `len`. A handle
//!    reaches another thread only through something that synchronizes (a
//!    lock, a channel, a spawn or a join), which carries those writes
//!    along.
//! 2. **No writer writes below another generation's length.** `claimed`
//!    only grows, and every handle's `len` is at most `claimed`. An
//!    append writes in place only after an exchange moves `claimed` from
//!    its own `len` to `len + batch`, so the range `[len, len + batch)`
//!    lies in no existing handle's prefix, and no other append can claim
//!    it. The only handle that will cover it is the one this append
//!    returns, after writing.
//!
//! Neither rule needs the caller to serialize appends: two appends racing
//! from one generation are ordered by the exchange, and the loser copies.
//! The exchange publishes no cells (handles do, by rule 1), so it only
//! has to be atomic.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One attribute's cells: the first `len` cells of a shared buffer.
#[derive(Clone)]
pub(crate) struct Column {
    /// `buf.ptr`, kept inline so a read takes no extra hop.
    ptr: NonNull<u32>,
    len: usize,
    buf: Arc<Buffer>,
}

/// An allocation of `cap` cells, of which `[0, claimed)` belong to some
/// handle (written, or being written by the one append that claimed
/// them).
struct Buffer {
    ptr: NonNull<u32>,
    cap: usize,
    claimed: AtomicUsize,
}

// SAFETY: `Buffer` owns its allocation of plain `u32`s, which any thread
// may free. `cap` never changes and `claimed` is atomic; the cells are
// read and written only through `Column`, whose rules (module doc) keep
// those accesses disjoint or ordered on every thread.
unsafe impl Send for Buffer {}
// SAFETY: as for `Send`: a shared `&Buffer` offers no access to the cells
// of its own, only `cap` and the atomic `claimed`.
unsafe impl Sync for Buffer {}

// SAFETY: `ptr` points into `buf`, which the handle keeps alive, and
// `len` is plain data. Through `&Column` a thread reads only the prefix,
// which no thread writes again (rule 1); through `&mut Column` it writes
// only cells its own exchange claimed (rule 2). So moving a handle to
// another thread, or sharing `&Column`, races with no access.
unsafe impl Send for Column {}
// SAFETY: a shared `&Column` only reads the prefix, which no thread
// writes again (rule 1), and `capacity`; every write needs `&mut Column`.
unsafe impl Sync for Column {}

impl Drop for Buffer {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` are those of the `Vec<u32>` that
        // `Column::from_vec` took apart, which nothing else frees. A
        // length of 0 drops no cell, and a `u32` needs no drop.
        drop(unsafe { Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap) });
    }
}

impl Column {
    /// A column holding `cells`, which becomes the shared buffer (its
    /// spare capacity included), uncopied.
    pub(crate) fn from_vec(cells: Vec<u32>) -> Column {
        let mut cells = ManuallyDrop::new(cells);
        let ptr = NonNull::new(cells.as_mut_ptr()).expect("a Vec's pointer is never null");
        let (len, cap) = (cells.len(), cells.capacity());
        Column {
            ptr,
            len,
            buf: Arc::new(Buffer {
                ptr,
                cap,
                claimed: AtomicUsize::new(len),
            }),
        }
    }

    /// The cells of this generation.
    pub(crate) fn as_slice(&self) -> &[u32] {
        // SAFETY: the cells `[0, len)` lie inside the buffer, which `buf`
        // keeps alive, were written before this handle existed, and are
        // never written again (module doc, rules 1 and 2).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Cells the shared buffer has room for: what the memory accounting
    /// charges. Generations sharing the buffer share this figure.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.cap
    }

    /// Appends `cells`: in place when this handle ends at the buffer's
    /// claimed mark and they fit, else into a new buffer of room for
    /// twice the rows (at least the new length).
    pub(crate) fn extend_from_slice(&mut self, cells: &[u32]) {
        if cells.is_empty() {
            return;
        }
        let len = self.len + cells.len();
        // `Relaxed`: the exchange publishes no cells (handles carry them,
        // rule 1), so it only has to be atomic.
        let claimed = len <= self.buf.cap
            && self
                .buf
                .claimed
                .compare_exchange(self.len, len, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        if !claimed {
            let mut grown = Vec::with_capacity(len.max(2 * self.len));
            grown.extend_from_slice(self.as_slice());
            grown.extend_from_slice(cells);
            *self = Column::from_vec(grown);
            return;
        }
        // SAFETY: the exchange moved `claimed` from `self.len` to `len`,
        // so `[self.len, len)` lies inside the buffer (`len <= cap`), in
        // no handle's prefix, and is this call's alone (rule 2). `cells`
        // cannot overlap it: a borrow of this buffer lies in some
        // handle's prefix, which ends at or below the old `claimed`.
        unsafe {
            ptr::copy_nonoverlapping(cells.as_ptr(), self.ptr.as_ptr().add(self.len), cells.len());
        }
        self.len = len;
    }
}

impl Deref for Column {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}
