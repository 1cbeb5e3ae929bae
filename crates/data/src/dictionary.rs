//! Per-attribute dictionary encoding.
//!
//! Every categorical attribute maps its string labels to dense `u32` ids in
//! first-seen order. All columnar storage and all counting work on ids; the
//! dictionary is only consulted when rendering labels back to humans.
//!
//! Interning is where every cell of an upload turns into an id, so
//! [`Dictionary::intern`] first asks a 64-slot direct-mapped cache of
//! recently interned labels. A label of up to 7 bytes is packed with its
//! length into the slot's tag, so a hit on it costs no hash and no byte
//! comparison; a longer label's hit is confirmed against its bytes. The
//! cache only answers for labels already interned, and a miss falls
//! through to the one `SipHash` index, whose keyed hash keeps an upload
//! from choosing its collisions.

use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;

use crate::error::{DataError, Result};
use crate::mem::{hash_map_heap_bytes, vec_heap_bytes};

/// Slots in a dictionary's intern cache (a power of two).
const CACHE_SLOTS: usize = 64;

/// One cache slot: a label's [`cache_tag`] and its id.
type Slot = (u64, u32);

/// An empty slot. Its tag matches no label of up to 7 bytes (their tags'
/// top byte is their length), and a longer label's hit is confirmed
/// against its bytes, so it never answers.
const EMPTY_SLOT: Slot = (u64::MAX, 0);

/// A label's cache tag. Up to 7 bytes, the tag holds the label's bytes and
/// its length, so equal tags mean equal labels. A longer label's tag is a
/// fingerprint of its ends and length whose top byte, `0xFF`, no shorter
/// label's tag has.
fn cache_tag(label: &[u8]) -> u64 {
    let n = label.len();
    if n < 8 {
        let mut word = [0u8; 8];
        word[..n].copy_from_slice(label);
        word[7] = n as u8;
        return u64::from_le_bytes(word);
    }
    let word = |at: usize| u64::from_le_bytes(label[at..at + 8].try_into().expect("8 bytes"));
    (word(0) ^ word(n - 8).rotate_left(29) ^ n as u64) | 0xFF << 56
}

/// A bidirectional mapping between string labels and dense value ids.
///
/// Ids are assigned in first-insertion order starting at zero, so the id
/// space is exactly `0..len()`. The active domain of an attribute (in the
/// paper's sense, `Dom(A_i)`) is the set of ids that actually occur in the
/// data; the dictionary itself only stores labels that were interned.
#[derive(Clone, Default)]
pub struct Dictionary {
    labels: Vec<Box<str>>,
    index: HashMap<Box<str>, u32>,
    /// The intern cache (see the [module docs](self)); allocated by the
    /// first intern.
    cache: Option<Box<[Slot; CACHE_SLOTS]>>,
}

impl fmt::Debug for Dictionary {
    /// The labels in id order; the index and the cache only mirror them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dictionary")
            .field("labels", &self.labels)
            .finish_non_exhaustive()
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dictionary pre-populated with `labels` in order.
    ///
    /// Duplicate labels collapse to the first occurrence's id.
    pub fn from_labels<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut dict = Self::new();
        for label in labels {
            dict.intern(label.as_ref());
        }
        dict
    }

    /// Returns the id for `label`, inserting it if previously unseen.
    pub fn intern(&mut self, label: &str) -> u32 {
        let tag = cache_tag(label.as_bytes());
        // The top bits of a Fibonacci multiply pick the slot.
        let slot = (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (u64::BITS - CACHE_SLOTS.trailing_zeros())) as usize;
        if let Some(cache) = &self.cache {
            let (cached, id) = cache[slot];
            if cached == tag
                && (label.len() < 8 || self.labels.get(id as usize).is_some_and(|l| **l == *label))
            {
                return id;
            }
        }
        let id = match self.index.get(label) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.labels.len())
                    .expect("dictionary overflow: > u32::MAX labels");
                let boxed: Box<str> = label.into();
                self.labels.push(boxed.clone());
                self.index.insert(boxed, id);
                id
            }
        };
        self.cache
            .get_or_insert_with(|| Box::new([EMPTY_SLOT; CACHE_SLOTS]))[slot] = (tag, id);
        id
    }

    /// Heap bytes of the id→label vector and the index, each by
    /// capacity, plus the intern cache (none before the first intern).
    /// The labels' string bytes are not included.
    pub(crate) fn table_bytes(&self) -> u64 {
        let cache = self
            .cache
            .as_ref()
            .map_or(0, |_| size_of::<[Slot; CACHE_SLOTS]>());
        vec_heap_bytes(&self.labels) + hash_map_heap_bytes(&self.index) + cache as u64
    }

    /// Returns the id for `label` without inserting, if present.
    pub fn lookup(&self, label: &str) -> Option<u32> {
        self.index.get(label).copied()
    }

    /// Returns the label for `id`, if in range.
    pub fn label(&self, id: u32) -> Option<&str> {
        self.labels.get(id as usize).map(AsRef::as_ref)
    }

    /// Returns the label for `id` or an error mentioning `attr` context.
    pub fn label_checked(&self, attr: usize, id: u32) -> Result<&str> {
        self.label(id).ok_or(DataError::ValueOutOfRange {
            attr,
            value: id,
            len: self.labels.len(),
        })
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over `(id, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (i as u32, l.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids_in_first_seen_order() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("red"), 0);
        assert_eq!(d.intern("green"), 1);
        assert_eq!(d.intern("red"), 0);
        assert_eq!(d.intern("blue"), 2);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn lookup_and_label_roundtrip() {
        let d = Dictionary::from_labels(["a", "b", "c", "b"]);
        assert_eq!(d.len(), 3);
        for (id, label) in d.iter() {
            assert_eq!(d.lookup(label), Some(id));
            assert_eq!(d.label(id), Some(label));
        }
        assert_eq!(d.lookup("zzz"), None);
        assert_eq!(d.label(99), None);
    }

    #[test]
    fn label_checked_reports_context() {
        let d = Dictionary::from_labels(["x"]);
        let err = d.label_checked(5, 3).unwrap_err();
        assert_eq!(
            err,
            DataError::ValueOutOfRange {
                attr: 5,
                value: 3,
                len: 1
            }
        );
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn cached_interning_assigns_the_first_seen_ids() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // A pool of labels the cache must tell apart: the empty label,
        // 1–7-byte, 8-byte and longer ones, non-ASCII ones, ones equal in
        // their first 7 (or 8) bytes, long ones whose tags collide (they
        // differ only between their first and last 8 bytes), and far more
        // than 64 of them.
        let mut pool: Vec<String> = vec![String::new(), "a".into(), "é".into(), "😀".into()];
        for i in 0..150 {
            pool.push(format!("{i}"));
            pool.push(format!("{i:07}"));
            pool.push(format!("{i:08}"));
            pool.push(format!("{:07}x{i}", 0));
            pool.push(format!("prefix7-{i}"));
            pool.push(format!("ünïcødé-{i}"));
            pool.push(format!("head1234{i:08}tail5678"));
        }
        assert_eq!(
            cache_tag(b"head1234-0000001tail5678"),
            cache_tag(b"head1234-0000002tail5678")
        );
        pool.push("a\0".into());
        pool.push("a\0\0".into());
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Few distinct labels (every hit cached) up to the whole pool.
            let width = [3, 40, 64, 200, pool.len()][seed as usize % 5];
            let mut dict = Dictionary::new();
            let mut reference: HashMap<&str, u32> = HashMap::new();
            for _ in 0..5_000 {
                let label = pool[rng.gen_range(0..width)].as_str();
                let next = reference.len() as u32;
                let expected = *reference.entry(label).or_insert(next);
                assert_eq!(dict.intern(label), expected, "seed {seed} label {label:?}");
                assert_eq!(dict.len(), reference.len());
            }
            for (label, &id) in &reference {
                assert_eq!(dict.lookup(label), Some(id));
                assert_eq!(dict.label(id), Some(*label));
            }
            for label in &pool[width..] {
                assert_eq!(dict.lookup(label), None);
            }
        }
    }

    #[test]
    fn cache_tags_tell_short_labels_apart_exactly() {
        // Trailing NUL bytes and lengths: equal tags must mean equal
        // labels below 8 bytes, and no longer label may share their tags.
        let labels = [
            "",
            "\0",
            "\0\0",
            "a",
            "a\0",
            "abcdefg",
            "abcdefg\0",
            "abcdefgh",
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(
                    cache_tag(a.as_bytes()),
                    cache_tag(b.as_bytes()),
                    "{a:?} {b:?}"
                );
            }
        }
        assert!(labels
            .iter()
            .all(|l| cache_tag(l.as_bytes()) != EMPTY_SLOT.0));
    }

    #[test]
    fn labels_with_unusual_characters() {
        let mut d = Dictionary::new();
        let weird = ["", " ", "a,b", "\"quoted\"", "multi\nline", "ünïcødé"];
        for w in weird {
            d.intern(w);
        }
        assert_eq!(d.len(), weird.len());
        for w in weird {
            let id = d.lookup(w).unwrap();
            assert_eq!(d.label(id), Some(w));
        }
    }
}
