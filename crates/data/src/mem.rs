//! Deep heap accounting: how many bytes does this value *own*?
//!
//! [`HeapBytes`] reports the heap footprint of a value — everything
//! reachable through owned pointers, excluding the inline `size_of`
//! part (which for the structures accounted here is noise next to the
//! buffers they own). The numbers are honest estimates, not allocator
//! truth: collection overheads (hash-table control bytes, growth slack)
//! are modeled with the same per-slot constants the counting layer's
//! build-time estimator uses, so the serving-side gauges and the
//! `CountingProfile::peak_bytes` prediction speak the same currency.
//!
//! Two rules keep sums meaningful when structures share data:
//!
//! 1. **Capacity, not length** — a `Vec` that grew to 1 M slots and
//!    shrank to 10 entries still pins the 1 M slots; accounting `len()`
//!    would hide exactly the memory a budget needs to see.
//! 2. **Count shared substructures once, at their primary owner** —
//!    e.g. a label never re-counts the schema it shares with its
//!    dataset via `Arc`. Each implementation documents what it covers.

use std::collections::HashMap;
use std::mem::size_of;

use crate::dataset::Dataset;
use crate::dictionary::Dictionary;
use crate::schema::{Attribute, Schema};

/// Deep heap footprint of a value, in bytes.
pub trait HeapBytes {
    /// Bytes of heap this value owns (estimated; excludes
    /// `size_of::<Self>()` itself).
    fn heap_bytes(&self) -> u64;
}

/// Heap owned by a `Vec<T>`: its full capacity, whether used or not.
pub fn vec_heap_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * size_of::<T>()) as u64
}

/// Heap owned by a `HashMap<K, V>`: one slot of `(K, V)` plus one
/// control byte per unit of capacity — the same swiss-table model the
/// counting layer uses for its build-time estimates. Heap hanging off
/// the keys/values themselves (boxed strings, …) is the caller's to
/// add.
pub fn hash_map_heap_bytes<K, V, S>(m: &HashMap<K, V, S>) -> u64 {
    (m.capacity() * (size_of::<K>() + size_of::<V>() + 1)) as u64
}

impl HeapBytes for Dictionary {
    /// Labels are stored twice (id→label vector, label→id index), so
    /// their string bytes are, too. The vector and the index count by
    /// capacity; the intern cache adds its fixed slots.
    fn heap_bytes(&self) -> u64 {
        let strings: u64 = self.iter().map(|(_, l)| 2 * l.len() as u64).sum();
        strings + self.table_bytes()
    }
}

impl HeapBytes for Attribute {
    fn heap_bytes(&self) -> u64 {
        self.name().len() as u64 + self.dictionary().heap_bytes()
    }
}

impl HeapBytes for Schema {
    fn heap_bytes(&self) -> u64 {
        (self.len() * size_of::<Attribute>()) as u64
            + self.iter().map(HeapBytes::heap_bytes).sum::<u64>()
    }
}

impl HeapBytes for Dataset {
    /// Columns dominate: one `u32` per cell of each column buffer's
    /// capacity, not per written cell (this module's rule 1).
    /// Generations of a dataset share their column buffers
    /// ([`Dataset::clone`]), so each one charges the whole shared
    /// capacity, and an append that fits in place leaves the figure
    /// unchanged. The schema (attribute names + dictionaries) is counted
    /// here as well — the dataset is its primary owner; labels sharing it
    /// via `Arc` must not count it again.
    fn heap_bytes(&self) -> u64 {
        let columns: u64 = (0..self.n_attrs())
            .map(|a| (self.column_capacity(a) * size_of::<u32>()) as u64)
            .sum();
        columns + self.n_attrs() as u64 + self.schema().heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    #[test]
    fn vec_and_map_helpers_track_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(vec_heap_bytes(&v), 16 * 8);
        assert_eq!(vec_heap_bytes(&Vec::<u8>::new()), 0);

        let mut m: HashMap<u64, u32> = HashMap::new();
        assert_eq!(hash_map_heap_bytes(&m), 0);
        m.insert(1, 2);
        assert!(hash_map_heap_bytes(&m) >= (8 + 4 + 1));
    }

    #[test]
    fn dictionary_counts_strings_twice() {
        let d = Dictionary::from_labels(["alpha", "be"]);
        let strings = 2 * ("alpha".len() + "be".len()) as u64;
        assert!(
            d.heap_bytes() >= strings + 64 * 16,
            "the intern cache counts"
        );
        assert_eq!(Dictionary::new().heap_bytes(), 0);
    }

    #[test]
    fn dictionary_counts_vector_and_index_by_capacity() {
        // 65 labels grow the id→label vector to 128 slots; the index is
        // rebuilt here the same way the dictionary grows its own.
        let labels: Vec<String> = (0..65).map(|i| format!("label-{i}")).collect();
        let d = Dictionary::from_labels(&labels);
        let mut vector: Vec<Box<str>> = Vec::new();
        let mut index: HashMap<Box<str>, u32> = HashMap::new();
        for (id, label) in labels.iter().enumerate() {
            vector.push(label.as_str().into());
            index.insert(label.as_str().into(), id as u32);
        }
        assert_eq!(vector.capacity(), 128);
        let strings: u64 = labels.iter().map(|l| 2 * l.len() as u64).sum();
        let cache = (64 * size_of::<(u64, u32)>()) as u64;
        assert_eq!(
            d.heap_bytes(),
            strings + vec_heap_bytes(&vector) + hash_map_heap_bytes(&index) + cache
        );
    }

    #[test]
    fn dataset_bytes_grow_with_rows() {
        let mut b = DatasetBuilder::new(["gender", "race"]);
        b.push_row(&["Female", "Hispanic"]).unwrap();
        let small = b.finish();
        let before = small.heap_bytes();
        assert!(before > 0);

        let mut big = small.clone();
        big.append_labeled_rows(&[
            vec![Some("Male"), Some("Caucasian")],
            vec![Some("Female"), Some("Caucasian")],
        ])
        .unwrap();
        assert!(
            big.heap_bytes() > before,
            "appending rows must grow the accounted footprint"
        );
    }
}
