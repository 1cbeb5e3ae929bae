//! The one refinement pass behind every grouping of rows.
//!
//! [`refine`] takes a row→group-id vector and one column and numbers the
//! distinct `(group id, value)` pairs in the order rows first show them,
//! missing being a value of its own: rows share a new group iff they
//! shared one and agree on the column. Folding it over columns
//! ([`group_by_columns`]) groups rows by all of them.
//! [`Dataset::compress`](crate::dataset::Dataset::compress) finds the
//! distinct rows this way, and `pclabel-core`'s label search builds its
//! partitions, their coarsenings and its lattice-node sizes on the same
//! pass. Pairs are numbered through a flat table when [`dense_slots`]
//! allows, else through a `u64`-keyed Fx hash map, never by hashing rows.

use crate::dataset::MISSING;
use crate::hash::FxHashMap;

/// Above this many slots the flat remap of a pass would cost more to
/// allocate and clear than the hashing it avoids; measured against
/// `4 × rows` (see [`dense_slots`]).
const DENSE_REMAP_FLOOR: usize = 1 << 16;

/// Slots of the flat `(group id, code)` table a pass refining `groups`
/// groups over `rows` rows by a column of cardinality `card` uses, or
/// `None` when the pair space `groups × (card + 1)` exceeds
/// `max(4 × rows, 2¹⁶)` and the pass hashes the pairs instead. The budget
/// depends on the rows alone, never on a caller's label bound, so no
/// request can make a pass allocate more slots than that.
pub fn dense_slots(groups: usize, card: u32, rows: usize) -> Option<usize> {
    let slots = groups.saturating_mul(card as usize + 1);
    (slots <= (4 * rows).max(DENSE_REMAP_FLOOR)).then_some(slots)
}

/// Remap tables reused across [`refine`] passes.
#[derive(Debug, Default)]
pub struct RefineScratch {
    /// Flat remap; every slot is `u32::MAX` between passes.
    dense: Vec<u32>,
    /// The flat slots the current pass claimed, reset when it ends.
    claimed: Vec<usize>,
    hashed: FxHashMap<u64, u32>,
}

/// Refines the grouping `ids` (values below `groups`) by `col`, one value
/// per row, writing each row's new group id to `out`. Every value other
/// than [`MISSING`] must be below `card`; missing is coded as `card`.
///
/// The new ids number the distinct `(ids[row], code)` pairs in the order
/// of their first row. Each time a pair is first seen, `record(id, row)`
/// is told its id and that row, and the pass stops when it returns
/// `false`: it then returns `None`, and `out` is partly written.
/// Otherwise it returns the number of new groups.
pub fn refine(
    ids: &[u32],
    groups: usize,
    col: &[u32],
    card: u32,
    out: &mut Vec<u32>,
    scratch: &mut RefineScratch,
    record: impl FnMut(u32, usize) -> bool,
) -> Option<usize> {
    match dense_slots(groups, card, ids.len()) {
        Some(slots) => {
            if scratch.dense.len() < slots {
                scratch.dense.resize(slots, u32::MAX);
            }
            let (dense, claimed) = (&mut scratch.dense, &mut scratch.claimed);
            let groups = pass(ids, col, card, out, record, |pair, next| {
                let slot = &mut dense[pair as usize];
                if *slot == u32::MAX {
                    *slot = next;
                    claimed.push(pair as usize);
                }
                *slot
            });
            for slot in claimed.drain(..) {
                dense[slot] = u32::MAX;
            }
            groups
        }
        None => {
            let hashed = &mut scratch.hashed;
            hashed.clear();
            // A full pass finds at least one pair per group.
            hashed.reserve(groups);
            pass(ids, col, card, out, record, |pair, next| {
                *hashed.entry(pair).or_insert(next)
            })
        }
    }
}

/// The loop behind [`refine`]: `claim(pair, next)` returns the id the
/// remap holds for `pair`, after storing `next` there if it held none.
fn pass(
    ids: &[u32],
    col: &[u32],
    card: u32,
    out: &mut Vec<u32>,
    mut record: impl FnMut(u32, usize) -> bool,
    mut claim: impl FnMut(u64, u32) -> u32,
) -> Option<usize> {
    debug_assert_eq!(col.len(), ids.len());
    let stride = u64::from(card) + 1;
    out.resize(ids.len(), 0);
    let mut next = 0u32;
    for (row, ((o, &g), &v)) in out.iter_mut().zip(ids).zip(col).enumerate() {
        let code = if v == MISSING { card } else { v };
        debug_assert!(
            code <= card,
            "value {v} is not below the cardinality {card}"
        );
        let id = claim(u64::from(g) * stride + u64::from(code), next);
        if id == next {
            next += 1;
            if !record(id, row) {
                return None;
            }
        }
        *o = id;
    }
    Some(next as usize)
}

/// Groups `rows` rows by every column `cols` yields, each with its
/// cardinality, by folding [`refine`] over them: rows share a group iff
/// they agree on every column. Returns each row's group id, numbered in
/// first-occurrence order, and the first row of each group.
pub fn group_by_columns<C: AsRef<[u32]>>(
    rows: usize,
    cols: impl IntoIterator<Item = (C, u32)>,
) -> (Vec<u32>, Vec<usize>) {
    let mut ids = vec![0; rows];
    let mut groups = rows.min(1);
    let mut firsts: Vec<usize> = (0..groups).collect();
    let mut next = Vec::new();
    let mut scratch = RefineScratch::default();
    for (col, card) in cols {
        firsts.clear();
        let record = |_, row| {
            firsts.push(row);
            true
        };
        groups = refine(
            &ids,
            groups,
            col.as_ref(),
            card,
            &mut next,
            &mut scratch,
            record,
        )
        .expect("the recorder never stops the pass");
        std::mem::swap(&mut ids, &mut next);
    }
    (ids, firsts)
}

/// The sum of `weights`, one per row, over each of `groups` groups; rows
/// past the end of `weights` weigh nothing.
pub fn group_weights(
    ids: &[u32],
    weights: impl IntoIterator<Item = u64>,
    groups: usize,
) -> Vec<u64> {
    let mut sums = vec![0; groups];
    for (&g, w) in ids.iter().zip(weights) {
        sums[g as usize] += w;
    }
    sums
}
