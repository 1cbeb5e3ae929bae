//! Seeded inputs: the paper-shaped datasets, their CSV uploads, pattern
//! pools with recounted true counts, and append batches.
//!
//! The datasets themselves come from `pclabel_data::generate` with the
//! generators' fixed seeds at the paper's published sizes, so every seed
//! measures the same label searches; `--seed` drives everything the
//! client sends on top of them (probe and query patterns, their order,
//! and the appended rows).

use std::collections::{HashMap, HashSet};

use pclabel_core::attrset::AttrSet;
use pclabel_core::label::Label;
use pclabel_core::pattern::Pattern;
use pclabel_data::csv::{read_dataset_from_str, write_csv, CsvOptions, CsvWriteOptions};
use pclabel_data::dataset::{Dataset, MISSING};
use pclabel_data::generate::{
    bluenile, compas, creditcard, BlueNileConfig, CompasConfig, CreditCardConfig,
};

/// splitmix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator for one named stream of this seed, so adding a stream
    /// never shifts the draws of another.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n.max(1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `0..n`, sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One of the paper's three datasets, generated and serialized once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperDataset {
    BlueNile,
    Compas,
    CreditCard,
}

impl PaperDataset {
    pub const ALL: [PaperDataset; 3] = [
        PaperDataset::BlueNile,
        PaperDataset::Compas,
        PaperDataset::CreditCard,
    ];

    pub fn short(self) -> &'static str {
        match self {
            PaperDataset::BlueNile => "bluenile",
            PaperDataset::Compas => "compas",
            PaperDataset::CreditCard => "creditcard",
        }
    }

    /// Generates the dataset at `n_rows` (the published size when
    /// `None`) with the generator's own fixed seed.
    pub fn generate(self, n_rows: Option<usize>) -> Dataset {
        let dataset = match self {
            PaperDataset::BlueNile => {
                let mut cfg = BlueNileConfig::default();
                cfg.n_rows = n_rows.unwrap_or(cfg.n_rows);
                bluenile(&cfg)
            }
            PaperDataset::Compas => {
                let mut cfg = CompasConfig::default();
                cfg.n_rows = n_rows.unwrap_or(cfg.n_rows);
                compas(&cfg)
            }
            PaperDataset::CreditCard => {
                let mut cfg = CreditCardConfig::default();
                cfg.n_rows = n_rows.unwrap_or(cfg.n_rows);
                creditcard(&cfg)
            }
        };
        dataset.expect("paper-shaped generator")
    }

    /// Rows from the same generator under another seed, for appends.
    pub fn generate_seeded(self, n_rows: usize, seed: u64) -> Dataset {
        let dataset = match self {
            PaperDataset::BlueNile => bluenile(&BlueNileConfig { n_rows, seed }),
            PaperDataset::Compas => compas(&CompasConfig { n_rows, seed }),
            PaperDataset::CreditCard => creditcard(&CreditCardConfig { n_rows, seed }),
        };
        dataset.expect("paper-shaped generator")
    }
}

/// A dataset as uploaded: the CSV text the server parses, and the
/// bench's own copy parsed from the same text (so value ids and
/// dictionaries match the server's exactly).
pub struct Upload {
    pub csv: String,
    pub rows: Dataset,
}

impl Upload {
    pub fn new(dataset: &Dataset) -> Upload {
        let csv = write_csv(dataset, &CsvWriteOptions::default());
        let rows = read_dataset_from_str(&csv, &CsvOptions::default()).expect("CSV round trip");
        Upload { csv, rows }
    }

    pub fn attr_names(&self) -> Vec<String> {
        self.rows
            .schema()
            .iter()
            .map(|a| a.name().to_string())
            .collect()
    }

    pub fn attrs_of(&self, names: &[&str]) -> AttrSet {
        AttrSet::from_indices(names.iter().map(|n| {
            self.rows
                .schema()
                .index_of(n)
                .unwrap_or_else(|| panic!("no attribute {n:?}"))
        }))
    }
}

/// One query pattern: attribute/value ids against the bench's copy of
/// the dataset, and its wire form.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Index into the pool's attribute-set family.
    pub family: usize,
    pub values: Vec<u32>,
    pub json: String,
}

/// Attribute subsets the pool's patterns project onto.
#[derive(Debug, Clone)]
pub struct Family {
    pub sets: Vec<Vec<usize>>,
}

impl Family {
    /// `count` distinct subsets of 2..=4 attributes; `within` of them are
    /// drawn inside `s` (answered exactly from `PC`) when `s` has at
    /// least two attributes, the rest anywhere.
    pub fn new(rng: &mut Rng, n_attrs: usize, s: AttrSet, count: usize, within: usize) -> Family {
        let mut seen = HashSet::new();
        let mut sets = Vec::with_capacity(count);
        let inside: Vec<usize> = s.to_vec();
        let mut attempts = 0;
        while sets.len() < count && attempts < count * 1000 {
            attempts += 1;
            let from: Vec<usize> = if sets.len() < within && inside.len() >= 2 {
                inside.clone()
            } else {
                (0..n_attrs).collect()
            };
            let k = (2 + rng.below(3)).min(from.len());
            let mut pick = from.clone();
            for i in 0..k {
                let j = i + rng.below(pick.len() - i);
                pick.swap(i, j);
            }
            let mut set: Vec<usize> = pick[..k].to_vec();
            set.sort_unstable();
            if seen.insert(set.clone()) {
                sets.push(set);
            }
        }
        Family { sets }
    }
}

/// Recounted true counts of every projection onto the tracked subsets
/// of a family (the caller tracks every subset inside `S`, so exact
/// answers can always be checked against a recount).
#[derive(Debug, Clone)]
pub struct Truth {
    counts: Vec<Option<HashMap<Vec<u32>, u64>>>,
}

impl Truth {
    pub fn recount(
        rows: &Dataset,
        family: &Family,
        track: impl Fn(usize, &[usize]) -> bool,
    ) -> Truth {
        let mut truth = Truth {
            counts: family
                .sets
                .iter()
                .enumerate()
                .map(|(f, set)| track(f, set).then(HashMap::new))
                .collect(),
        };
        truth.add_rows(rows, family, 0..rows.n_rows());
        truth
    }

    pub fn add_rows(&mut self, rows: &Dataset, family: &Family, range: std::ops::Range<usize>) {
        for (set, counts) in family.sets.iter().zip(&mut self.counts) {
            let Some(counts) = counts else { continue };
            let mut key = Vec::with_capacity(set.len());
            for r in range.clone() {
                key.clear();
                key.extend(set.iter().map(|&a| rows.value_raw(r, a)));
                if let Some(c) = counts.get_mut(&key) {
                    *c += 1;
                } else {
                    counts.insert(key.clone(), 1);
                }
            }
        }
    }

    /// The recounted count, when the probe's subset is tracked.
    pub fn count(&self, probe: &Probe) -> Option<u64> {
        let counts = self.counts.get(probe.family)?.as_ref()?;
        Some(counts.get(&probe.values).copied().unwrap_or(0))
    }
}

/// Draws `count` distinct patterns by projecting seeded rows onto the
/// family's subsets. Rows with a missing value on the subset are skipped.
pub fn draw_pool(rng: &mut Rng, upload: &Upload, family: &Family, count: usize) -> Vec<Probe> {
    let rows = &upload.rows;
    let names = upload.attr_names();
    // Dedupe on (subset, values packed 16 bits each): subsets have at
    // most four attributes and every generated domain is far below 2^16.
    let mut seen: HashSet<(usize, u64)> = HashSet::with_capacity(count);
    let mut pool = Vec::with_capacity(count);
    let mut attempts = 0;
    while pool.len() < count && attempts < count * 50 {
        attempts += 1;
        let f = rng.below(family.sets.len());
        let r = rng.below(rows.n_rows());
        let set = &family.sets[f];
        let mut packed = 0u64;
        let mut missing = false;
        for (i, &a) in set.iter().enumerate() {
            let v = rows.value_raw(r, a);
            missing |= v == MISSING || v >= 1 << 16;
            packed |= (v as u64 & 0xffff) << (16 * i);
        }
        if missing || !seen.insert((f, packed)) {
            continue;
        }
        let values: Vec<u32> = set.iter().map(|&a| rows.value_raw(r, a)).collect();
        let mut json = String::from("{");
        for (i, (&a, &v)) in set.iter().zip(&values).enumerate() {
            if i > 0 {
                json.push(',');
            }
            push_json_str(&mut json, &names[a]);
            json.push(':');
            push_json_str(&mut json, rows.label_of(a, v));
        }
        json.push('}');
        pool.push(Probe {
            family: f,
            values,
            json,
        });
    }
    pool
}

/// The answer the server must give for a probe against `label`: an
/// exact recount when the pattern lies inside `S`, else the estimate of
/// the bench's own twin label. Returns `(value, exact)`.
pub fn expected_answer(
    label: &Label,
    family: &Family,
    probe: &Probe,
    truth: &Truth,
) -> (f64, bool) {
    let pattern = to_pattern(family, probe);
    if pattern.attrs().is_subset_of(label.attrs()) {
        let count = truth.count(probe).expect("subsets inside S are tracked");
        (count as f64, true)
    } else {
        (label.estimate(&pattern), false)
    }
}

pub fn to_pattern(family: &Family, probe: &Probe) -> Pattern {
    Pattern::from_terms(
        family.sets[probe.family]
            .iter()
            .copied()
            .zip(probe.values.iter().copied()),
    )
}

/// A `query` request line over the given probes.
pub fn query_line(dataset: &str, probes: impl Iterator<Item = impl AsRef<str>>) -> String {
    let mut line = format!("{{\"op\":\"query\",\"dataset\":\"{dataset}\",\"patterns\":[");
    for (i, p) in probes.enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(p.as_ref());
    }
    line.push_str("]}");
    line
}

/// Rows from `source` whose every value already exists in `base`'s
/// dictionaries, as string cells — appending them never grows a
/// dictionary, so every append stays incremental.
pub fn known_rows(base: &Dataset, source: &Dataset) -> Vec<Vec<String>> {
    let schema = base.schema();
    let mut out = Vec::with_capacity(source.n_rows());
    'rows: for r in 0..source.n_rows() {
        let mut row = Vec::with_capacity(source.n_attrs());
        for a in 0..source.n_attrs() {
            let id = source.value_raw(r, a);
            if id == MISSING {
                continue 'rows;
            }
            let label = source.label_of(a, id);
            if schema
                .attr(a)
                .and_then(|x| x.dictionary().lookup(label))
                .is_none()
            {
                continue 'rows;
            }
            row.push(label.to_string());
        }
        out.push(row);
    }
    out
}

/// An `append_rows` request line.
pub fn append_line(dataset: &str, rows: &[Vec<String>]) -> String {
    let mut line = format!("{{\"op\":\"append_rows\",\"dataset\":\"{dataset}\",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('[');
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            push_json_str(&mut line, cell);
        }
        line.push(']');
    }
    line.push_str("]}");
    line
}

/// A `register` request line carrying a CSV upload.
pub fn register_line(dataset: &str, csv: &str, policy: &str) -> String {
    let mut line = format!("{{\"op\":\"register\",\"dataset\":\"{dataset}\",{policy},\"csv\":");
    push_json_str(&mut line, csv);
    line.push('}');
    line
}

pub fn label_attrs_policy(names: &[&str]) -> String {
    let mut policy = String::from("\"label_attrs\":[");
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            policy.push(',');
        }
        push_json_str(&mut policy, n);
    }
    policy.push(']');
    policy
}

pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_independent() {
        let a: Vec<u64> = (0..4)
            .map(|_| Rng::stream(7, "probes").next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut p = Rng::stream(7, "probes");
        let mut q = Rng::stream(7, "queries");
        assert_ne!(p.next_u64(), q.next_u64());
        let mut r = Rng::stream(8, "probes");
        assert_ne!(Rng::stream(7, "probes").next_u64(), r.next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&d| d < 10).count();
        let tail = draws.iter().filter(|&&d| d >= 990).count();
        assert!(head > 20 * tail.max(1));
        assert!(draws.iter().all(|&d| d < 1000));
    }

    #[test]
    fn pool_is_deterministic_and_truth_matches_recount() {
        let upload = Upload::new(&PaperDataset::Compas.generate(Some(2_000)));
        let n = upload.rows.n_attrs();
        let make = || {
            let mut rng = Rng::stream(42, "pool");
            let family = Family::new(&mut rng, n, AttrSet::EMPTY, 6, 0);
            let pool = draw_pool(&mut rng, &upload, &family, 200);
            (family, pool)
        };
        let (family, pool) = make();
        let (_, again) = make();
        assert_eq!(pool.len(), again.len());
        assert!(pool.iter().zip(&again).all(|(a, b)| a.json == b.json));
        let truth = Truth::recount(&upload.rows, &family, |f, _| f < 4);
        for probe in pool.iter().take(50) {
            let pattern = to_pattern(&family, probe);
            match truth.count(probe) {
                Some(c) => {
                    assert_eq!(c, pattern.count_in(&upload.rows));
                    assert!(c >= 1);
                }
                None => assert!(probe.family >= 4),
            }
        }
    }

    #[test]
    fn known_rows_never_grow_a_dictionary() {
        let base = Upload::new(&PaperDataset::BlueNile.generate(Some(3_000)));
        let other = PaperDataset::BlueNile.generate_seeded(500, 99);
        let rows = known_rows(&base.rows, &other);
        assert!(!rows.is_empty());
        let mut grown = base.rows.clone();
        let cells: Vec<Vec<Option<&str>>> = rows
            .iter()
            .map(|r| r.iter().map(|c| Some(c.as_str())).collect())
            .collect();
        assert!(!grown.append_labeled_rows(&cells).unwrap());
    }
}
