//! Dataset registry for the experiment harness.
//!
//! The three evaluation datasets are generated once per process and
//! cached. `PCLABEL_SCALE` (a float in `(0, 1]`) shrinks all row counts
//! proportionally for quick runs.

use std::sync::OnceLock;

use pclabel_data::dataset::Dataset;
use pclabel_data::generate::{
    bluenile, compas, creditcard, BlueNileConfig, CompasConfig, CreditCardConfig,
};

/// Row-count scale factor from `PCLABEL_SCALE` (default 1.0).
pub fn scale() -> f64 {
    static SCALE: OnceLock<f64> = OnceLock::new();
    *SCALE.get_or_init(|| {
        std::env::var("PCLABEL_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0 && *s <= 1.0)
            .unwrap_or(1.0)
    })
}

fn scaled(rows: usize) -> usize {
    ((rows as f64 * scale()).round() as usize).max(1000)
}

/// The BlueNile-like catalog (116,300 rows × 7 attributes at scale 1).
pub fn bluenile_full() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| {
        bluenile(&BlueNileConfig {
            n_rows: scaled(116_300),
            ..Default::default()
        })
        .expect("generator cannot fail with valid config")
    })
}

/// The COMPAS-like dataset (60,843 rows × 17 attributes at scale 1).
pub fn compas_full() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| {
        compas(&CompasConfig {
            n_rows: scaled(60_843),
            ..Default::default()
        })
        .expect("generator cannot fail with valid config")
    })
}

/// The Credit-Card-like dataset (30,000 rows × 24 attributes at scale 1).
pub fn creditcard_full() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| {
        creditcard(&CreditCardConfig {
            n_rows: scaled(30_000),
            ..Default::default()
        })
        .expect("generator cannot fail with valid config")
    })
}

/// All three evaluation datasets, in the paper's presentation order.
pub fn all_datasets() -> Vec<&'static Dataset> {
    vec![bluenile_full(), compas_full(), creditcard_full()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_caches_and_scales() {
        let a = compas_full() as *const Dataset;
        let b = compas_full() as *const Dataset;
        assert_eq!(a, b, "OnceLock returns the same instance");
        assert!(compas_full().n_rows() >= 1000);
        assert_eq!(compas_full().n_attrs(), 17);
        assert_eq!(creditcard_full().n_attrs(), 24);
        assert_eq!(bluenile_full().n_attrs(), 7);
    }
}
