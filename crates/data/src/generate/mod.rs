//! Synthetic dataset generation.
//!
//! The paper evaluates on three real datasets (BlueNile, COMPAS, Credit
//! Card) that cannot be redistributed; this module synthesizes datasets
//! with the same published row counts, attribute counts, domains, marginals
//! and correlation structure. The module docs of `bluenile.rs`,
//! `compas.rs` and `creditcard.rs` say what each generator copies from the
//! paper and what it substitutes. It also provides the exact Figure 2
//! sample and parametric generators used by tests and benchmarks.

mod alias;
mod augment;
mod bluenile;
mod compas;
mod creditcard;
mod figure2;
mod synthetic;

pub use alias::{zipf_weights, AliasTable};
pub use augment::{append_random_tuples, scale_dataset};
pub use bluenile::{bluenile, BlueNileConfig};
pub use compas::{compas, compas_simplified, CompasConfig};
pub use creditcard::{creditcard, CreditCardConfig};
pub use figure2::{figure2_sample, FIGURE2_ATTRS};
pub use synthetic::{
    binary_cube, binary_cube_correlated, correlated_pair, functional_chain, independent,
    zipf_correlated, AttrSpec,
};
