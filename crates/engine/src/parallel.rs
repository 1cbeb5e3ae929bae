//! The retired counting thread policy.
//!
//! Every group-by is one serial scan (see `pclabel_core::counting`), so
//! nothing in the workspace sizes counting threads. [`auto_threads`]
//! stays until ROADMAP item 1 ports the benchmark, which still calls it.

/// Worker count for an `n_rows`-row scan: one worker per 32,768 rows,
/// capped at the machine's available parallelism, never less than 1.
/// Kept until ROADMAP item 1 ports the benchmark, which still calls it.
pub fn auto_threads(n_rows: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    hw.min(n_rows / 32_768).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_threads_scales_with_rows() {
        assert_eq!(auto_threads(0), 1);
        assert_eq!(auto_threads(100), 1);
        assert_eq!(auto_threads(32_767), 1);
        assert_eq!(auto_threads(65_535), 1);
        let big = auto_threads(32_768 * 1024);
        assert!(big >= 1);
        assert!(big <= std::thread::available_parallelism().map_or(1, |p| p.get()));
    }
}
