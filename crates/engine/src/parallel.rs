//! Auto-sized parallel counting.
//!
//! [`GroupCounts::build_parallel`](pclabel_core::counting::GroupCounts::build_parallel)
//! is a deliberately dumb primitive: it chunks rows across exactly the
//! worker count it is given. This module adds the serving-side policy —
//! pick the worker count from the dataset's row count and the machine's
//! available parallelism, so small tables never pay thread-spawn overhead
//! and large tables scale to the hardware.

/// Below this many rows per worker, chunking costs more than it saves
/// (shared with the core search evaluator's auto-capping).
pub const MIN_ROWS_PER_THREAD: usize = pclabel_core::counting::MIN_PARALLEL_ROWS_PER_THREAD;

/// Worker count for an `n_rows`-row scan: one worker per
/// [`MIN_ROWS_PER_THREAD`] rows, capped at the machine's available
/// parallelism, never less than 1.
pub fn auto_threads(n_rows: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    hw.min(n_rows / MIN_ROWS_PER_THREAD).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_threads_scales_with_rows() {
        assert_eq!(auto_threads(0), 1);
        assert_eq!(auto_threads(100), 1);
        assert_eq!(auto_threads(MIN_ROWS_PER_THREAD - 1), 1);
        let big = auto_threads(MIN_ROWS_PER_THREAD * 1024);
        assert!(big >= 1);
        assert!(big <= std::thread::available_parallelism().map_or(1, |p| p.get()));
    }
}
