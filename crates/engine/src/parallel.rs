//! Auto-sized parallel counting.
//!
//! [`GroupCounts::build`](pclabel_core::counting::GroupCounts::build) is
//! a deliberately dumb primitive: it counts on exactly the worker count
//! it is given. This module adds the serving-side policy — pick the
//! worker count from the dataset's row count and the machine's available
//! parallelism, one worker per
//! [`MIN_PARALLEL_ROWS_PER_THREAD`](pclabel_core::counting::MIN_PARALLEL_ROWS_PER_THREAD)
//! rows, so tables under 65,536 rows always count serially.
//!
//! The serial-vs-radix crossover follows the group count, which this rule
//! does not read, so a large table with few groups takes the slower radix
//! build. On 2 hardware threads (release build, medians of 41 interleaved
//! repetitions, two runs; serial against the 2-worker radix build):
//!
//! * few groups, the radix build lost every time: BlueNile's `{shape,
//!   color, clarity}` (560 groups) 5.2 / 4.9 ms against 6.8 / 7.6 ms at
//!   200k rows and 24.6 / 26.5 ms against 31.9 / 31.3 ms at 1M; COMPAS on
//!   a 72-group subset 2.2 / 2.1 ms against 3.1 / 2.9 ms;
//! * many groups, it won or tied: COMPAS on all 17 attributes (32,244
//!   groups) 16.9 / 17.4 against 12.6 / 11.9 ms, Credit-Card on all 24
//!   (21,561 groups) 8.8 / 9.0 against 8.1 / 8.1 ms, BlueNile on all 7
//!   at 200k rows (23k–50k groups) 13.3 / 12.4 against 12.4 / 10.2 ms
//!   (mixed at 116,300 and 1M rows).

/// Worker count for an `n_rows`-row scan: one worker per
/// `MIN_PARALLEL_ROWS_PER_THREAD` rows, capped at the machine's available
/// parallelism, never less than 1.
pub fn auto_threads(n_rows: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    hw.min(n_rows / pclabel_core::counting::MIN_PARALLEL_ROWS_PER_THREAD)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclabel_core::counting::MIN_PARALLEL_ROWS_PER_THREAD;

    #[test]
    fn auto_threads_scales_with_rows() {
        assert_eq!(auto_threads(0), 1);
        assert_eq!(auto_threads(100), 1);
        assert_eq!(auto_threads(MIN_PARALLEL_ROWS_PER_THREAD - 1), 1);
        let big = auto_threads(MIN_PARALLEL_ROWS_PER_THREAD * 1024);
        assert!(big >= 1);
        assert!(big <= std::thread::available_parallelism().map_or(1, |p| p.get()));
    }
}
