//! Host-speed calibration.
//!
//! On a shared host the speed of the same code drifts by tens of
//! percent within seconds and over minutes, with few steal ticks and
//! with thread CPU time tracking wall time: neighbours contend for the
//! shared last-level cache and memory, and neither steal accounting nor
//! CPU time removes it. Such a drift moves every host time of a run
//! alike. Each repetition therefore times a fixed job — code of the
//! benchmark's own, independent of the code under test — right before
//! and right after its measured work, and the benchmark reports host
//! times in *reference time*:
//!
//! ```text
//! reported = measured × REFERENCE_MS ÷ (mean of the two job times)
//! ```
//!
//! A change to the code under test moves the reported times; a change
//! in host speed moves the job's time too and cancels. The job is random
//! read-modify-writes over a 4 MiB table: past a core's L2, inside the
//! shared L3, where the frame path's working sets sit and where the
//! contention is. Of the jobs tried on a 2-core Xeon VM — an L2-resident
//! table with a floating-point chain, allocation churn, tables of 1 to
//! 16 MiB, one thread or one per core — it tracked the workloads'
//! slowdowns best: the spread of 8-second medians of a LiDAR stream fell
//! from 0.28 to 0.07 of their median, and of the cycle oracle on two
//! threads from 0.22 to 0.05. The raw times and every job time are in
//! the run's diagnostics.

use std::hint::black_box;
use std::time::Instant;

/// The job's time (ms) on the host the bounds were set on, at its usual
/// speed: reported times are what that host would have measured.
pub const REFERENCE_MS: f64 = 17.5;

/// Rounds of the job's loop.
const ROUNDS: u64 = 3_000_000;

/// Words in the job's table: 4 MiB.
const WORDS: usize = 1 << 19;

/// The fixed job: an xorshift chain picking table words to rewrite.
fn job() -> u64 {
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for i in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (WORDS - 1);
        table[slot] = table[slot].rotate_left(9) ^ x.wrapping_add(i);
    }
    black_box(x ^ table[black_box(7)])
}

/// Times the job once (ms).
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    job();
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_is_deterministic() {
        assert_eq!(job(), job());
    }
}
