//! The schedule certifier: exact discrete occupancy bounds per edge.
//!
//! The execution engines advance every edge with the same integer
//! allowance discipline (`RateAcc` in `streamgrid-sim`): after `k`
//! active cycles at rate `num/den`, a stage has been allowed exactly
//! `⌊k·num/den⌋` elements. The certifier evaluates those allowance
//! curves — not their fluid approximations — over the multi-chunk issue
//! lattice `start + c·II` and derives, for each edge, an upper bound on
//! the occupancy the shared stepper can ever reach:
//!
//! * `Ŵ(t)` — cumulative write allowance through cycle `t`, summed over
//!   every chunk (clamped to the chunk volume `V`);
//! * `R̂(t)` — cumulative read allowance through cycle `t`, likewise;
//! * `δ(t) = max_{t' ≤ t} (R̂(t') − Ŵ(t'−1))⁺` — the worst transient by
//!   which the read allowance can outrun the data available to it
//!   (reads at cycle `t` see writes through `t − 1`: the stepper visits
//!   consumers before producers).
//!
//! The certified peak is `max_t [Ŵ(t) − R̂(t) + δ(t)]`. Reads are
//! rate-limited but work-conserving — a starved cycle's allowance is
//! lost, yet the chunk keeps draining at `τ_in` until its volume is
//! read — so cumulative reads never fall more than `δ(t)` behind the
//! allowance curve, and writes never exceed theirs (the causality cap
//! rounds up, never binding below the write track). Global-consumer
//! edges retain `window_chunks · V` by construction, mirroring the ILP
//! sizing constraint exactly.
//!
//! Everything is `i128` integer arithmetic — no floats, no tolerance.
//! Periodicity caps the enumeration: chunks more than one edge-span
//! apart never overlap, so `K = min(n_chunks, span/II + 2)` chunks and
//! one saturated window of cycles cover every relative phase the full
//! stream can exhibit.

use serde::Serialize;
use streamgrid_dataflow::Rate;

/// Per-edge constants the certifier needs — a rational-rate slice of
/// the optimizer's `EdgeInfo`, kept dependency-free so the certifier
/// sits below the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct CertEdge {
    /// Producer stage index (into the start-cycle vector).
    pub producer: usize,
    /// Consumer stage index.
    pub consumer: usize,
    /// Exact producer write rate (elements/cycle).
    pub tau_out: Rate,
    /// Exact consumer read rate (elements/cycle).
    pub tau_in: Rate,
    /// Elements the producer writes per chunk.
    pub volume: u64,
    /// Producer pipeline depth (write-start offset).
    pub depth: u64,
    /// `true` when the consumer is a global op (retains whole chunks).
    pub global_consumer: bool,
    /// Chunk-window retention for global consumers.
    pub window_chunks: u32,
}

/// One edge's verdict inside a [`Certificate`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdgeCert {
    /// Edge index (matches `Schedule::buffer_sizes`).
    pub edge: usize,
    /// Producer stage index.
    pub producer: usize,
    /// Consumer stage index.
    pub consumer: usize,
    /// Worst-case discrete occupancy in elements.
    pub certified_peak: u64,
    /// The provisioned line-buffer bound in elements.
    pub bound: u64,
    /// Worst transient by which the read allowance outran available
    /// data (`δ` — the discretization term the fluid model misses).
    pub starve_slack: u64,
    /// Cycle (relative to the schedule origin) where the peak occurs.
    pub witness_cycle: i64,
    /// Chunks the periodic analysis had to superpose.
    pub chunks_analyzed: u64,
    /// `certified_peak <= bound`.
    pub accepted: bool,
}

/// A machine-checkable occupancy certificate: one [`EdgeCert`] per
/// edge, accepted iff every edge's worst-case discrete occupancy fits
/// its provisioned bound. Because both execution engines share one
/// stepper, one certificate covers cycle-accurate and event-driven
/// execution alike.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Certificate {
    /// Initiation interval of the chunk lattice (cycles).
    pub period: u64,
    /// Chunks the stream issues.
    pub n_chunks: u64,
    /// Per-edge verdicts, in edge order.
    pub edges: Vec<EdgeCert>,
}

impl Certificate {
    /// `true` when every edge's peak fits its bound.
    pub fn accepted(&self) -> bool {
        self.edges.iter().all(|e| e.accepted)
    }

    /// The first rejected edge, if any.
    pub fn first_violation(&self) -> Option<&EdgeCert> {
        self.edges.iter().find(|e| !e.accepted)
    }

    /// Human-readable rendering (stable: pinned by snapshot tests).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.accepted() {
            "ACCEPTED"
        } else {
            "REJECTED"
        };
        let _ = writeln!(
            out,
            "certificate {verdict}: {} edges, {} chunks, II={}",
            self.edges.len(),
            self.n_chunks,
            self.period
        );
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  edge {} ({} -> {}): peak {} {} bound {} (slack {}, delta {}, witness cycle {}, {} chunks)",
                e.edge,
                e.producer,
                e.consumer,
                e.certified_peak,
                if e.accepted { "<=" } else { ">" },
                e.bound,
                e.bound as i128 - e.certified_peak as i128,
                e.starve_slack,
                e.witness_cycle,
                e.chunks_analyzed,
            );
        }
        out
    }
}

/// Certifies `bounds` against the worst-case discrete occupancy of
/// every edge over the chunk lattice `start_cycles[stage] + c·period`
/// for `c` in `0..n_chunks`.
///
/// `start_cycles` is indexed by stage, `bounds` by edge (parallel to
/// `edges`). `period` is the multi-chunk initiation interval (ignored
/// when `n_chunks == 1`).
///
/// # Panics
///
/// Panics if `bounds.len() != edges.len()` or a stage index is out of
/// range of `start_cycles`.
pub fn certify(
    edges: &[CertEdge],
    start_cycles: &[u64],
    bounds: &[u64],
    period: u64,
    n_chunks: u64,
) -> Certificate {
    assert_eq!(
        edges.len(),
        bounds.len(),
        "one buffer bound per edge is required"
    );
    let ii = period.max(1) as i128;
    let edge_certs = edges
        .iter()
        .zip(bounds)
        .enumerate()
        .map(|(i, (e, &bound))| {
            let (peak, delta, witness, k) = if e.global_consumer {
                // Global consumers retain `window_chunks` whole chunk
                // volumes by construction — the formulation sizes the
                // buffer to exactly that, so the peak is exact and the
                // lattice is irrelevant.
                (
                    (e.volume as i128) * (e.window_chunks as i128),
                    0,
                    start_cycles[e.consumer] as i64,
                    n_chunks.min(e.window_chunks as u64).max(1),
                )
            } else {
                edge_peak(e, start_cycles, ii, n_chunks)
            };
            let certified_peak = peak.max(0) as u64;
            EdgeCert {
                edge: i,
                producer: e.producer,
                consumer: e.consumer,
                certified_peak,
                bound,
                starve_slack: delta as u64,
                witness_cycle: witness,
                chunks_analyzed: k,
                accepted: certified_peak <= bound,
            }
        })
        .collect();
    Certificate {
        period,
        n_chunks,
        edges: edge_certs,
    }
}

/// Worst-case discrete occupancy of one local edge over the lattice:
/// `(peak, starve_slack, witness_cycle, chunks_analyzed)`.
///
/// Enumerates every integer cycle of one saturated window with `K`
/// superposed chunks. Chunks further apart than the edge's span never
/// overlap, and the lattice repeats with period `II`, so the window
/// realizes every relative phase the full `n_chunks`-stream can: a
/// contiguous run of active chunks in the stream maps phase-for-phase
/// onto the first `K` chunks here (earlier chunks are fully drained and
/// contribute zero, later ones have not started).
fn edge_peak(
    e: &CertEdge,
    start_cycles: &[u64],
    ii: i128,
    n_chunks: u64,
) -> (i128, i128, i64, u64) {
    let w0 = (start_cycles[e.producer] + e.depth) as i128;
    let r0 = start_cycles[e.consumer] as i128;
    let wd = e.tau_out.cycles_for(e.volume) as i128;
    let rd = e.tau_in.cycles_for(e.volume) as i128;
    let span = (w0 + wd).max(r0 + rd) - w0.min(r0);
    let k = (n_chunks as i128).min(span / ii + 2).max(1);
    let t_min = w0.min(r0) - 1;
    let t_max = (w0 + wd).max(r0 + rd) + (k - 1) * ii;

    // Both track sets sit at cycle t_min − 1, before any chunk starts,
    // so the writes through it are zero.
    let mut writes = Tracks::new(t_min - 1, w0, ii, k, e.tau_out, e.volume);
    let mut reads = Tracks::new(t_min - 1, r0, ii, k, e.tau_in, e.volume);
    let mut prev_w = 0i128;
    let mut delta = 0i128;
    let mut peak = 0i128;
    let mut peak_delta = 0i128;
    let mut witness = t_min;
    for t in t_min..=t_max {
        let w = writes.step();
        let r = reads.step();
        // Reads at cycle t see writes through t−1; any allowance beyond
        // that is a transient the discrete stepper can carry forward as
        // extra occupancy once the producer catches up.
        delta = delta.max(r - prev_w);
        let occ = w - r + delta;
        if occ > peak {
            peak = occ;
            peak_delta = delta;
            witness = t;
        }
        prev_w = w;
    }
    (peak, peak_delta.max(0), witness as i64, k as u64)
}

/// The summed allowance curves of `chunks` tracks, chunk `c` starting
/// at cycle `start + c·II`, stepped one cycle at a time without
/// division. After `k` active cycles a track has been allowed
/// `⌊k·num/den⌋` elements (clamped to the volume); it keeps that as a
/// quotient `q` and a remainder `k·num mod den`, so a step adds the
/// rate's own quotient and remainder and carries once. Every track
/// shares one rate and volume, so tracks start and saturate in chunk
/// order: the started, unsaturated ones are the window `lo..hi`.
struct Tracks {
    t: i128,
    next_start: i128,
    ii: i128,
    chunks: usize,
    quot: i128,
    rem: i128,
    den: i128,
    volume: i128,
    /// Per-chunk `(quotient, remainder)`.
    acc: Vec<(i128, i128)>,
    lo: usize,
    hi: usize,
}

impl Tracks {
    /// Tracks positioned at cycle `t`, which must precede `start`.
    fn new(t: i128, start: i128, ii: i128, chunks: i128, rate: Rate, volume: u64) -> Self {
        debug_assert!(t < start, "tracks start before any chunk");
        let (num, den) = (rate.num() as i128, rate.den() as i128);
        Tracks {
            t,
            next_start: start,
            ii,
            chunks: chunks as usize,
            quot: num / den,
            rem: num % den,
            den,
            volume: volume as i128,
            acc: vec![(0, 0); chunks as usize],
            lo: 0,
            hi: 0,
        }
    }

    /// Advances one cycle; returns the summed allowance through it.
    fn step(&mut self) -> i128 {
        self.t += 1;
        while self.hi < self.chunks && self.next_start <= self.t {
            self.hi += 1;
            self.next_start += self.ii;
        }
        let mut active = 0;
        for (q, r) in &mut self.acc[self.lo..self.hi] {
            *q += self.quot;
            *r += self.rem;
            if *r >= self.den {
                *r -= self.den;
                *q += 1;
            }
            active += *q;
        }
        // Earlier chunks lead later ones, so saturation peels off the front.
        while self.lo < self.hi && self.acc[self.lo].0 >= self.volume {
            active -= self.acc[self.lo].0;
            self.lo += 1;
        }
        self.lo as i128 * self.volume + active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Cumulative allowance through cycle `t` for a track that starts at
    /// cycle `start` and advances `rate` elements per cycle, clamped to
    /// `volume`: `clamp(⌊(t − start + 1)·num/den⌋, 0, volume)` — the
    /// closed form [`Tracks`] steps incrementally.
    fn allowance(t: i128, start: i128, rate: Rate, volume: u64) -> i128 {
        let k = t - start + 1;
        if k <= 0 {
            return 0;
        }
        let raw = k * rate.num() as i128 / rate.den() as i128;
        raw.min(volume as i128)
    }

    /// [`edge_peak`] evaluated straight from [`allowance`]: the
    /// reference the division-free tracks must reproduce.
    fn edge_peak_reference(
        e: &CertEdge,
        start_cycles: &[u64],
        ii: i128,
        n_chunks: u64,
    ) -> (i128, i128, i64, u64) {
        let w0 = (start_cycles[e.producer] + e.depth) as i128;
        let r0 = start_cycles[e.consumer] as i128;
        let wd = e.tau_out.cycles_for(e.volume) as i128;
        let rd = e.tau_in.cycles_for(e.volume) as i128;
        let span = (w0 + wd).max(r0 + rd) - w0.min(r0);
        let k = (n_chunks as i128).min(span / ii + 2).max(1);
        let t_min = w0.min(r0) - 1;
        let t_max = (w0 + wd).max(r0 + rd) + (k - 1) * ii;
        let writes = |t: i128| -> i128 {
            (0..k)
                .map(|c| allowance(t, w0 + c * ii, e.tau_out, e.volume))
                .sum()
        };
        let reads = |t: i128| -> i128 {
            (0..k)
                .map(|c| allowance(t, r0 + c * ii, e.tau_in, e.volume))
                .sum()
        };
        let mut prev_w = writes(t_min - 1);
        let (mut delta, mut peak, mut peak_delta, mut witness) = (0i128, 0i128, 0i128, t_min);
        for t in t_min..=t_max {
            let (w, r) = (writes(t), reads(t));
            delta = delta.max(r - prev_w);
            let occ = w - r + delta;
            if occ > peak {
                peak = occ;
                peak_delta = delta;
                witness = t;
            }
            prev_w = w;
        }
        (peak, peak_delta.max(0), witness as i64, k as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn tracks_match_the_allowance_reference(
            (out_num, out_den, in_num, in_den) in (1i64..24, 1i64..24, 1i64..24, 1i64..24),
            (producer_start, consumer_start, depth) in (0u64..60, 0u64..120, 0u64..12),
            volume in 0u64..400,
            (period, n_chunks) in (1u64..80, 1u64..16),
        ) {
            let e = local_edge(
                rate(out_num, out_den),
                rate(in_num, in_den),
                volume,
                depth,
            );
            let starts = [producer_start, consumer_start];
            let ii = period as i128;
            prop_assert_eq!(
                edge_peak(&e, &starts, ii, n_chunks),
                edge_peak_reference(&e, &starts, ii, n_chunks)
            );
        }
    }

    fn rate(num: i64, den: i64) -> Rate {
        Rate::new(num, den)
    }

    fn local_edge(tau_out: Rate, tau_in: Rate, volume: u64, depth: u64) -> CertEdge {
        CertEdge {
            producer: 0,
            consumer: 1,
            tau_out,
            tau_in,
            volume,
            depth,
            global_consumer: false,
            window_chunks: 1,
        }
    }

    #[test]
    fn matched_rates_need_one_element() {
        // Producer and consumer both 1 elem/cycle, consumer starts with
        // the producer: the stepper's consumer-before-producer visit
        // order leaves exactly one element in flight.
        let e = local_edge(rate(1, 1), rate(1, 1), 100, 0);
        let cert = certify(&[e], &[0, 0], &[1], 1, 1);
        assert_eq!(cert.edges[0].certified_peak, 1);
        assert_eq!(cert.edges[0].starve_slack, 1);
        assert!(cert.accepted());
    }

    #[test]
    fn offset_consumer_buffers_the_offset() {
        // Consumer starts Δ=10 cycles late at matched unit rates: the
        // buffer holds the 10-element head plus nothing else.
        let e = local_edge(rate(1, 1), rate(1, 1), 100, 0);
        let cert = certify(&[e], &[0, 10], &[10], 1, 1);
        assert_eq!(cert.edges[0].certified_peak, 10);
        assert!(cert.accepted());
        // One element fewer is a rejection with a concrete witness.
        let e = local_edge(rate(1, 1), rate(1, 1), 100, 0);
        let cert = certify(&[e], &[0, 10], &[9], 1, 1);
        assert!(!cert.accepted());
        let v = cert.first_violation().unwrap();
        assert_eq!(v.certified_peak, 10);
        assert!(v.witness_cycle >= 9);
    }

    #[test]
    fn fast_producer_slow_consumer_peaks_at_write_end() {
        // 4 elem/cycle producer, 1 elem/cycle consumer, both start at 0:
        // producer finishes 400 elements at cycle 99 with 100 read — the
        // fluid peak is 300; the discrete one differs only by the O(τ)
        // visit-order transient.
        let e = local_edge(rate(4, 1), rate(1, 1), 400, 0);
        let cert = certify(&[e], &[0, 0], &[304], 1, 1);
        let peak = cert.edges[0].certified_peak;
        assert!((300..=304).contains(&peak), "peak {peak}");
        assert!(cert.accepted());
    }

    #[test]
    fn global_edge_retains_window_volume() {
        let e = CertEdge {
            producer: 0,
            consumer: 1,
            tau_out: rate(3, 1),
            tau_in: rate(3, 1),
            volume: 300,
            depth: 0,
            global_consumer: true,
            window_chunks: 4,
        };
        let cert = certify(std::slice::from_ref(&e), &[0, 100], &[1200], 7, 9);
        assert_eq!(cert.edges[0].certified_peak, 1200);
        assert!(cert.accepted());
        let cert = certify(&[e], &[0, 100], &[1199], 7, 9);
        assert!(!cert.accepted());
    }

    #[test]
    fn period_spacing_keeps_single_chunk_peaks() {
        // Two chunks a full busy-period apart never overlap: the
        // multi-chunk peak equals the single-chunk peak.
        let e = local_edge(rate(1, 1), rate(1, 1), 100, 0);
        let single =
            certify(std::slice::from_ref(&e), &[0, 10], &[u64::MAX], 1, 1).edges[0].certified_peak;
        let spaced = certify(std::slice::from_ref(&e), &[0, 10], &[u64::MAX], 200, 8).edges[0]
            .certified_peak;
        assert_eq!(single, spaced);
        // Overlapping issue (II far below the busy span) accumulates.
        let packed = certify(&[e], &[0, 10], &[u64::MAX], 20, 8).edges[0].certified_peak;
        assert!(packed > spaced, "packed {packed} vs spaced {spaced}");
    }

    #[test]
    fn fractional_rates_stay_exact() {
        // τ_out = 3/7: after 7 cycles exactly 3 elements, never a float
        // epsilon more. A consumer at 1/3 with a late start.
        let e = local_edge(rate(3, 7), rate(1, 3), 30, 2);
        let cert = certify(&[e], &[0, 40], &[u64::MAX], 1, 1);
        let peak = cert.edges[0].certified_peak;
        // Writes finish at cycle 2 + 70; by cycle 41 the consumer has
        // allowance 0 and the producer ⌊40·3/7⌋ = 17.
        assert!(peak >= 17, "peak {peak}");
        assert!(peak <= 30, "peak {peak} cannot exceed the volume");
    }

    #[test]
    fn render_names_the_violation() {
        let e = local_edge(rate(2, 1), rate(1, 1), 50, 1);
        let cert = certify(&[e], &[0, 0], &[3], 1, 1);
        assert!(!cert.accepted());
        let text = cert.render();
        assert!(text.starts_with("certificate REJECTED"), "{text}");
        assert!(text.contains("edge 0 (0 -> 1)"), "{text}");
        assert!(text.contains("> bound 3"), "{text}");
    }

    #[test]
    #[should_panic(expected = "one buffer bound per edge")]
    fn mismatched_bounds_panic() {
        let e = local_edge(rate(1, 1), rate(1, 1), 10, 0);
        certify(&[e], &[0, 0], &[], 1, 1);
    }
}
