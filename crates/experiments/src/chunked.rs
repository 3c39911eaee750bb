//! Chunked parallel execution from checkpoints (DESIGN.md §13.4).
//!
//! A long simulation is split into `N` chunks: a **serial pass** runs the
//! full simulation once, taking a [`Snapshot`] at each
//! chunk boundary, then a **parallel pass** restores every chunk from its
//! boundary checkpoint and re-runs it on the sweep executor. Because the
//! simulator is deterministic and snapshots capture *all* mutable state,
//! each chunk's end snapshot must be byte-identical to the next chunk's
//! start checkpoint — and the last chunk's end snapshot to the monolithic
//! run's final snapshot. [`run_chunked`] verifies every one of those
//! boundaries and reports the first divergence as an `E0018` diagnostic,
//! making chunked execution a whole-simulator differential test: any state
//! the snapshot format misses, any nondeterminism in the cycle loop, or any
//! restore bug shows up as a boundary mismatch.
//!
//! The parallel pass rides the audited executor in [`crate::sweep`] — this
//! module spawns no threads of its own — so chunk results are index-ordered
//! and worker-count-invariant like every other sweep.

use std::sync::Arc;

use smt_core::{FetchEngineKind, SimBuilder, SimConfig, SimStats, Simulator, Snapshot};
use smt_isa::{snap_mismatch, Diagnostic};
use smt_workloads::Program;

use crate::sweep::{sweep_indexed, Jobs};

/// A completed chunked run, with the verification evidence attached.
#[derive(Clone, Debug)]
pub struct ChunkedRun {
    /// Statistics accumulated by the *chunked* path (the last chunk's
    /// resumed simulator) — byte-identical to the monolithic run's stats.
    pub stats: SimStats,
    /// Cycles simulated by each chunk, in order; sums to the requested
    /// total.
    pub chunk_cycles: Vec<u64>,
    /// Chunk-boundary snapshots proven byte-identical between the chunked
    /// and monolithic runs (one per chunk: `N-1` interior boundaries plus
    /// the final state).
    pub verified_boundaries: usize,
    /// The final-state snapshot (identical from both paths) — reusable as a
    /// checkpoint for a longer resumed run.
    pub final_snapshot: Snapshot,
}

/// Splits `total_cycles` into `chunks` near-equal pieces, front-loading the
/// remainder so lengths differ by at most one cycle. `chunks` is clamped to
/// at least 1; the pieces always sum to `total_cycles`.
pub fn chunk_lengths(total_cycles: u64, chunks: usize) -> Vec<u64> {
    let n = (chunks.max(1)) as u64;
    (0..n)
        .map(|i| total_cycles / n + u64::from(i < total_cycles % n))
        .collect()
}

/// Runs `total_cycles` of simulation split into `chunks` pieces executed in
/// parallel from checkpoints, verifying that the chunked execution is
/// byte-identical to the monolithic one at every chunk boundary.
///
/// The serial checkpoint-generation pass simulates the full run once (so
/// chunking never changes *what* is simulated); the parallel pass then
/// restores each chunk independently on `jobs` workers and replays it. The
/// two passes must agree snapshot-for-snapshot.
///
/// # Errors
///
/// `E0018` when `chunks` is zero, the configuration fails to build, a chunk
/// fails to restore, or — the interesting case — a chunk's end state
/// diverges from the monolithic run's state at the same cycle.
pub fn run_chunked(
    programs: &[Arc<Program>],
    engine: FetchEngineKind,
    cfg: &SimConfig,
    total_cycles: u64,
    chunks: usize,
    jobs: Jobs,
) -> Result<ChunkedRun, Diagnostic> {
    if chunks == 0 {
        return Err(snap_mismatch(
            "chunks",
            "chunked execution needs at least one chunk",
        ));
    }
    let lens = chunk_lengths(total_cycles, chunks);

    // Serial pass: one monolithic run, snapshotting at every chunk start.
    let mut sim = SimBuilder::new_shared(programs.to_vec())
        .fetch_engine(engine)
        .config(cfg.clone())
        .build()
        .map_err(|e| snap_mismatch("build", format!("chunked run could not build: {e}")))?;
    let mut checkpoints: Vec<Snapshot> = Vec::with_capacity(chunks);
    for &len in &lens {
        checkpoints.push(sim.snapshot());
        sim.run_cycles(len);
    }
    let monolithic_end = sim.snapshot();
    let monolithic_stats = sim.stats().clone();

    // Parallel pass: restore every chunk from its checkpoint and replay it.
    let chunk_runs: Vec<Result<(Snapshot, SimStats), Diagnostic>> =
        sweep_indexed(chunks, jobs, |i| {
            let mut resumed = Simulator::restore(programs.to_vec(), cfg.clone(), &checkpoints[i])?;
            resumed.run_cycles(lens[i]);
            Ok((resumed.snapshot(), resumed.stats().clone()))
        });

    // Verify: chunk i must land exactly on chunk i+1's checkpoint, and the
    // last chunk on the monolithic run's final state.
    let mut verified = 0usize;
    let mut last_stats = monolithic_stats.clone();
    for (i, run) in chunk_runs.into_iter().enumerate() {
        let (end, stats) = run?;
        let expected = checkpoints.get(i + 1).unwrap_or(&monolithic_end);
        if end != *expected {
            return Err(snap_mismatch(
                "boundary",
                format!(
                    "chunk {i} of {chunks} ended {} bytes that differ from the \
                     monolithic state at the same cycle (snapshot format or \
                     determinism bug)",
                    end.len()
                ),
            ));
        }
        verified += 1;
        last_stats = stats;
    }
    if last_stats != monolithic_stats {
        return Err(snap_mismatch(
            "stats",
            "final chunk statistics differ from the monolithic run",
        ));
    }
    Ok(ChunkedRun {
        stats: last_stats,
        chunk_cycles: lens,
        verified_boundaries: verified,
        final_snapshot: monolithic_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_core::FetchPolicy;
    use smt_workloads::Workload;

    #[test]
    fn chunk_lengths_partition_the_total() {
        assert_eq!(chunk_lengths(10, 1), vec![10]);
        assert_eq!(chunk_lengths(10, 3), vec![4, 3, 3]);
        assert_eq!(chunk_lengths(9, 3), vec![3, 3, 3]);
        assert_eq!(chunk_lengths(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(chunk_lengths(7, 0), vec![7]);
        for (total, chunks) in [(120_000u64, 8usize), (1, 2), (0, 3)] {
            assert_eq!(chunk_lengths(total, chunks).iter().sum::<u64>(), total);
        }
    }

    #[test]
    fn zero_chunks_is_a_diagnostic() {
        let programs = Workload::mix2().programs_shared(7).expect("builds");
        let err = run_chunked(
            &programs,
            FetchEngineKind::GshareBtb,
            &SimConfig::default(),
            100,
            0,
            Jobs::SERIAL,
        )
        .expect_err("zero chunks");
        assert_eq!(err.code, "E0018");
    }

    #[test]
    fn chunked_matches_monolithic_for_every_engine() {
        let programs = Workload::mix2().programs_shared(7).expect("builds");
        let cfg = SimConfig {
            fetch_policy: FetchPolicy::icount(2, 8),
            ..SimConfig::default()
        };
        for engine in FetchEngineKind::all_with_trace_cache() {
            let mut mono = SimBuilder::new_shared(programs.clone())
                .fetch_engine(engine)
                .config(cfg.clone())
                .build()
                .expect("builds");
            mono.run_cycles(6_000);
            let mono_stats = mono.stats().clone();

            for chunks in [2usize, 4] {
                let chunked = run_chunked(
                    &programs,
                    engine,
                    &cfg,
                    6_000,
                    chunks,
                    Jobs::new(2).expect("valid"),
                )
                .expect("chunked run verifies");
                assert_eq!(chunked.stats, mono_stats, "{engine} chunks={chunks}");
                assert_eq!(chunked.verified_boundaries, chunks, "{engine}");
                assert_eq!(chunked.chunk_cycles.iter().sum::<u64>(), 6_000);
                assert_eq!(chunked.final_snapshot, mono.snapshot(), "{engine}");
            }
        }
    }
}
