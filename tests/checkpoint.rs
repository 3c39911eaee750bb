//! Differential checkpoint/resume tests (DESIGN.md §13).
//!
//! The contract under test: for any simulator `s`, `restore(snapshot(s))`
//! continues **byte-identically** to `s` — same `SimStats` (all-integer, so
//! `==` is exact), same stall attribution, same rendered output, and the
//! same bytes when re-snapshotted. Configurations are drawn from a
//! splitmix64 stream across every fetch engine, every fetch-policy kind,
//! both fetch architectures (1.X/2.X) and the long-latency STALL/FLUSH
//! variants; snapshot points are swept cycle by cycle through a window so
//! checkpoints land mid-fetch-burst and mid-misprediction-recovery, not
//! just at quiet cycles.
//!
//! The on-disk format itself is pinned by `tests/golden/snapshot_v4.bin`:
//! a snapshot of a fixed configuration at a fixed cycle must reproduce the
//! checked-in image bit for bit. Any intentional layout change must bump
//! `SNAPSHOT_VERSION` and re-bless with `SMT_BLESS=1 cargo test --test
//! checkpoint`. The image ends in a whole-image FNV-1a checksum (since v3), so
//! corrupted or truncated bytes surface as `E0018` diagnostics — never a
//! panic, never a silent misload — which `corrupted_snapshots_are_rejected`
//! exercises byte by byte.
//!
//! `run_chunked` (DESIGN.md §13.2) replays one run as N chunks restored in
//! parallel from their boundary checkpoints and checks every boundary, and
//! the final state, byte for byte against the monolithic run.

use std::path::PathBuf;
use std::sync::Arc;

use smtfetch::core::{
    config_hash, Diagnostic, FetchEngineKind, FetchPolicy, SimBuilder, SimConfig, SimStats,
    Simulator, Snapshot, SNAPSHOT_VERSION,
};
use smtfetch::experiments::{sweep_indexed, Jobs};
use smtfetch::isa::snap_mismatch;
use smtfetch::workloads::{Program, Workload};

/// splitmix64: the test's only randomness source — seeded, so every run
/// draws the same configuration stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn build(programs: &[Arc<Program>], engine: FetchEngineKind, cfg: &SimConfig) -> Simulator {
    SimBuilder::new_shared(programs.to_vec())
        .fetch_engine(engine)
        .config(cfg.clone())
        .build()
        .expect("valid configuration")
}

/// Draws a fetch policy from the random stream: every kind, both `n`
/// values, both widths, and the three long-latency actions.
fn draw_policy(rng: &mut u64) -> FetchPolicy {
    let n = 1 + (splitmix64(rng) % 2) as u32;
    let width = if splitmix64(rng).is_multiple_of(2) {
        8
    } else {
        16
    };
    let policy = match splitmix64(rng) % 4 {
        0 => FetchPolicy::icount(n, width),
        1 => FetchPolicy::round_robin(n, width),
        2 => FetchPolicy::br_count(n, width),
        _ => FetchPolicy::miss_count(n, width),
    };
    match splitmix64(rng) % 3 {
        0 => policy,
        1 => policy.with_stall(),
        _ => policy.with_flush(),
    }
}

/// Asserts that `resumed` and `reference` agree byte for byte: exact
/// `SimStats` equality (stall breakdown included), identical debug
/// renderings (the golden text form is a function of these), and identical
/// re-snapshot bytes (the strongest check: *all* state agrees, not just
/// the counters).
fn assert_identical(reference: &mut Simulator, resumed: &mut Simulator, what: &str) {
    let want: &SimStats = reference.stats();
    let got: &SimStats = resumed.stats();
    assert_eq!(want, got, "{what}: SimStats diverged");
    assert_eq!(
        want.stalls, got.stalls,
        "{what}: stall attribution diverged"
    );
    assert_eq!(
        format!("{want:?}"),
        format!("{got:?}"),
        "{what}: rendered stats diverged"
    );
    assert_eq!(
        reference.snapshot(),
        resumed.snapshot(),
        "{what}: machine state diverged"
    );
}

/// The headline differential property: across a splitmix64-drawn stream of
/// configurations covering every engine and policy kind, a simulator
/// snapshotted after `K` cycles and resumed for `M` more is byte-identical
/// to the original running `K + M` straight.
#[test]
fn resume_is_byte_identical_across_random_configs() {
    let mut rng = 0x5eed_2004_u64;
    let engines = FetchEngineKind::all_with_trace_cache();
    for round in 0..12 {
        let engine = engines[round % engines.len()];
        let cfg = SimConfig {
            fetch_policy: draw_policy(&mut rng),
            ..SimConfig::default()
        };
        // The memory-bound mix keeps misses, flushes and recoveries in
        // flight; the balanced mix covers the common case.
        let workload = if splitmix64(&mut rng).is_multiple_of(2) {
            Workload::mix2()
        } else {
            Workload::mem2()
        };
        let programs = workload.programs_shared(2004).expect("programs build");
        let k = 1_000 + splitmix64(&mut rng) % 3_000;
        let m = 500 + splitmix64(&mut rng) % 2_000;
        let what = format!(
            "round {round}: {} {engine} {} K={k} M={m}",
            workload.name(),
            cfg.fetch_policy
        );

        let mut reference = build(&programs, engine, &cfg);
        reference.run_cycles(k);
        let snap = reference.snapshot();
        reference.run_cycles(m);

        let mut resumed =
            Simulator::restore(programs.clone(), cfg.clone(), &snap).expect("restore succeeds");
        resumed.run_cycles(m);
        assert_identical(&mut reference, &mut resumed, &what);
    }
}

/// Sweeps the snapshot point cycle by cycle through a 24-cycle window for
/// every engine, so checkpoints land mid-burst (instructions in the FTQ,
/// latches and queues occupied) and mid-recovery (squashes and redirects in
/// flight), not just at whatever phase a round number hits.
#[test]
fn resume_is_identical_at_every_cycle_in_a_window() {
    const BASE: u64 = 2_000;
    const WINDOW: u64 = 24;
    const TAIL: u64 = 600;
    let cfg = SimConfig {
        // FLUSH keeps recoveries frequent, 2.16 keeps both ports busy.
        fetch_policy: FetchPolicy::icount(2, 16).with_flush(),
        ..SimConfig::default()
    };
    let programs = Workload::mem2().programs_shared(2004).expect("programs");
    for engine in FetchEngineKind::all_with_trace_cache() {
        // One serial reference walk, snapshotting at every cycle offset.
        let mut reference = build(&programs, engine, &cfg);
        reference.run_cycles(BASE);
        let mut snaps = Vec::new();
        for _ in 0..WINDOW {
            snaps.push(reference.snapshot());
            reference.run_cycles(1);
        }
        reference.run_cycles(TAIL);
        for (off, snap) in snaps.iter().enumerate() {
            let mut resumed =
                Simulator::restore(programs.clone(), cfg.clone(), snap).expect("restore succeeds");
            resumed.run_cycles(WINDOW - off as u64 + TAIL);
            assert_identical(
                &mut reference,
                &mut resumed,
                &format!("{engine} snapshot at cycle {}", BASE + off as u64),
            );
        }
    }
}

/// A restored simulator must itself be a valid snapshot source: chaining
/// snapshot → restore → snapshot → restore loses nothing.
#[test]
fn chained_restores_stay_identical() {
    let cfg = SimConfig {
        fetch_policy: FetchPolicy::miss_count(2, 8).with_stall(),
        ..SimConfig::default()
    };
    let programs = Workload::mix2().programs_shared(2004).expect("programs");
    let mut reference = build(&programs, FetchEngineKind::GskewFtb, &cfg);
    reference.run_cycles(4_000);

    let mut hops = build(&programs, FetchEngineKind::GskewFtb, &cfg);
    for _ in 0..4 {
        hops.run_cycles(1_000);
        let snap = hops.snapshot();
        hops = Simulator::restore(programs.clone(), cfg.clone(), &snap).expect("restore succeeds");
    }
    assert_identical(&mut reference, &mut hops, "4 × (1000 cycles + hop)");
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("snapshot_v{SNAPSHOT_VERSION}.bin"))
}

fn blessing() -> bool {
    std::env::var_os("SMT_BLESS").is_some_and(|v| v != "0")
}

/// Pins the serialized format itself: a fixed configuration snapshotted at
/// a fixed cycle must reproduce `tests/golden/snapshot_v4.bin` bit for bit.
/// Any layout change — field order, width, a new field — diffs here and
/// must come with a `SNAPSHOT_VERSION` bump and a re-bless
/// (`SMT_BLESS=1 cargo test --test checkpoint`).
#[test]
fn golden_snapshot_fixture_is_stable() {
    let cfg = SimConfig {
        fetch_policy: FetchPolicy::icount(2, 8),
        ..SimConfig::default()
    };
    let programs = Workload::mix2().programs_shared(2004).expect("programs");
    let mut sim = build(&programs, FetchEngineKind::GshareBtb, &cfg);
    sim.run_cycles(2_500);
    let snap = sim.snapshot();

    let path = fixture_path();
    if blessing() {
        std::fs::write(&path, snap.as_bytes()).expect("write golden snapshot fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot fixture {} ({e}).\n\
             Run `SMT_BLESS=1 cargo test --test checkpoint` and commit the result.",
            path.display()
        )
    });
    assert_eq!(
        snap.as_bytes(),
        &want[..],
        "snapshot byte image changed. If intentional, bump SNAPSHOT_VERSION \
         and re-bless with `SMT_BLESS=1 cargo test --test checkpoint`."
    );

    // The checked-in image must also restore and resume: the fixture guards
    // forward readability, not just byte stability.
    let mut restored = Simulator::restore(programs, cfg, &Snapshot::from_bytes(want))
        .expect("checked-in fixture restores");
    restored.run_cycles(500);
    sim.run_cycles(500);
    assert_eq!(sim.stats(), restored.stats(), "fixture resumes identically");
}

/// Corruption robustness: any snapshot image that is not bit-for-bit what
/// `snapshot()` produced must be *rejected* by `Simulator::restore` with an
/// `E0018`-family diagnostic — never a panic and never a silent misload.
/// The trailing FNV-1a checksum makes this total: every single-byte
/// mutation flips the stored-vs-computed comparison, and every truncation
/// either loses checksum bytes or hands the verifier a short image.
#[test]
fn corrupted_snapshots_are_rejected() {
    let cfg = SimConfig {
        fetch_policy: FetchPolicy::icount(2, 8),
        ..SimConfig::default()
    };
    let programs = Workload::mix2().programs_shared(2004).expect("programs");
    let mut sim = build(&programs, FetchEngineKind::GskewFtb, &cfg);
    sim.run_cycles(1_500);
    let pristine = sim.snapshot().as_bytes().to_vec();

    let reject = |bytes: Vec<u8>, what: &str| {
        let err = Simulator::restore(programs.clone(), cfg.clone(), &Snapshot::from_bytes(bytes))
            .err()
            .unwrap_or_else(|| panic!("{what}: corrupted image restored without complaint"));
        assert_eq!(err.code, "E0018", "{what}: wrong diagnostic family: {err}");
    };

    // Single-byte mutations at splitmix64-drawn offsets: header bytes,
    // body bytes, and the checksum tail all get hit across 200 trials.
    let mut rng = 0xbad_5eed_u64;
    for trial in 0..200 {
        let off = (splitmix64(&mut rng) % pristine.len() as u64) as usize;
        let flip = (splitmix64(&mut rng) % 255) as u8 + 1; // never a no-op XOR
        let mut mutated = pristine.clone();
        mutated[off] ^= flip;
        reject(
            mutated,
            &format!("trial {trial}: byte {off} ^= {flip:#04x}"),
        );
    }

    // Truncations: every very-short prefix (degenerate headers, including
    // the empty image), plus random interior cuts.
    for len in 0..32.min(pristine.len()) {
        reject(
            pristine[..len].to_vec(),
            &format!("truncated to {len} bytes"),
        );
    }
    for trial in 0..50 {
        let len = (splitmix64(&mut rng) % (pristine.len() as u64 - 1)) as usize;
        reject(
            pristine[..len].to_vec(),
            &format!("trial {trial}: truncated to {len} bytes"),
        );
    }

    // And the pristine image still restores: the rejections above are not
    // a checksum scheme that rejects everything.
    Simulator::restore(
        programs.clone(),
        cfg.clone(),
        &Snapshot::from_bytes(pristine),
    )
    .expect("pristine image restores");
}

/// FNV-1a over `bytes`: the snapshot image checksum (DESIGN.md §13).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Re-targets a snapshot image at `cfg`: rewrites the header's
/// configuration hash (bytes 12..20, after the magic and the version) and
/// re-seals the trailing checksum, so a restore under `cfg` gets past the
/// header and checksum and meets the body's own checks.
fn retarget(image: &Snapshot, cfg: &SimConfig) -> Snapshot {
    let mut bytes = image.as_bytes().to_vec();
    bytes[12..20].copy_from_slice(&config_hash(cfg).to_le_bytes());
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    Snapshot::from_bytes(bytes)
}

/// An issue-queue section that does not fit the machine is an `E0018`
/// diagnostic naming the queue, never a panic: more entries than the
/// queue's capacity, and a source register beyond the register file. Each
/// image is checksum-valid (re-sealed for a smaller machine), so only the
/// queue section's own validation stands between it and the simulator.
#[test]
fn corrupted_issue_queue_sections_are_rejected() {
    let cfg = SimConfig {
        fetch_policy: FetchPolicy::icount(2, 8),
        ..SimConfig::default()
    };
    let programs = Workload::mix2().programs_shared(2004).expect("programs");
    let mut sim = build(&programs, FetchEngineKind::GskewFtb, &cfg);
    sim.run_cycles(1_500);
    let image = sim.snapshot();
    Simulator::restore(programs.clone(), cfg.clone(), &retarget(&image, &cfg))
        .expect("re-targeting at the same configuration is the identity");

    let reject = |small: SimConfig, what: &str| {
        let err = Simulator::restore(programs.clone(), small.clone(), &retarget(&image, &small))
            .err()
            .unwrap_or_else(|| panic!("{what}: restored without complaint"));
        assert_eq!(err.code, "E0018", "{what}: wrong diagnostic family: {err}");
        assert!(err.field.contains("issue queue"), "{what}: {err}");
        err
    };
    let err = reject(
        SimConfig {
            iq_int: 2,
            iq_ls: 2,
            iq_fp: 2,
            ..cfg.clone()
        },
        "over-full queue",
    );
    assert!(err.message.contains("capacity"), "{err}");
    let err = reject(
        SimConfig {
            regs_int: 80,
            regs_fp: 80,
            ..cfg.clone()
        },
        "register beyond the file",
    );
    assert!(err.message.contains("register"), "{err}");
}

/// A completed chunked run, with the verification evidence attached.
#[derive(Clone, Debug)]
struct ChunkedRun {
    /// Statistics accumulated by the *chunked* path (the last chunk's
    /// resumed simulator) — byte-identical to the monolithic run's stats.
    stats: SimStats,
    /// Cycles simulated by each chunk, in order; sums to the requested
    /// total.
    chunk_cycles: Vec<u64>,
    /// Chunk-boundary snapshots proven byte-identical between the chunked
    /// and monolithic runs (one per chunk: `N-1` interior boundaries plus
    /// the final state).
    verified_boundaries: usize,
    /// The final-state snapshot (identical from both paths).
    final_snapshot: Snapshot,
}

/// Splits `total_cycles` into `chunks` near-equal pieces, front-loading the
/// remainder so lengths differ by at most one cycle. `chunks` is clamped to
/// at least 1; the pieces always sum to `total_cycles`.
fn chunk_lengths(total_cycles: u64, chunks: usize) -> Vec<u64> {
    let n = (chunks.max(1)) as u64;
    (0..n)
        .map(|i| total_cycles / n + u64::from(i < total_cycles % n))
        .collect()
}

/// Chunked execution from checkpoints, a whole-simulator differential
/// harness (DESIGN.md §13.2): `total_cycles` of simulation split into
/// `chunks` pieces. A **serial pass** runs the full simulation once, taking
/// a snapshot at each chunk boundary; a **parallel pass** restores every
/// chunk from its boundary checkpoint and re-runs it on the sweep executor
/// (`sweep_indexed`, so chunk results are index-ordered and
/// worker-count-invariant). Each chunk's end snapshot must be
/// byte-identical to the next chunk's start checkpoint, and the last
/// chunk's to the monolithic run's final snapshot: any state the snapshot
/// format misses, any nondeterminism in the cycle loop, or any restore bug
/// shows up as a boundary mismatch.
///
/// # Errors
///
/// `E0018` when `chunks` is zero, a chunk fails to restore, or a chunk's
/// end state diverges from the monolithic run's state at the same cycle.
fn run_chunked(
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
    let mut sim = build(programs, engine, cfg);
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
        let mut mono = build(&programs, engine, &cfg);
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

/// Checkpoint/resume equivalence contract over the Figure 5 matrix: every
/// engine × `ICOUNT.{1,2}.8` cell, split into N ∈ {2, 4, 8} chunks executed
/// in parallel from checkpoints, is **byte-identical** to the monolithic
/// run. `run_chunked` verifies every chunk boundary internally (each
/// chunk's end snapshot must equal the next chunk's start checkpoint); on
/// top of that this test compares the final statistics and the final
/// whole-machine snapshot against an independently-run monolithic
/// simulator, so a silent no-op chunking cannot pass.
#[test]
fn chunked_execution_matches_monolithic_for_figure5_matrix() {
    const CYCLES: u64 = 6_000;
    let programs = Workload::ilp2().programs_shared(2004).expect("programs");
    for engine in FetchEngineKind::all() {
        for policy in [FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)] {
            let cfg = SimConfig {
                fetch_policy: policy,
                ..SimConfig::default()
            };
            let mut mono = build(&programs, engine, &cfg);
            mono.run_cycles(CYCLES);
            let mono_snapshot = mono.snapshot();
            for chunks in [2usize, 4, 8] {
                let chunked = run_chunked(
                    &programs,
                    engine,
                    &cfg,
                    CYCLES,
                    chunks,
                    Jobs::new(4).expect("valid worker count"),
                )
                .unwrap_or_else(|e| {
                    panic!("{engine} × {policy} chunks={chunks}: boundary diverged: {e}")
                });
                assert_eq!(
                    &chunked.stats,
                    mono.stats(),
                    "{engine} × {policy} chunks={chunks}: stats diverged"
                );
                assert_eq!(
                    chunked.final_snapshot, mono_snapshot,
                    "{engine} × {policy} chunks={chunks}: final state diverged"
                );
                assert_eq!(chunked.verified_boundaries, chunks);
                assert_eq!(chunked.chunk_cycles.iter().sum::<u64>(), CYCLES);
            }
        }
    }
}

/// Chunk boundaries that land *inside* an event skip: the memory-bound
/// workload under STALL/FLUSH gates fetch for the 100-cycle memory latency,
/// so odd chunk counts over a non-round horizon are all but guaranteed to
/// cut skip windows mid-flight. The scheduler must clamp the skip at the
/// boundary and re-derive the identical classification (and stall charges)
/// on resume, so chunked stats and the final whole-machine snapshot stay
/// byte-identical to the monolithic run.
#[test]
fn chunk_boundary_mid_skip_matches_monolithic() {
    const CYCLES: u64 = 9_001; // prime-ish horizon: boundaries avoid round cycles
    let programs = Workload::mem2().programs_shared(2004).expect("programs");
    for policy in [
        FetchPolicy::icount(2, 8).with_stall(),
        FetchPolicy::icount(2, 8).with_flush(),
        FetchPolicy::round_robin(2, 8).with_stall(),
    ] {
        let cfg = SimConfig {
            fetch_policy: policy,
            ..SimConfig::default()
        };
        let mut mono = build(&programs, FetchEngineKind::GshareBtb, &cfg);
        mono.run_cycles(CYCLES);
        assert!(
            mono.stats().skipped_cycles() > 0,
            "{policy}: the scheduler never engaged, boundaries cannot land mid-skip"
        );
        let mono_snapshot = mono.snapshot();
        for chunks in [3usize, 5, 7] {
            let chunked = run_chunked(
                &programs,
                FetchEngineKind::GshareBtb,
                &cfg,
                CYCLES,
                chunks,
                Jobs::new(3).expect("valid worker count"),
            )
            .unwrap_or_else(|e| panic!("{policy} chunks={chunks}: boundary diverged: {e}"));
            assert_eq!(
                &chunked.stats,
                mono.stats(),
                "{policy} chunks={chunks}: stats diverged"
            );
            assert_eq!(
                chunked.final_snapshot, mono_snapshot,
                "{policy} chunks={chunks}: final state diverged"
            );
        }
    }
}
