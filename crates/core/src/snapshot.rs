//! Checkpoint/resume: full-simulator snapshots (DESIGN.md §13).
//!
//! A [`Snapshot`] is a versioned, deterministic, little-endian byte image
//! of *all* mutable simulator state: predictor tables, caches/MSHRs/TLBs,
//! per-thread walkers, FTQs, windows, rename maps, checkpoint rings, the
//! inter-stage queues, register free lists, and statistics. Programs and
//! configuration are **inputs**, not state: a snapshot stores only a hash
//! of the configuration and is restored against the same programs and
//! configuration it was taken under ([`Simulator::restore`] rebuilds the
//! machine with [`Simulator::new`] and then overwrites its state in place,
//! so every pre-sized buffer keeps its allocation and the resumed cycle
//! loop re-enters the zero-allocation steady state).
//!
//! The contract the differential tests pin: for any simulator `s`,
//! `restore(snapshot(s))` continues *byte-identically* to `s` — same
//! statistics, same stall attribution, same goldens — and re-snapshotting
//! a restored simulator reproduces the snapshot bytes exactly.

use std::collections::VecDeque;
use std::sync::Arc;

use smt_isa::{snap_mismatch, Diagnostic, Snap, SnapReader, SnapWriter};
use smt_workloads::Program;

use crate::config::{FetchEngineKind, SimConfig};
use crate::frontend::{AnyFrontEnd, FrontEnd};
use crate::pipeline::{IqEntry, LatchEntry};
use crate::sim::Simulator;

/// Magic number opening every snapshot (ASCII `SMT_SNAP`, little-endian).
pub const SNAPSHOT_MAGIC: u64 = 0x534d_545f_534e_4150;

/// Current snapshot format version. Bumped on any layout change; restore
/// rejects every other version. v2: the stats section's single fast-forward
/// counter became the tagged per-reason skip-counter block (event-driven
/// scheduler). v3: the per-thread window section became the tagged
/// structure-of-arrays block ([`crate::Window`]) and the image gained a
/// trailing FNV-1a checksum over everything before it, so corruption is
/// reported as `E0018` before the body parse can misread it. v4: an issue
/// queue entry's cached `wake` is its exact earliest issue cycle
/// (`u64::MAX` while a source is unresolved), which restore re-derives and
/// checks while rebuilding the queues' wakeup structures.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Diagnostic field names of the three issue-queue sections, in image order.
const IQ_SECTIONS: [&str; 3] = ["int issue queue", "ld/st issue queue", "fp issue queue"];

/// FNV-1a over a byte slice (the hash [`config_hash`] and the image
/// checksum both use).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a hash of the configuration's canonical debug rendering.
///
/// The hash pins a snapshot to the exact configuration it was taken under:
/// every field of [`SimConfig`] participates (the derived `Debug` output is
/// a total, deterministic rendering), so restoring under a differing
/// configuration fails fast with `E0018` instead of silently desyncing.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// Splits a snapshot image into body and trailing checksum, verifying the
/// checksum over the body. Callers validate the header first so version
/// mismatches are reported as such rather than as corruption.
fn verify_checksum(bytes: &[u8]) -> Result<&[u8], Diagnostic> {
    let Some(split) = bytes.len().checked_sub(8) else {
        return Err(snap_mismatch(
            "checksum",
            format!("image of {} byte(s) is too short to carry one", bytes.len()),
        ));
    };
    let (body, tail) = bytes.split_at(split);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(tail);
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a(body);
    if stored != computed {
        return Err(snap_mismatch(
            "checksum",
            format!(
                "stored {stored:#018x}, computed {computed:#018x} — image corrupted or truncated"
            ),
        ));
    }
    Ok(body)
}

/// The decoded fixed-size header of a [`Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version ([`SNAPSHOT_VERSION`] when produced by this build).
    pub version: u32,
    /// [`config_hash`] of the configuration the snapshot was taken under.
    pub config_hash: u64,
    /// Number of hardware threads.
    pub num_threads: usize,
    /// Fetch engine the simulator was built with.
    pub engine: FetchEngineKind,
}

/// A complete serialized simulator state.
///
/// Produced by [`Simulator::snapshot`], consumed by [`Simulator::restore`].
/// The byte image is self-describing up to its header; the body layout is
/// specified field by field in DESIGN.md §13.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps raw snapshot bytes (e.g. read back from a file).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Snapshot { bytes }
    }

    /// The serialized byte image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning its byte image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Size of the byte image.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the byte image is empty (never, for a produced snapshot).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes and validates the fixed-size header.
    ///
    /// # Errors
    ///
    /// `E0018` if the magic number, version, or engine tag is unknown, or
    /// the image is shorter than a header.
    pub fn header(&self) -> Result<SnapshotHeader, Diagnostic> {
        let mut r = SnapReader::new(&self.bytes);
        let header = read_header(&mut r)?;
        Ok(header)
    }
}

/// Reads and validates the header, leaving `r` positioned at the body.
fn read_header(r: &mut SnapReader<'_>) -> Result<SnapshotHeader, Diagnostic> {
    let magic = r.u64()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(snap_mismatch(
            "magic",
            format!("not a simulator snapshot (magic {magic:#018x})"),
        ));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(snap_mismatch(
            "version",
            format!("snapshot version {version}, this build reads {SNAPSHOT_VERSION}"),
        ));
    }
    let config_hash = r.u64()?;
    let num_threads = r.usize()?;
    let engine = AnyFrontEnd::kind_from_snapshot_tag(r.u8()?)?;
    Ok(SnapshotHeader {
        version,
        config_hash,
        num_threads,
        engine,
    })
}

/// Serializes a deque as a length prefix followed by the entries.
pub(crate) fn save_deque<T: Snap>(w: &mut SnapWriter, q: &VecDeque<T>) {
    w.usize(q.len());
    for e in q {
        e.save(w);
    }
}

/// Restores a deque saved by [`save_deque`] in place, refusing occupancies
/// beyond the deque's pre-sized capacity (a restore must never regrow the
/// steady-state buffers).
pub(crate) fn load_deque_into<T: Snap>(
    r: &mut SnapReader<'_>,
    q: &mut VecDeque<T>,
    what: &str,
) -> Result<(), Diagnostic> {
    let n = r.usize()?;
    if n > q.capacity() {
        return Err(snap_mismatch(
            what,
            format!(
                "snapshot holds {n} entries but the queue's capacity is {}",
                q.capacity()
            ),
        ));
    }
    q.clear();
    for _ in 0..n {
        q.push_back(T::load(r)?);
    }
    Ok(())
}

impl Snap for LatchEntry {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.tid);
        w.u64(self.seq);
        w.u64(self.entered);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, Diagnostic> {
        Ok(LatchEntry {
            tid: r.usize()?,
            seq: r.u64()?,
            entered: r.u64()?,
        })
    }
}

impl Snap for IqEntry {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.tid);
        w.u64(self.seq);
        w.u64(self.entered);
        w.u64(self.wake);
        self.src_phys.save(w);
        self.class.save(w);
        w.bool(self.wrong_path);
        self.mem_addr.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, Diagnostic> {
        Ok(IqEntry {
            tid: r.usize()?,
            seq: r.u64()?,
            entered: r.u64()?,
            wake: r.u64()?,
            src_phys: Snap::load(r)?,
            class: Snap::load(r)?,
            wrong_path: r.bool()?,
            mem_addr: Snap::load(r)?,
        })
    }
}

impl Simulator {
    /// Serializes the complete mutable state of this simulator.
    ///
    /// The image opens with a fixed header (magic, version, configuration
    /// hash, thread count, engine tag) followed by the body: fetch engine,
    /// memory hierarchy, per-thread state, and the shared pipeline context.
    /// Taking a snapshot allocates (the byte buffer); it never mutates the
    /// simulator.
    pub fn snapshot(&self) -> Snapshot {
        let ctx = &self.ctx;
        let mut w = SnapWriter::new();
        w.u64(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u64(config_hash(&ctx.cfg));
        w.usize(ctx.threads.len());
        w.u8(AnyFrontEnd::snapshot_tag(ctx.frontend.kind()));

        ctx.frontend.save_state(&mut w);
        ctx.mem.save_state(&mut w);
        for th in &ctx.threads {
            th.save_state(&mut w);
        }
        w.u64(ctx.cycle);
        w.u64(ctx.stats_since);
        save_deque(&mut w, &ctx.fetch_buffer);
        save_deque(&mut w, &ctx.decode_latch);
        save_deque(&mut w, &ctx.rename_latch);
        for q in &ctx.iq {
            q.save_state(&mut w);
        }
        smt_isa::save_vec(&mut w, &ctx.free_int);
        smt_isa::save_vec(&mut w, &ctx.free_fp);
        w.usize(ctx.ready_at.len());
        for c in &ctx.ready_at {
            w.u64(*c);
        }
        w.u32(ctx.rob_occ);
        ctx.preissue.save(&mut w);
        ctx.stats.save_state(&mut w);
        let mut bytes = w.into_bytes();
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        Snapshot { bytes }
    }

    /// Rebuilds a simulator from `snap`, the same `programs`, and the same
    /// configuration the snapshot was taken under.
    ///
    /// Restoration is *fresh-build-then-overwrite*: the machine is
    /// constructed exactly as [`SimBuilder::build`](crate::SimBuilder)
    /// would (pre-sized queues, shared program `Arc`s), then every piece of
    /// mutable state is loaded in place. The restored simulator continues
    /// byte-identically to the one the snapshot was taken from, and its
    /// cycle loop re-enters the zero-allocation steady state.
    ///
    /// # Errors
    ///
    /// `E0018` if the header does not match (wrong magic/version, a
    /// configuration whose [`config_hash`] differs, or a different thread
    /// count), any geometry check in the body fails, or the byte stream is
    /// malformed or has trailing bytes.
    pub fn restore(
        programs: Vec<Arc<Program>>,
        cfg: SimConfig,
        snap: &Snapshot,
    ) -> Result<Simulator, Diagnostic> {
        // Header first (nice diagnostics for wrong magic/version), then the
        // whole-image checksum, then the body parse over verified bytes.
        {
            let mut hr = SnapReader::new(snap.as_bytes());
            read_header(&mut hr)?;
        }
        let body = verify_checksum(snap.as_bytes())?;
        let mut r = SnapReader::new(body);
        let header = read_header(&mut r)?;
        let hash = config_hash(&cfg);
        if header.config_hash != hash {
            return Err(snap_mismatch(
                "config hash",
                format!(
                    "snapshot was taken under configuration {:#018x}, restore given {hash:#018x}",
                    header.config_hash
                ),
            ));
        }
        if header.num_threads != programs.len() {
            return Err(snap_mismatch(
                "threads",
                format!(
                    "snapshot has {} thread(s), restore given {} program(s)",
                    header.num_threads,
                    programs.len()
                ),
            ));
        }
        let mut sim = Simulator::new(programs, header.engine, cfg)
            .map_err(|e| snap_mismatch("build", format!("restore could not rebuild: {e}")))?;

        let ctx = &mut sim.ctx;
        ctx.frontend.load_state(&mut r)?;
        ctx.mem.load_state(&mut r)?;
        for th in &mut ctx.threads {
            th.load_state(&mut r)?;
        }
        ctx.cycle = r.u64()?;
        ctx.stats_since = r.u64()?;
        load_deque_into(&mut r, &mut ctx.fetch_buffer, "fetch buffer")?;
        load_deque_into(&mut r, &mut ctx.decode_latch, "decode latch")?;
        load_deque_into(&mut r, &mut ctx.rename_latch, "rename latch")?;
        let threads = ctx.threads.len();
        for (q, what) in ctx.iq.iter_mut().zip(IQ_SECTIONS) {
            q.load_state(&mut r, threads, what)?;
        }
        smt_isa::load_vec_into(&mut r, &mut ctx.free_int)?;
        smt_isa::load_vec_into(&mut r, &mut ctx.free_fp)?;
        let regs = r.usize()?;
        if regs != ctx.ready_at.len() {
            return Err(snap_mismatch(
                "register file",
                format!(
                    "snapshot has {regs} physical registers, this build has {}",
                    ctx.ready_at.len()
                ),
            ));
        }
        for c in &mut ctx.ready_at {
            *c = r.u64()?;
        }
        for (q, what) in ctx.iq.iter_mut().zip(IQ_SECTIONS) {
            q.relink(&ctx.ready_at, ctx.cycle, what)?;
        }
        ctx.rob_occ = r.u32()?;
        ctx.preissue = Snap::load(&mut r)?;
        ctx.stats.load_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(snap_mismatch(
                "snapshot",
                format!("{} trailing byte(s) after the final field", r.remaining()),
            ));
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FetchPolicy;
    use crate::SimBuilder;
    use smt_workloads::Workload;

    fn sim(engine: FetchEngineKind) -> Simulator {
        SimBuilder::new(Workload::mix2().programs(7).expect("programs"))
            .fetch_engine(engine)
            .fetch_policy(FetchPolicy::icount(2, 8))
            .build()
            .expect("build")
    }

    fn programs() -> Vec<Arc<Program>> {
        Workload::mix2()
            .programs(7)
            .expect("programs")
            .into_iter()
            .map(Arc::new)
            .collect()
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        for engine in FetchEngineKind::all_with_trace_cache() {
            let mut a = sim(engine);
            a.run_cycles(3_000);
            let snap = a.snapshot();
            a.run_cycles(2_000);

            let mut b = Simulator::restore(programs(), a.config().clone(), &snap).expect("restore");
            assert_eq!(b.cycle(), 3_000, "{engine}: cycle restored");
            b.run_cycles(2_000);
            assert_eq!(b.stats(), a.stats(), "{engine}: resumed stats diverged");
            assert_eq!(
                b.snapshot(),
                a.snapshot(),
                "{engine}: resumed state diverged"
            );
        }
    }

    #[test]
    fn restored_simulator_resnapshots_identically() {
        let mut s = sim(FetchEngineKind::Stream);
        s.run_cycles(1_500);
        let snap = s.snapshot();
        let restored = Simulator::restore(programs(), s.config().clone(), &snap).expect("restore");
        assert_eq!(
            restored.snapshot(),
            snap,
            "restore must reproduce the image bit for bit"
        );
    }

    #[test]
    fn header_reports_the_run_shape() {
        let mut s = sim(FetchEngineKind::GskewFtb);
        s.run_cycles(100);
        let snap = s.snapshot();
        let h = snap.header().expect("header");
        assert_eq!(h.version, SNAPSHOT_VERSION);
        assert_eq!(h.num_threads, 2);
        assert_eq!(h.engine, FetchEngineKind::GskewFtb);
        assert_eq!(h.config_hash, config_hash(s.config()));
    }

    #[test]
    fn mismatches_are_diagnostics_not_panics() {
        let mut s = sim(FetchEngineKind::GshareBtb);
        s.run_cycles(500);
        let snap = s.snapshot();

        // Wrong magic.
        let mut bad = snap.as_bytes().to_vec();
        bad[0] ^= 0xff;
        let err = Snapshot::from_bytes(bad).header().unwrap_err();
        assert_eq!(err.code, "E0018");

        // Wrong configuration.
        let other = crate::SimConfig::hpca2004(FetchPolicy::icount(1, 16));
        let err = Simulator::restore(programs(), other, &snap).unwrap_err();
        assert_eq!(err.code, "E0018");
        assert!(err.message.contains("configuration"));

        // Wrong thread count.
        let err =
            Simulator::restore(programs()[..1].to_vec(), s.config().clone(), &snap).unwrap_err();
        assert_eq!(err.code, "E0018");

        // Truncated body.
        let short = snap.as_bytes()[..snap.len() - 9].to_vec();
        let err = Simulator::restore(programs(), s.config().clone(), &Snapshot::from_bytes(short))
            .unwrap_err();
        assert_eq!(err.code, "E0018");
    }
}
