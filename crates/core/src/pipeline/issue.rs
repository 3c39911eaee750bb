//! The issue/execute stage: selects ready instructions from the three
//! issue queues ([`super::issue_queue`]), models functional-unit limits and
//! the data cache, and arms the long-latency STALL/FLUSH mechanisms.

// The pipeline stages use `expect` to assert invariants that the stage
// protocol itself guarantees (e.g. "caller checked" FTQ heads, rename maps
// populated at dispatch). Construction is fallible and validated; once
// built, these are genuine internal invariants, not input errors.
// lint:allow-file(no-panic): stage-protocol invariants; violations must abort the simulation

use smt_isa::InstClass;
use smt_mem::DataOutcome;

use crate::config::LongLatencyAction;

use super::issue_queue::{next_issue, select};
use super::recovery::flush_after_load;
use super::sched::{EventHorizon, SkipReason};
use super::{PipelineCtx, PipelineStage, LONG_LATENCY, STALL_ISSUE_WIDTH};

/// The issue stage: one pass per issue queue (int, load/store, fp), then
/// any FLUSH events the load/store pass requested.
#[derive(Clone, Debug)]
pub(crate) struct IssueStage {
    /// Threads whose long-latency load requested a FLUSH this cycle,
    /// processed after all queues issue (the flush mutates queues).
    pending_flushes: Vec<(usize, u64)>,
}

impl IssueStage {
    pub(crate) fn new(fu_ls: usize) -> Self {
        IssueStage {
            pending_flushes: Vec::with_capacity(fu_ls),
        }
    }
}

impl PipelineStage for IssueStage {
    fn tick(&mut self, ctx: &mut PipelineCtx) {
        self.issue_queue(ctx, 0);
        self.issue_queue(ctx, 1);
        self.issue_queue(ctx, 2);
        // Take/restore rather than drain-by-value so the buffer keeps its
        // capacity across cycles (flush_after_load never requests flushes).
        let mut flushes = std::mem::take(&mut self.pending_flushes);
        for &(tid, load_seq) in &flushes {
            flush_after_load(ctx, tid, load_seq);
        }
        flushes.clear();
        self.pending_flushes = flushes;
    }

    /// Issue acts as soon as any queue entry can issue (even an MSHR-full
    /// load retry touches the data cache); otherwise the earliest finite
    /// wake cycle across the three queues is an issue-wait event. Both come
    /// from the queues' candidate masks and wake wheels, which the tag
    /// broadcasts keep exact; entries parked on an unissued producer report
    /// nothing, since the producer's own queue entry bounds the wait.
    fn horizon(&self, ctx: &PipelineCtx, ev: &mut EventHorizon) {
        debug_assert!(self.pending_flushes.is_empty(), "flushes drain every tick");
        let at = next_issue(&ctx.iq, ctx.cycle);
        if at <= ctx.cycle {
            ev.act();
        } else if at != u64::MAX {
            ev.event(at, SkipReason::IssueWait);
        }
    }
}

impl IssueStage {
    fn issue_queue(&mut self, ctx: &mut PipelineCtx, which: usize) {
        let now = ctx.cycle;
        let fu_limit = match which {
            0 => ctx.cfg.fu_int,
            1 => ctx.cfg.fu_ls,
            _ => ctx.cfg.fu_fp,
        };
        let long_latency = ctx.cfg.fetch_policy.long_latency;
        let (threads, mem, preissue) = (&mut ctx.threads, &mut ctx.mem, &mut ctx.preissue);
        let flushes = &mut self.pending_flushes;
        let stalled = select(&mut ctx.iq, which, now, fu_limit, &mut ctx.ready_at, |e| {
            let done_at = match e.class {
                InstClass::Load => {
                    let addr = e.mem_addr.expect("loads carry addresses");
                    // A load that finds the MSHRs full stays queued.
                    let DataOutcome::Done { ready } = mem.load(addr, now) else {
                        return None;
                    };
                    let done = ready.max(now) + 1;
                    // Long-latency (memory) miss detection for the MISSCOUNT
                    // metric and STALL/FLUSH mechanisms. Only correct-path
                    // loads arm the mechanisms.
                    if done - now > LONG_LATENCY && !e.wrong_path {
                        // Drop expired entries first: consumers only ever
                        // count `> now`, and this keeps the list bounded by
                        // the in-flight load count (so the pre-sized
                        // capacity is never exceeded).
                        let th = &mut threads[e.tid];
                        th.outstanding_misses.retain(|&r| r > now);
                        th.outstanding_misses.push(done);
                        if long_latency != LongLatencyAction::None {
                            th.mem_stall_until = Some(th.mem_stall_until.unwrap_or(0).max(done));
                        }
                        if long_latency == LongLatencyAction::Flush {
                            flushes.push((e.tid, e.seq));
                        }
                    }
                    done
                }
                other => now + other.default_latency(),
            };
            // Queue entries never outlive their window instructions (squash
            // and flush purge the queues eagerly).
            let ctl = threads[e.tid].window.ctl_mut(e.seq).expect("present");
            ctl.set_issued();
            ctl.done_at = done_at;
            // Issued entries leave the pre-issue structures.
            preissue[e.tid] -= 1;
            Some((done_at, ctl.phys_dest))
        });
        // Aged entries left waiting behind the FU limit observe an
        // issue-width stall this cycle.
        for tid in 0..ctx.threads.len() {
            if stalled & (1 << tid) != 0 {
                ctx.note_stall(tid, STALL_ISSUE_WIDTH);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use smt_isa::{Addr, Cycle, InstClass, SnapReader, SnapWriter};
    use smt_workloads::Srng;

    use super::{next_issue, select};
    use crate::pipeline::{IqEntry, IssueQueue};
    use crate::window::PhysReg;

    /// The issue path the wakeup queues replaced, kept as the reference
    /// model: an append-order `Vec` per queue, scanned and compacted every
    /// cycle, with unresolved entries re-examined every cycle.
    fn reference_select(
        queues: &mut [Vec<IqEntry>; 3],
        which: usize,
        now: Cycle,
        fu_limit: u32,
        ready_at: &mut [Cycle],
        mut exec: impl FnMut(&IqEntry) -> Option<(Cycle, Option<PhysReg>)>,
    ) -> u32 {
        let mut queue = std::mem::take(&mut queues[which]);
        let mut stalled = 0u32;
        let mut kept = 0usize;
        let mut issued = 0u32;
        let len = queue.len();
        for idx in 0..len {
            if issued == fu_limit || queue[idx].entered >= now {
                if issued == fu_limit {
                    for te in &queue[idx..len] {
                        if te.entered < now {
                            stalled |= 1 << te.tid;
                        }
                    }
                }
                queue.copy_within(idx..len, kept);
                kept += len - idx;
                break;
            }
            if queue[idx].wake > now {
                queue[kept] = queue[idx];
                kept += 1;
                continue;
            }
            let mut ready_cycle = 0u64;
            let mut unresolved = false;
            for &p in queue[idx].src_phys.iter().flatten() {
                let r = ready_at[p as usize];
                unresolved |= r == u64::MAX;
                ready_cycle = ready_cycle.max(r);
            }
            if ready_cycle > now {
                queue[kept] = queue[idx];
                queue[kept].wake = if unresolved { now + 1 } else { ready_cycle };
                kept += 1;
                continue;
            }
            let e = queue[idx];
            let Some((done_at, dest)) = exec(&e) else {
                queue[kept] = e;
                kept += 1;
                continue;
            };
            if let Some(p) = dest {
                ready_at[p as usize] = done_at;
            }
            issued += 1;
        }
        queue.truncate(kept);
        queues[which] = queue;
        stalled
    }

    /// The reference horizon: readiness recomputed from `ready_at` for
    /// every entry of every queue.
    fn reference_next_issue(queues: &[Vec<IqEntry>; 3], ready_at: &[Cycle], now: Cycle) -> Cycle {
        let mut at = u64::MAX;
        for e in queues.iter().flatten() {
            let mut ready = e.entered + 1;
            for &p in e.src_phys.iter().flatten() {
                ready = ready.max(ready_at[p as usize]);
            }
            if ready <= now {
                return now;
            }
            at = at.min(ready);
        }
        at
    }

    /// A deterministic hash of an issue attempt, so both models see the
    /// same load stalls and latencies whatever order they ask in.
    fn attempt_hash(e: &IqEntry, now: Cycle) -> u64 {
        let mut h = (e.tid as u64) << 56 ^ e.seq << 20 ^ now;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// The entries of `q` in dispatch order.
    fn contents(q: &IssueQueue) -> Vec<IqEntry> {
        q.in_age_order().copied().collect()
    }

    fn key(e: &IqEntry) -> (usize, u64, Cycle, [Option<PhysReg>; 2], InstClass) {
        (e.tid, e.seq, e.entered, e.src_phys, e.class)
    }

    /// Per-trace machine state outside the queues: register producers and
    /// per-thread sequence numbers, mirroring rename's rules.
    struct Regs {
        /// The queued producer of each register, if it has not issued.
        producer: Vec<Option<(usize, u64)>>,
        /// Destination register of each queued producer.
        dest: BTreeMap<(usize, u64), PhysReg>,
        next_seq: Vec<u64>,
    }

    impl Regs {
        /// Purges `tid`'s entries with `seq > bound` from both models (the
        /// squash and FLUSH shape) and reuses the squashed sequence numbers.
        fn purge(
            &mut self,
            new: &mut [IssueQueue; 3],
            reference: &mut [Vec<IqEntry>; 3],
            tid: usize,
            bound: u64,
        ) {
            let doomed = |e: &IqEntry| e.tid == tid && e.seq > bound;
            for q in reference.iter_mut() {
                for e in q.iter().filter(|e| doomed(e)) {
                    if let Some(p) = self.dest.remove(&(e.tid, e.seq)) {
                        self.producer[p as usize] = None;
                    }
                }
                q.retain(|e| !doomed(e));
            }
            for q in new.iter_mut() {
                q.retain(|e| !doomed(e));
            }
            self.next_seq[tid] = self.next_seq[tid].min(bound + 1);
        }
    }

    /// The wakeup queue is observably identical to the per-cycle Vec scan
    /// it replaced. Random traces on random capacities, FU limits and
    /// thread counts dispatch entries with renamed sources (producers that
    /// may not have issued yet, across all three queues), issue them with
    /// random latencies — some beyond the wake wheel — and random load
    /// stalls, purge them as squashes (before issue) and FLUSHes (after),
    /// restore a queue from its snapshot image, and skip idle cycles up to
    /// the horizon. Every cycle both models must issue the same `(tid,
    /// seq)` sequence, flag the same issue-width-stalled threads, write the
    /// same `ready_at`, hold the same entries in the same order, and report
    /// the same horizon.
    #[test]
    fn wakeup_queue_matches_vec_scan_reference() {
        for case in 0..64u64 {
            let mut rng = Srng::new(0x1a0e ^ case);
            let caps = [0; 3].map(|_| rng.range_u32(1, 33));
            let fu = [0; 3].map(|_| rng.range_u32(1, 7));
            let regs = rng.range(8, 64) as usize;
            let threads = rng.range(1, 5) as usize;
            let far_latencies = rng.chance(0.5);
            let mut new = caps.map(|c| IssueQueue::new(c, regs));
            let mut reference: [Vec<IqEntry>; 3] = Default::default();
            let mut ready_new = vec![0u64; regs];
            let mut ready_ref = ready_new.clone();
            let mut st = Regs {
                producer: vec![None; regs],
                dest: BTreeMap::new(),
                next_seq: vec![0; threads],
            };
            let mut now: Cycle = rng.range(0, 1000);
            for _ in 0..600 {
                let what = format!("case {case}, cycle {now}");
                if rng.chance(0.04) {
                    let tid = rng.range(0, threads as u64) as usize;
                    let bound = st.next_seq[tid].saturating_sub(rng.range(1, 10));
                    st.purge(&mut new, &mut reference, tid, bound);
                }
                for (which, &fu_limit) in fu.iter().enumerate() {
                    let dest = &st.dest;
                    let exec = |e: &IqEntry| {
                        let h = attempt_hash(e, now);
                        if e.class == InstClass::Load && h.is_multiple_of(4) {
                            return None;
                        }
                        let lat = if far_latencies && h % 8 == 1 {
                            200 + h % 400
                        } else {
                            1 + h % 12
                        };
                        Some((now + lat, dest.get(&(e.tid, e.seq)).copied()))
                    };
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    let stalled_new = select(&mut new, which, now, fu_limit, &mut ready_new, |e| {
                        exec(e).inspect(|_| got.push((e.tid, e.seq)))
                    });
                    let stalled_ref = reference_select(
                        &mut reference,
                        which,
                        now,
                        fu_limit,
                        &mut ready_ref,
                        |e| exec(e).inspect(|_| want.push((e.tid, e.seq))),
                    );
                    assert_eq!(got, want, "{what}: queue {which} issue order");
                    assert_eq!(stalled_new, stalled_ref, "{what}: queue {which} stalls");
                    for id in got {
                        if let Some(p) = st.dest.remove(&id) {
                            st.producer[p as usize] = None;
                        }
                    }
                }
                assert_eq!(ready_new, ready_ref, "{what}: ready_at");
                if rng.chance(0.03) {
                    let tid = rng.range(0, threads as u64) as usize;
                    let bound = st.next_seq[tid].saturating_sub(rng.range(1, 10));
                    st.purge(&mut new, &mut reference, tid, bound);
                }
                for _ in 0..rng.range(0, 5) {
                    let tid = rng.range(0, threads as u64) as usize;
                    let which = rng.range(0, 3) as usize;
                    if new[which].is_full() {
                        continue;
                    }
                    let seq = st.next_seq[tid];
                    st.next_seq[tid] += 1;
                    // A source is a register whose value is ready or whose
                    // producer is an older queued instruction of the thread.
                    let mut source = || {
                        let p = rng.range_u32(0, regs as u64);
                        let ok = match st.producer[p as usize] {
                            Some((t, s)) => t == tid && s < seq,
                            None => ready_ref[p as usize] != u64::MAX,
                        };
                        (ok && rng.chance(0.8)).then_some(p)
                    };
                    let src_phys = [source(), source()];
                    // Rename never hands out a register an in-flight
                    // consumer still reads.
                    let p = rng.range_u32(0, regs as u64);
                    let reads_p = |e: &IqEntry| e.src_phys.contains(&Some(p));
                    if rng.chance(0.7)
                        && st.producer[p as usize].is_none()
                        && !reference.iter().flatten().any(reads_p)
                        && !src_phys.contains(&Some(p))
                    {
                        ready_new[p as usize] = u64::MAX;
                        ready_ref[p as usize] = u64::MAX;
                        st.producer[p as usize] = Some((tid, seq));
                        st.dest.insert((tid, seq), p);
                    }
                    let class = match which {
                        0 => InstClass::IntAlu,
                        1 if rng.chance(0.5) => InstClass::Load,
                        1 => InstClass::Store,
                        _ => InstClass::FpAlu,
                    };
                    let e = IqEntry {
                        tid,
                        seq,
                        entered: now,
                        wake: now + 1,
                        src_phys,
                        class,
                        wrong_path: false,
                        mem_addr: Some(Addr::new(0x1000 + 8 * seq)),
                    };
                    reference[which].push(e);
                    new[which].insert(e, &ready_new, now);
                }
                for which in 0..3 {
                    let got: Vec<_> = contents(&new[which]).iter().map(key).collect();
                    let want: Vec<_> = reference[which].iter().map(key).collect();
                    assert_eq!(got, want, "{what}: queue {which} contents");
                    // Every cached wake is exact.
                    for e in contents(&new[which]) {
                        let mut wake = e.entered + 1;
                        for &p in e.src_phys.iter().flatten() {
                            wake = wake.max(ready_new[p as usize]);
                        }
                        assert_eq!(e.wake, wake, "{what}: queue {which} wake");
                    }
                }
                now += 1;
                if rng.chance(0.05) {
                    // Restore one queue from its snapshot image.
                    let which = rng.range(0, 3) as usize;
                    let mut w = SnapWriter::new();
                    new[which].save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut restored = IssueQueue::new(caps[which], regs);
                    let mut r = SnapReader::new(&bytes);
                    restored.load_state(&mut r, threads, "queue").expect("load");
                    restored.relink(&ready_new, now, "queue").expect("relink");
                    new[which] = restored;
                }
                let at = next_issue(&new, now);
                assert_eq!(
                    at,
                    reference_next_issue(&reference, &ready_ref, now),
                    "{what}: horizon"
                );
                if at > now && at != u64::MAX && rng.chance(0.5) {
                    // An idle stretch: the scheduler jumps at most to the
                    // horizon.
                    now += rng.range(0, at - now + 1);
                }
            }
        }
    }
}
