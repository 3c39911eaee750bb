//! The issue queue with tag-broadcast wakeup (DESIGN.md §14.4).
//!
//! One [`IssueQueue`] serves each of the int, load/store and fp classes.
//! Entries live in a fixed slot array; per-slot bit masks say which slots
//! are live and which are issue *candidates* (every source ready, aged one
//! cycle). An entry that is not a candidate waits in exactly one place:
//!
//! * **parked** on the waiter mask of its first unresolved source register
//!   (`ready_at == u64::MAX`: the producer has not issued), or
//! * **timed** on a 256-bucket wake wheel keyed by its finite wake cycle
//!   (a small far set holds wakes 256 or more cycles out).
//!
//! The structure is exact, not a heuristic. `ready_at` is written only at
//! rename (`u64::MAX`, for a register no in-flight consumer reads) and when
//! a producer issues (`done_at ≥ now + 1`), so a queued entry's readiness
//! changes only when one of its producers issues — which is when
//! [`select`] broadcasts the tag to every queue's waiter mask. Select then
//! walks only the candidates, oldest first, and the scheduler's horizon
//! reads the candidate mask and the first occupied wheel bucket without
//! touching a parked entry.

use smt_isa::{snap_mismatch, Cycle, Diagnostic, Snap, SnapReader, SnapWriter, MAX_THREADS};

use super::IqEntry;
use crate::window::PhysReg;

/// One bit per queue slot.
type SlotMask = u32;

/// The most entries an issue queue can hold: one per bit of a slot mask.
/// `SimConfig::validate` rejects larger queues (E0019).
pub(crate) const MAX_IQ_ENTRIES: u32 = SlotMask::BITS;

const SLOTS: usize = MAX_IQ_ENTRIES as usize;

/// Wake-wheel buckets. Must exceed the longest finite wait an operand can
/// impose (a load: 1 + 30 + 10 + 100 cycles), so the far set stays a
/// fallback; a power of two so the bucket is the wake cycle's low bits.
const WHEEL: usize = 256;

/// Placeholder for unoccupied slots (never read while its slot is free).
const VACANT: IqEntry = IqEntry {
    tid: 0,
    seq: 0,
    entered: 0,
    wake: u64::MAX,
    src_phys: [None, None],
    class: smt_isa::InstClass::IntAlu,
    wrong_path: false,
    mem_addr: None,
};

/// Iterates the set bits of a slot mask, lowest first.
fn slots(mut m: SlotMask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let s = m.trailing_zeros() as usize;
            m &= m - 1;
            s
        })
    })
}

/// One issue queue: a fixed slot array with an age matrix, live and
/// candidate masks, per-register waiter masks and a wake wheel.
#[derive(Clone, Debug)]
pub(crate) struct IssueQueue {
    entries: [IqEntry; SLOTS],
    /// The age matrix: `older[s]` holds every slot whose entry was
    /// dispatched before slot `s`'s. Bits of since-vacated slots may linger
    /// (readers mask with `live`); a slot's bit is cleared from every row
    /// when the slot is refilled, since its new entry is the youngest.
    older: [SlotMask; SLOTS],
    /// Per thread, the slots its live entries occupy.
    by_tid: [SlotMask; MAX_THREADS],
    /// Slots this queue may use (its configured capacity).
    usable: SlotMask,
    live: SlotMask,
    /// Live entries that can issue now: sources ready, aged one cycle.
    cand: SlotMask,
    /// Per physical register: entries parked on it as their first
    /// unresolved source.
    waiters: Vec<SlotMask>,
    /// Entries with a finite wake `w` in `(now, now + WHEEL)`, in bucket
    /// `w % WHEEL`. The scheduler never jumps past the earliest wake, so
    /// every timed entry satisfies `now ≤ w < now + WHEEL` when issue runs,
    /// and bucket `now % WHEEL` holds exactly the entries due this cycle.
    wheel: [SlotMask; WHEEL],
    /// Occupancy bitmap over the wheel's buckets.
    occupied: [u64; WHEEL / 64],
    /// Entries whose wake was `WHEEL` or more cycles out when scheduled.
    far: SlotMask,
}

impl IssueQueue {
    /// An empty queue of `capacity` (≤ [`MAX_IQ_ENTRIES`]) slots over a
    /// register file of `regs` physical registers.
    pub(crate) fn new(capacity: u32, regs: usize) -> Self {
        debug_assert!(capacity <= MAX_IQ_ENTRIES, "validated capacity");
        IssueQueue {
            entries: [VACANT; SLOTS],
            older: [0; SLOTS],
            by_tid: [0; MAX_THREADS],
            usable: SlotMask::MAX
                .checked_shr(MAX_IQ_ENTRIES.saturating_sub(capacity))
                .unwrap_or(0),
            live: 0,
            cand: 0,
            waiters: vec![0; regs],
            wheel: [0; WHEEL],
            occupied: [0; WHEEL / 64],
            far: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live.count_ones() as usize
    }

    pub(crate) fn is_full(&self) -> bool {
        self.live == self.usable
    }

    /// The live entries, in slot order (not dispatch order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &IqEntry> {
        slots(self.live).map(|s| &self.entries[s])
    }

    /// The slots of `mask` (a subset of `live`) in dispatch order, into
    /// `out`; returns the count. A slot's rank is the number of older slots
    /// in the mask.
    fn by_age(&self, mask: SlotMask, out: &mut [usize; SLOTS]) -> usize {
        for s in slots(mask) {
            out[(self.older[s] & mask).count_ones() as usize] = s;
        }
        mask.count_ones() as usize
    }

    /// The live entries in dispatch order.
    pub(crate) fn in_age_order(&self) -> impl Iterator<Item = &IqEntry> {
        let mut order = [0; SLOTS];
        let n = self.by_age(self.live, &mut order);
        (0..n).map(move |i| &self.entries[order[i]])
    }

    /// Appends a dispatched entry (the caller checked [`Self::is_full`])
    /// and files it by its operand state.
    pub(crate) fn insert(&mut self, e: IqEntry, ready_at: &[Cycle], now: Cycle) {
        let free = self.usable & !self.live;
        debug_assert!(free != 0, "dispatch checks queue capacity");
        let s = free.trailing_zeros() as usize % SLOTS;
        let bit = 1 << s;
        for row in &mut self.older {
            *row &= !bit;
        }
        self.older[s] = self.live;
        self.by_tid[e.tid] |= bit;
        self.entries[s] = e;
        self.live |= bit;
        self.schedule(s, ready_at, now);
    }

    /// Recomputes live slot `s`'s wake cycle — `max(entered + 1, ready_at
    /// of every source)`, `u64::MAX` while a source is unresolved — and
    /// files the slot as a candidate, on the wheel, in the far set, or on
    /// the waiter mask of its first unresolved source.
    fn schedule(&mut self, s: usize, ready_at: &[Cycle], now: Cycle) {
        let bit = 1 << s;
        let e = &mut self.entries[s];
        let mut wake = e.entered + 1;
        for &p in e.src_phys.iter().flatten() {
            let r = ready_at[p as usize];
            if r == u64::MAX {
                e.wake = u64::MAX;
                self.waiters[p as usize] |= bit;
                return;
            }
            wake = wake.max(r);
        }
        e.wake = wake;
        if wake <= now {
            self.cand |= bit;
        } else if wake - now < WHEEL as u64 {
            let b = wake as usize % WHEEL;
            self.wheel[b] |= bit;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.far |= bit;
        }
    }

    /// Tag broadcast: register `p`'s producer issued (`ready_at[p]` is now
    /// finite); every entry parked on `p` is filed anew.
    pub(crate) fn wake(&mut self, p: PhysReg, ready_at: &[Cycle], now: Cycle) {
        let parked = std::mem::take(&mut self.waiters[p as usize]);
        for s in slots(parked) {
            self.schedule(s, ready_at, now);
        }
    }

    /// Moves the entries due at `now` — the current wheel bucket and any
    /// expired far entries — into the candidate mask.
    fn promote(&mut self, now: Cycle) {
        let b = now as usize % WHEEL;
        let due = std::mem::take(&mut self.wheel[b]);
        if due != 0 {
            debug_assert!(slots(due).all(|s| self.entries[s].wake == now));
            self.occupied[b / 64] &= !(1 << (b % 64));
            self.cand |= due;
        }
        for s in slots(self.far) {
            if self.entries[s].wake <= now {
                self.far &= !(1 << s);
                self.cand |= 1 << s;
            }
        }
    }

    /// The earliest cycle any entry can issue: `≤ now` if one can issue
    /// this cycle, `u64::MAX` if every entry is parked (or none is live).
    pub(crate) fn next_issue(&self, now: Cycle) -> Cycle {
        if self.cand != 0 {
            return now;
        }
        let mut at = self.first_timed(now);
        for s in slots(self.far) {
            at = at.min(self.entries[s].wake);
        }
        at
    }

    /// The wake cycle of the first occupied wheel bucket at or after `now`.
    fn first_timed(&self, now: Cycle) -> Cycle {
        let start = now as usize % WHEEL;
        let (w0, off) = (start / 64, start % 64);
        let words = WHEEL / 64;
        // The start word's buckets at or after `now`, the other words in
        // wheel order, then the start word's wrapped-around low buckets.
        let first = (0..=words).find_map(|k| {
            let w = (w0 + k) % words;
            let m = match k {
                0 => self.occupied[w] & (u64::MAX << off),
                k if k == words => self.occupied[w] & !(u64::MAX << off),
                _ => self.occupied[w],
            };
            (m != 0).then(|| w * 64 + m.trailing_zeros() as usize)
        });
        first.map_or(u64::MAX, |b| {
            let at = now + ((b + WHEEL - start) % WHEEL) as u64;
            debug_assert!(slots(self.wheel[b]).all(|s| self.entries[s].wake == at));
            at
        })
    }

    /// Drops slot `s` from every structure that may hold it.
    fn unlink(&mut self, s: usize) {
        let bit = 1 << s;
        let e = &self.entries[s];
        self.by_tid[e.tid] &= !bit;
        self.live &= !bit;
        self.cand &= !bit;
        self.far &= !bit;
        if e.wake == u64::MAX {
            for &p in e.src_phys.iter().flatten() {
                self.waiters[p as usize] &= !bit;
            }
        } else {
            let b = e.wake as usize % WHEEL;
            self.wheel[b] &= !bit;
            if self.wheel[b] == 0 {
                self.occupied[b / 64] &= !(1 << (b % 64));
            }
        }
    }

    /// Removes every entry `keep` rejects (the squash and FLUSH purges).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&IqEntry) -> bool) {
        for s in slots(self.live) {
            if !keep(&self.entries[s]) {
                self.unlink(s);
            }
        }
    }

    /// Threads owning a live entry younger than slot `than`'s (every live
    /// entry if `None`), as a bit mask. `than` may have just been vacated:
    /// its age-matrix row stays intact until the slot is refilled.
    fn younger_tids(&self, than: Option<usize>) -> u32 {
        let younger = self.live & !than.map_or(0, |s| self.older[s]);
        (0..MAX_THREADS)
            .filter(|&t| self.by_tid[t] & younger != 0)
            .fold(0, |m, t| m | 1 << t)
    }

    /// Serializes the live entries in dispatch order. The masks, wheel
    /// and waiters are derived state, rebuilt on restore.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for e in self.in_age_order() {
            e.save(w);
        }
    }

    /// Restores the entries saved by [`Self::save_state`] for a machine of
    /// `threads` threads; [`Self::relink`] files them once the register
    /// file is restored.
    ///
    /// # Errors
    ///
    /// `E0018` if the image holds more entries than this queue's capacity,
    /// or an entry names a thread or register the machine does not have.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        threads: usize,
        what: &str,
    ) -> Result<(), Diagnostic> {
        let n = r.usize()?;
        let cap = self.usable.count_ones() as usize;
        if n > cap {
            return Err(snap_mismatch(
                what,
                format!("snapshot holds {n} entries but the queue's capacity is {cap}"),
            ));
        }
        self.by_tid = [0; MAX_THREADS];
        self.live = 0;
        self.cand = 0;
        self.far = 0;
        self.waiters.fill(0);
        self.wheel.fill(0);
        self.occupied.fill(0);
        for s in 0..n {
            let e = IqEntry::load(r)?;
            if e.tid >= threads {
                return Err(snap_mismatch(
                    what,
                    format!("entry names thread {} of a {threads}-thread machine", e.tid),
                ));
            }
            if let Some(p) = e
                .src_phys
                .iter()
                .flatten()
                .find(|&&p| p as usize >= self.waiters.len())
            {
                return Err(snap_mismatch(
                    what,
                    format!(
                        "entry (thread {}, seq {}) reads register {p} of a {}-register file",
                        e.tid,
                        e.seq,
                        self.waiters.len()
                    ),
                ));
            }
            self.entries[s] = e;
            self.older[s] = self.live;
            self.by_tid[e.tid] |= 1 << s;
            self.live |= 1 << s;
        }
        Ok(())
    }

    /// Files every entry loaded by [`Self::load_state`] against the
    /// restored register file.
    ///
    /// # Errors
    ///
    /// `E0018` if an entry was dispatched at or after the restored cycle
    /// `now`, or its stored wake cycle differs from the one its sources'
    /// `ready_at` imply.
    pub(crate) fn relink(
        &mut self,
        ready_at: &[Cycle],
        now: Cycle,
        what: &str,
    ) -> Result<(), Diagnostic> {
        for s in slots(self.live) {
            let e = &self.entries[s];
            if e.entered >= now {
                return Err(snap_mismatch(
                    what,
                    format!(
                        "entry (thread {}, seq {}) entered at cycle {}, not before cycle {now}",
                        e.tid, e.seq, e.entered
                    ),
                ));
            }
            let stored = e.wake;
            self.schedule(s, ready_at, now);
            let e = &self.entries[s];
            if e.wake != stored {
                return Err(snap_mismatch(
                    what,
                    format!(
                        "entry (thread {}, seq {}) caches wake {stored}, its sources imply {}",
                        e.tid, e.seq, e.wake
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// One select pass over queue `which` at cycle `now`: walks the candidates
/// oldest first, calling `exec` on each until `fu_limit` have issued.
/// `exec` returns `None` to leave the entry queued (an MSHR-full load
/// retries next cycle) or the completion cycle and destination register of
/// an issued instruction; select then removes the entry, writes
/// `ready_at[dest]`, and broadcasts the tag to all three queues.
///
/// Returns the issue-width stall set as a thread bit mask: when the FU
/// limit is reached, every thread with a live entry younger than the last
/// issue. (The rule also asks that the entry aged at least one cycle; issue
/// runs before dispatch, so every live entry has.)
pub(crate) fn select(
    queues: &mut [IssueQueue; 3],
    which: usize,
    now: Cycle,
    fu_limit: u32,
    ready_at: &mut [Cycle],
    mut exec: impl FnMut(&IqEntry) -> Option<(Cycle, Option<PhysReg>)>,
) -> u32 {
    let q = &mut queues[which];
    debug_assert!(q.iter().all(|e| e.entered < now), "issue precedes dispatch");
    q.promote(now);
    let mut order = [0; SLOTS];
    let n = q.by_age(q.cand, &mut order);
    let mut issued = 0u32;
    let mut last = None;
    for &s in &order[..n] {
        if issued == fu_limit {
            break;
        }
        let q = &mut queues[which];
        let Some((done_at, dest)) = exec(&q.entries[s]) else {
            continue;
        };
        debug_assert!(done_at > now, "every latency is at least one cycle");
        q.unlink(s);
        last = Some(s);
        issued += 1;
        if let Some(p) = dest {
            ready_at[p as usize] = done_at;
            for q in queues.iter_mut() {
                q.wake(p, ready_at, now);
            }
        }
    }
    if issued < fu_limit {
        return 0;
    }
    queues[which].younger_tids(last)
}

/// The earliest cycle any entry of the three queues can issue (see
/// [`IssueQueue::next_issue`]).
pub(crate) fn next_issue(queues: &[IssueQueue; 3], now: Cycle) -> Cycle {
    queues
        .iter()
        .map(|q| q.next_issue(now))
        .min()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Restore rejects an over-full section, out-of-range registers and
    /// threads, stale wake cycles and entries from the future with E0018.
    #[test]
    fn corrupted_sections_are_diagnostics() {
        let e = IqEntry {
            src_phys: [Some(3), None],
            ..VACANT
        };
        let image = |n: usize, e: IqEntry| {
            let mut w = SnapWriter::new();
            w.usize(n);
            for _ in 0..n {
                e.save(&mut w);
            }
            w.into_bytes()
        };
        let load = |bytes: Vec<u8>| {
            let mut q = IssueQueue::new(4, 8);
            q.load_state(&mut SnapReader::new(&bytes), 2, "queue")
        };
        assert!(load(image(4, e)).is_ok());
        assert_eq!(load(image(5, e)).unwrap_err().code, "E0018");
        let bad_reg = IqEntry {
            src_phys: [None, Some(8)],
            ..e
        };
        assert_eq!(load(image(1, bad_reg)).unwrap_err().code, "E0018");
        let bad_tid = IqEntry { tid: 2, ..e };
        assert_eq!(load(image(1, bad_tid)).unwrap_err().code, "E0018");
        // A cached wake that disagrees with the register file.
        let mut q = IssueQueue::new(4, 8);
        let stale = IqEntry { wake: 7, ..e };
        q.load_state(&mut SnapReader::new(&image(1, stale)), 2, "queue")
            .expect("load");
        assert_eq!(q.relink(&[0; 8], 5, "queue").unwrap_err().code, "E0018");
        // An entry dispatched no earlier than the restored cycle.
        let mut q = IssueQueue::new(4, 8);
        let young = IqEntry {
            entered: 5,
            wake: 6,
            ..e
        };
        q.load_state(&mut SnapReader::new(&image(1, young)), 2, "queue")
            .expect("load");
        assert_eq!(q.relink(&[0; 8], 5, "queue").unwrap_err().code, "E0018");
        assert!(q.relink(&[0; 8], 6, "queue").is_ok());
    }
}
