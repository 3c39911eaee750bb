//! Replay harness for the `workloads`, `bpred` and `mem` per-layer
//! metrics.
//!
//! Each workload's own `Walker` streams, built from the benchmark's seed,
//! are captured once (timing `Walker::next_inst`) and then fed into each
//! predictor structure and into the memory hierarchy through their public
//! functions. Every call is counted exactly; each structure's calls are
//! timed as one loop so the timer never sits inside a call.

use std::hint::black_box;
use std::time::Instant;

use smt_bpred::{
    Btb, Ftb, GlobalHistory, Gshare, Gskew, ObservedEnd, ObservedStream, ReturnStack, StreamPath,
    StreamPredictor,
};
use smt_isa::{Addr, BranchKind, DynInst, InstClass};
use smt_mem::MemoryHierarchy;
use smt_workloads::{Walker, Workload};

use crate::report::{ratio, Metrics};

/// Correct-path instructions captured per workload (split over its
/// threads).
const INSTS_PER_WORKLOAD: u64 = 240_000;

/// Synthetic cycles between the fetch, load and store passes, so every
/// fill of one pass has returned before the next starts.
const PASS_GAP: u64 = 10_000;

/// Host time and exact work of one replayed structure.
#[derive(Default)]
struct Tally {
    ns: f64,
    /// Calls into the structure.
    ops: u64,
    /// Correct predictions (or hits) out of `tries`.
    good: u64,
    tries: u64,
}

impl Tally {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as f64;
        r
    }

    fn ns_per_op(&self) -> f64 {
        ratio(self.ns, self.ops as f64)
    }

    fn frac(&self) -> f64 {
        ratio(self.good as f64, self.tries as f64)
    }
}

/// A taken-branch-terminated run of instructions: the unit the FTB and
/// the stream predictor describe.
struct Block {
    start: Addr,
    branch_pc: Addr,
    /// Instructions from `start` through the branch.
    len: u32,
    kind: BranchKind,
    target: Addr,
}

/// The per-thread streams the structures consume, extracted from the
/// captured instructions before any timing starts.
#[derive(Default)]
struct Streams {
    cond: Vec<(Addr, bool)>,
    branches: Vec<(Addr, BranchKind, bool, Addr)>,
    /// Calls (with their return address) and returns (with their target).
    ras: Vec<(BranchKind, Addr)>,
    blocks: Vec<Block>,
    fetch_lines: Vec<Addr>,
    loads: Vec<Addr>,
    stores: Vec<Addr>,
}

impl Streams {
    fn from_insts(insts: &[DynInst]) -> Streams {
        let mut s = Streams::default();
        let mut start = insts.first().map_or(Addr::NULL, |i| i.pc);
        let mut line = None;
        for i in insts {
            let l = i.pc.raw() >> 6;
            if line != Some(l) {
                line = Some(l);
                s.fetch_lines.push(i.pc);
            }
            match i.class {
                InstClass::Load => s.loads.extend(i.mem.map(|m| m.addr)),
                InstClass::Store => s.stores.extend(i.mem.map(|m| m.addr)),
                InstClass::Branch(kind) => {
                    if kind == BranchKind::Cond {
                        s.cond.push((i.pc, i.taken));
                    }
                    s.branches.push((i.pc, kind, i.taken, i.next_pc));
                    match kind {
                        BranchKind::Call => s.ras.push((kind, i.pc.add_insts(1))),
                        BranchKind::Return => s.ras.push((kind, i.next_pc)),
                        _ => {}
                    }
                    if i.taken {
                        let len = start.insts_until(i.pc).map_or(0, |d| d + 1);
                        s.blocks.push(Block {
                            start,
                            branch_pc: i.pc,
                            len: u32::try_from(len).unwrap_or(u32::MAX),
                            kind,
                            target: i.next_pc,
                        });
                        start = i.next_pc;
                        line = None;
                    }
                }
                _ => {}
            }
        }
        s
    }
}

/// Accumulated replay results over every workload of a plan.
#[derive(Default)]
pub struct Replay {
    walk: Tally,
    gshare: Tally,
    gskew: Tally,
    btb: Tally,
    ftb: Tally,
    stream: Tally,
    ras: Tally,
    fetch: Tally,
    load: Tally,
    store: Tally,
    l1i: (u64, u64),
    l1d: (u64, u64),
    l2: (u64, u64),
    dtlb: (u64, u64),
}

impl Replay {
    /// Captures `workload`'s streams at `seed` and replays them. Each
    /// workload gets fresh structures shared by its threads, as in the
    /// simulated machine.
    pub fn workload(&mut self, workload: &Workload, seed: u64) {
        let programs = workload
            .programs_shared(seed)
            .expect("compiled-in workloads build");
        let per_thread = INSTS_PER_WORKLOAD / programs.len() as u64;
        let mut gshare = Gshare::hpca2004();
        let mut gskew = Gskew::hpca2004();
        let mut btb = Btb::hpca2004();
        let mut ftb = Ftb::hpca2004();
        let mut stream = StreamPredictor::hpca2004();
        let mut mem = MemoryHierarchy::hpca2004(programs.len());
        let mut now = 0u64;
        let mut insts = Vec::with_capacity(usize::try_from(per_thread).unwrap_or(0));
        for (t, program) in programs.into_iter().enumerate() {
            let mut walker = Walker::new(program, t);
            insts.clear();
            self.walk.time(|| {
                for _ in 0..per_thread {
                    insts.push(walker.next_inst());
                }
            });
            self.walk.ops += per_thread;
            let s = Streams::from_insts(&insts);

            let good = self.gshare.time(|| {
                let mut h = GlobalHistory::new(16);
                let mut good = 0;
                for &(pc, taken) in &s.cond {
                    good += u64::from(gshare.predict(pc, h) == taken);
                    gshare.update(pc, h, taken);
                    h.push(taken);
                }
                good
            });
            self.gshare.good += good;
            self.gshare.ops += 2 * s.cond.len() as u64;
            self.gshare.tries += s.cond.len() as u64;

            let good = self.gskew.time(|| {
                let mut h = GlobalHistory::new(15);
                let mut good = 0;
                for &(pc, taken) in &s.cond {
                    good += u64::from(gskew.predict(pc, h) == taken);
                    gskew.update(pc, h, taken);
                    h.push(taken);
                }
                good
            });
            self.gskew.good += good;
            self.gskew.ops += 2 * s.cond.len() as u64;
            self.gskew.tries += s.cond.len() as u64;

            let taken = s.branches.iter().filter(|b| b.2).count() as u64;
            self.btb.time(|| {
                for &(pc, kind, taken, target) in &s.branches {
                    black_box(btb.lookup(pc));
                    if taken {
                        btb.record_taken(pc, target, kind);
                    }
                }
            });
            self.btb.ops += s.branches.len() as u64 + taken;

            self.ftb.time(|| {
                for b in &s.blocks {
                    black_box(ftb.lookup(b.start));
                    ftb.record_taken(
                        b.start,
                        ObservedEnd {
                            branch_pc: b.branch_pc,
                            kind: b.kind,
                            target: b.target,
                        },
                    );
                }
            });
            self.ftb.ops += 2 * s.blocks.len() as u64;

            let good = self.stream.time(|| {
                let mut path = StreamPath::new();
                let mut good = 0;
                for b in &s.blocks {
                    let observed = ObservedStream {
                        len: b.len,
                        kind: b.kind,
                        target: b.target,
                    };
                    let hit = stream.predict(b.start, &path).is_some_and(|p| {
                        p.len == observed.len && p.end.is_some_and(|e| e.target == b.target)
                    });
                    good += u64::from(hit);
                    stream.train(b.start, &path, observed);
                    path.push(b.start);
                }
                good
            });
            self.stream.good += good;
            self.stream.ops += 2 * s.blocks.len() as u64;
            self.stream.tries += s.blocks.len() as u64;

            let mut ras = ReturnStack::hpca2004();
            let good = self.ras.time(|| {
                let mut good = 0;
                for &(kind, addr) in &s.ras {
                    if kind == BranchKind::Call {
                        ras.push(addr);
                    } else {
                        good += u64::from(ras.pop() == addr);
                    }
                }
                good
            });
            let (pushes, pops) = ras.stats();
            self.ras.good += good;
            self.ras.ops += pushes + pops;
            self.ras.tries += pops;

            self.fetch.time(|| {
                for &pc in &s.fetch_lines {
                    now += 1;
                    black_box(mem.fetch(pc, now));
                }
            });
            self.fetch.ops += s.fetch_lines.len() as u64;
            now += PASS_GAP;
            self.load.time(|| {
                for &a in &s.loads {
                    now += 1;
                    black_box(mem.load(a, now));
                }
            });
            self.load.ops += s.loads.len() as u64;
            now += PASS_GAP;
            self.store.time(|| {
                for &a in &s.stores {
                    now += 1;
                    mem.store(a, now);
                }
            });
            self.store.ops += s.stores.len() as u64;
            now += PASS_GAP;
        }
        // Hit fractions come from the structures' own counters.
        for (t, (lookups, hits)) in [(&mut self.btb, btb.stats()), (&mut self.ftb, ftb.stats())] {
            t.tries += lookups;
            t.good += hits;
        }
        let (l1i, l1d, l2) = mem.cache_stats();
        for (acc, c) in [
            (&mut self.l1i, l1i),
            (&mut self.l1d, l1d),
            (&mut self.l2, l2),
        ] {
            acc.0 += c.accesses;
            acc.1 += c.accesses - c.hits;
        }
        let (_, dtlb) = mem.tlb_stats();
        self.dtlb.0 += dtlb.0;
        self.dtlb.1 += dtlb.1;
    }

    pub fn metrics(&self, m: &mut Metrics) {
        m.add("workloads.walk_ns_per_inst", self.walk.ns_per_op(), "ns");
        m.count("replay.insts", self.walk.ops);
        for (name, t, frac) in [
            ("gshare", &self.gshare, "accuracy"),
            ("gskew", &self.gskew, "accuracy"),
            ("btb", &self.btb, "hit_frac"),
            ("ftb", &self.ftb, "hit_frac"),
            ("stream", &self.stream, "accuracy"),
            ("ras", &self.ras, "accuracy"),
        ] {
            m.add(format!("bpred.{name}.ns_per_op"), t.ns_per_op(), "ns");
            m.count(format!("bpred.{name}.ops"), t.ops);
            m.add(format!("bpred.{name}.{frac}"), t.frac(), "frac");
        }
        for (name, t) in [
            ("fetch", &self.fetch),
            ("load", &self.load),
            ("store", &self.store),
        ] {
            m.add(format!("mem.{name}_ns"), t.ns_per_op(), "ns");
            m.count(format!("mem.{name}_calls"), t.ops);
        }
        for (name, (accesses, misses)) in [
            ("l1i", self.l1i),
            ("l1d", self.l1d),
            ("l2", self.l2),
            ("dtlb", self.dtlb),
        ] {
            m.add(
                format!("mem.{name}_miss_frac"),
                ratio(misses as f64, accesses as f64),
                "frac",
            );
        }
    }
}
