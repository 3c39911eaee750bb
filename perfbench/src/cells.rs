//! The cell layer: a plan of `(workload, engine, policy)` cells, its
//! set-up, the measured batch, the per-cell correctness checks, and the
//! step-only pass of the traced run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use smt_core::{FetchEngineKind, FetchPolicy, SimBuilder, SimStats, Simulator};
use smt_experiments::{RunLength, EXP_SEED};
use smt_isa::SnapWriter;
use smt_workloads::{BenchmarkProfile, Program, Srng, Workload, WorkloadClass};

use crate::report::{median, Digest};
use crate::trace::Tracer;

/// Run length of every `ilp-cells` cell.
pub const ILP_LEN: RunLength = RunLength {
    warmup_cycles: 5_000,
    measure_cycles: 20_000,
};

/// Run length of every `mem-cells` cell: longer than [`ILP_LEN`] because
/// these cells cost a fifth as much per cycle, and their caches need the
/// longer warmup.
pub const MEM_LEN: RunLength = RunLength {
    warmup_cycles: 15_000,
    measure_cycles: 60_000,
};

/// The step-only pass times one `step()` call in this many.
const STEP_SAMPLE_EVERY: u64 = 16;

/// One simulated configuration.
pub struct Cell {
    /// Index into [`Plan::workloads`].
    pub workload: usize,
    pub engine: FetchEngineKind,
    pub policy: FetchPolicy,
    /// Seed of the cell's programs.
    pub seed: u64,
}

/// One workload's programs at one seed, and the cells that run them.
pub struct ProgramSet {
    pub workload: usize,
    pub seed: u64,
    pub cells: Vec<usize>,
}

/// A workload's cells, in run order.
pub struct Plan {
    pub workloads: Vec<Workload>,
    pub cells: Vec<Cell>,
    pub seed: u64,
    pub len: RunLength,
}

impl Plan {
    /// `workloads` × `policies` × engines: workload outermost, engine
    /// innermost (the order the experiment runner uses). Each cell's
    /// programs come from the next value of `seeds`.
    fn sweep(
        workloads: Vec<Workload>,
        policies: &[FetchPolicy],
        mut seeds: impl FnMut() -> u64,
        seed: u64,
        len: RunLength,
    ) -> Plan {
        let mut cells = Vec::new();
        for w in 0..workloads.len() {
            for &policy in policies {
                for engine in FetchEngineKind::all() {
                    cells.push(Cell {
                        workload: w,
                        engine,
                        policy,
                        seed: seeds(),
                    });
                }
            }
        }
        Plan {
            workloads,
            cells,
            seed,
            len,
        }
    }

    /// A plan whose cells each draw their programs from their own seed,
    /// derived from `seed`. A run then averages over as many independent
    /// program draws as it has cells, instead of resting on the handful
    /// of programs one seed builds, so its cost depends little on which
    /// seed it was given.
    fn derived(workloads: Vec<Workload>, seed: u64, len: RunLength) -> Plan {
        let mut rng = Srng::new(seed);
        Plan::sweep(
            workloads,
            &FetchPolicy::paper_sweep(),
            || rng.next_u64(),
            seed,
            len,
        )
    }

    /// The ILP suite × the paper's four ICOUNT policies × 3 engines.
    pub fn ilp(seed: u64) -> Plan {
        Plan::derived(Workload::ilp_suite(), seed, ILP_LEN)
    }

    /// 2_MEM and 4_MEM × the paper's four ICOUNT policies × 3 engines.
    pub fn mem(seed: u64) -> Plan {
        Plan::derived(vec![Workload::mem2(), Workload::mem4()], seed, MEM_LEN)
    }

    /// The distinct cells `figures::all` simulates, at the library's fixed
    /// seed: the ILP suite and the memory-bounded suite under every paper
    /// policy (Figures 2 and 4–8), and each benchmark alone under
    /// ICOUNT.1.16 (the superscalar comparison).
    pub fn figures(len: RunLength) -> Plan {
        let mut workloads = Workload::ilp_suite();
        workloads.extend(Workload::mem_suite());
        let mut plan = Plan::sweep(
            workloads,
            &FetchPolicy::paper_sweep(),
            || EXP_SEED,
            EXP_SEED,
            len,
        );
        for p in BenchmarkProfile::all() {
            let solo = Workload::custom(format!("1_{}", p.name), WorkloadClass::Ilp, &[p.name])
                .expect("compiled-in benchmark names are valid");
            plan.workloads.push(solo);
            for engine in FetchEngineKind::all() {
                plan.cells.push(Cell {
                    workload: plan.workloads.len() - 1,
                    engine,
                    policy: FetchPolicy::icount(1, 16),
                    seed: EXP_SEED,
                });
            }
        }
        plan
    }

    pub fn workload(&self, cell: &Cell) -> &Workload {
        &self.workloads[cell.workload]
    }

    pub fn label(&self, cell: &Cell) -> String {
        format!(
            "{} {} {} seed {:#x}",
            self.workload(cell).name(),
            cell.engine,
            cell.policy,
            cell.seed
        )
    }

    /// The plan's distinct (workload, seed) program sets, in plan order,
    /// each with the indices of the cells that run it.
    pub fn program_sets(&self) -> Vec<ProgramSet> {
        let mut sets: Vec<ProgramSet> = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            match sets
                .iter_mut()
                .find(|s| s.workload == c.workload && s.seed == c.seed)
            {
                Some(s) => s.cells.push(i),
                None => sets.push(ProgramSet {
                    workload: c.workload,
                    seed: c.seed,
                    cells: vec![i],
                }),
            }
        }
        sets
    }

    fn builder(&self, cell: &Cell, programs: Vec<Arc<Program>>) -> SimBuilder {
        SimBuilder::new_shared(programs)
            .fetch_engine(cell.engine)
            .fetch_policy(cell.policy)
    }

    fn build(&self, cell: &Cell, programs: Vec<Arc<Program>>) -> Simulator {
        self.builder(cell, programs)
            .build()
            .expect("table 3 configuration with 1..=8 threads builds")
    }

    /// The cell's programs from the process-wide program cache.
    pub fn programs(&self, cell: &Cell) -> Vec<Arc<Program>> {
        self.workload(cell)
            .programs_shared(cell.seed)
            .expect("compiled-in workloads build")
    }
}

/// Set-up timings, one entry per repetition.
pub struct Setup {
    pub programs_s: Vec<f64>,
    pub build_s: Vec<f64>,
    /// Static instructions over the plan's distinct programs.
    pub static_insts: u64,
}

impl Setup {
    /// The time before the first simulated cycle: the median repetition
    /// of program synthesis plus simulator builds.
    pub fn total_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .programs_s
            .iter()
            .zip(&self.build_s)
            .map(|(p, b)| p + b)
            .collect();
        median(&totals)
    }
}

/// Synthesises every program set of the plan and builds a simulator for
/// each of its cells, `reps` times.
///
/// The first repetition goes through the program cache while it is cold,
/// which also fills it for the measured run. The cache is process-wide,
/// so later repetitions synthesise each program set with
/// `Workload::programs`, which does the same work without the cache; only
/// `paper-figures`, whose workloads share thread programs at its one seed,
/// synthesises a shared program once per workload there. Programs and
/// simulators are dropped set by set, so set-up does not raise the peak
/// memory of the run.
pub fn setup(plan: &Plan, reps: usize, tr: &mut Tracer) -> Setup {
    let mut out = Setup {
        programs_s: Vec::new(),
        build_s: Vec::new(),
        static_insts: 0,
    };
    let mut distinct = BTreeMap::new();
    for rep in 0..reps {
        let (mut programs_s, mut build_s) = (0.0, 0.0);
        tr.span("setup", None, |tr| {
            for set in plan.program_sets() {
                let workload = &plan.workloads[set.workload];
                let t = Instant::now();
                let programs: Vec<Arc<Program>> = tr.span("workloads.programs", None, |_| {
                    if rep == 0 {
                        workload.programs_shared(set.seed)
                    } else {
                        workload
                            .programs(set.seed)
                            .map(|ps| ps.into_iter().map(Arc::new).collect())
                    }
                    .expect("compiled-in workloads build")
                });
                programs_s += t.elapsed().as_secs_f64();
                if rep == 0 {
                    distinct.extend(programs.iter().map(|p| (Arc::as_ptr(p), p.len())));
                }
                for &i in &set.cells {
                    let b = plan.builder(&plan.cells[i], programs.clone());
                    let t = Instant::now();
                    let sim = tr.span("core.build", Some(i as u32), |_| b.build());
                    build_s += t.elapsed().as_secs_f64();
                    drop(sim.expect("table 3 configuration with 1..=8 threads builds"));
                }
            }
        });
        out.programs_s.push(programs_s);
        out.build_s.push(build_s);
    }
    out.static_insts = distinct.values().map(|&n| n as u64).sum();
    out
}

/// What one cell produced in a batch.
pub struct CellRun {
    /// Host seconds of the whole cell: program lookup, build, warmup and
    /// measure.
    pub secs: f64,
    /// Statistics of the measured window.
    pub stats: SimStats,
    /// Cycles and skipped cycles of the warmup window.
    pub warm_cycles: u64,
    pub warm_skipped: u64,
}

impl CellRun {
    pub fn stepped(&self) -> u64 {
        self.warm_cycles - self.warm_skipped + self.stats.cycles - self.stats.skipped_cycles()
    }
}

/// Runs one cell the way the experiment runner does: build, warm up,
/// reset the statistics, measure.
pub fn run_cell(plan: &Plan, i: usize, tr: &mut Tracer) -> CellRun {
    let cell = &plan.cells[i];
    let id = Some(i as u32);
    let t = Instant::now();
    tr.span("cell", id, |tr| {
        let programs = tr.span("workloads.programs", id, |_| plan.programs(cell));
        let mut sim = tr.span("core.build", id, |_| plan.build(cell, programs));
        let warm = tr.span("core.warmup", id, |_| {
            let s = sim.run_cycles(plan.len.warmup_cycles);
            (s.cycles, s.skipped_cycles())
        });
        sim.reset_stats();
        let stats = tr.span("core.measure", id, |_| {
            sim.run_cycles(plan.len.measure_cycles).clone()
        });
        CellRun {
            secs: t.elapsed().as_secs_f64(),
            stats,
            warm_cycles: warm.0,
            warm_skipped: warm.1,
        }
    })
}

/// The serialized form of a cell's statistics: what the digest covers and
/// what the step-only comparison compares byte for byte.
pub fn stats_bytes(s: &SimStats) -> Vec<u8> {
    let mut w = SnapWriter::new();
    s.save_state(&mut w);
    w.into_bytes()
}

/// Adds a cell's identity and statistics to `d`.
pub fn digest_cell(d: &mut Digest, label: &str, s: &SimStats) {
    d.str(label);
    d.bytes(&stats_bytes(s));
}

/// The exact invariants every measured cell must satisfy; returns what
/// failed.
pub fn check_cell(s: &SimStats, threads: usize, commit_width: u32) -> Vec<String> {
    let mut bad = Vec::new();
    for t in 0..threads {
        if s.stalls.total(t) != s.cycles {
            bad.push(format!(
                "thread {t}: stall buckets sum to {} over {} cycles",
                s.stalls.total(t),
                s.cycles
            ));
        }
    }
    if s.cond_mispredicts > s.cond_branches {
        bad.push(format!(
            "{} conditional mispredicts over {} conditional branches",
            s.cond_mispredicts, s.cond_branches
        ));
    }
    if s.skipped_cycles() > s.cycles {
        bad.push(format!(
            "{} skipped cycles over {} cycles",
            s.skipped_cycles(),
            s.cycles
        ));
    }
    let ipc = s.ipc();
    if !(ipc > 0.0 && ipc <= f64::from(commit_width)) {
        bad.push(format!("IPC {ipc} outside (0, {commit_width}]"));
    }
    bad
}

/// Result of the step-only pass over one cell.
pub struct StepOnly {
    /// Host seconds of the pass (warmup and measure).
    pub secs: f64,
    /// Sampled `step()` durations in nanoseconds.
    pub step_ns: Vec<f64>,
    /// Whether the statistics equal the `run_cycles` pass's once its
    /// skip counters are zeroed.
    pub matches: bool,
}

/// Re-runs cell `i` with one `step()` call per cycle (no fast-forward) and
/// compares its statistics with the `run_cycles` pass.
pub fn step_only(plan: &Plan, i: usize, reference: &SimStats) -> StepOnly {
    let cell = &plan.cells[i];
    let mut sim = plan.build(cell, plan.programs(cell));
    let mut step_ns = Vec::with_capacity(
        usize::try_from(plan.len.measure_cycles / STEP_SAMPLE_EVERY).unwrap_or(0) + 1,
    );
    let t0 = Instant::now();
    for _ in 0..plan.len.warmup_cycles {
        sim.step();
    }
    sim.reset_stats();
    for c in 0..plan.len.measure_cycles {
        if c % STEP_SAMPLE_EVERY == 0 {
            let t = Instant::now();
            sim.step();
            step_ns.push(t.elapsed().as_nanos() as f64);
        } else {
            sim.step();
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let mut expect = reference.clone();
    expect.skip_mem_wait = 0;
    expect.skip_issue_wait = 0;
    expect.skip_ftq_wait = 0;
    expect.skip_policy_idle = 0;
    StepOnly {
        secs,
        step_ns,
        matches: stats_bytes(sim.stats()) == stats_bytes(&expect),
    }
}
