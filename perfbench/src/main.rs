//! End-to-end and per-layer benchmark of the smtfetch simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-figures|ilp-cells|mem-cells> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed-loop batch run from this one process with at
//! most two threads:
//!
//! * `paper-figures` — one `figures::all` call: the whole artifact plan of
//!   the `all` binary (the library pins its seed at 2004);
//! * `ilp-cells` — the ILP suite × the four paper ICOUNT policies × 3
//!   engines, 48 cells run serially through `SimBuilder`;
//! * `mem-cells` — 2_MEM and 4_MEM × the same policies × 3 engines, 24
//!   cells, serially.
//!
//! In the two cell workloads every cell draws its programs from its own
//! seed, derived from `--seed`.
//!
//! The untraced run (`--trace 0`) sets up eleven times and reports the
//! median (`setup_s`). It then repeats the batch until `--seconds` have
//! passed and reports one batch's time (`wall_s`: the median batch of
//! `paper-figures`, the sum of each cell's median for the cell workloads),
//! the committed simulated instructions per host second over it
//! (`sim_mips`) and the peak resident set (`peak_rss_mb`). Every batch is
//! checked, and must repeat the first batch's results exactly.
//!
//! The traced run (`--trace 1`) records spans around the calls into each
//! layer, runs the step-only pass and the replay harness, and prints the
//! per-layer metrics; its spans are written to `perfbench/out/`. Both runs
//! print `sim_digest`, a hash of every simulated result, which a traced
//! and an untraced run of the same code and seed share. The result line
//! is the last line of standard output.

mod cells;
mod figures;
mod replay;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use smt_core::{FetchEngineKind, SimConfig, SimStats};

use crate::cells::{CellRun, Plan};
use crate::replay::Replay;
use crate::report::{median, peak_rss_mb, percentile, ratio, result_line, Digest, Metrics};
use crate::trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Environment variables that change the timed code path. The benchmark
/// refuses to start while any of them is set.
const GUARDED_ENV: [&str; 6] = [
    "SMT_WARM_START",
    "SMT_MEMO_DIR",
    "SMT_SWEEP_REPORT",
    "SMT_DEBUG_HIST",
    "SMT_EXP_CYCLES",
    "SMT_JOBS",
];

const USAGE: &str = "usage: smt-perfbench --workload <paper-figures|ilp-cells|mem-cells> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    PaperFigures,
    IlpCells,
    MemCells,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::PaperFigures => "paper-figures",
            Kind::IlpCells => "ilp-cells",
            Kind::MemCells => "mem-cells",
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(match value.as_str() {
                    "paper-figures" => Kind::PaperFigures,
                    "ilp-cells" => Kind::IlpCells,
                    "mem-cells" => Kind::MemCells,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run measured and found.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
    digest: Digest,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smt-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "smt-perfbench: refusing to start with {var} set: it changes the timed code path"
        );
        return ExitCode::from(2);
    }
    let budget = Duration::from_secs(args.seconds);
    let out = match args.kind {
        Kind::PaperFigures if args.trace => figures_traced(args.seed),
        Kind::PaperFigures => figures_untraced(budget),
        Kind::IlpCells | Kind::MemCells => {
            let plan = if args.kind == Kind::IlpCells {
                Plan::ilp(args.seed)
            } else {
                Plan::mem(args.seed)
            };
            if args.trace {
                cells_traced(args.kind.name(), &plan)
            } else {
                cells_untraced(&plan, budget)
            }
        }
    };
    for p in out.problems.iter().take(20) {
        eprintln!("smt-perfbench: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty() && out.metrics.all_finite();
    println!(
        "workload {} seed {} trace {}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("sim_digest {}", out.digest.hex());
    for m in &out.metrics.0 {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}

/// Repeats `batch` until `budget` has passed (at least once) and returns
/// each batch's host seconds.
fn repeat_for<T>(
    budget: Duration,
    mut batch: impl FnMut() -> T,
    mut after: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let out = batch();
        secs.push(t.elapsed().as_secs_f64());
        after(out);
    }
    println!("batches {}", secs.len());
    secs
}

fn end_to_end(m: &mut Metrics, setup_s: f64, wall_s: f64, committed_per_batch: u64) {
    m.add("setup_s", setup_s, "s");
    m.add("wall_s", wall_s, "s");
    m.add(
        "sim_mips",
        ratio(committed_per_batch as f64, wall_s) * 1e-6,
        "MIPS",
    );
    m.add("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
}

/// Runs every cell of `plan` once.
fn run_batch(plan: &Plan, tr: &mut Tracer) -> Vec<CellRun> {
    (0..plan.cells.len())
        .map(|i| cells::run_cell(plan, i, tr))
        .collect()
}

/// Digest of a batch's simulated results.
fn batch_digest(plan: &Plan, runs: &[CellRun]) -> Digest {
    let mut d = Digest::default();
    for (cell, run) in plan.cells.iter().zip(runs) {
        cells::digest_cell(&mut d, &plan.label(cell), &run.stats);
    }
    d
}

/// Applies the per-cell checks; returns one failure flag per cell.
fn check_batch(plan: &Plan, runs: &[CellRun], problems: &mut Vec<String>) -> Vec<bool> {
    let width = SimConfig::default().commit_width;
    plan.cells
        .iter()
        .zip(runs)
        .map(|(cell, run)| {
            let bad = cells::check_cell(&run.stats, plan.workload(cell).num_threads(), width);
            for b in &bad {
                problems.push(format!("{}: {b}", plan.label(cell)));
            }
            !bad.is_empty()
        })
        .collect()
}

fn cells_untraced(plan: &Plan, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let setup = cells::setup(plan, SETUP_REPS, &mut off);
    let mut first: Option<Vec<Vec<u8>>> = None;
    let mut committed = 0;
    let mut problems = Vec::new();
    let mut cell_s = vec![Vec::new(); plan.cells.len()];
    repeat_for(
        budget,
        || run_batch(plan, &mut off),
        |runs| {
            for (times, run) in cell_s.iter_mut().zip(&runs) {
                times.push(run.secs);
            }
            let mut failed = check_batch(plan, &runs, &mut problems);
            let bytes: Vec<Vec<u8>> = runs.iter().map(|r| cells::stats_bytes(&r.stats)).collect();
            match &first {
                None => {
                    out.digest = batch_digest(plan, &runs);
                    committed = runs.iter().map(|r| r.stats.total_committed()).sum();
                    first = Some(bytes);
                }
                Some(reference) => {
                    for (i, (a, b)) in reference.iter().zip(&bytes).enumerate() {
                        if a != b {
                            failed[i] = true;
                            problems.push(format!(
                                "{}: statistics differ from the first batch",
                                plan.label(&plan.cells[i])
                            ));
                        }
                    }
                }
            }
            out.attempted += failed.len() as u64;
            out.failed += failed.iter().filter(|&&f| f).count() as u64;
        },
    );
    out.problems = problems;
    // One pass over the plan, from each cell's median over the passes.
    let wall_s = cell_s.iter().map(|t| median(t)).sum();
    end_to_end(&mut out.metrics, setup.total_s(), wall_s, committed);
    out
}

fn figures_untraced(budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::figures(figures::FIG_LEN);
    let mut off = Tracer::new(false);
    let setup = cells::setup(&plan, SETUP_REPS, &mut off);
    let jobs = figures::jobs();
    let mut first: Option<Digest> = None;
    let mut committed = 0;
    let mut problems = Vec::new();
    let batch_s = repeat_for(
        budget,
        || figures::run(jobs, &mut off),
        |exps| {
            let c = figures::check(&exps);
            out.attempted += c.rows;
            match first {
                None => {
                    out.digest = c.digest;
                    committed = c.committed;
                    first = Some(c.digest);
                    out.failed += c.failed;
                }
                Some(d) if d != c.digest => {
                    problems.push("artifact plan results differ from the first batch".into());
                    out.failed += c.rows;
                }
                Some(_) => out.failed += c.failed,
            }
            problems.extend(c.problems);
        },
    );
    out.problems = problems;
    end_to_end(
        &mut out.metrics,
        setup.total_s(),
        median(&batch_s),
        committed,
    );
    out
}

/// Host-time totals of one traced batch, over the spans of its layers.
struct Traced {
    runs: Vec<CellRun>,
    untraced_s: f64,
    traced_s: f64,
}

/// Runs the batch untraced, traced, and untraced again, checks that all
/// give the same simulated results, and keeps the traced results. The
/// untraced time is the mean of the passes on either side.
fn traced_batch(plan: &Plan, tr: &mut Tracer, out: &mut Outcome) -> Traced {
    let ([before, runs, after], untraced_s, traced_s) = bracket(
        || run_batch(plan, &mut Tracer::new(false)),
        || tr.span("batch", None, |tr| run_batch(plan, tr)),
    );
    let d = batch_digest(plan, &runs);
    for (pass, other) in [("first", &before), ("second", &after)] {
        let u = batch_digest(plan, other);
        if u != d {
            out.problems.push(format!(
                "traced digest {} != {pass} untraced digest {}",
                d.hex(),
                u.hex()
            ));
        }
    }
    out.digest = d;
    Traced {
        runs,
        untraced_s,
        traced_s,
    }
}

/// Runs `untraced`, then `traced`, then `untraced` again, so that
/// first-pass effects and slow drift fall on both sides. Returns the three
/// results, the mean untraced time and the traced time.
fn bracket<T>(mut untraced: impl FnMut() -> T, traced: impl FnOnce() -> T) -> ([T; 3], f64, f64) {
    let t = Instant::now();
    let a = untraced();
    let ua = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let b = traced();
    let tb = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let c = untraced();
    let uc = t.elapsed().as_secs_f64();
    ([a, b, c], (ua + uc) / 2.0, tb)
}

fn cells_traced(name: &str, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(true);
    let setup = cells::setup(plan, SETUP_REPS, &mut tr);
    let t = traced_batch(plan, &mut tr, &mut out);
    let failed = check_batch(plan, &t.runs, &mut out.problems);
    cell_layers(&mut out, plan, &setup, &t, &tr, failed);
    // No figure is called here; the experiments layer does no work.
    for id in figures::TIMED {
        out.metrics.add(format!("experiments.{id}_s"), 0.0, "s");
    }
    out.metrics
        .count("experiments.cells", plan.cells.len() as u64);
    out.metrics.count("experiments.repeat_cells", 0);
    write_spans(name, plan.seed, &tr, &mut out.problems);
    out
}

fn figures_traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::figures(figures::FIG_LEN);
    let mut tr = Tracer::new(true);
    let setup = cells::setup(&plan, SETUP_REPS, &mut tr);
    let jobs = figures::jobs();

    // The experiments layer: the artifact plan bracketed by untraced runs.
    let ([before, exps, after], untraced_s, traced_s) = bracket(
        || figures::run(jobs, &mut Tracer::new(false)),
        || tr.span("plan", None, |tr| figures::run(jobs, tr)),
    );
    let c = figures::check(&exps);
    if [&before, &after]
        .iter()
        .any(|u| figures::check(u).digest != c.digest)
    {
        out.problems
            .push("traced and untraced artifact plans differ".into());
    }
    out.digest = c.digest;
    out.attempted += c.rows;
    out.failed += c.failed;
    out.problems.extend(c.problems);

    // The cell layer below it: the plan's distinct cells through
    // `SimBuilder`, each cross-checked against the experiments' row.
    let runs = tr.span("batch", None, |tr| run_batch(&plan, tr));
    let mut failed = check_batch(&plan, &runs, &mut out.problems);
    let rows = figures::rows_by_cell(&exps);
    for (i, (cell, run)) in plan.cells.iter().zip(&runs).enumerate() {
        // The superscalar figure names its rows after the benchmark alone.
        let name = plan.workload(cell).name();
        let workload = name.strip_prefix("1_").unwrap_or(name).to_string();
        let key = (workload, cell.engine.to_string(), cell.policy.to_string());
        if !rows
            .get(&key)
            .is_some_and(|r| figures::row_matches_stats(r, &run.stats))
        {
            failed[i] = true;
            out.problems.push(format!(
                "{}: cell layer disagrees with the experiments layer",
                plan.label(cell)
            ));
        }
    }
    let t = Traced {
        runs,
        untraced_s,
        traced_s,
    };
    cell_layers(&mut out, &plan, &setup, &t, &tr, failed);
    for id in figures::TIMED {
        let secs = tr.total_s(&format!("experiments.{id}"));
        out.metrics.add(format!("experiments.{id}_s"), secs, "s");
    }
    out.metrics.count("experiments.cells", c.rows);
    out.metrics.count("experiments.repeat_cells", c.repeats);
    write_spans("paper-figures", seed, &tr, &mut out.problems);
    out
}

/// Everything a traced run measures below the experiments layer: the
/// layer metrics of the traced batch, the step-only pass, the replay, and
/// the tracing overhead. `failed` holds one flag per cell so far.
fn cell_layers(
    out: &mut Outcome,
    plan: &Plan,
    setup: &cells::Setup,
    t: &Traced,
    tr: &Tracer,
    mut failed: Vec<bool>,
) {
    let m = &mut out.metrics;
    layer_metrics(m, plan, setup, t, tr);
    let step_only_s = step_only_pass(plan, &t.runs, &mut failed, m, &mut out.problems);
    out.attempted += failed.len() as u64;
    out.failed += failed.iter().filter(|&&f| f).count() as u64;
    let mut replay = Replay::default();
    for set in plan.program_sets() {
        replay.workload(&plan.workloads[set.workload], set.seed);
    }
    replay.metrics(m);
    trace_metrics(m, t, tr, step_only_s);
}

/// The `workloads`, `core.sim`, `core.pipeline` and `core.frontend`
/// metrics of a traced batch.
fn layer_metrics(m: &mut Metrics, plan: &Plan, setup: &cells::Setup, t: &Traced, tr: &Tracer) {
    let runs = &t.runs;
    let stats: Vec<&SimStats> = runs.iter().map(|r| &r.stats).collect();
    let sum = |f: &dyn Fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>();

    m.add("workloads.build_ms", median(&setup.programs_s) * 1e3, "ms");
    m.count("workloads.static_insts", setup.static_insts);

    let warmup_s = tr.total_s("core.warmup");
    let measure_s = tr.total_s("core.measure");
    let cycles = sum(&|s| s.cycles);
    let skipped = sum(&|s| s.skipped_cycles());
    let stepped: u64 = runs.iter().map(CellRun::stepped).sum();
    m.add("core.build_ms", median(&setup.build_s) * 1e3, "ms");
    m.add("core.warmup_s", warmup_s, "s");
    m.add("core.measure_s", measure_s, "s");
    m.count("core.cycles", cycles);
    m.count("core.stepped_cycles", cycles - skipped);
    m.add(
        "core.skipped_frac",
        ratio(skipped as f64, cycles as f64),
        "frac",
    );
    m.count("core.skip.mem_wait", sum(&|s| s.skip_mem_wait));
    m.count("core.skip.issue_wait", sum(&|s| s.skip_issue_wait));
    m.count("core.skip.ftq_wait", sum(&|s| s.skip_ftq_wait));
    m.count("core.skip.policy_idle", sum(&|s| s.skip_policy_idle));
    m.add(
        "core.ns_per_stepped_cycle",
        ratio((warmup_s + measure_s) * 1e9, stepped as f64),
        "ns",
    );

    let committed = sum(&|s| s.total_committed());
    let fetched = sum(&|s| s.fetched);
    let p = "core.pipeline";
    m.count(
        format!("{p}.blocks_predicted"),
        sum(&|s| s.blocks_predicted),
    );
    m.count(format!("{p}.fetched"), fetched);
    m.add(
        format!("{p}.useful_fetch_frac"),
        ratio(committed as f64, fetched as f64),
        "frac",
    );
    m.count(format!("{p}.squashed"), sum(&|s| s.squashed));
    m.count(format!("{p}.committed"), committed);
    m.count(format!("{p}.flushes"), sum(&|s| s.flushes));
    m.count(format!("{p}.bank_conflicts"), sum(&|s| s.bank_conflicts));
    m.count(
        format!("{p}.fetch_buffer_stalls"),
        sum(&|s| s.fetch_buffer_stalls),
    );
    let thread_cycles: u64 = plan
        .cells
        .iter()
        .zip(runs)
        .map(|(c, r)| r.stats.cycles * plan.workload(c).num_threads() as u64)
        .sum();
    type Bucket = fn(&smt_core::StallBreakdown) -> &[u64; smt_isa::MAX_THREADS];
    let buckets: [(&str, Bucket); 7] = [
        ("icache_miss", |b| &b.icache_miss),
        ("bank_conflict", |b| &b.bank_conflict),
        ("fetch_starved", |b| &b.fetch_starved),
        ("rob_full", |b| &b.rob_full),
        ("issue_width", |b| &b.issue_width),
        ("dcache_miss", |b| &b.dcache_miss),
        ("residual", |b| &b.residual),
    ];
    for (name, field) in buckets {
        let charged = sum(&|s| field(&s.stalls).iter().sum());
        m.add(
            format!("{p}.stall.{name}_frac"),
            ratio(charged as f64, thread_cycles as f64),
            "frac",
        );
    }
    m.add(
        format!("{p}.ipc"),
        ratio(committed as f64, cycles as f64),
        "insts/cycle",
    );
    m.add(
        format!("{p}.ipfc"),
        ratio(fetched as f64, sum(&|s| s.fetch_cycles) as f64),
        "insts/fetch",
    );

    for engine in FetchEngineKind::all() {
        let of_engine: Vec<&SimStats> = plan
            .cells
            .iter()
            .zip(runs)
            .filter(|(c, _)| c.engine == engine)
            .map(|(_, r)| &r.stats)
            .collect();
        let cond: u64 = of_engine.iter().map(|s| s.cond_branches).sum();
        let miss: u64 = of_engine.iter().map(|s| s.cond_mispredicts).sum();
        let slug = engine_slug(engine);
        m.add(
            format!("core.frontend.branch_accuracy.{slug}"),
            1.0 - ratio(miss as f64, cond as f64),
            "frac",
        );
        m.count(
            format!("core.frontend.hist_mismatches.{slug}"),
            of_engine.iter().map(|s| s.hist_mismatches).sum(),
        );
    }
}

fn engine_slug(e: FetchEngineKind) -> &'static str {
    match e {
        FetchEngineKind::GshareBtb => "gshare_btb",
        FetchEngineKind::GskewFtb => "gskew_ftb",
        FetchEngineKind::Stream => "stream",
        _ => "other",
    }
}

/// Re-runs every cell one `step()` per cycle, checks that its statistics
/// equal the `run_cycles` pass's (skip counters zeroed), and reports the
/// per-step times and the fast-forward speed-up.
fn step_only_pass(
    plan: &Plan,
    runs: &[CellRun],
    failed: &mut [bool],
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> f64 {
    let mut step_ns = Vec::new();
    let mut step_only_s = 0.0;
    for (i, run) in runs.iter().enumerate() {
        let s = cells::step_only(plan, i, &run.stats);
        if !s.matches {
            failed[i] = true;
            problems.push(format!(
                "{}: step-only statistics differ from run_cycles",
                plan.label(&plan.cells[i])
            ));
        }
        step_only_s += s.secs;
        step_ns.extend(s.step_ns);
    }
    m.add("core.step_ns_p50", percentile(&step_ns, 50.0), "ns");
    m.add("core.step_ns_p99", percentile(&step_ns, 99.0), "ns");
    m.count("core.step_samples", step_ns.len() as u64);
    step_only_s
}

fn trace_metrics(m: &mut Metrics, t: &Traced, tr: &Tracer, step_only_s: f64) {
    let run_cycles_s = tr.total_s("core.warmup") + tr.total_s("core.measure");
    m.add("core.ff_speedup", ratio(step_only_s, run_cycles_s), "x");
    m.add("trace.untraced_s", t.untraced_s, "s");
    m.add("trace.traced_s", t.traced_s, "s");
    m.add(
        "trace.overhead_frac",
        ratio(t.traced_s - t.untraced_s, t.untraced_s),
        "frac",
    );
    m.count("trace.spans", tr.spans().len() as u64);
    // Self time by layer over the traced passes: spans are named
    // `<layer>.<call>`; the benchmark's own spans (batch, cell, plan) have
    // no layer.
    let mut layers: BTreeMap<&str, f64> = ["harness", "workloads", "core", "experiments"]
        .into_iter()
        .map(|l| (l, 0.0))
        .collect();
    let selfs = ["plan", "batch"]
        .into_iter()
        .flat_map(|root| tr.self_time_s(root));
    for (name, secs) in selfs {
        let layer = name.split_once('.').map_or("harness", |(l, _)| l);
        *layers.entry(layer).or_insert(0.0) += secs;
    }
    for (layer, secs) in layers {
        m.add(format!("trace.self.{layer}_s"), secs, "s");
    }
}

/// Writes the spans as JSON lines under `perfbench/out/`.
fn write_spans(workload: &str, seed: u64, tr: &Tracer, problems: &mut Vec<String>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => eprintln!("smt-perfbench: spans written to {}", path.display()),
        Err(e) => problems.push(format!("could not write {}: {e}", path.display())),
    }
}
