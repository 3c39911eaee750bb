//! One experiment definition per table and figure of the paper.
//!
//! The simulated figures (2 and 4–8, and the §3.3 superscalar comparison)
//! are data: each is a spec naming the cross product it sweeps and how it
//! renders. A plan interns the cells of a list of specs by what they
//! simulate, runs every distinct cell once in one sweep, and scatters the
//! results back into each spec's rows. `figureN` is the one-spec plan;
//! [`all`] is the plan over every spec, so the cells the figures share
//! (Figure 2 ⊂ Figure 4, the ICOUNT.2.8 column of Figures 5 and 6, the
//! ICOUNT.1.8 column of Figures 7 and 8) are simulated once.

use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use smt_core::{FetchEngineKind, FetchPolicy};
use smt_workloads::{BenchmarkProfile, Walker, Workload, WorkloadClass};

use crate::report::{
    render_grouped_bars, render_markdown, render_sweep_stats, render_table, Metric,
};
use crate::runner::{run, RunLength, RunResult, EXP_SEED};
use crate::sweep::{progress_report_enabled, sweep_cells, Jobs};

/// A completed experiment: its identity, rendered text, and raw results.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Paper artifact id (`"figure5"`, `"table1"`, …).
    pub id: &'static str,
    /// What the paper's artifact shows.
    pub caption: &'static str,
    /// Human-readable report (tables / ASCII bars).
    pub text: String,
    /// Markdown fragment for EXPERIMENTS.md.
    pub markdown: String,
    /// Raw results, when the experiment runs simulations.
    pub results: Vec<RunResult>,
}

fn experiment(
    id: &'static str,
    caption: &'static str,
    results: Vec<RunResult>,
    panels: &[Metric],
) -> Experiment {
    let mut text = String::new();
    for (panel, &m) in ('a'..='z').zip(panels.iter()) {
        text.push_str(&render_grouped_bars(
            &format!("{id}({panel}): {caption}"),
            &results,
            m,
        ));
        text.push('\n');
    }
    Experiment {
        id,
        caption,
        markdown: render_markdown(&results),
        text,
        results,
    }
}

/// All three fetch engines, paper order.
fn engines() -> [FetchEngineKind; 3] {
    FetchEngineKind::all()
}

/// How a simulated figure renders its rows.
#[derive(Clone, Copy, Debug)]
enum Render {
    /// One grouped-bar panel per metric, then, with `notes`, the §3.1
    /// fetch-width distributions.
    Bars {
        panels: &'static [Metric],
        notes: bool,
    },
    /// The §3.3 comparison: rows relabelled to the benchmark each workload
    /// runs alone, IPC bars, and geomean speedups over gshare+BTB.
    Superscalar,
}

/// One simulated figure as data: the cross product it sweeps and how it
/// renders it.
#[derive(Debug)]
struct Spec {
    id: &'static str,
    caption: &'static str,
    workloads: Vec<Workload>,
    engines: Vec<FetchEngineKind>,
    policies: Vec<FetchPolicy>,
    render: Render,
}

/// One simulated configuration.
type Cell<'a> = (&'a Workload, FetchEngineKind, FetchPolicy);

/// What makes two rows the same cell: the workload's name (it labels the
/// row) and benchmark list (with the fixed seed, it determines the
/// programs), the engine and the policy.
type Key<'a> = (&'a str, &'a [&'static str], FetchEngineKind, FetchPolicy);

fn key<'a>((w, e, p): Cell<'a>) -> Key<'a> {
    (w.name(), w.benchmarks(), e, p)
}

impl Spec {
    /// The spec's rows in result order: workload outermost, then policy,
    /// then engine — the paper's grouped-bar nesting.
    fn rows(&self) -> impl Iterator<Item = Cell<'_>> {
        self.workloads.iter().flat_map(move |w| {
            self.policies
                .iter()
                .flat_map(move |&p| self.engines.iter().map(move |&e| (w, e, p)))
        })
    }

    /// Renders the results of [`Spec::rows`], in that order.
    fn finish(&self, mut results: Vec<RunResult>) -> Experiment {
        match self.render {
            Render::Bars { panels, notes } => {
                let mut e = experiment(self.id, self.caption, results, panels);
                if notes {
                    e.text.push_str(&distribution_notes(&e.results));
                }
                e
            }
            Render::Superscalar => {
                let per_workload = self.policies.len() * self.engines.len();
                for (rows, w) in results.chunks_mut(per_workload).zip(&self.workloads) {
                    for r in rows {
                        r.workload = w.benchmarks().join("+");
                    }
                }
                superscalar_experiment(self.id, self.caption, results)
            }
        }
    }
}

/// The distinct cells of a list of specs, and which cell backs each row.
struct Plan<'a> {
    specs: &'a [Spec],
    /// Distinct cells in claim order: most threads first, first appearance
    /// among equals.
    cells: Vec<Cell<'a>>,
    /// Per spec, the index in `cells` of each of its rows, in row order.
    rows: Vec<Vec<usize>>,
}

impl<'a> Plan<'a> {
    fn new(specs: &'a [Spec]) -> Plan<'a> {
        let mut cells = Vec::new();
        let mut index: BTreeMap<Key<'a>, usize> = BTreeMap::new();
        for cell in specs.iter().flat_map(Spec::rows) {
            if let Entry::Vacant(slot) = index.entry(key(cell)) {
                slot.insert(cells.len());
                cells.push(cell);
            }
        }
        // Longest first: a cell's cost grows with its thread count, so the
        // most-threaded cells are claimed first and the short single-thread
        // ones fill the tail. The sort is stable, and the order only picks
        // which worker runs a cell, never what it computes.
        cells.sort_by_key(|&(w, _, _)| Reverse(w.num_threads()));
        // Re-point each key from first appearance to claim order.
        for (i, &cell) in cells.iter().enumerate() {
            index.insert(key(cell), i);
        }
        let rows = specs
            .iter()
            .map(|spec| spec.rows().map(|cell| index[&key(cell)]).collect())
            .collect();
        Plan { specs, cells, rows }
    }

    /// Result rows over every spec.
    fn row_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Simulates every distinct cell once on `jobs` workers and returns
    /// each spec's results, in [`Spec::rows`] order.
    ///
    /// Results are addressed by cell index and scattered by index, so they
    /// are the same for any worker count.
    fn sweep(&self, len: RunLength, jobs: Jobs) -> Vec<Vec<RunResult>> {
        let mut shared_by: Vec<Vec<&str>> = vec![Vec::new(); self.cells.len()];
        for (spec, rows) in self.specs.iter().zip(&self.rows) {
            for &i in rows {
                shared_by[i].push(spec.id);
            }
        }
        let mut sweep = sweep_cells(
            self.cells.len(),
            jobs,
            len.measure_cycles,
            |i| {
                let (w, e, p) = self.cells[i];
                format!("{} {e} {p} {}", w.name(), shared_by[i].join(","))
            },
            |i| {
                let (w, e, p) = self.cells[i];
                run(w, e, p, len)
            },
        );
        // The executor has no view into the result type; fill in the
        // per-cell skip counts for the report's skip-rate column here.
        for (stat, result) in sweep.stats.iter_mut().zip(&sweep.results) {
            stat.skipped = result.skipped_cycles;
        }
        // Progress and straggler visibility on stderr only, never mixed
        // into the stdout artifacts.
        if progress_report_enabled() {
            let ids: Vec<&str> = self.specs.iter().map(|s| s.id).collect();
            eprintln!(
                "{}{} cells simulated, {} repeats elided\n",
                render_sweep_stats(&ids.join(","), &sweep.stats),
                self.cells.len(),
                self.row_count() - self.cells.len()
            );
        }
        self.rows
            .iter()
            .map(|rows| rows.iter().map(|&i| sweep.results[i].clone()).collect())
            .collect()
    }
}

/// A one-spec plan: the standalone entry point of one figure.
fn standalone(spec: Spec, len: RunLength, jobs: Jobs) -> Experiment {
    let rows = Plan::new(std::slice::from_ref(&spec))
        .sweep(len, jobs)
        .concat();
    spec.finish(rows)
}

/// Every simulated figure's spec, in paper order.
fn specs() -> Vec<Spec> {
    vec![
        figure2_spec(),
        figure4_spec(),
        figure5_spec(),
        figure6_spec(),
        figure7_spec(),
        figure8_spec(),
        superscalar_spec(),
    ]
}

/// **Table 1** — benchmark characteristics: measured dynamic average
/// basic-block size of every clone vs the paper's target.
///
/// Each benchmark's 320k-instruction walker measurement is an independent
/// cell, so the table sweeps in parallel like the figures.
pub fn table1(jobs: Jobs) -> Experiment {
    let profiles = BenchmarkProfile::all();
    // Walker measurements, not simulations: no sim-cycles to report.
    let sweep = sweep_cells(
        profiles.len(),
        jobs,
        0,
        |i| profiles[i].name.to_string(),
        |i| {
            let p = &profiles[i];
            let progs = Workload::custom("solo", WorkloadClass::Ilp, &[p.name])
                .expect("valid name") // lint:allow(no-panic): compiled-in profile names are valid
                .programs(EXP_SEED)
                .expect("valid"); // lint:allow(no-panic): single-benchmark workloads always build
            let mut w = Walker::new(progs[0].clone(), 0);
            let _ = w.measure(20_000);
            w.measure(300_000)
        },
    );
    if progress_report_enabled() {
        eprintln!("{}", render_sweep_stats("table1", &sweep.stats));
    }
    let mut rows = Vec::new();
    let mut md = String::from(
        "| benchmark | paper avg BB | clone avg BB | taken rate | avg stream |\n|---|---|---|---|---|\n",
    );
    for (p, s) in profiles.iter().zip(&sweep.results) {
        rows.push(vec![
            p.name.to_string(),
            format!("{:.2}", p.avg_bb_size),
            format!("{:.2}", s.avg_bb_size()),
            format!("{:.2}", s.taken_rate()),
            format!("{:.1}", s.avg_stream_len()),
        ]);
        md.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.1} |\n",
            p.name,
            p.avg_bb_size,
            s.avg_bb_size(),
            s.taken_rate(),
            s.avg_stream_len()
        ));
    }
    Experiment {
        id: "table1",
        caption:
            "SPECint2000 characteristics: paper's avg basic-block size vs the synthetic clones",
        text: render_table(
            &[
                "benchmark",
                "paper avg BB",
                "clone avg BB",
                "taken rate",
                "avg stream",
            ],
            &rows,
        ),
        markdown: md,
        results: Vec::new(),
    }
}

/// **Table 2** — the multithreaded workloads.
pub fn table2() -> Experiment {
    let rows: Vec<Vec<String>> = Workload::all_table2()
        .iter()
        .map(|w| {
            vec![
                w.name().to_string(),
                w.class().to_string(),
                w.benchmarks().join(", "),
            ]
        })
        .collect();
    let mut md = String::from("| workload | class | benchmarks |\n|---|---|---|\n");
    for r in &rows {
        md.push_str(&format!("| {} | {} | {} |\n", r[0], r[1], r[2]));
    }
    Experiment {
        id: "table2",
        caption: "Multithreaded workloads",
        text: render_table(&["workload", "class", "benchmarks"], &rows),
        markdown: md,
        results: Vec::new(),
    }
}

/// **Table 3** — simulation parameters in force.
pub fn table3() -> Experiment {
    let c = smt_core::SimConfig::default();
    let rows: Vec<Vec<String>> = vec![
        vec!["Fetch width".into(), "8/16 instr.".into()],
        vec!["Fetch policy".into(), "ICOUNT".into()],
        vec!["Fetch buffer".into(), format!("{} instr.", c.fetch_buffer)],
        vec![
            "Dec. & Ren. width".into(),
            format!("{} instr.", c.decode_width),
        ],
        vec!["Gshare".into(), "64K-entry, 16 bits history".into()],
        vec!["Gskew".into(), "3 x 32K-entry, 15 bits history".into()],
        vec!["BTB/FTB".into(), "2K-entry, 4-way".into()],
        vec![
            "Stream predictor".into(),
            "1K-entry,4w + 4K-entry,4w; DOLC 16-2-4-10".into(),
        ],
        vec!["RAS (per thread)".into(), "64-entry".into()],
        vec!["FTQ (per thread)".into(), format!("{}-entry", c.ftq_depth)],
        vec![
            "Functional units".into(),
            format!("{} int, {} ld/st, {} fp", c.fu_int, c.fu_ls, c.fu_fp),
        ],
        vec![
            "Instruction queues".into(),
            format!("{}-entry int/ld-st/fp", c.iq_int),
        ],
        vec!["Reorder buffer".into(), format!("{}-entry", c.rob_size)],
        vec![
            "Physical registers".into(),
            format!("{} int + {} fp", c.regs_int, c.regs_fp),
        ],
        vec![
            "L1 I-cache".into(),
            "32KB, 2-way, 8 banks, 64B lines".into(),
        ],
        vec![
            "L1 D-cache".into(),
            "32KB, 2-way, 8 banks, 64B lines".into(),
        ],
        vec!["L2 cache".into(), "1MB, 2-way, 8 banks, 10 cyc.".into()],
        vec!["TLB".into(), "48-entry I + 128-entry D".into()],
        vec!["Main memory".into(), "100 cycles".into()],
    ];
    let mut md = String::from("| resource | value |\n|---|---|\n");
    for r in &rows {
        md.push_str(&format!("| {} | {} |\n", r[0], r[1]));
    }
    Experiment {
        id: "table3",
        caption: "Simulation parameters (Table 3)",
        text: render_table(&["resource", "value"], &rows),
        markdown: md,
        results: Vec::new(),
    }
}

/// **Figure 2** — fetch throughput of gshare+BTB fetching from one thread
/// (`1.8` vs `1.16`) on gzip–twolf, plus the §3.1 width distributions.
pub fn figure2(len: RunLength, jobs: Jobs) -> Experiment {
    standalone(figure2_spec(), len, jobs)
}

fn figure2_spec() -> Spec {
    Spec {
        id: "figure2",
        caption: "gshare+BTB IPFC with ICOUNT.1.8 / ICOUNT.1.16 (gzip-twolf)",
        workloads: vec![Workload::mix2()],
        engines: vec![FetchEngineKind::GshareBtb],
        policies: vec![FetchPolicy::icount(1, 8), FetchPolicy::icount(1, 16)],
        render: Render::Bars {
            panels: &[Metric::Ipfc],
            notes: true,
        },
    }
}

/// **Figure 4** — fetch throughput fetching from two threads
/// (`2.8`, `2.16`) against the Figure 2 single-thread results.
pub fn figure4(len: RunLength, jobs: Jobs) -> Experiment {
    standalone(figure4_spec(), len, jobs)
}

fn figure4_spec() -> Spec {
    Spec {
        id: "figure4",
        caption: "gshare+BTB IPFC fetching from up to two threads (gzip-twolf)",
        workloads: vec![Workload::mix2()],
        engines: vec![FetchEngineKind::GshareBtb],
        policies: vec![
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(2, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        render: Render::Bars {
            panels: &[Metric::Ipfc],
            notes: true,
        },
    }
}

fn distribution_notes(results: &[RunResult]) -> String {
    let mut s = String::from("fetch-width distribution (fraction of fetch cycles):\n");
    for r in results {
        s.push_str(&format!(
            "  {:<11} {:>11}: >=4: {:4.0}%  =8: {:4.0}%  >=8: {:4.0}%  >=16: {:4.0}%\n",
            r.engine,
            r.policy,
            r.frac_ge4 * 100.0,
            r.frac_eq8 * 100.0,
            r.frac_ge8 * 100.0,
            r.frac_ge16 * 100.0
        ));
    }
    s
}

/// **Figure 5** — ILP workloads, `1.8` vs `2.8`, all three engines:
/// (a) IPFC, (b) IPC.
pub fn figure5(len: RunLength, jobs: Jobs) -> Experiment {
    standalone(figure5_spec(), len, jobs)
}

fn figure5_spec() -> Spec {
    Spec {
        id: "figure5",
        caption: "ICOUNT.1.8 vs ICOUNT.2.8, ILP workloads",
        workloads: Workload::ilp_suite(),
        engines: engines().to_vec(),
        policies: vec![FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)],
        render: Render::Bars {
            panels: &[Metric::Ipfc, Metric::Ipc],
            notes: false,
        },
    }
}

/// **Figure 6** — ILP workloads, `2.8` vs `1.16` vs `2.16`.
pub fn figure6(len: RunLength, jobs: Jobs) -> Experiment {
    standalone(figure6_spec(), len, jobs)
}

fn figure6_spec() -> Spec {
    Spec {
        id: "figure6",
        caption: "ICOUNT.1.16 vs ICOUNT.2.X, ILP workloads",
        workloads: Workload::ilp_suite(),
        engines: engines().to_vec(),
        policies: vec![
            FetchPolicy::icount(2, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        render: Render::Bars {
            panels: &[Metric::Ipfc, Metric::Ipc],
            notes: false,
        },
    }
}

/// **Figure 7** — memory-bounded workloads (MIX & MEM), `1.8` vs `2.8`.
pub fn figure7(len: RunLength, jobs: Jobs) -> Experiment {
    standalone(figure7_spec(), len, jobs)
}

fn figure7_spec() -> Spec {
    Spec {
        id: "figure7",
        caption: "ICOUNT.1.8 vs ICOUNT.2.8, memory-bounded workloads",
        workloads: Workload::mem_suite(),
        engines: engines().to_vec(),
        policies: vec![FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)],
        render: Render::Bars {
            panels: &[Metric::Ipfc, Metric::Ipc],
            notes: false,
        },
    }
}

/// **Figure 8** — memory-bounded workloads, `1.8` vs `1.16` vs `2.16`.
pub fn figure8(len: RunLength, jobs: Jobs) -> Experiment {
    standalone(figure8_spec(), len, jobs)
}

fn figure8_spec() -> Spec {
    Spec {
        id: "figure8",
        caption: "ICOUNT.1.16 vs ICOUNT.1.8 and ICOUNT.2.16, memory-bounded workloads",
        workloads: Workload::mem_suite(),
        engines: engines().to_vec(),
        policies: vec![
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        render: Render::Bars {
            panels: &[Metric::Ipfc, Metric::Ipc],
            notes: false,
        },
    }
}

/// **§3.3 superscalar comparison** — each benchmark alone (one thread),
/// all three engines: the front-end comparison the paper cites from its
/// earlier work (gskew+FTB ≈ +5% IPC over gshare+BTB, stream ≈ +11%).
pub fn superscalar(len: RunLength, jobs: Jobs) -> Experiment {
    standalone(superscalar_spec(), len, jobs)
}

fn superscalar_spec() -> Spec {
    Spec {
        id: "superscalar",
        caption: "Single-thread front-end comparison (paper §3.3)",
        workloads: BenchmarkProfile::all()
            .iter()
            .map(|p| {
                Workload::custom("1_".to_string() + p.name, WorkloadClass::Ilp, &[p.name])
                    .expect("valid") // lint:allow(no-panic): compiled-in profile names are valid
            })
            .collect(),
        engines: engines().to_vec(),
        policies: vec![FetchPolicy::icount(1, 16)],
        render: Render::Superscalar,
    }
}

/// Renders the superscalar rows (benchmark outermost, one row per engine):
/// IPC bars plus geometric-mean speedups over gshare+BTB.
fn superscalar_experiment(
    id: &'static str,
    caption: &'static str,
    results: Vec<RunResult>,
) -> Experiment {
    let mut text = render_grouped_bars(
        "superscalar: single-thread IPC per front-end (ICOUNT.1.16)",
        &results,
        Metric::Ipc,
    );
    let gm = |engine: &str| -> f64 {
        let ratios: Vec<f64> = results
            .chunks(3)
            .filter_map(|c| {
                let base = c.iter().find(|r| r.engine == "gshare+BTB")?.ipc;
                let x = c.iter().find(|r| r.engine == engine)?.ipc;
                (base > 0.0).then_some(x / base)
            })
            .collect();
        let prod: f64 = ratios.iter().map(|r| r.ln()).sum();
        (prod / ratios.len().max(1) as f64).exp()
    };
    text.push_str(&format!(
        "\ngeomean IPC vs gshare+BTB: gskew+FTB {:+.1}%  stream {:+.1}%\n(paper: gskew+FTB +5%, stream +11%)\n",
        (gm("gskew+FTB") - 1.0) * 100.0,
        (gm("stream") - 1.0) * 100.0
    ));
    Experiment {
        id,
        caption,
        markdown: render_markdown(&results),
        text,
        results,
    }
}

/// All experiments in paper order, sweeping on `jobs` workers.
///
/// The simulated figures run as one plan: every distinct
/// `(workload, engine, policy)` cell is simulated once, however many
/// figures show it, and each figure gets exactly the rows its standalone
/// call would return.
pub fn all(len: RunLength, jobs: Jobs) -> Vec<Experiment> {
    let mut out = vec![table1(jobs), table2(), table3()];
    let specs = specs();
    let rows = Plan::new(&specs).sweep(len, jobs);
    out.extend(specs.iter().zip(rows).map(|(spec, rows)| spec.finish(rows)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_without_simulation() {
        let t1 = table1(Jobs::SERIAL);
        assert!(t1.text.contains("gzip"));
        assert!(t1.text.contains("11.02"));
        let t2 = table2();
        assert!(t2.text.contains("2_MIX"));
        assert_eq!(t2.text.lines().count(), 2 + 10);
        let t3 = table3();
        assert!(t3.text.contains("256-entry"));
        assert!(t3.markdown.contains("| Main memory | 100 cycles |"));
    }

    #[test]
    fn table1_is_jobs_invariant() {
        let serial = table1(Jobs::SERIAL);
        let parallel = table1(Jobs::new(4).expect("valid"));
        assert_eq!(serial.text, parallel.text);
        assert_eq!(serial.markdown, parallel.markdown);
    }

    #[test]
    fn figure2_runs_smoke() {
        let e = figure2(RunLength::SMOKE, Jobs::SERIAL);
        assert_eq!(e.results.len(), 2);
        assert!(e.text.contains("ICOUNT.1.8"));
        assert!(e.text.contains("fetch-width distribution"));
        assert!(e.results.iter().all(|r| r.ipfc > 0.0));
    }

    #[test]
    fn figure5_covers_ilp_suite() {
        let e = figure5(RunLength::SMOKE, Jobs::new(2).expect("valid"));
        // 4 workloads × 2 policies × 3 engines.
        assert_eq!(e.results.len(), 24);
        let names: std::collections::BTreeSet<_> =
            e.results.iter().map(|r| r.workload.clone()).collect();
        assert_eq!(names.len(), 4);
        assert!(e.text.contains("(IPFC)"));
        assert!(e.text.contains("(IPC)"));
    }

    #[test]
    fn plan_interns_shared_cells() {
        let specs = specs();
        let plan = Plan::new(&specs);
        assert_eq!(plan.row_count(), 192);
        assert_eq!(plan.cells.len(), 156);
        assert_eq!(plan.row_count() - plan.cells.len(), 36);
        // Figures 2-8 alone: the superscalar cells are all distinct.
        let figures = &specs[..specs.len() - 1];
        assert!(figures.iter().all(|s| s.id.starts_with("figure")));
        let plan = Plan::new(figures);
        assert_eq!(plan.row_count(), 156);
        assert_eq!(plan.cells.len(), 120);
    }

    #[test]
    fn plan_claims_longest_first_and_maps_every_row_to_its_cell() {
        let specs = specs();
        let plan = Plan::new(&specs);
        let threads: Vec<usize> = plan.cells.iter().map(|c| c.0.num_threads()).collect();
        assert!(threads.windows(2).all(|t| t[0] >= t[1]), "{threads:?}");
        assert_eq!(threads.first(), Some(&8));
        assert_eq!(threads.last(), Some(&1));
        for (spec, rows) in specs.iter().zip(&plan.rows) {
            assert_eq!(rows.len(), spec.rows().count());
            for (row, &i) in spec.rows().zip(rows) {
                assert_eq!(key(row), key(plan.cells[i]), "{}", spec.id);
            }
        }
    }

    /// Every field of every result row, floats as their bit patterns.
    fn row_bits(e: &Experiment) -> Vec<(&str, &str, &str, Vec<u64>, u64)> {
        e.results
            .iter()
            .map(|r| {
                let floats = [
                    r.ipfc,
                    r.ipc,
                    r.branch_accuracy,
                    r.wrong_path,
                    r.frac_ge4,
                    r.frac_ge8,
                    r.frac_eq8,
                    r.frac_ge16,
                    r.fairness,
                ]
                .iter()
                .chain(&r.per_thread_ipc)
                .map(|v| v.to_bits())
                .collect();
                (
                    r.workload.as_str(),
                    r.engine.as_str(),
                    r.policy.as_str(),
                    floats,
                    r.skipped_cycles,
                )
            })
            .collect()
    }

    #[test]
    fn all_matches_the_standalone_calls() {
        let len = RunLength::SMOKE;
        // Standalone results are jobs-invariant (each is a one-spec plan on
        // the same executor); two workers just make the reference cheaper.
        let jobs = Jobs::new(2).expect("valid");
        let standalone = [
            table1(jobs),
            table2(),
            table3(),
            figure2(len, jobs),
            figure4(len, jobs),
            figure5(len, jobs),
            figure6(len, jobs),
            figure7(len, jobs),
            figure8(len, jobs),
            superscalar(len, jobs),
        ];
        for n in [1, 2, 3] {
            let planned = all(len, Jobs::new(n).expect("valid"));
            assert_eq!(planned.len(), standalone.len());
            for (a, b) in planned.iter().zip(&standalone) {
                assert_eq!(a.id, b.id, "jobs={n}");
                assert_eq!(a.caption, b.caption, "{} jobs={n}", b.id);
                assert_eq!(a.text, b.text, "{} jobs={n}", b.id);
                assert_eq!(a.markdown, b.markdown, "{} jobs={n}", b.id);
                assert_eq!(row_bits(a), row_bits(b), "{} jobs={n}", b.id);
            }
        }
    }
}
