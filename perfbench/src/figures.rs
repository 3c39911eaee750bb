//! The `paper-figures` workload: the full artifact plan of the `all`
//! binary, through `smt_experiments::figures`.

use std::collections::BTreeMap;

use smt_core::SimStats;
use smt_experiments::{figures, Experiment, Jobs, RunLength, RunResult};

use crate::report::Digest;
use crate::trace::Tracer;

/// Run length of every cell `figures::all` simulates here.
pub const FIG_LEN: RunLength = RunLength {
    warmup_cycles: 4_000,
    measure_cycles: 16_000,
};

/// Sweep workers: the benchmark host's two cores.
pub const FIG_JOBS: usize = 2;

/// The sweep executor's worker count, at most the host's parallelism.
pub fn jobs() -> Jobs {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    Jobs::new(FIG_JOBS.min(host)).expect("1..=2 workers is a valid count")
}

/// Runs the artifact plan. Untraced, this is one `figures::all` call;
/// traced, the same public calls in the same order, one span each.
pub fn run(jobs: Jobs, tr: &mut Tracer) -> Vec<Experiment> {
    if !tr.enabled() {
        return figures::all(FIG_LEN, jobs);
    }
    let len = FIG_LEN;
    vec![
        tr.span("experiments.table1", None, |_| figures::table1(jobs)),
        tr.span("experiments.table2", None, |_| figures::table2()),
        tr.span("experiments.table3", None, |_| figures::table3()),
        tr.span("experiments.figure2", None, |_| figures::figure2(len, jobs)),
        tr.span("experiments.figure4", None, |_| figures::figure4(len, jobs)),
        tr.span("experiments.figure5", None, |_| figures::figure5(len, jobs)),
        tr.span("experiments.figure6", None, |_| figures::figure6(len, jobs)),
        tr.span("experiments.figure7", None, |_| figures::figure7(len, jobs)),
        tr.span("experiments.figure8", None, |_| figures::figure8(len, jobs)),
        tr.span("experiments.superscalar", None, |_| {
            figures::superscalar(len, jobs)
        }),
    ]
}

/// The ids of the experiments whose `figures::<id>` call gets a span
/// metric.
pub const TIMED: [&str; 8] = [
    "table1",
    "figure2",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "superscalar",
];

/// A result row's cell key.
fn key(r: &RunResult) -> (String, String, String) {
    (r.workload.clone(), r.engine.clone(), r.policy.clone())
}

/// What the checks found over one run of the plan.
pub struct Checked {
    /// Result rows (the operations of this workload).
    pub rows: u64,
    /// Rows that failed a check.
    pub failed: u64,
    /// Rows whose cell an earlier experiment already produced.
    pub repeats: u64,
    /// Committed instructions over every simulated row.
    pub committed: u64,
    pub digest: Digest,
    pub problems: Vec<String>,
}

/// Whether `r` is finite and inside the ranges its definitions allow.
fn row_in_range(r: &RunResult, len: RunLength) -> bool {
    let frac = |v: f64| (0.0..=1.0).contains(&v);
    let mut values = vec![
        r.ipfc,
        r.ipc,
        r.branch_accuracy,
        r.wrong_path,
        r.frac_ge4,
        r.frac_ge8,
        r.frac_eq8,
        r.frac_ge16,
        r.fairness,
    ];
    values.extend(&r.per_thread_ipc);
    values.iter().all(|v| v.is_finite())
        && r.ipc > 0.0
        && r.ipc <= 8.0
        && r.ipfc > 0.0
        && r.ipfc <= 16.0
        && frac(r.branch_accuracy)
        && frac(r.wrong_path)
        && frac(r.fairness)
        && frac(r.frac_ge4)
        && r.frac_ge16 <= r.frac_ge8
        && r.frac_eq8 <= r.frac_ge8
        && r.frac_ge8 <= r.frac_ge4
        && r.per_thread_ipc.iter().all(|&t| t >= 0.0)
        && r.skipped_cycles <= len.measure_cycles
}

/// Checks every row, checks that every repeated cell is bit-identical to
/// its first occurrence (Figure 2 ⊂ Figure 4, Figure 6's ICOUNT.2.8 column
/// = Figure 5's, Figure 8's ICOUNT.1.8 column = Figure 7's, and the
/// 2_MIX gshare+BTB cells Figures 4, 7 and 8 share), and digests every
/// rendered artifact and result.
pub fn check(exps: &[Experiment]) -> Checked {
    let mut c = Checked {
        rows: 0,
        failed: 0,
        repeats: 0,
        committed: 0,
        digest: Digest::default(),
        problems: Vec::new(),
    };
    let mut seen: BTreeMap<(String, String, String), (&str, &RunResult)> = BTreeMap::new();
    for e in exps {
        c.digest.str(e.id);
        c.digest.str(&e.text);
        c.digest.str(&e.markdown);
        for r in &e.results {
            c.rows += 1;
            digest_row(&mut c.digest, r);
            c.committed += committed(r, FIG_LEN);
            let mut ok = row_in_range(r, FIG_LEN);
            if !ok {
                c.problems
                    .push(format!("{}: row out of range: {r:?}", e.id));
            }
            match seen.get(&key(r)) {
                Some((first, prev)) => {
                    c.repeats += 1;
                    if *prev != r {
                        ok = false;
                        c.problems.push(format!(
                            "{} repeats {first}'s cell {:?} with a different result",
                            e.id,
                            key(r)
                        ));
                    }
                }
                None => {
                    seen.insert(key(r), (e.id, r));
                }
            }
            if !ok {
                c.failed += 1;
            }
        }
    }
    c
}

fn digest_row(d: &mut Digest, r: &RunResult) {
    d.str(&r.workload);
    d.str(&r.engine);
    d.str(&r.policy);
    for v in [
        r.ipfc,
        r.ipc,
        r.branch_accuracy,
        r.wrong_path,
        r.frac_ge4,
        r.frac_ge8,
        r.frac_eq8,
        r.frac_ge16,
        r.fairness,
    ] {
        d.f64(v);
    }
    for &v in &r.per_thread_ipc {
        d.f64(v);
    }
    d.u64(r.skipped_cycles);
}

/// Committed instructions of a row: per-thread IPC is `committed / cycles`
/// over the measured window, so this recovers the count exactly.
fn committed(r: &RunResult, len: RunLength) -> u64 {
    r.per_thread_ipc
        .iter()
        .map(|ipc| (ipc * len.measure_cycles as f64).round() as u64)
        .sum()
}

/// Whether a row the experiments layer produced agrees bit for bit with
/// the statistics the benchmark's own cell layer measured for that cell.
pub fn row_matches_stats(r: &RunResult, s: &SimStats) -> bool {
    r.ipc.to_bits() == s.ipc().to_bits()
        && r.ipfc.to_bits() == s.ipfc().to_bits()
        && r.branch_accuracy.to_bits() == s.branch_accuracy().to_bits()
        && r.wrong_path.to_bits() == s.wrong_path_fraction().to_bits()
        && r.skipped_cycles == s.skipped_cycles()
}

/// Result rows of the plan keyed by cell, for the traced cross-check.
pub fn rows_by_cell(exps: &[Experiment]) -> BTreeMap<(String, String, String), &RunResult> {
    let mut out = BTreeMap::new();
    for e in exps {
        for r in &e.results {
            out.entry(key(r)).or_insert(r);
        }
    }
    out
}
