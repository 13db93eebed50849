//! One benchmark run of one workload: untraced (the end-to-end metrics) or
//! traced (the per-layer metrics), with the correctness check both share.

use crate::metrics::{layer_metrics, Metric, TracedTotals, END_TO_END};
use crate::replay::replay_op;
use crate::stats::{median, peak_rss_mib, percentile, sorted};
use crate::trace::{Cat, Tracer};
use crate::workload::{
    dfs_fingerprint, fact_rows_as_loaded, Op, OpKind, OpOut, Scale, System, Workload,
};
use clyde_columnar::{CifReader, RcFileReader};
use clyde_common::obs::{Phase, WallTimer};
use clyde_common::{Datum, Result, Row};
use clyde_mapred::JobProfile;
use clyde_ssb::gen::SsbData;
use clyde_ssb::{reference_answer, schema};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Set-ups per untraced run; `setup_s` is their median. A cheap set-up (tens
/// of milliseconds) is a noisy timing, so it is repeated until the set-ups
/// add up to `SETUP_FLOOR_S`, at most `MAX_SETUPS` times.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_FLOOR_S: f64 = 0.5;

/// How long the measured window lasts. Whole passes only, so every op of
/// the workload is sampled equally often.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Passes(usize),
}

impl Budget {
    fn spent(self, passes: usize, window: &WallTimer) -> bool {
        match self {
            Budget::Seconds(s) => window.elapsed_s() >= s,
            Budget::Passes(n) => passes >= n,
        }
    }
}

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The rows every later execution of an op must reproduce exactly.
struct Baseline {
    rows: Vec<Vec<Row>>,
}

impl Baseline {
    /// The untimed warm-up pass; its rows become the baseline.
    fn warm_up(sys: &mut System, pass: &[Op]) -> Result<Baseline> {
        let mut rows = Vec::with_capacity(pass.len());
        for op in pass {
            rows.push(sys.exec(op, false)?.rows);
        }
        Ok(Baseline { rows })
    }

    fn matches(&self, op: usize, out: &Result<OpOut>) -> bool {
        matches!(out, Ok(o) if o.rows == self.rows[op])
    }
}

/// Untraced run: the end-to-end metrics.
pub fn run_untraced(w: Workload, scale: Scale, seed: u64, budget: Budget) -> Result<Report> {
    let mut setups: Vec<f64> = Vec::new();
    let mut sys = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_FLOOR_S)
    {
        drop(sys.take());
        let timer = WallTimer::start();
        sys = Some(System::set_up(w, scale, seed, false)?);
        setups.push(timer.elapsed_s());
    }
    let mut sys = sys.expect("MIN_SETUPS is positive");
    let setup_count = setups.len();
    let pass = w.pass()?;
    let baseline = Baseline::warm_up(&mut sys, &pass)?;

    let mut op_ms: Vec<f64> = Vec::new();
    let mut pass_s: Vec<f64> = Vec::new();
    let mut matched = vec![0u64; pass.len()];
    let mut passes = 0;
    let window = WallTimer::start();
    while !budget.spent(passes, &window) {
        let pass_timer = WallTimer::start();
        for (i, op) in pass.iter().enumerate() {
            let timer = WallTimer::start();
            let out = sys.exec(op, false);
            op_ms.push(timer.elapsed_ns() as f64 / 1e6);
            matched[i] += u64::from(baseline.matches(i, &out));
        }
        passes += 1;
        pass_s.push(pass_timer.elapsed_s());
    }
    // Before the reference data is generated, which would raise the peak.
    let peak_rss = peak_rss_mib().map_err(clyde_common::ClydeError::Config)?;

    let attempted = op_ms.len() as u64;
    let correct = verify(&mut Tracer::new(), &sys, &pass, &baseline.rows)?;
    let good: u64 = matched
        .iter()
        .zip(&correct)
        .map(|(m, ok)| if *ok { *m } else { 0 })
        .sum();

    let fact_rows = sys.fact_rows();
    let ms = sorted(op_ms);
    let values = [
        (median(setups), setup_count),
        (percentile(&ms, 0.5), ms.len()),
        (percentile(&ms, 0.9), ms.len()),
        (
            (fact_rows * pass.len() as u64) as f64 / median(pass_s),
            passes,
        ),
        (peak_rss, 1),
        (sys.stored_fact_bytes as f64 / fact_rows as f64, 1),
    ];
    Ok(Report {
        workload: w,
        seed,
        traced: false,
        attempted,
        failed: attempted - good,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), (value, n))| Metric::new(*name, value, unit, n))
            .collect(),
    })
}

/// Traced run: every op is executed three times — plain, in situ with
/// observability on, and as a layer replay — and the three must agree.
pub fn run_traced(
    w: Workload,
    scale: Scale,
    seed: u64,
    budget: Budget,
) -> Result<(Report, Tracer)> {
    let mut t = Tracer::new();
    let mut x = TracedTotals::default();
    let mut sys = System::set_up(w, scale, seed, true)?;
    x.load_ms.push(sys.load_s * 1e3);
    let pass = w.pass()?;
    let baseline = Baseline::warm_up(&mut sys, &pass)?;

    let mut failed = 0u64;
    let mut passes = 0;
    let window = WallTimer::start();
    while !budget.spent(passes, &window) {
        for (i, op) in pass.iter().enumerate() {
            t.begin_op(&op.label);
            // Whichever engine run comes right after the previous op's replay
            // finds the caches cold, so the two take turns going first.
            let plain_first = passes % 2 == 0;
            let mut plain = None;
            if plain_first {
                plain = Some(timed_plain(&mut sys, op, &mut x));
            }

            let dfs = Arc::clone(&sys.dfs);
            let io = dfs.io_scope();
            let span = t.begin("insitu.op", Cat::InSitu);
            let observed = sys.exec(op, true);
            t.end(span);
            let ms = t.spans[span].dur_ns() as f64 / 1e6;
            x.insitu_ms.push(ms);
            // A load writes to its own fresh DFS, not the one in scope.
            let io = match op.kind {
                OpKind::Load => sys.dfs.metrics(),
                _ => io.delta(),
            };
            t.count("insitu.io_local_read", io.total_local_read());
            t.count("insitu.io_remote_read", io.total_remote_read());
            t.count("insitu.io_written", io.total_written());
            if let Some((obs, _)) = &sys.observed {
                obs.reset();
            }
            let plain = match plain {
                Some(out) => out,
                None => timed_plain(&mut sys, op, &mut x),
            };

            let mut ok = baseline.matches(i, &plain) && baseline.matches(i, &observed);
            if let Ok(out) = &observed {
                record_insitu(&mut t, span, op, out);
                x.sim_s += out.sim_s;
                if matches!(op.kind, OpKind::Load) {
                    x.load_ms.push(ms);
                }
                // A load's summary row is extended by the content of every
                // file it wrote, so the replay has to match that too.
                let mut expect = out.rows.clone();
                if let (OpKind::Load, Some(row)) = (&op.kind, expect.first_mut()) {
                    row.push(Datum::I64(dfs_fingerprint(&sys.dfs, &sys.layout)?));
                }
                ok &= replay_op(&mut t, &sys, op).is_ok_and(|rows| rows == expect);
            }
            failed += u64::from(!ok);
            x.ops += 1;
        }
        passes += 1;
    }

    let correct = verify(&mut t, &sys, &pass, &baseline.rows)?;
    let attempted = x.ops as u64;
    if correct.iter().any(|ok| !ok) {
        failed = attempted;
    }
    let report = Report {
        workload: w,
        seed,
        traced: true,
        attempted,
        failed,
        metrics: layer_metrics(&t, &x),
    };
    Ok((report, t))
}

/// One plain (observability off) execution, its wall time filed by op label.
fn timed_plain(sys: &mut System, op: &Op, x: &mut TracedTotals) -> Result<OpOut> {
    let timer = WallTimer::start();
    let out = sys.exec(op, false);
    let ms = timer.elapsed_ns() as f64 / 1e6;
    x.plain_ms.entry(op.label.clone()).or_default().push(ms);
    out
}

/// Turn what the engine reported about an op into placed spans and counts.
fn record_insitu(t: &mut Tracer, op_span: usize, op: &Op, out: &OpOut) {
    let mut cursor = t.spans[op_span].start_ns;
    if matches!(op.kind, OpKind::Load) {
        // Not a MapReduce job: the whole op is the loader, none of it engine
        // overhead.
        let dur = t.spans[op_span].dur_ns();
        t.place("insitu.load", op_span, 0, cursor, dur);
    }
    for p in &out.profiles {
        cursor = place_job(t, op_span, cursor, p);
        let map = p.total_map_cost();
        t.count("insitu.map_output_records", map.emit_records);
        t.count("insitu.zone_checked", map.zone_checked);
        t.count("insitu.zone_skipped", map.zone_skipped);
        t.count("insitu.combine_in", map.combine_input_records);
        t.count("insitu.combine_out", map.combine_output_records);
        for (phase, ns) in &p.wall_phases {
            let counter = match phase {
                Phase::HashBuild => "insitu.hash_build_ns",
                Phase::Probe => "insitu.probe_ns",
                Phase::Emit => "insitu.emit_ns",
                _ => continue,
            };
            t.count(counter, *ns);
        }
        if matches!(op.kind, OpKind::Hive(..)) {
            t.count("insitu.hive_stages", 1);
            t.count(
                "insitu.hive_intermediate_bytes",
                map.output_bytes + p.total_reduce_cost().output_bytes,
            );
        }
    }
}

/// Place one job's tasks from `start`: each node's map tasks back to back on
/// the node's row, then the reduce tasks (the engine runs them one after
/// another) once the slowest node is done. Returns where the job ends.
fn place_job(t: &mut Tracer, op_span: usize, start: u64, p: &JobProfile) -> u64 {
    let mut node_end: BTreeMap<usize, u64> = BTreeMap::new();
    for task in &p.map_tasks {
        let at = node_end.entry(task.node.0).or_insert(start);
        t.place(
            "insitu.map_task",
            op_span,
            1 + task.node.0 as u32,
            *at,
            task.wall_ns,
        );
        *at += task.wall_ns;
    }
    let mut cursor = node_end.values().copied().max().unwrap_or(start);
    for task in &p.reduce_tasks {
        t.place("insitu.reduce_task", op_span, 0, cursor, task.wall_ns);
        cursor += task.wall_ns;
    }
    cursor
}

/// Check each op's baseline rows against the reference: the single-threaded
/// reference executor over freshly generated data for queries; for a load,
/// the tables read back from the last loaded DFS against the generator.
fn verify(t: &mut Tracer, sys: &System, pass: &[Op], rows: &[Vec<Row>]) -> Result<Vec<bool>> {
    let gen = sys.gen;
    if sys.workload == Workload::BulkLoad {
        let expect = fact_rows_as_loaded(&gen)?;
        let cif = CifReader::open(&sys.dfs, &sys.layout.fact_cif())?.read_all_rows(&sys.dfs)?;
        let rc = RcFileReader::open(&sys.dfs, &sys.layout.table_rc(schema::LINEORDER))?
            .read_all_rows(&sys.dfs)?;
        let counted = rows[0].first().and_then(|r| r.at(2).as_i64());
        let ok = cif == expect && rc == expect && counted == Some(expect.len() as i64);
        return Ok(vec![ok]);
    }
    let mut lineorder = Vec::with_capacity(gen.num_lineorders());
    t.time_as("ssb.gen.lineorder", Cat::Probe, || {
        gen.for_each_lineorder(|r| {
            lineorder.push(r.clone());
            Ok(())
        })
    })?;
    t.count("ssb.gen_rows", lineorder.len() as u64);
    let data = SsbData {
        customer: gen.gen_customer(),
        supplier: gen.gen_supplier(),
        part: gen.gen_part(),
        date: gen.gen_date(),
        lineorder,
    };
    pass.iter()
        .zip(rows)
        .map(|(op, rows)| {
            let (OpKind::Clyde(q) | OpKind::Hive(_, q)) = &op.kind else {
                return Ok(false);
            };
            let expect = t.time_as("ssb.reference.reference_answer", Cat::Probe, || {
                reference_answer(&data, q)
            })?;
            Ok(&expect == rows)
        })
        .collect()
}
