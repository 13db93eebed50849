//! Micro-benchmark of the probe kernels over a four-query suite (Q1.1,
//! Q2.1, Q3.2, Q4.1): rows/sec, scalar vs vectorized, over in-memory column
//! blocks (no DFS, no MapReduce — just the inner loop the map task runs).
//!
//! Usage: `bench_probe [SF] [--json PATH] [--gate PATH]`.
//!
//! * `--json PATH` writes the suite results as a JSON document (see
//!   `BENCH_probe.json` at the repo root for a committed run).
//! * `--gate PATH` reads a committed run and **fails (exit 1) if any
//!   query's measured speedup falls below 0.9× its recorded speedup** —
//!   the CI regression gate.
//!
//! Timing: each measurement first calibrates a repetition count so one
//! timed iteration runs at least [`MIN_ITER_SECS`], then times both
//! kernels once per round for [`TIMED_ITERS`] rounds. Raw rows/sec are
//! best-of-rounds; the recorded `speedup` is the **median of same-round
//! scalar/vectorized ratios**, which cancels machine-wide frequency drift
//! out of the number the gate checks.

use clyde_common::obs::WallTimer;
use clyde_common::{FxHashMap, RowBlock, RowBlockBuilder};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::{query_by_id, schema};
use clydesdale::hashtable::DimTables;
use clydesdale::planner::ROWS_PER_BLOCK;
use clydesdale::probe::{
    probe_block, probe_block_vec, GroupAcc, GroupLayout, ProbePlan, ProbeStats, SelBuf,
};
use clydesdale::KernelOpts;

/// The benchmarked queries: one per SSB flight, covering the kernel's
/// shapes — fact predicates + dense single group (Q1.1), no fact
/// predicates + fused first join (Q2.1), selective two-dim filters
/// (Q3.2), and a four-join probe (Q4.1).
const SUITE: [&str; 4] = ["Q1.1", "Q2.1", "Q3.2", "Q4.1"];

/// One kernel under test: a closure running one full pass over the data and
/// returning the pass's [`ProbeStats`].
type Pass<'a> = Box<dyn FnMut() -> ProbeStats + 'a>;

/// Minimum wall time of one timed iteration; repetitions are scaled up
/// until a single iteration takes at least this long.
const MIN_ITER_SECS: f64 = 0.03;
const TIMED_ITERS: usize = 9;
const WARMUP_ITERS: usize = 2;

struct QueryFixture {
    qid: &'static str,
    plan: ProbePlan,
    tables: DimTables,
    blocks: Vec<RowBlock>,
    rows: u64,
}

struct QueryResult {
    qid: &'static str,
    rows: u64,
    scalar_rps: f64,
    vec_rps: f64,
    speedup: f64,
    stats: ProbeStats,
}

fn build_fixture(data: &clyde_ssb::SsbData, qid: &'static str) -> QueryFixture {
    let q = query_by_id(qid).expect("known query");
    let fact_schema = schema::lineorder_schema();
    let cols: Vec<usize> = q
        .fact_columns()
        .iter()
        .map(|c| fact_schema.index_of(c).unwrap())
        .collect();
    let scan_schema = fact_schema.project(&cols);
    let plan = ProbePlan::compile(&q, &scan_schema).expect("plan compiles");
    let tables = DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
        .expect("tables build");
    let dtypes: Vec<_> = scan_schema.fields().iter().map(|f| f.dtype).collect();
    let blocks: Vec<RowBlock> = data
        .lineorder
        .chunks(ROWS_PER_BLOCK)
        .map(|chunk| {
            let mut b = RowBlockBuilder::new(&dtypes);
            for r in chunk {
                b.push_row(&r.project(&cols)).unwrap();
            }
            b.finish()
        })
        .collect();
    QueryFixture {
        qid,
        plan,
        tables,
        blocks,
        rows: data.lineorder.len() as u64,
    }
}

/// One kernel's timing: per-round seconds for a single pass over the
/// data (round times divided by the calibrated repetition count), plus the
/// [`ProbeStats`] one pass produced.
struct Timed {
    rounds: Vec<f64>,
    stats: ProbeStats,
}

impl Timed {
    fn best_rps(&self, rows: u64) -> f64 {
        rows as f64 / self.rounds.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// Interleaved rounds: every kernel is timed once per round, so CPU
/// frequency drift and noisy neighbors hit both kernels of a round alike
/// instead of skewing whichever happened to run during a slow stretch.
/// Repetition counts are calibrated per kernel so one timed sample runs
/// at least [`MIN_ITER_SECS`]. Returns per-round single-pass times per
/// kernel, in input order — ratios between kernels should be computed
/// round-by-round (see [`median_ratio`]), where drift mostly cancels.
fn time_interleaved(passes: &mut [Pass<'_>]) -> Vec<Timed> {
    let mut reps = Vec::with_capacity(passes.len());
    let mut stats = Vec::with_capacity(passes.len());
    for pass in passes.iter_mut() {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(pass());
        }
        let t = WallTimer::start();
        let s = std::hint::black_box(pass());
        let once = t.elapsed_s().max(1e-9);
        reps.push(((MIN_ITER_SECS / once).ceil() as usize).max(1));
        stats.push(s);
    }
    let mut rounds = vec![Vec::with_capacity(TIMED_ITERS); passes.len()];
    for _ in 0..TIMED_ITERS {
        for (v, pass) in passes.iter_mut().enumerate() {
            let t = WallTimer::start();
            for _ in 0..reps[v] {
                stats[v] = std::hint::black_box(pass());
            }
            rounds[v].push(t.elapsed_s() / reps[v] as f64);
        }
    }
    rounds
        .into_iter()
        .zip(stats)
        .map(|(rounds, stats)| Timed { rounds, stats })
        .collect()
}

/// Median over rounds of `base_time / variant_time` — the speedup of
/// `variant` relative to `base`, with same-round pairing so machine-wide
/// drift cancels out of the ratio.
fn median_ratio(base: &Timed, variant: &Timed) -> f64 {
    let mut ratios: Vec<f64> = base
        .rounds
        .iter()
        .zip(&variant.rounds)
        .map(|(b, v)| b / v)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ratios[ratios.len() / 2]
}

fn bench_query(fx: &QueryFixture) -> QueryResult {
    let QueryFixture {
        qid,
        plan,
        tables,
        blocks,
        rows,
    } = fx;
    let layout = GroupLayout::new(plan, tables).expect("packed key fits");
    let scalar_pass: Pass<'_> = Box::new(|| {
        let mut acc = FxHashMap::default();
        let mut stats = ProbeStats::default();
        for b in blocks {
            probe_block(b, plan, tables, &mut acc, &mut stats).unwrap();
        }
        stats
    });
    let vec_pass: Pass<'_> = Box::new(|| {
        let mut acc = GroupAcc::new(&layout, &plan.aggregate);
        let mut buf = SelBuf::default();
        let mut stats = ProbeStats::default();
        for b in blocks {
            probe_block_vec(
                b, plan, tables, &layout, &mut acc, &mut buf, &mut stats, KernelOpts,
            )
            .unwrap();
        }
        stats
    });
    let timed = time_interleaved(&mut [scalar_pass, vec_pass]);
    let (scalar, vec) = (&timed[0], &timed[1]);
    assert_eq!(
        vec.stats, scalar.stats,
        "{qid}: kernels must count identically (rows/probes/survivors)"
    );
    QueryResult {
        qid,
        rows: *rows,
        scalar_rps: scalar.best_rps(*rows),
        vec_rps: vec.best_rps(*rows),
        speedup: median_ratio(scalar, vec),
        stats: vec.stats,
    }
}

/// Pull `"speedup": <num>` for `qid` out of a committed benchmark JSON.
/// Hand-rolled on purpose (no serde in this workspace): finds the query's
/// key, then the first `"speedup"` after it.
fn recorded_speedup(json: &str, qid: &str) -> Option<f64> {
    let key = format!("\"{qid}\"");
    let at = json.find(&key)? + key.len();
    let rest = &json[at..];
    let sp = rest.find("\"speedup\"")?;
    let after = &rest[sp + "\"speedup\"".len()..];
    let colon = after.find(':')?;
    let num: String = after[colon + 1..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sf: f64 = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.01);
    let flag_path = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let json_path = flag_path("--json");
    let gate_path = flag_path("--gate");

    eprintln!("generating SSB at SF {sf}...");
    let data = SsbGen::new(sf, 46).gen_all();
    eprintln!(
        "probing {} rows in blocks of {ROWS_PER_BLOCK} (best of {TIMED_ITERS}, \
         >= {MIN_ITER_SECS}s per timed iteration)...",
        data.lineorder.len()
    );

    let mut results = Vec::new();
    for qid in SUITE {
        let fx = build_fixture(&data, qid);
        let r = bench_query(&fx);
        println!(
            "{}: scalar {:>12.0} rows/s | vectorized {:>12.0} rows/s | speedup {:.2}x",
            r.qid, r.scalar_rps, r.vec_rps, r.speedup
        );
        results.push(r);
    }

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"sf\": {sf},\n  \"block_rows\": {ROWS_PER_BLOCK},\n  \"queries\": {{\n"
        ));
        for (i, r) in results.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\n      \"fact_rows\": {},\n      \"scalar_rows_per_s\": {:.0},\n      \
                 \"vectorized_rows_per_s\": {:.0},\n      \"speedup\": {:.2},\n      \
                 \"probes\": {},\n      \"survivors\": {}\n",
                r.qid, r.rows, r.scalar_rps, r.vec_rps, r.speedup, r.stats.probes, r.stats.survivors
            ));
            let comma = if i + 1 < results.len() { "," } else { "" };
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        std::fs::write(&path, out).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = gate_path {
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("gate file {path}: {e}"));
        let mut failed = false;
        for r in &results {
            let Some(recorded) = recorded_speedup(&committed, r.qid) else {
                eprintln!("gate: {path} has no speedup for {}", r.qid);
                failed = true;
                continue;
            };
            let floor = recorded * 0.9;
            let ok = r.speedup >= floor;
            eprintln!(
                "gate {}: measured {:.2}x vs recorded {recorded:.2}x (floor {floor:.2}x) — {}",
                r.qid,
                r.speedup,
                if ok { "ok" } else { "FAIL" }
            );
            failed |= !ok;
        }
        if failed {
            eprintln!("bench gate FAILED: probe kernel regressed");
            std::process::exit(1);
        }
        eprintln!("bench gate passed");
    }
}
