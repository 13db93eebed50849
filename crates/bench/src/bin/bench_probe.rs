//! Micro-benchmark of the map task's two in-memory phases over a four-query
//! suite (Q1.1, Q2.1, Q3.2, Q4.1), no DFS and no MapReduce around them:
//!
//! * **probe** — rows/sec, scalar vs vectorized kernel, over column blocks;
//! * **build** — the per-node dimension hash build from row-binary bytes,
//!   the two-step rows path (`rowcodec::read_rows` + `DimTables::build_all`)
//!   vs the fused encoded path (`DimTables::build_all_encoded`, what
//!   `MtMapRunner` runs).
//!
//! Usage: `bench_probe [SF] [--json PATH] [--gate PATH]`.
//!
//! * `--json PATH` writes the suite results as a JSON document (see
//!   `BENCH_probe.json` at the repo root for a committed run).
//! * `--gate PATH` reads a committed run and **fails (exit 1) if any
//!   query's measured probe speedup, or the build speedup of a query that
//!   joins `part`, falls below 0.9× its recorded speedup** — the CI
//!   regression gate (`clyde_bench::gate::PROBE`).
//!
//! Timing: each measurement first calibrates a repetition count so one
//! timed iteration runs at least [`MIN_ITER_SECS`], then times both
//! variants once per round for [`TIMED_ITERS`] rounds. Raw rows/sec and ms
//! are best-of-rounds; the recorded `speedup` is the **median of same-round
//! base/variant ratios**, which cancels machine-wide frequency drift out of
//! the number the gate checks.

use clyde_bench::{cli, gate};
use clyde_common::obs::json::Json;
use clyde_common::obs::WallTimer;
use clyde_common::{rowcodec, FxHashMap, RowBlock, RowBlockBuilder};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::{query_by_id, schema, StarQuery};
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

/// One variant under test: a closure running one full pass over the data
/// and returning what the pass counted (compared across variants).
type Pass<'a, T> = Box<dyn FnMut() -> T + 'a>;

/// Minimum wall time of one timed iteration; repetitions are scaled up
/// until a single iteration takes at least this long.
const MIN_ITER_SECS: f64 = 0.03;
const TIMED_ITERS: usize = 9;
const WARMUP_ITERS: usize = 2;

struct QueryFixture {
    qid: &'static str,
    query: StarQuery,
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
    build: BuildResult,
}

/// The build section of one query: wall ms of one per-node build of all its
/// dimension tables, from encoded bytes, on either path.
struct BuildResult {
    dim_rows: u64,
    rows_path_ms: f64,
    encoded_path_ms: f64,
    speedup: f64,
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
        query: q,
        plan,
        tables,
        blocks,
        rows: data.lineorder.len() as u64,
    }
}

/// One variant's timing: per-round seconds for a single pass over the
/// data (round times divided by the calibrated repetition count), plus
/// what one pass counted.
struct Timed<T> {
    rounds: Vec<f64>,
    stats: T,
}

impl<T> Timed<T> {
    fn best_s(&self) -> f64 {
        self.rounds.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// Interleaved rounds: every variant is timed once per round, so CPU
/// frequency drift and noisy neighbors hit both variants of a round alike
/// instead of skewing whichever happened to run during a slow stretch.
/// Repetition counts are calibrated per kernel so one timed sample runs
/// at least [`MIN_ITER_SECS`]. Returns per-round single-pass times per
/// kernel, in input order — ratios between kernels should be computed
/// round-by-round (see [`median_ratio`]), where drift mostly cancels.
fn time_interleaved<T>(passes: &mut [Pass<'_, T>]) -> Vec<Timed<T>> {
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
fn median_ratio<T>(base: &Timed<T>, variant: &Timed<T>) -> f64 {
    let mut ratios: Vec<f64> = base
        .rounds
        .iter()
        .zip(&variant.rounds)
        .map(|(b, v)| b / v)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ratios[ratios.len() / 2]
}

/// Time one per-node build of `fx`'s dimension tables from their
/// row-binary bytes (what `loader` leaves on every node's local disk):
/// decode to rows then build, vs build straight from the bytes.
fn bench_build(fx: &QueryFixture, data: &clyde_ssb::SsbData) -> BuildResult {
    let encoded: FxHashMap<&str, Vec<u8>> = fx
        .query
        .joins
        .iter()
        .map(|j| {
            let rows = data.dimension(&j.dimension).unwrap();
            (j.dimension.as_str(), rowcodec::write_rows(rows))
        })
        .collect();
    let joins = &fx.query.joins;
    let counted = |t: DimTables| (t.build_rows, t.mem_bytes, t.mem_fixed_bytes);
    let rows_pass: Pass<'_, _> = Box::new(|| {
        counted(DimTables::build_all(joins, |dim| rowcodec::read_rows(&encoded[dim])).unwrap())
    });
    let encoded_pass: Pass<'_, _> =
        Box::new(|| counted(DimTables::build_all_encoded(joins, |dim| Ok(&encoded[dim])).unwrap()));
    let timed = time_interleaved(&mut [rows_pass, encoded_pass]);
    let (by_rows, by_bytes) = (&timed[0], &timed[1]);
    assert_eq!(
        by_bytes.stats, by_rows.stats,
        "{}: both build paths must account identically (rows/mem/fixed mem)",
        fx.qid
    );
    BuildResult {
        dim_rows: by_bytes.stats.0,
        rows_path_ms: by_rows.best_s() * 1e3,
        encoded_path_ms: by_bytes.best_s() * 1e3,
        speedup: median_ratio(by_rows, by_bytes),
    }
}

fn bench_query(fx: &QueryFixture, data: &clyde_ssb::SsbData) -> QueryResult {
    let QueryFixture {
        qid,
        plan,
        tables,
        blocks,
        rows,
        ..
    } = fx;
    let layout = GroupLayout::new(plan, tables).expect("packed key fits");
    let scalar_pass: Pass<'_, ProbeStats> = Box::new(|| {
        let mut acc = FxHashMap::default();
        let mut stats = ProbeStats::default();
        for b in blocks {
            probe_block(b, plan, tables, &mut acc, &mut stats).unwrap();
        }
        stats
    });
    let vec_pass: Pass<'_, ProbeStats> = Box::new(|| {
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
        scalar_rps: *rows as f64 / scalar.best_s(),
        vec_rps: *rows as f64 / vec.best_s(),
        speedup: median_ratio(scalar, vec),
        stats: vec.stats,
        build: bench_build(fx, data),
    }
}

/// The suite results as the committed-gate document (see
/// `BENCH_probe.json`).
fn to_json(sf: f64, results: &[QueryResult]) -> Json {
    let section =
        |body: fn(&QueryResult) -> Json| Json::obj(results.iter().map(|r| (r.qid, body(r))));
    Json::obj([
        ("sf", Json::Num(sf)),
        ("block_rows", Json::Num(ROWS_PER_BLOCK as f64)),
        (
            "queries",
            section(|r| {
                Json::obj([
                    ("fact_rows", Json::Num(r.rows as f64)),
                    ("scalar_rows_per_s", Json::fixed(r.scalar_rps, 0)),
                    ("vectorized_rows_per_s", Json::fixed(r.vec_rps, 0)),
                    ("speedup", Json::fixed(r.speedup, 2)),
                    ("probes", Json::Num(r.stats.probes as f64)),
                    ("survivors", Json::Num(r.stats.survivors as f64)),
                ])
            }),
        ),
        (
            "build",
            section(|r| {
                Json::obj([
                    ("dim_rows", Json::Num(r.build.dim_rows as f64)),
                    ("rows_path_ms", Json::fixed(r.build.rows_path_ms, 3)),
                    ("encoded_path_ms", Json::fixed(r.build.encoded_path_ms, 3)),
                    ("speedup", Json::fixed(r.build.speedup, 2)),
                ])
            }),
        ),
    ])
}

fn main() {
    let args = cli::parse(
        "usage: bench_probe [SF] [--json PATH] [--gate PATH]",
        &["--json", "--gate"],
        &[],
    );
    let sf = args.sf(0.01);

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
        let r = bench_query(&fx, &data);
        println!(
            "{}: scalar {:>12.0} rows/s | vectorized {:>12.0} rows/s | speedup {:.2}x",
            r.qid, r.scalar_rps, r.vec_rps, r.speedup
        );
        println!(
            "{}: build of {} dimension rows: rows path {:.3} ms | encoded path {:.3} ms | speedup {:.2}x",
            r.qid, r.build.dim_rows, r.build.rows_path_ms, r.build.encoded_path_ms, r.build.speedup
        );
        results.push(r);
    }

    gate::finish("bench", gate::PROBE, &args, &to_json(sf, &results));
}
