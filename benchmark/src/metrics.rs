//! Metric names, units, and how the per-layer metrics fall out of a trace.
//!
//! The names here are the contract: `BENCHMARK.json` lists the same ones (a
//! unit test holds the two together) and later issues refer to them.

use crate::stats::median;
use crate::trace::{Agg, Cat, Tracer};
use crate::workload::{Workload, STRATEGIES};
use clyde_ssb::all_queries;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples (ops, spans or runs) the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// End-to-end metrics, in report order: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_row", "B/row"),
];

/// What the traced run measured besides spans and counts.
#[derive(Default)]
pub struct TracedTotals {
    /// Ops that went through all three executions (plain, in situ, replay).
    pub ops: usize,
    /// `loader::load` wall times, milliseconds.
    pub load_ms: Vec<f64>,
    /// Plain (observability off) op times by op label, milliseconds.
    pub plain_ms: BTreeMap<String, Vec<f64>>,
    /// In-situ (observability on) op times, milliseconds.
    pub insitu_ms: Vec<f64>,
    /// Simulated seconds the engines priced, summed over ops.
    pub sim_s: f64,
}

/// Every per-layer metric, in report order. A layer the workload does not
/// exercise reports 0 with 0 samples.
pub fn layer_metrics(t: &Tracer, x: &TracedTotals) -> Vec<Metric> {
    let replay = t.aggregate(Cat::Replay);
    let insitu = t.aggregate(Cat::InSitu);
    let mut timed = replay.clone();
    for (name, a) in t.aggregate(Cat::Probe) {
        let e = timed.entry(name).or_default();
        e.n += a.n;
        e.total_ns += a.total_ns;
        e.self_ns += a.self_ns;
    }
    let span = |name: &str| timed.get(name).copied().unwrap_or_default();
    let count = |name: &str| t.counted(name) as f64;
    let ops = x.ops.max(1) as f64;
    let per_s = |n: f64, a: Agg| ratio(n, a.self_ns as f64 / 1e9);
    let mb_per_s = |bytes: f64, a: Agg| per_s(bytes / 1e6, a);
    let ms_per_op = |a: Agg| a.total_ns as f64 / 1e6 / ops;
    let mean = |a: Agg, scale: f64| ratio(a.total_ns as f64 / scale, a.n as f64);

    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, samples: usize| {
        out.push(Metric::new(name, value, unit, samples));
    };

    let gen = span("ssb.gen.lineorder");
    push(
        "ssb.gen.rows_per_s",
        per_s(count("ssb.gen_rows"), gen),
        "rows/s",
        gen.n,
    );
    push(
        "ssb.loader.load_ms",
        median(x.load_ms.clone()),
        "ms",
        x.load_ms.len(),
    );

    let dec = span("common.rowcodec.read_rows");
    push(
        "common.rowcodec.decode_rows_per_s",
        per_s(count("rowcodec.decode_rows"), dec),
        "rows/s",
        dec.n,
    );
    let enc = span("common.rowcodec.write_rows");
    push(
        "common.rowcodec.encode_mb_per_s",
        mb_per_s(count("rowcodec.encode_bytes"), enc),
        "MB/s",
        enc.n,
    );
    let key = span("common.keycodec.encode_row");
    push(
        "common.keycodec.encode_ns_per_key",
        ratio(key.self_ns as f64, count("keycodec.keys")),
        "ns/key",
        key.n,
    );

    let col = span("columnar.encoding.decode_column");
    push(
        "columnar.encoding.decode_mb_per_s",
        mb_per_s(count("columnar.decode_bytes"), col),
        "MB/s",
        col.n,
    );
    let group = span("columnar.cif.read_group");
    push(
        "columnar.cif.read_group_ms",
        mean(group, 1e6),
        "ms",
        group.n,
    );
    let splits = span("columnar.input.splits");
    push(
        "columnar.input.splits_ms",
        mean(splits, 1e6),
        "ms",
        splits.n,
    );
    push(
        "columnar.input.zone_skip_ratio",
        ratio(count("insitu.zone_skipped"), count("insitu.zone_checked")),
        "ratio",
        t.counted("insitu.zone_checked") as usize,
    );
    let colenc = span("columnar.encoding.encode_column");
    push(
        "columnar.encoding.encode_mb_per_s",
        mb_per_s(count("columnar.encode_bytes"), colenc),
        "MB/s",
        colenc.n,
    );
    let rcw = span("columnar.rcfile.write");
    push(
        "columnar.rcfile.write_rows_per_s",
        per_s(count("columnar.rcfile_write_rows"), rcw),
        "rows/s",
        rcw.n,
    );
    push(
        "columnar.cif.bytes_per_row",
        ratio(count("columnar.cif_bytes"), count("columnar.cif_rows")),
        "B/row",
        t.counted("columnar.cif_rows") as usize,
    );
    push(
        "columnar.rcfile.bytes_per_row",
        ratio(
            count("columnar.rcfile_fact_bytes"),
            count("columnar.rcfile_fact_rows"),
        ),
        "B/row",
        t.counted("columnar.rcfile_fact_rows") as usize,
    );
    let rollin = span("columnar.maintain.rollin");
    push(
        "columnar.maintain.rollin_rows_per_s",
        per_s(count("columnar.rollin_rows"), rollin),
        "rows/s",
        rollin.n,
    );
    let rollout = span("columnar.maintain.rollout");
    push(
        "columnar.maintain.rollout_ms",
        mean(rollout, 1e6),
        "ms",
        rollout.n,
    );
    let rcr = span("columnar.rcfile.read_rows");
    push(
        "columnar.rcfile.read_rows_per_s",
        per_s(count("columnar.rcfile_read_rows"), rcr),
        "rows/s",
        rcr.n,
    );

    let read = span("dfs.read_file");
    push(
        "dfs.read_mb_per_s",
        mb_per_s(count("dfs.read_bytes"), read),
        "MB/s",
        read.n,
    );
    let write = span("dfs.write_file");
    push(
        "dfs.write_mb_per_s",
        mb_per_s(count("dfs.write_bytes"), write),
        "MB/s",
        write.n,
    );
    let fetch = span("dfs.local.get_or_fetch");
    push("dfs.local_fetch_ms", ms_per_op(fetch), "ms", fetch.n);
    let io_read = count("insitu.io_local_read") + count("insitu.io_remote_read");
    push("dfs.bytes_read_per_op", io_read / ops, "B", x.ops);
    push(
        "dfs.bytes_written_per_op",
        count("insitu.io_written") / ops,
        "B",
        x.ops,
    );
    push(
        "dfs.locality_ratio",
        ratio(count("insitu.io_local_read"), io_read),
        "ratio",
        x.ops,
    );

    let plan = span("core.planner.plan_query");
    push("core.planner.plan_us", mean(plan, 1e3), "us", plan.n);
    let build = span("core.hashtable.build_all_with");
    push(
        "core.hashtable.build_rows_per_s",
        per_s(count("core.hashtable.build_rows"), build),
        "rows/s",
        build.n,
    );
    push(
        "core.hashtable.build_ms_per_op",
        ms_per_op(build),
        "ms",
        build.n,
    );
    let probe = span("core.probe.probe_block_vec");
    push(
        "core.probe.rows_per_s",
        per_s(count("core.probe.rows"), probe),
        "rows/s",
        probe.n,
    );
    push(
        "core.probe.survivor_ratio",
        ratio(count("core.probe.survivors"), count("core.probe.rows")),
        "ratio",
        t.counted("core.probe.rows") as usize,
    );
    for (name, counter) in [
        ("core.mtrunner.hash_build_ms", "insitu.hash_build_ns"),
        ("core.mtrunner.probe_scan_ms", "insitu.probe_ns"),
        ("core.mtrunner.emit_ms", "insitu.emit_ns"),
    ] {
        push(name, count(counter) / 1e6 / ops, "ms", x.ops);
    }

    let op = insitu.get("insitu.op").copied().unwrap_or_default();
    push(
        "mapred.engine.job_overhead_ms",
        op.self_ns as f64 / 1e6 / ops,
        "ms",
        op.n,
    );
    push(
        "mapred.map_output_records_per_op",
        count("insitu.map_output_records") / ops,
        "count",
        x.ops,
    );
    let sort = span("mapred.shuffle.sort_records");
    push(
        "mapred.shuffle.sort_records_per_s",
        per_s(count("mapred.sort_records"), sort),
        "records/s",
        sort.n,
    );
    let merge = span("mapred.shuffle.merge_sorted_runs");
    push(
        "mapred.shuffle.merge_records_per_s",
        per_s(count("mapred.merge_records"), merge),
        "records/s",
        merge.n,
    );
    let reduce = span("mapred.shuffle.reduce_sorted");
    push(
        "mapred.shuffle.reduce_records_per_s",
        per_s(count("mapred.reduce_records"), reduce),
        "records/s",
        reduce.n,
    );
    push(
        "mapred.shuffle.combine_ratio",
        ratio(count("insitu.combine_out"), count("insitu.combine_in")),
        "ratio",
        t.counted("insitu.combine_in") as usize,
    );
    push("mapred.cost.sim_s_per_op", x.sim_s / ops, "s", x.ops);

    push(
        "hive.stage_count_per_op",
        count("insitu.hive_stages") / ops,
        "count",
        x.ops,
    );
    push(
        "hive.intermediate_bytes_per_op",
        count("insitu.hive_intermediate_bytes") / ops,
        "B",
        x.ops,
    );
    let plain = |label: &str| x.plain_ms.get(label).cloned().unwrap_or_default();
    for s in STRATEGIES {
        for id in Workload::HiveChain.query_ids() {
            let samples = plain(&format!("{}.{id}", s.label()));
            let n = samples.len();
            push(
                &format!("hive.query_ms.{}.{id}", s.label()),
                median(samples),
                "ms",
                n,
            );
        }
    }
    for q in all_queries() {
        let samples = plain(&q.id);
        let n = samples.len();
        push(&format!("core.query_ms.{}", q.id), median(samples), "ms", n);
    }
    let finish = span("ssb.queries.finish_result");
    push("ssb.queries.finish_us", mean(finish, 1e3), "us", finish.n);
    let reference = span("ssb.reference.reference_answer");
    push(
        "ssb.reference.query_ms",
        mean(reference, 1e6),
        "ms",
        reference.n,
    );

    // Layer calls only: the replay's own glue spans are named `replay.*`.
    let busy_ns: u64 = replay
        .iter()
        .filter(|(name, _)| !name.starts_with("replay."))
        .map(|(_, a)| a.self_ns)
        .sum();
    push(
        "trace.busy_over_wall",
        ratio(busy_ns as f64, op.total_ns as f64),
        "ratio",
        op.n,
    );
    let all_plain: Vec<f64> = x.plain_ms.values().flatten().copied().collect();
    push(
        "trace.overhead_ratio",
        ratio(median(x.insitu_ms.clone()), median(all_plain)),
        "ratio",
        x.insitu_ms.len(),
    );
    out
}

/// The ranked "where wall time goes" list: replayed layer calls by self
/// time, as milliseconds per op and as a share of all layer self time.
pub fn where_time_goes(t: &Tracer, ops: usize) -> String {
    let mut layers: Vec<(&str, Agg)> = t
        .aggregate(Cat::Replay)
        .into_iter()
        .filter(|(name, _)| !name.starts_with("replay."))
        .collect();
    layers.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_ns));
    let busy: u64 = layers.iter().map(|(_, a)| a.self_ns).sum();
    let mut out = String::from("# where wall time goes: replayed layer calls by self time\n");
    for (name, a) in layers {
        let ms_per_op = a.self_ns as f64 / 1e6 / ops.max(1) as f64;
        let share = 100.0 * ratio(a.self_ns as f64, busy as f64);
        out.push_str(&format!(
            "#  {share:5.1}%  {ms_per_op:9.3} ms/op  {name} (n={})\n",
            a.n
        ));
    }
    out
}

/// `a / b`, or 0 when the layer did nothing.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::obs::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> =
            layer_metrics(&Tracer::new(), &TracedTotals::default())
                .into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect();
        assert_eq!(declared(&doc, "per_layer"), per_layer);
        assert!(per_layer.len() <= 128);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn rates_come_from_self_time_and_counts() {
        let mut t = Tracer::new();
        t.begin_op("Q1.1");
        let outer = t.begin("columnar.cif.read_group", Cat::Replay);
        t.time("columnar.encoding.decode_column", || ());
        t.end(outer);
        // Pin the intervals: the group took 4 ms, 1 ms of it decoding 2 MB.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 4_000_000;
        t.spans[1].start_ns = 1_000_000;
        t.spans[1].end_ns = 2_000_000;
        t.count("columnar.decode_bytes", 2_000_000);
        let x = TracedTotals {
            ops: 2,
            ..TracedTotals::default()
        };
        let m = layer_metrics(&t, &x);
        let get = |name: &str| m.iter().find(|m| m.name == name).unwrap().clone();
        assert_eq!(get("columnar.encoding.decode_mb_per_s").value, 2000.0);
        assert_eq!(get("columnar.cif.read_group_ms").value, 4.0);
        assert_eq!(get("columnar.cif.read_group_ms").samples, 1);
        // Only the 1 ms leaf and the group's 3 ms of self time are layer work.
        assert_eq!(get("hive.stage_count_per_op").value, 0.0);
        assert_eq!(get("core.query_ms.Q1.1").samples, 0);
    }
}
