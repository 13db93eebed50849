//! The shuffle invariant (DESIGN.md §6): map output reaches the reducers
//! partitioned by key, sorted by key within each reducer, and with each
//! key's values in map-output order — and values cross it as bytes,
//! serialized once at emit and decoded once per key group. The row-record
//! functions the frozen benchmark replay still runs lend the sorted run's
//! own rows, never copies.
//!
//! Map-output order is task order, then emit order within a task: the
//! reduce-side merge is stable in run order, and runs are laid out by task
//! index.
//!
//! Hive's repartition join reduces the values' bytes
//! (`RepartitionReducer::reduce_encoded`); its row-at-a-time `reduce`,
//! reached through the default encoded entry, is the oracle it must match
//! byte for byte, in jobs and on damaged runs.

use clyde_common::{keycodec, row, rowcodec, varint, Datum, Result, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::repartition::RepartitionReducer;
use clyde_hive::union::{TAG_LEFT, TAG_RIGHT};
use clyde_hive::{Hive, JoinStrategy};
use clyde_mapred::formats::VecInputFormat;
use clyde_mapred::runner::{FnMapper, RowMapRunner};
use clyde_mapred::shuffle::{self, FnReducer, ReduceSink, Reducer, Run};
use clyde_mapred::{Engine, JobSpec, OutputSpec};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, LoadOpts, SsbLayout};
use clyde_ssb::{all_queries, reference_answer};
use std::collections::BTreeMap;
use std::sync::Arc;

const ROWS: i64 = 240;
const SPLITS: usize = 5;

/// The key a row `i` is emitted under: 13 keys, negative ones included, so
/// the order-preserving codec's sign flip is on the path.
fn key_of(i: i64) -> i64 {
    (i * 37) % 13 - 6
}

/// Run a job whose reducer records what it borrowed: one output row per
/// call, `[key, values...]`. Returns each reducer's rows, read back from its
/// own part file.
fn recorded_groups(num_reducers: usize) -> Vec<Vec<Row>> {
    let dfs = Dfs::for_tests(3);
    let engine = Engine::new(Arc::clone(&dfs));
    let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
        let i = v.at(0).as_i64().unwrap();
        ctx.emit(&[Datum::I64(key_of(i))], v.values());
        Ok(())
    }));
    let rows: Vec<Row> = (0..ROWS).map(|i| row![i]).collect();
    let mut spec = JobSpec::new(
        "shuffle-path",
        Arc::new(VecInputFormat::new(rows, SPLITS)),
        Arc::new(mapper),
    );
    spec.reducer = Some(Arc::new(FnReducer(
        |key: &Row, values: &[&Row], out: &mut Vec<Row>| {
            let mut seen = key.clone();
            seen.extend(values.iter().map(|v| v.at(0).clone()));
            out.push(seen);
            Ok(())
        },
    )));
    spec.num_reducers = num_reducers;
    spec.output = OutputSpec::DfsDir("/shuffle-path".into());
    let result = engine.run_job(&spec).unwrap();
    assert_eq!(result.profile.map_tasks.len(), SPLITS);
    assert_eq!(result.output_files.len(), num_reducers);
    result
        .output_files
        .iter()
        .map(|path| rowcodec::read_rows(&dfs.read_file(path, None).unwrap()).unwrap())
        .collect()
}

#[test]
fn every_key_reaches_one_reducer_sorted_with_values_in_map_output_order() {
    for num_reducers in [1, 2, 3, 5] {
        let parts = recorded_groups(num_reducers);
        let mut reducer_of: BTreeMap<i64, usize> = BTreeMap::new();
        for (r, groups) in parts.iter().enumerate() {
            let keys: Vec<Vec<u8>> = groups
                .iter()
                .map(|g| keycodec::encode_row(&Row::new(vec![g.at(0).clone()])))
                .collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "reducer {r} of {num_reducers}: keys not strictly ascending"
            );
            for g in groups {
                let key = g.at(0).as_i64().unwrap();
                // One group per key, at exactly one reducer.
                assert_eq!(reducer_of.insert(key, r), None, "key {key} reduced twice");
                let values: Vec<i64> = g.values()[1..]
                    .iter()
                    .map(|d| d.as_i64().unwrap())
                    .collect();
                let expect: Vec<i64> = (0..ROWS).filter(|&i| key_of(i) == key).collect();
                assert_eq!(values, expect, "key {key}: values out of map-output order");
            }
        }
        let all_keys: Vec<i64> = reducer_of.keys().copied().collect();
        assert_eq!(all_keys, (-6..=6).collect::<Vec<_>>());
    }
}

/// A reducer that reports, as its output row, the address of every value
/// it is lent.
struct Lent;

impl Reducer for Lent {
    fn reduce(&self, _key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
        out.push(values.iter().map(|&v| address(v)).collect());
        Ok(())
    }
}

fn address(row: &Row) -> Datum {
    Datum::I64(std::ptr::from_ref(row) as i64)
}

#[test]
fn reducers_and_combiners_borrow_the_sorted_run_instead_of_copying_it() {
    let mut records: Vec<(Vec<u8>, Row)> = (0..ROWS)
        .map(|i| (keycodec::encode_row(&row![key_of(i)]), row![i]))
        .collect();
    shuffle::sort_records(&mut records);
    let in_place: Vec<Datum> = records.iter().map(|(_, v)| address(v)).collect();

    let mut lent = Vec::new();
    let groups = shuffle::reduce_sorted(&records, &Lent, &mut lent).unwrap();
    assert_eq!(groups, 13);
    let lent: Vec<Datum> = lent.iter().flat_map(Row::iter).cloned().collect();
    assert_eq!(lent, in_place);

    // Moving the run into `combine_sorted` keeps its rows where they are.
    let combined = shuffle::combine_sorted(records, &Lent).unwrap();
    assert_eq!(combined.len(), 13);
    let lent: Vec<Datum> = combined
        .iter()
        .flat_map(|(_, v)| v.iter())
        .cloned()
        .collect();
    assert_eq!(lent, in_place);
}

fn load(workers: usize, sf: f64) -> (Arc<Dfs>, SsbLayout, SsbGen) {
    let dfs = Dfs::new(
        ClusterSpec::tiny(workers),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(sf, 46);
    let opts = LoadOpts {
        rows_per_group: 2_000,
        cif: false,
        rcfile: true,
        text: false,
        cluster_by_date: true,
    };
    loader::load(&dfs, gen, &layout, &opts).unwrap();
    (dfs, layout, gen)
}

/// Both Hive plans answer every SSB query like the reference executor with
/// 1, 2 and 3 reducers (a tiny cluster has one reduce slot per worker).
#[test]
fn both_hive_plans_match_the_reference_with_one_two_and_three_reducers() {
    for workers in 1..=3 {
        let (dfs, layout, gen) = load(workers, 0.003);
        let data = gen.gen_all().unwrap();
        for strategy in [JoinStrategy::Repartition, JoinStrategy::MapJoin] {
            let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy);
            for q in all_queries() {
                let result = hive.query(&q).unwrap();
                let expect = reference_answer(&data, &q).unwrap();
                assert_eq!(
                    result.rows,
                    expect,
                    "{} under {} on {workers} workers",
                    q.id,
                    strategy.label()
                );
                // The group-by stage always shuffles, to one reducer per worker.
                let group_by = &result.stages[q.joins.len()];
                assert_eq!(group_by.profile.reduce_tasks.len(), workers, "{}", q.id);
            }
        }
    }
}

/// What the combiner case recorded per reducer count: each reducer's keys,
/// in output order, and the priced counters `emit_records`, `emit_bytes`,
/// `combine_input_records`, `combine_output_records`, `merge_runs` and
/// `shuffle_bytes`.
struct Recorded {
    reducers: usize,
    keys: &'static [&'static [i64]],
    counters: [u64; 6],
}

/// Recorded at the commit before map tasks partitioned their own output.
const RECORDED: [Recorded; 4] = [
    Recorded {
        reducers: 1,
        keys: &[&[-6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6]],
        counters: [240, 23040, 240, 65, 5, 3705],
    },
    Recorded {
        reducers: 2,
        keys: &[&[-6, -5, -4, -3, 0, 1, 2, 3], &[-2, -1, 4, 5, 6]],
        counters: [240, 23040, 240, 65, 10, 3705],
    },
    Recorded {
        reducers: 3,
        keys: &[&[-3, -1, 2, 4, 6], &[-6, -4, 1, 3, 5], &[-5, -2, 0]],
        counters: [240, 23040, 240, 65, 15, 3705],
    },
    Recorded {
        reducers: 5,
        keys: &[&[-6, -2, 2], &[-5, -1, 3, 6], &[0, 1, 4], &[5], &[-4, -3]],
        counters: [240, 23040, 240, 65, 25, 3705],
    },
];

#[test]
fn a_combined_shuffle_matches_the_recorded_rows_and_priced_counters() {
    for recorded in &RECORDED {
        let num_reducers = recorded.reducers;
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
            let i = v.at(0).as_i64().unwrap();
            ctx.emit(&[Datum::I64(key_of(i))], v.values());
            Ok(())
        }));
        let sum =
            |values: &[&Row]| -> i64 { values.iter().map(|v| v.at(0).as_i64().unwrap()).sum() };
        let rows: Vec<Row> = (0..ROWS).map(|i| row![i]).collect();
        let mut spec = JobSpec::new(
            "shuffle-combine",
            Arc::new(VecInputFormat::new(rows, SPLITS)),
            Arc::new(mapper),
        );
        spec.combiner = Some(Arc::new(FnReducer(
            move |_key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                out.push(row![sum(values)]);
                Ok(())
            },
        )));
        spec.reducer = Some(Arc::new(FnReducer(
            move |key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                out.push(key.concat(&row![sum(values)]));
                Ok(())
            },
        )));
        spec.num_reducers = num_reducers;
        spec.output = OutputSpec::DfsDir("/shuffle-combine".into());
        let result = engine.run_job(&spec).unwrap();
        let map = result.profile.total_map_cost();
        let reduce = result.profile.total_reduce_cost();
        let counters = [
            map.emit_records,
            map.emit_bytes,
            map.combine_input_records,
            map.combine_output_records,
            reduce.merge_runs,
            result.profile.shuffle_bytes,
        ];
        let mut keys: Vec<Vec<i64>> = Vec::new();
        for path in &result.output_files {
            let part = rowcodec::read_rows(&dfs.read_file(path, None).unwrap()).unwrap();
            let mut mine = Vec::new();
            for r in part {
                let key = r.at(0).as_i64().unwrap();
                let expect: i64 = (0..ROWS).filter(|&i| key_of(i) == key).sum();
                assert_eq!(r, row![key, expect], "{num_reducers} reducers");
                mine.push(key);
            }
            keys.push(mine);
        }
        assert_eq!(keys, recorded.keys, "{num_reducers} reducers");
        assert_eq!(counters, recorded.counters, "{num_reducers} reducers");
    }
}

/// The value shapes [`RECORDED_SHAPES`] covers beyond [`RECORDED`]'s
/// one-integer values.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Values `[i64, string or NULL, f64]` under a one-integer key.
    Mixed,
    /// One-integer values under a key whose encoding is longer than
    /// `shuffle::Key::INLINE`, so the record holds it boxed.
    LongKey,
}

impl Shape {
    fn key(self, k: i64) -> Row {
        match self {
            Shape::Mixed => row![k],
            Shape::LongKey => row![format!("a grouping key past the inline limit {k}"), k],
        }
    }

    fn value(self, i: i64) -> Row {
        match self {
            Shape::Mixed => {
                let text = if i % 5 == 0 {
                    Datum::Null
                } else {
                    Datum::str(format!("v{}", i % 7))
                };
                Row::new(vec![Datum::I64(i), text, Datum::F64(i as f64 * 0.5)])
            }
            Shape::LongKey => row![i],
        }
    }
}

/// Fold values of either shape into one value of the same shape: the sum
/// of field 0, and for [`Shape::Mixed`] the greatest string of field 1
/// (NULL if none) and the sum of field 2. Exact in any grouping — every
/// `f64` is a multiple of 0.5 far below 2^52 — so it serves as combiner
/// and reducer alike.
fn fold(values: &[&Row]) -> Row {
    let mut fields = vec![Datum::I64(
        values.iter().map(|v| v.at(0).as_i64().unwrap()).sum(),
    )];
    if values.first().is_some_and(|v| v.len() == 3) {
        let text = values
            .iter()
            .filter_map(|v| match v.at(1) {
                Datum::Str(s) => Some(s.clone()),
                _ => None,
            })
            .max();
        fields.push(text.map_or(Datum::Null, Datum::Str));
        fields.push(Datum::F64(
            values.iter().map(|v| v.at(2).as_f64().unwrap()).sum(),
        ));
    }
    Row::new(fields)
}

/// One recorded run of a [`Shape`] job: each part file's row count and
/// FxHash of its bytes, and the priced counters `emit_records`,
/// `emit_bytes`, `combine_input_records`, `combine_output_records`,
/// `merge_runs`, `shuffle_bytes` and `output_bytes`.
struct RecordedShape {
    shape: Shape,
    combined: bool,
    reducers: usize,
    parts: &'static [(u64, u64)],
    counters: [u64; 7],
}

/// Recorded at the commit before map output was serialized at emit.
#[rustfmt::skip]
const RECORDED_SHAPES: [RecordedShape; 12] = [
    RecordedShape { shape: Shape::Mixed, combined: false, reducers: 1, parts: &[(13, 2443678632279707703)], counters: [240, 34944, 0, 0, 5, 25584, 248] },
    RecordedShape { shape: Shape::Mixed, combined: false, reducers: 2, parts: &[(8, 7442685899508108436), (5, 9051551425383892559)], counters: [240, 34944, 0, 0, 10, 25584, 249] },
    RecordedShape { shape: Shape::Mixed, combined: false, reducers: 3, parts: &[(5, 9908800995788739277), (5, 15469720095768201833), (3, 11542081022400929033)], counters: [240, 34944, 0, 0, 15, 25584, 250] },
    RecordedShape { shape: Shape::Mixed, combined: true, reducers: 1, parts: &[(13, 2443678632279707703)], counters: [240, 34944, 240, 65, 5, 6955, 248] },
    RecordedShape { shape: Shape::Mixed, combined: true, reducers: 2, parts: &[(8, 7442685899508108436), (5, 9051551425383892559)], counters: [240, 34944, 240, 65, 10, 6955, 249] },
    RecordedShape { shape: Shape::Mixed, combined: true, reducers: 3, parts: &[(5, 9908800995788739277), (5, 15469720095768201833), (3, 11542081022400929033)], counters: [240, 34944, 240, 65, 15, 6955, 250] },
    RecordedShape { shape: Shape::LongKey, combined: false, reducers: 1, parts: &[(13, 15441710865787092035)], counters: [240, 38031, 0, 0, 5, 23631, 605] },
    RecordedShape { shape: Shape::LongKey, combined: false, reducers: 2, parts: &[(10, 9283498869841815059), (3, 2258510856996836364)], counters: [240, 38031, 0, 0, 10, 23631, 606] },
    RecordedShape { shape: Shape::LongKey, combined: false, reducers: 3, parts: &[(3, 11491299002288466053), (4, 7610299356266840382), (6, 2408629312978127771)], counters: [240, 38031, 0, 0, 15, 23631, 607] },
    RecordedShape { shape: Shape::LongKey, combined: true, reducers: 1, parts: &[(13, 15441710865787092035)], counters: [240, 38031, 240, 65, 5, 6400, 605] },
    RecordedShape { shape: Shape::LongKey, combined: true, reducers: 2, parts: &[(10, 9283498869841815059), (3, 2258510856996836364)], counters: [240, 38031, 240, 65, 10, 6400, 606] },
    RecordedShape { shape: Shape::LongKey, combined: true, reducers: 3, parts: &[(3, 11491299002288466053), (4, 7610299356266840382), (6, 2408629312978127771)], counters: [240, 38031, 240, 65, 15, 6400, 607] },
];

#[test]
fn value_shapes_match_the_recorded_part_files_and_priced_counters() {
    for recorded in &RECORDED_SHAPES {
        let RecordedShape {
            shape,
            combined,
            reducers,
            ..
        } = *recorded;
        let case = format!("{shape:?}, combined {combined}, {reducers} reducers");
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let mapper = RowMapRunner::new(FnMapper(move |_k: &Row, v: &Row, ctx: &_| {
            let i = v.at(0).as_i64().unwrap();
            ctx.emit(shape.key(key_of(i)).values(), shape.value(i).values());
            Ok(())
        }));
        let rows: Vec<Row> = (0..ROWS).map(|i| row![i]).collect();
        let mut spec = JobSpec::new(
            "shuffle-shapes",
            Arc::new(VecInputFormat::new(rows, SPLITS)),
            Arc::new(mapper),
        );
        if combined {
            spec.combiner = Some(Arc::new(FnReducer(
                |_key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                    out.push(fold(values));
                    Ok(())
                },
            )));
        }
        spec.reducer = Some(Arc::new(FnReducer(
            |key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                out.push(key.concat(&fold(values)));
                Ok(())
            },
        )));
        spec.num_reducers = reducers;
        spec.output = OutputSpec::DfsDir("/shuffle-shapes".into());
        let result = engine.run_job(&spec).unwrap();

        // One row per key, holding the fold of all that key's values.
        // Debug, not ==: Datum equality coerces I32/I64.
        let mut expect: Vec<String> = (-6..=6)
            .map(|k| {
                let values: Vec<Row> = (0..ROWS)
                    .filter(|&i| key_of(i) == k)
                    .map(|i| shape.value(i))
                    .collect();
                let refs: Vec<&Row> = values.iter().collect();
                format!("{:?}", shape.key(k).concat(&fold(&refs)))
            })
            .collect();
        let mut seen = Vec::new();
        let mut parts = Vec::new();
        for path in &result.output_files {
            let bytes = dfs.read_file(path, None).unwrap();
            let part = rowcodec::read_rows(&bytes).unwrap();
            seen.extend(part.iter().map(|r| format!("{r:?}")));
            let mut h = clyde_common::hash::FxHasher::default();
            std::hash::Hasher::write(&mut h, &bytes);
            parts.push((part.len() as u64, std::hash::Hasher::finish(&h)));
        }
        expect.sort();
        seen.sort();
        assert_eq!(seen, expect, "{case}");
        assert_eq!(parts, recorded.parts, "{case}");

        let map = result.profile.total_map_cost();
        let reduce = result.profile.total_reduce_cost();
        let counters = [
            map.emit_records,
            map.emit_bytes,
            map.combine_input_records,
            map.combine_output_records,
            reduce.merge_runs,
            result.profile.shuffle_bytes,
            reduce.output_bytes,
        ];
        assert_eq!(counters, recorded.counters, "{case}");
    }
}

/// The repartition join's row path: [`RepartitionReducer::reduce`] behind
/// the default encoded entry, which decodes every value.
struct RowPath;

impl Reducer for RowPath {
    fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
        RepartitionReducer.reduce(key, values, out)
    }
}

/// How many dimension values key `k` of the join input holds: none (a
/// key with fact values only), one, or two (an M×N key).
fn dims_of(k: i64) -> i64 {
    [1, 0, 2, 1][k.rem_euclid(4) as usize]
}

/// The tagged value of join input row `i` under key `k`: a fact row with
/// an integer, a string or NULL and an `f64`, or a dimension row with a
/// string and an `f64` aux column.
fn join_value(k: i64, i: i64, dim: bool) -> Row {
    if dim {
        row![format!("dim {k}/{i}"), i as f64 * 0.25, TAG_RIGHT]
    } else {
        let text = if i % 3 == 0 {
            Datum::Null
        } else {
            Datum::str(format!("fact {i}"))
        };
        Row::new(vec![
            Datum::I64(i),
            text,
            Datum::F64(-0.5 * i as f64),
            Datum::I32(TAG_LEFT),
        ])
    }
}

/// The join's input, as `[key, value fields..]` rows: five rows for each
/// of 12 keys, the first [`dims_of`] of them dimension values and the rest
/// fact values, except that keys with `k % 6 == 3` hold dimension values
/// only. The keys interleave, so a key's values come from several map
/// tasks.
fn join_input() -> Vec<Row> {
    let mut rows = Vec::new();
    for i in 0..60i64 {
        let k = i % 12;
        let dim = i / 12 < dims_of(k);
        if !dim && k % 6 == 3 {
            continue;
        }
        rows.push(row![k].concat(&join_value(k, i, dim)));
    }
    rows
}

/// Run the join over [`join_input`] with `reducer`: each key emitted as an
/// integer, or as a string past the inline key limit when `long_key`.
/// Returns the part files' bytes and the rows of the same job kept in
/// memory.
fn join_job(
    reducer: Arc<dyn Reducer>,
    reducers: usize,
    long_key: bool,
) -> (Vec<Vec<u8>>, Vec<Row>) {
    let run = |output: OutputSpec| {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let mapper = RowMapRunner::new(FnMapper(move |_k: &Row, v: &Row, ctx: &_| {
            let k = v.at(0).as_i64().unwrap();
            let key = if long_key {
                Datum::str(format!("a join key past the inline limit {k}"))
            } else {
                Datum::I64(k)
            };
            ctx.emit(&[key], &v.values()[1..]);
            Ok(())
        }));
        let mut spec = JobSpec::new(
            "repartition-equivalence",
            Arc::new(VecInputFormat::new(join_input(), SPLITS)),
            Arc::new(mapper),
        );
        spec.reducer = Some(Arc::clone(&reducer));
        spec.num_reducers = reducers;
        spec.output = output;
        let result = engine.run_job(&spec).unwrap();
        let parts = result
            .output_files
            .iter()
            .map(|path| dfs.read_file(path, None).unwrap().to_vec())
            .collect::<Vec<_>>();
        (parts, result.rows)
    };
    let (parts, _) = run(OutputSpec::DfsDir("/join".into()));
    let (_, rows) = run(OutputSpec::Memory);
    (parts, rows)
}

#[test]
fn the_encoded_join_writes_the_row_joins_part_files_and_rows() {
    // Facts per key times dimension values per key: the M×N count.
    let input = join_input();
    let count = |k: i64, dim: bool| {
        input
            .iter()
            .filter(|r| {
                r.at(0).as_i64() == Some(k)
                    && (r.at(r.len() - 1).as_i32() == Some(TAG_RIGHT)) == dim
            })
            .count()
    };
    let joined: usize = (0..12).map(|k| count(k, false) * count(k, true)).sum();
    assert!(joined > 0 && (0..12).any(|k| count(k, true) == 2 && count(k, false) > 0));
    assert!((0..12).any(|k| count(k, true) == 0 && count(k, false) > 0));
    assert!((0..12).any(|k| count(k, true) > 0 && count(k, false) == 0));
    for long_key in [false, true] {
        for reducers in [1, 2, 3] {
            let case = format!("long key {long_key}, {reducers} reducers");
            let (row_parts, row_rows) = join_job(Arc::new(RowPath), reducers, long_key);
            let (parts, rows) = join_job(Arc::new(RepartitionReducer), reducers, long_key);
            assert_eq!(parts, row_parts, "{case}");
            // Debug, not ==: Datum equality coerces I32/I64.
            assert_eq!(format!("{rows:?}"), format!("{row_rows:?}"), "{case}");
            assert_eq!(rows.len(), joined, "{case}");
            let from_parts: usize = parts
                .iter()
                .map(|p| rowcodec::read_rows(p).unwrap().len())
                .sum();
            assert_eq!(from_parts, joined, "{case}");
        }
    }
}

/// Append a run record: `varint(key length) ‖ key ‖ varint(value length) ‖
/// value`.
fn push_record(run: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    varint::write_u64(run, key.len() as u64);
    run.extend_from_slice(key);
    varint::write_u64(run, value.len() as u64);
    run.extend_from_slice(value);
}

/// One map task's run for one join reducer: every [`join_input`] row under
/// its key, in key order (boxed keys for odd keys), each value's
/// [`rowcodec::write_row`] bytes.
fn written_join_run() -> Vec<u8> {
    let mut records: Vec<(Vec<u8>, Vec<u8>)> = join_input()
        .iter()
        .filter(|r| r.at(0).as_i64().is_some_and(|k| k < 6))
        .map(|r| {
            let k = r.at(0).as_i64().unwrap();
            let key = if k % 2 == 1 {
                row![format!("a join key past the inline limit {k}")]
            } else {
                row![k]
            };
            let mut value = Vec::new();
            rowcodec::write_row(&mut value, &Row::new(r.values()[1..].to_vec()));
            (keycodec::encode_row(&key), value)
        })
        .collect();
    records.sort_by(|a, b| a.0.cmp(&b.0));
    let mut run = Vec::new();
    for (key, value) in &records {
        push_record(&mut run, key, value);
    }
    run
}

/// Reduce `bytes` as one run with `reducer`, into a part file and into
/// memory.
fn reduce_run(bytes: &[u8], reducer: &dyn Reducer) -> (Result<Vec<u8>>, Result<String>) {
    let reduce = |mut sink: ReduceSink| {
        let run = Run::from_bytes(bytes.to_vec(), 1);
        shuffle::reduce_runs(std::slice::from_ref(&run), reducer, &mut sink).map(|()| sink.finish())
    };
    let part = reduce(ReduceSink::part()).map(|(_, part)| part.unwrap());
    let rows = reduce(ReduceSink::memory()).map(|(rows, _)| format!("{rows:?}"));
    (part, rows)
}

/// On `bytes`, the encoded join agrees with the row join wherever the row
/// join succeeds, and whatever it writes is whole, canonical rows.
fn joins_like_the_row_path(bytes: &[u8]) -> std::result::Result<(), String> {
    let (row_part, row_rows) = reduce_run(bytes, &RowPath);
    let (part, rows) = reduce_run(bytes, &RepartitionReducer);
    if let Ok(want) = &row_part {
        if part.as_ref() != Ok(want) {
            return Err(format!(
                "{bytes:02x?}: part file {part:?}, row path {want:?}"
            ));
        }
    }
    if let Ok(want) = &row_rows {
        if rows.as_ref() != Ok(want) {
            return Err(format!("{bytes:02x?}: rows {rows:?}, row path {want:?}"));
        }
    }
    if let Ok(part) = &part {
        let read = rowcodec::read_rows(part).map_err(|e| format!("{bytes:02x?}: {e}"))?;
        if rowcodec::write_rows(&read) != *part {
            return Err(format!("{bytes:02x?}: a written row is not canonical"));
        }
    }
    Ok(())
}

#[test]
fn the_encoded_join_matches_the_row_join_on_every_truncation_and_bit_flip() {
    let run = written_join_run();
    let (part, _) = reduce_run(&run, &RepartitionReducer);
    assert!(rowcodec::read_rows(&part.unwrap()).unwrap().len() > 2);
    joins_like_the_row_path(&run).unwrap();
    for cut in 0..run.len() {
        joins_like_the_row_path(&run[..cut]).unwrap();
    }
    for bit in 0..run.len() * 8 {
        let mut flipped = run.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        joins_like_the_row_path(&flipped).unwrap();
    }
}

#[test]
fn a_decodable_overlong_varint_joins_through_the_row_path() {
    // `I64(5)` written as the two-byte varint [0x8a, 0x00]: the row join
    // decodes it and writes it again in one byte, so copying the value's
    // bytes would not agree.
    let mut fact = Vec::new();
    rowcodec::write_row(&mut fact, &row![5i64, Datum::Null, 1.5f64, TAG_LEFT]);
    assert_eq!(&fact[..3], &[4, 2, 0x0a]);
    fact.splice(2..3, [0x8a, 0x00]);
    let mut dim = Vec::new();
    rowcodec::write_row(&mut dim, &row!["ASIA", TAG_RIGHT]);
    let mut run = Vec::new();
    let key = keycodec::encode_row(&row![0i64]);
    push_record(&mut run, &key, &dim);
    push_record(&mut run, &key, &fact);
    let (part, rows) = reduce_run(&run, &RowPath);
    assert_eq!(
        rowcodec::read_rows(&part.unwrap()).unwrap(),
        vec![row![5i64, Datum::Null, 1.5f64, "ASIA"]]
    );
    assert!(rows.is_ok());
    joins_like_the_row_path(&run).unwrap();
}
