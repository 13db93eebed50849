//! The shuffle invariant (DESIGN.md §6): map output reaches the reducers
//! partitioned by key, sorted by key within each reducer, and with each
//! key's values in map-output order — and rows cross it by move and by
//! borrow, never by copy.
//!
//! Map-output order is task order, then emit order within a task: the
//! reduce-side merge is stable in run order, and runs are laid out by task
//! index.

use clyde_common::{keycodec, row, rowcodec, Datum, Result, Row};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_mapred::formats::VecInputFormat;
use clyde_mapred::runner::{FnMapper, RowMapRunner};
use clyde_mapred::shuffle::{self, FnReducer, Reducer};
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
    let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: Row, ctx: &_| {
        let i = v.at(0).as_i64().unwrap();
        ctx.emit(&[Datum::I64(key_of(i))], v);
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
                .map(|g| keycodec::encode_row(&g.project(&[0])))
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
        let data = gen.gen_all();
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
