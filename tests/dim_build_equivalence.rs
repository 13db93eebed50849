//! The two entry points of the dimension hash build — in-memory rows
//! (`DimHashTable::build`) and node-local row-binary bytes
//! (`DimHashTable::build_encoded`, what `MtMapRunner` runs) — must produce
//! the same table, the same accounting (every simulated number is priced
//! from `build_rows` / `mem_bytes` / `mem_fixed_bytes`) and the same probe
//! order; and the encoded one must turn any byte buffer into a table or a
//! typed error, never a panic.
//!
//! Group ids are dictionary codes of the distinct aux tuples, so every SSB
//! query's packed group key fits the dense accumulator; the sparse one
//! stays covered by a crafted query wider than 16 bits.

use clyde_common::{row, rowcodec, Datum, FxHashMap, Row, RowBlock, RowBlockBuilder, Schema};
use clyde_dfs::Dfs;
use clyde_mapred::ResidentStore;
use clyde_ssb::gen::{SsbData, SsbGen};
use clyde_ssb::queries::{all_queries, query_by_id, Aggregate, DimJoin, DimPred, StarQuery};
use clyde_ssb::{reference_answer, schema};
use clydesdale::hashtable::{DimHashTable, DimTables};
use clydesdale::probe::{
    probe_block, probe_block_vec, GroupAcc, GroupLayout, ProbePlan, ProbeStats, SelBuf,
};
use clydesdale::KernelOpts;
use proptest::prelude::*;
use std::sync::Arc;

/// Keys no generated table contains: the probe's out-of-range misses.
const FAR_KEYS: [i64; 6] = [i64::MIN, -1, 0, 1 << 40, i64::MAX - 1, i64::MAX];

type Built = clyde_common::Result<DimHashTable>;

fn build_both(join: &DimJoin, rows: &[Row]) -> (Built, Built) {
    (
        DimHashTable::build(join, rows),
        DimHashTable::build_encoded(join, &rowcodec::write_rows(rows)),
    )
}

/// Every observable of the two tables agrees; `keys` are probed on both.
fn assert_same_table(a: &DimHashTable, b: &DimHashTable, keys: impl Iterator<Item = i64>) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.num_ids(), b.num_ids());
    assert_eq!(a.is_empty(), b.is_empty());
    assert_eq!(a.rows_scanned, b.rows_scanned);
    assert_eq!(a.mem_bytes, b.mem_bytes);
    assert_eq!(a.mem_fixed_bytes, b.mem_fixed_bytes);
    assert_eq!(a.hit_rate().to_bits(), b.hit_rate().to_bits());
    assert_eq!(a.direct_parts(), b.direct_parts());
    for id in 0..a.num_ids() as u32 {
        // Debug, not ==: Datum equality coerces I32/I64.
        assert_eq!(format!("{:?}", a.aux(id)), format!("{:?}", b.aux(id)));
    }
    for key in keys.chain(FAR_KEYS) {
        assert_eq!(a.get_id(key), b.get_id(key), "get_id({key})");
        assert_eq!(a.get(key), b.get(key), "get({key})");
        assert_eq!(
            a.get(key),
            a.get_id(key).and_then(|id| a.aux(id)),
            "get vs get_id({key})"
        );
    }
}

/// Both entry points agree on `rows`: the same table, or the same error.
fn assert_equivalent(join: &DimJoin, rows: &[Row]) {
    let keys = rows
        .iter()
        .filter_map(|r| r.get(0).and_then(Datum::as_i64))
        .flat_map(|k| [k, k.wrapping_add(1)]);
    match build_both(join, rows) {
        (Ok(a), Ok(b)) => {
            assert_same_table(&a, &b, keys);
            assert_dictionary(join, &a, rows);
        }
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("rows path {a:?} vs encoded path {b:?}"),
    }
}

/// `t`'s group ids are the dictionary codes of the distinct aux tuples among
/// the rows `join` qualifies, numbered in first-appearance order: a key's id
/// is its tuple's code (so two keys share an id exactly when `get` gives
/// them equal aux rows), `aux` of that id is `get` of the key, and every id
/// is some key's.
fn assert_dictionary(join: &DimJoin, t: &DimHashTable, rows: &[Row]) {
    let dim = schema::schema_of(&join.dimension).unwrap();
    let pred = join.predicate.compile(&dim).unwrap();
    let pk = dim.index_of(&join.pk).unwrap();
    let aux: Vec<usize> = join.aux.iter().map(|a| dim.index_of(a).unwrap()).collect();
    let mut codes: FxHashMap<Row, u32> = FxHashMap::default();
    for r in rows.iter().filter(|r| pred.eval(r).unwrap()) {
        let key = r.at(pk).as_i64().unwrap();
        let tuple = aux.iter().map(|&c| r.at(c).clone()).collect::<Row>();
        let next = u32::try_from(codes.len()).unwrap();
        let code = *codes.entry(tuple.clone()).or_insert(next);
        assert_eq!(
            t.get_id(key),
            Some(code),
            "{}: get_id({key})",
            join.dimension
        );
        assert_eq!(t.get(key), Some(&tuple), "{}: get({key})", join.dimension);
        assert_eq!(
            t.aux(code),
            t.get(key),
            "{}: aux(get_id({key}))",
            join.dimension
        );
    }
    assert_eq!(t.num_ids(), codes.len(), "{}: num_ids", join.dimension);
    assert!(t.aux(u32::try_from(codes.len()).unwrap()).is_none());
}

/// Every SSB join: the same table from bytes, and ids that are dictionary
/// codes of its distinct aux tuples.
#[test]
fn every_join_of_every_ssb_query_builds_the_same_table_from_bytes() {
    let data = SsbGen::new(0.005, 46).gen_all().unwrap();
    for q in all_queries() {
        for join in &q.joins {
            assert_equivalent(join, data.dimension(&join.dimension).unwrap());
        }
        let by_rows =
            DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
                .unwrap();
        let by_bytes = DimTables::build_all_encoded(&q.joins, |dim| {
            Ok(rowcodec::write_rows(data.dimension(dim).unwrap()))
        })
        .unwrap();
        assert_eq!(by_rows.probe_order(), by_bytes.probe_order(), "{}", q.id);
        assert_eq!(by_rows.build_rows, by_bytes.build_rows, "{}", q.id);
        assert_eq!(by_rows.mem_bytes, by_bytes.mem_bytes, "{}", q.id);
        assert_eq!(
            by_rows.mem_fixed_bytes, by_bytes.mem_fixed_bytes,
            "{}",
            q.id
        );
        for (a, b) in by_rows.tables.iter().zip(&by_bytes.tables) {
            assert_same_table(a, b, std::iter::empty());
        }
    }
}

/// One predicate of every `DimPred` shape over the generated `part` rows
/// below (`p_category` ∈ {a,b,c}{1,2}, `p_size` ∈ 0..6).
fn pred_shapes() -> Vec<DimPred> {
    let cat = || "p_category".to_string();
    let size = || "p_size".to_string();
    let simple = vec![
        DimPred::True,
        DimPred::StrEq {
            column: cat(),
            value: "a".into(),
        },
        DimPred::StrIn {
            column: cat(),
            values: vec!["b".into(), "ab".into(), "cc".into()],
        },
        DimPred::StrBetween {
            column: cat(),
            lo: "ab".into(),
            hi: "bb".into(),
        },
        DimPred::I32Eq {
            column: size(),
            value: 3,
        },
        DimPred::I32Between {
            column: size(),
            lo: 1,
            hi: 4,
        },
        DimPred::I32In {
            column: size(),
            values: vec![0, 5],
        },
    ];
    let and = DimPred::And(vec![simple[3].clone(), simple[5].clone()]);
    simple.into_iter().chain([and]).collect()
}

/// A `part`-shaped row. Keys step by `gap` (0 makes a duplicate, a big one
/// pushes the range off the direct-index path); the two predicate columns
/// sometimes hold NULL or another integer width, which a predicate must
/// treat the same on both paths.
fn arb_part_rows() -> impl Strategy<Value = Vec<Row>> {
    let gap = prop_oneof![Just(1i32), Just(1i32), 0i32..4, 1i32..5_000_000];
    let category = prop_oneof![
        "[a-c]{1,2}".prop_map(Datum::from),
        "[a-c]{1,2}".prop_map(Datum::from),
        Just(Datum::Null)
    ];
    let size = prop_oneof![
        (0i32..6).prop_map(Datum::I32),
        (0i64..6).prop_map(Datum::I64),
        Just(Datum::Null)
    ];
    proptest::collection::vec((gap, category, size, "[\\PC]{0,12}"), 0..60).prop_map(|cols| {
        let mut key = 0i32;
        cols.into_iter()
            .map(|(gap, category, size, text)| {
                key = key.saturating_add(gap);
                let mut r = row![key, text.as_str(), "MFGR#1"];
                r.push(category);
                r.push(Datum::str("MFGR#1101"));
                r.push(Datum::str("red"));
                r.push(Datum::str(&text));
                r.push(size);
                r.push(Datum::str("JUMBO BOX"));
                r
            })
            .collect()
    })
}

fn part_join(predicate: DimPred, aux: &[&str]) -> DimJoin {
    DimJoin {
        dimension: schema::PART.into(),
        pk: "p_partkey".into(),
        fk: "lo_partkey".into(),
        predicate,
        aux: aux.iter().map(|a| a.to_string()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_rows_build_the_same_table_under_every_predicate_shape(
        rows in arb_part_rows(),
        aux_pick in 0usize..3,
    ) {
        let aux: &[&str] = [&[][..], &["p_category"], &["p_size", "p_type", "p_category"]][aux_pick];
        for predicate in pred_shapes() {
            assert_equivalent(&part_join(predicate, aux), &rows);
        }
    }

    /// Arbitrary bytes: a table or a typed error, and an error whenever
    /// `read_rows` gives one.
    #[test]
    fn arbitrary_bytes_never_panic(buf in proptest::collection::vec(any::<u8>(), 0..96)) {
        assert_no_more_lenient(&part_join(DimPred::True, &["p_category"]), &buf);
    }
}

/// `build_encoded(buf)` must fail on every buffer `read_rows` rejects, and
/// on every buffer it accepts must agree with `build` over the decoded rows.
fn assert_no_more_lenient(join: &DimJoin, buf: &[u8]) {
    let encoded = DimHashTable::build_encoded(join, buf);
    match rowcodec::read_rows(buf) {
        Err(_) => assert!(encoded.is_err(), "accepted a buffer read_rows rejects"),
        Ok(rows) => match (DimHashTable::build(join, &rows), encoded) {
            (Ok(a), Ok(b)) => assert_same_table(&a, &b, std::iter::empty()),
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("rows path {a:?} vs encoded path {b:?}"),
        },
    }
}

#[test]
fn every_truncation_and_every_bit_flip_is_a_table_or_a_typed_error() {
    let dates: Vec<Row> = SsbGen::new(0.001, 1)
        .gen_date()
        .into_iter()
        .take(24)
        .collect();
    let q = query_by_id("Q2.1").unwrap(); // date joined for d_year, unfiltered
    let join = q
        .joins
        .iter()
        .find(|j| j.dimension == schema::DATE)
        .unwrap();
    let buf = rowcodec::write_rows(&dates);
    assert!(DimHashTable::build_encoded(join, &buf).is_ok());
    for cut in 0..buf.len() {
        assert!(
            DimHashTable::build_encoded(join, &buf[..cut]).is_err(),
            "cut at {cut}"
        );
    }
    let mut flipped = buf.clone();
    for bit in 0..buf.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_no_more_lenient(join, &flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    assert_eq!(flipped, buf);
}

/// Bits a dictionary of `n` ids needs: the least `b` with `2^b >= n`.
fn id_bits(n: usize) -> u32 {
    (0..usize::BITS).find(|&b| 1usize << b >= n).unwrap()
}

/// The scanned fact columns of `q`: their lineorder indexes and schema.
fn scan_of(q: &StarQuery) -> (Vec<usize>, Schema) {
    let fact = schema::lineorder_schema();
    let cols: Vec<usize> = q
        .fact_columns()
        .iter()
        .map(|c| fact.index_of(c).unwrap())
        .collect();
    let scan = fact.project(&cols);
    (cols, scan)
}

/// Each group-contributing join gets ⌈log2⌉ of its dictionary size in
/// bits, and at SF 0.01 every SSB query's packed key fits the dense
/// accumulator.
#[test]
fn every_ssb_query_packs_its_group_key_densely() {
    let gen = SsbGen::new(0.01, 46);
    let dims = [
        (schema::DATE, gen.gen_date()),
        (schema::CUSTOMER, gen.gen_customer()),
        (schema::SUPPLIER, gen.gen_supplier()),
        (schema::PART, gen.gen_part()),
    ];
    let mut widths: Vec<(String, Vec<u32>)> = Vec::new();
    for q in all_queries() {
        let plan = ProbePlan::compile(&q, &scan_of(&q).1).unwrap();
        let tables = DimTables::build_all(&q.joins, |dim| {
            Ok(dims.iter().find(|(d, _)| *d == dim).unwrap().1.clone())
        })
        .unwrap();
        let mut joins: Vec<usize> = Vec::new();
        for &(ji, _) in &plan.group_src {
            if !joins.contains(&ji) {
                joins.push(ji);
            }
        }
        let bits: Vec<u32> = joins
            .iter()
            .map(|&ji| id_bits(tables.tables[ji].num_ids()))
            .collect();
        let total: u32 = bits.iter().sum();
        assert!(total <= 16, "{}: {bits:?}", q.id);
        let layout = GroupLayout::new(&plan, &tables).unwrap();
        assert_eq!(layout.dense_slots(), Some(1 << total), "{}", q.id);
        assert!(matches!(
            GroupAcc::new(&layout, &q.aggregate),
            GroupAcc::Dense(_)
        ));
        widths.push((q.id, bits));
    }
    // Recorded at SF 0.01, seed 46: 20 suppliers and 300 customers leave
    // some dictionaries at one tuple (0 bits). Q2.1 is seven years × the
    // brands of MFGR#12 (at most 40); Q3.1 is the five Asian nations × the
    // three or four of them that have a supplier × six years.
    let expect: [(&str, &[u32]); 13] = [
        ("Q1.1", &[]),
        ("Q1.2", &[]),
        ("Q1.3", &[]),
        ("Q2.1", &[3, 6]),
        ("Q2.2", &[3, 3]),
        ("Q2.3", &[3, 0]),
        ("Q3.1", &[3, 2, 3]),
        ("Q3.2", &[3, 2, 3]),
        ("Q3.3", &[0, 0, 3]),
        ("Q3.4", &[0, 0, 0]),
        ("Q4.1", &[3, 3]),
        ("Q4.2", &[1, 1, 4]),
        ("Q4.3", &[1, 2, 6]),
    ];
    assert_eq!(widths.len(), expect.len());
    for ((id, bits), (expect_id, expect_bits)) in widths.iter().zip(expect) {
        assert_eq!((id.as_str(), bits.as_slice()), (expect_id, expect_bits));
    }
}

/// `q`'s fact rows in blocks of `rows_per_block`, projected to its scan.
fn blocks_of(data: &SsbData, q: &StarQuery, rows_per_block: usize) -> Vec<RowBlock> {
    let (cols, scan) = scan_of(q);
    let dtypes: Vec<_> = scan.fields().iter().map(|f| f.dtype).collect();
    data.lineorder
        .chunks(rows_per_block)
        .map(|chunk| {
            let mut b = RowBlockBuilder::new(&dtypes);
            for lo in chunk {
                b.push_row(&cols.iter().map(|&c| lo.at(c).clone()).collect::<Row>())
                    .unwrap();
            }
            b.finish()
        })
        .collect()
}

/// The vectorized kernel (blocks dealt over two accumulators, then merged),
/// the scalar kernel and the reference executor give `q` one answer.
/// Returns the vectorized kernel's layout.
fn assert_kernels_agree(data: &SsbData, q: &StarQuery, tables: &DimTables) -> GroupLayout {
    let plan = ProbePlan::compile(q, &scan_of(q).1).unwrap();
    let blocks = blocks_of(data, q, 1_000);
    let mut scalar = FxHashMap::default();
    let mut st_scalar = ProbeStats::default();
    for b in &blocks {
        probe_block(b, &plan, tables, &mut scalar, &mut st_scalar).unwrap();
    }

    let layout = GroupLayout::new(&plan, tables).unwrap();
    let mut accs = [
        GroupAcc::new(&layout, &q.aggregate),
        GroupAcc::new(&layout, &q.aggregate),
    ];
    let mut buf = SelBuf::default();
    let mut st_vec = ProbeStats::default();
    for (i, b) in blocks.iter().enumerate() {
        let acc = &mut accs[i % 2];
        probe_block_vec(
            b,
            &plan,
            tables,
            &layout,
            acc,
            &mut buf,
            &mut st_vec,
            KernelOpts,
        )
        .unwrap();
    }
    let [mut acc, other] = accs;
    acc.merge(other, &q.aggregate).unwrap();
    let mut vectorized: FxHashMap<Row, i64> = FxHashMap::default();
    for (key, v) in acc.entries() {
        let slot = vectorized
            .entry(layout.rematerialize(key, tables))
            .or_insert_with(|| q.aggregate.identity());
        *slot = q.aggregate.fold(*slot, v);
    }
    assert_eq!(vectorized, scalar, "{}: vectorized != scalar", q.id);
    assert_eq!(st_vec, st_scalar, "{}: stats", q.id);

    // clyde-lint: allow(unordered, reason=sort_result orders the rows below)
    let mut rows: Vec<Row> = scalar
        .into_iter()
        .map(|(k, v)| k.concat(&row![v]))
        .collect();
    q.sort_result(&mut rows);
    assert_eq!(
        rows,
        reference_answer(data, q).unwrap(),
        "{}: reference",
        q.id
    );
    assert!(!rows.is_empty(), "{}: an empty answer proves little", q.id);
    layout
}

fn unfiltered(dimension: &str, pk: &str, fk: &str, aux: &str) -> DimJoin {
    DimJoin {
        dimension: dimension.into(),
        pk: pk.into(),
        fk: fk.into(),
        predicate: DimPred::True,
        aux: vec![aux.into()],
    }
}

/// Grouped by customer city, supplier city and brand over unfiltered
/// dimensions, the packed key is wider than 16 bits, so the vectorized
/// kernel aggregates in the sparse map — and still agrees.
#[test]
fn a_group_key_wider_than_the_dense_array_aggregates_sparsely_and_agrees() {
    let data = SsbGen::new(0.005, 46).gen_all().unwrap();
    let q = StarQuery {
        id: "wide".into(),
        joins: vec![
            unfiltered(schema::CUSTOMER, "c_custkey", "lo_custkey", "c_city"),
            unfiltered(schema::SUPPLIER, "s_suppkey", "lo_suppkey", "s_city"),
            unfiltered(schema::PART, "p_partkey", "lo_partkey", "p_brand1"),
        ],
        fact_preds: vec![],
        group_by: vec!["c_city".into(), "s_city".into(), "p_brand1".into()],
        aggregate: Aggregate::SumColumn("lo_revenue".into()),
        order_by: vec![],
        limit: None,
    };
    let tables =
        DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec())).unwrap();
    let bits: u32 = tables.tables.iter().map(|t| id_bits(t.num_ids())).sum();
    assert!(bits > 16, "{bits} bits");
    let layout = assert_kernels_agree(&data, &q, &tables);
    assert_eq!(layout.dense_slots(), None);
    assert!(matches!(
        GroupAcc::new(&layout, &q.aggregate),
        GroupAcc::Sparse(_)
    ));
}

/// One dimension joined twice under different predicates: `date` on the
/// order date (1993–1995, carrying a month no group-by reads, so several
/// ids rematerialize to one group row) and on the commit date (1994 only).
/// The two joins get two tables; a later query that swaps their foreign
/// keys finds both resident, because a table's key has no `fk`; and a join
/// that mixes one's predicate with the other's aux is served neither.
#[test]
fn one_dimension_joined_twice_under_different_predicates() {
    let data = SsbGen::new(0.005, 46).gen_all().unwrap();
    let date = |fk: &str, predicate: DimPred, aux: &[&str]| DimJoin {
        dimension: schema::DATE.into(),
        pk: "d_datekey".into(),
        fk: fk.into(),
        predicate,
        aux: aux.iter().map(|a| a.to_string()).collect(),
    };
    let q = StarQuery {
        id: "date-twice".into(),
        joins: vec![
            date(
                "lo_orderdate",
                DimPred::I32Between {
                    column: "d_year".into(),
                    lo: 1993,
                    hi: 1995,
                },
                &["d_year", "d_month"],
            ),
            date(
                "lo_commitdate",
                DimPred::I32Eq {
                    column: "d_year".into(),
                    value: 1994,
                },
                &["d_yearmonth"],
            ),
        ],
        fact_preds: vec![],
        group_by: vec!["d_year".into(), "d_yearmonth".into()],
        aggregate: Aggregate::CountStar,
        order_by: vec![],
        limit: None,
    };

    let dfs = Dfs::for_tests(1);
    dfs.write_file("date.bin", None, &rowcodec::write_rows(&data.date))
        .unwrap();
    let bytes = dfs.read_file("date.bin", None).unwrap();
    let store = ResidentStore::new(1 << 30);
    let first =
        DimTables::build_all_resident(&q.joins, Some(&store), |_| Ok(bytes.clone())).unwrap();
    assert!(!Arc::ptr_eq(&first.tables[0], &first.tables[1]));
    for (join, table) in q.joins.iter().zip(&first.tables) {
        assert_same_table(
            table,
            &DimHashTable::build(join, &data.date).unwrap(),
            std::iter::empty(),
        );
        assert_dictionary(join, table, &data.date);
    }
    assert_eq!(first.tables[0].num_ids(), 36);
    assert_eq!(first.tables[1].num_ids(), 12);
    let layout = assert_kernels_agree(&data, &q, &first);
    assert_eq!(layout.dense_slots(), Some(1 << (6 + 4)));

    let mut swapped = q.clone();
    swapped.joins[0].fk = "lo_commitdate".into();
    swapped.joins[1].fk = "lo_orderdate".into();
    let again =
        DimTables::build_all_resident(&swapped.joins, Some(&store), |_| Ok(bytes.clone())).unwrap();
    for (a, b) in first.tables.iter().zip(&again.tables) {
        assert!(
            Arc::ptr_eq(a, b),
            "a join that differs only in fk is the same table"
        );
    }
    assert_kernels_agree(&data, &swapped, &again);

    let mut mixed = q.joins[0].clone();
    mixed.predicate = q.joins[1].predicate.clone();
    assert!(DimHashTable::resident(&store, &mixed, &bytes).is_none());
}
