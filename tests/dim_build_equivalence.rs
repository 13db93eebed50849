//! The two entry points of the dimension hash build — in-memory rows
//! (`DimHashTable::build`) and node-local row-binary bytes
//! (`DimHashTable::build_encoded`, what `MtMapRunner` runs) — must produce
//! the same table, the same accounting (every simulated number is priced
//! from `build_rows` / `mem_bytes` / `mem_fixed_bytes`) and the same probe
//! order; and the encoded one must turn any byte buffer into a table or a
//! typed error, never a panic.

use clyde_common::{row, rowcodec, Datum, Row};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::queries::{all_queries, query_by_id, DimJoin, DimPred};
use clyde_ssb::schema;
use clydesdale::hashtable::{DimHashTable, DimTables};
use proptest::prelude::*;

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
            a.get_id(key).map(|id| a.aux(id)),
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
        (Ok(a), Ok(b)) => assert_same_table(&a, &b, keys),
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("rows path {a:?} vs encoded path {b:?}"),
    }
}

#[test]
fn every_join_of_every_ssb_query_builds_the_same_table_from_bytes() {
    let data = SsbGen::new(0.005, 46).gen_all();
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
