//! The mapjoin (broadcast hash join) stage — paper Figure 6.
//!
//! The Hive master builds a hash table over the (filtered) dimension,
//! serializes it, and disseminates it through the distributed cache. Each
//! map task then loads and deserializes **its own copy** — once per task,
//! once per slot in memory — and probes its local splits of the larger
//! side. Both per-task reload cost (`state_load_bytes`) and per-slot memory
//! duplication (`charge_memory_per_slot`) are accounted, because they are
//! the two effects the paper blames for Hive's mapjoin behaviour
//! (Section 6.3's 4,887 reloads; Section 6.4's cluster-A OOMs).

use clyde_columnar::RcFileReader;
use clyde_common::obs::{Phase, WallTimer};
use clyde_common::rowcodec::{self, RowsRef, StrPool};
use clyde_common::{varint, ClydeError, Datum, FxHashMap, Result, Row, Schema};
use clyde_dfs::Dfs;
use clyde_mapred::engine::ClientArtifacts;
use clyde_mapred::{DistCache, MapRunner, MapTaskContext, Reader, TaskIo};
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::queries::{fact_preds_eval_row, DimJoin, FactPred};
use clyde_ssb::schema as ssb_schema;
use std::sync::Arc;

/// Build the dimension hash table on the job client and publish it.
///
/// The client reads only the join's key, aux and predicate columns
/// ([`DimJoin::scan_columns`], RCFile's column skipping), and serializes
/// each qualifying row's `(pk, aux…)` entry as it goes.
///
/// Returns the [`ClientArtifacts`] to submit the job with, plus the
/// in-memory footprint one copy of the table will occupy in a map task.
pub fn build_and_publish(
    dfs: &Arc<Dfs>,
    layout: &SsbLayout,
    join: &DimJoin,
    cache_key: &str,
) -> Result<(ClientArtifacts, u64)> {
    let dim_schema = ssb_schema::schema_of(&join.dimension)
        .ok_or_else(|| ClydeError::Plan(format!("unknown dimension {}", join.dimension)))?;
    let reader = RcFileReader::open(dfs, &layout.table_rc(&join.dimension))?;
    let scan_names = join.scan_columns();
    let scan_cols: Vec<usize> = scan_names
        .iter()
        .map(|c| reader.schema().index_of(c))
        .collect::<Result<_>>()?;
    let scan_schema = dim_schema.select(&scan_names)?;
    let pred = join.predicate.compile(&scan_schema)?;
    let entry_idx: Vec<usize> = std::iter::once(&join.pk)
        .chain(&join.aux)
        .map(|c| scan_schema.index_of(c))
        .collect::<Result<_>>()?;

    // The entries' bytes as `write_rows` lays them out past its count
    // prefix, which is written once the count is known.
    let (mut body, mut entries, mut rows_read) = (Vec::new(), 0u64, 0u64);
    let io = TaskIo::client(Arc::clone(dfs));
    let mut row = Row::empty();
    for g in 0..reader.meta().num_groups() {
        let block = reader.read_group(&io, g, &scan_cols)?;
        rows_read += block.len() as u64;
        for i in 0..block.len() {
            if !block.row_into(i, &mut row) || !pred.eval(&row)? {
                continue;
            }
            varint::write_u64(&mut body, entry_idx.len() as u64);
            for &c in &entry_idx {
                let field = row.get(c).ok_or_else(|| {
                    ClydeError::MapReduce(format!("{} row has no column {c}", join.dimension))
                })?;
                rowcodec::write_datum(&mut body, field);
            }
            entries += 1;
        }
    }
    // Hive-era Java in-memory footprint per entry: HashMap$Entry + boxed
    // key + deserialized Writable row object graph (~560 B) plus ~120 B per
    // auxiliary field. Calibrated against Section 6.3 ("100MB compressed on
    // disk and about 500MB decompressed in memory" for Q2.1's 400 K-entry
    // Supplier table) and against the OOM boundary: with 6 slots each
    // holding a copy, the customer-joining queries (Q3.1, Q4.*) must exceed
    // cluster A's 16 GB but fit cluster B's 32 GB (Section 6.4). Clydesdale
    // avoids this footprint by design (compact shared tables), which is why
    // its memory model in `clydesdale::hashtable` is byte-accurate instead.
    let mem_bytes = entries * (560 + 120 * join.aux.len() as u64);
    let mut payload = Vec::with_capacity(varint::encoded_len_u64(entries) + body.len());
    varint::write_u64(&mut payload, entries);
    payload.extend_from_slice(&body);
    let cache = Arc::new(DistCache::new());
    cache.publish(cache_key, bytes::Bytes::from(payload));
    Ok((
        ClientArtifacts {
            cache,
            build_rows: rows_read,
            build_wall_ns: 0,
        },
        mem_bytes,
    ))
}

/// One map task's copy of the broadcast table: each key's entry, and every
/// entry's aux fields in one vector (entry `e` is
/// `aux[bounds[e]..bounds[e + 1]]`), strings shared through a pool.
struct BroadcastTable {
    entries: FxHashMap<i64, u32>,
    aux: Vec<Datum>,
    bounds: Vec<u32>,
}

impl BroadcastTable {
    /// Parse a payload [`build_and_publish`] wrote. A key that repeats
    /// keeps its last entry. Any bytes give a table or a typed error.
    fn parse(payload: &[u8]) -> Result<BroadcastTable> {
        let mut reader = RowsRef::new(payload)?;
        let n = reader.capacity_hint();
        let mut table = BroadcastTable {
            entries: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            aux: Vec::new(),
            bounds: Vec::with_capacity(n + 1),
        };
        table.bounds.push(0);
        let (mut fields, mut strings) = (Vec::new(), StrPool::default());
        while reader.next_into(&mut fields)? {
            let (pk, aux) = fields.split_first().ok_or_else(|| {
                ClydeError::MapReduce("empty entry in the mapjoin hash table".into())
            })?;
            let pk = pk
                .as_i64()
                .ok_or_else(|| ClydeError::Plan("non-integer dimension key".into()))?;
            let entry = table.bounds.len() - 1;
            if entry == 0 {
                // Sized from the first entry's width; every field takes at
                // least one byte of the payload.
                table
                    .aux
                    .reserve(n.saturating_mul(aux.len()).min(payload.len()));
            }
            table.aux.extend(aux.iter().map(|&f| strings.datum(f)));
            let (Ok(entry), Ok(end)) = (u32::try_from(entry), u32::try_from(table.aux.len()))
            else {
                return Err(ClydeError::MapReduce(
                    "mapjoin hash table too large to index".into(),
                ));
            };
            table.bounds.push(end);
            table.entries.insert(pk, entry);
        }
        Ok(table)
    }

    /// The aux fields of `key`'s entry.
    fn get(&self, key: i64) -> Option<&[Datum]> {
        let &e = self.entries.get(&key)?;
        let e = e as usize;
        let (&from, &to) = (self.bounds.get(e)?, self.bounds.get(e + 1)?);
        self.aux.get(from as usize..to as usize)
    }
}

/// The map task of a mapjoin stage: load the broadcast table, probe the
/// local split, emit joined rows (map-only; output goes to the stage's
/// DFS directory).
pub struct MapJoinRunner {
    pub cache_key: String,
    /// Index of the join's foreign key in the incoming row schema.
    pub fk_idx: usize,
    /// Fact predicates applied on the stream (first stage only) with the
    /// schema to resolve them against.
    pub fact_preds: Vec<FactPred>,
    pub input_schema: Schema,
    /// One copy of the hash table costs this much memory per map slot.
    pub table_mem_bytes: u64,
}

impl MapRunner for MapJoinRunner {
    fn run(&self, ctx: &MapTaskContext<'_>) -> Result<()> {
        // Every task reloads and re-deserializes the table: Hive has no JVM
        // reuse here (paper Section 6.4, reason four).
        let load = WallTimer::start();
        let payload = ctx.dist_cache.fetch(ctx.node, &self.cache_key)?;
        // The reload cost is priced on the *materialized* (decompressed,
        // Java object graph) size, not the compact wire bytes: the paper's
        // stage 3 pays ~70 s per task re-inflating Supplier's 500 MB table.
        ctx.add_cost(|c| c.state_load_bytes += self.table_mem_bytes);
        ctx.charge_memory_per_slot(self.table_mem_bytes)?;
        let table = BroadcastTable::parse(&payload)?;
        ctx.note_wall_phase(Phase::StateLoad, load.elapsed_ns());

        // One key/value pair is refilled for every record of the task; a
        // joined row is the refilled row with the aux fields appended.
        let (mut key, mut row) = (Row::empty(), Row::empty());
        for part in 0..ctx.split.spec.num_parts() {
            let open = WallTimer::start();
            let reader = ctx.input.open(ctx.split, part, &ctx.io)?;
            ctx.note_wall_phase(Phase::Scan, open.elapsed_ns());
            let drain = WallTimer::start();
            let mut rows_seen = 0u64;
            let Reader::Rows(mut r) = reader else {
                return Err(ClydeError::MapReduce(
                    "hive mapjoin expects row readers".into(),
                ));
            };
            while r.next_into(&mut key, &mut row)? {
                rows_seen += 1;
                if !self.fact_preds.is_empty()
                    && !fact_preds_eval_row(&self.fact_preds, &row, &self.input_schema)?
                {
                    continue;
                }
                let fk = row
                    .get(self.fk_idx)
                    .ok_or_else(|| {
                        ClydeError::MapReduce(format!(
                            "row has no foreign key column {}",
                            self.fk_idx
                        ))
                    })?
                    .as_i64()
                    .ok_or_else(|| ClydeError::Plan("non-integer foreign key".into()))?;
                if let Some(aux) = table.get(fk) {
                    // The next refill drops the aux fields; the row keeps the
                    // capacity they took after the first join.
                    row.extend(aux.iter().cloned());
                    ctx.emit(&[], row.values());
                }
            }
            ctx.add_cost(|c| c.deser_rows += rows_seen);
            ctx.note_wall_phase(Phase::Emit, drain.elapsed_ns());
        }
        Ok(())
    }
}

/// The output schema of a mapjoin stage: input columns + the join's aux.
pub fn joined_schema(input: &Schema, join: &DimJoin) -> Result<Schema> {
    let dim_schema = ssb_schema::schema_of(&join.dimension)
        .ok_or_else(|| ClydeError::Plan(format!("unknown dimension {}", join.dimension)))?;
    let mut fields = input.fields().to_vec();
    fields.extend_from_slice(dim_schema.select(&join.aux)?.fields());
    Ok(Schema::new(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::{row, Field};
    use clyde_mapred::formats::VecInputFormat;
    use clyde_mapred::{Engine, JobSpec};
    use std::collections::BTreeMap;

    /// Run a mapjoin stage whose distributed-cache table is `payload`,
    /// probed by `rows` with the foreign key in column 1.
    fn mapjoin_job(payload: Vec<u8>, rows: Vec<Row>) -> Result<Vec<Row>> {
        let cache = Arc::new(DistCache::new());
        cache.publish("t", bytes::Bytes::from(payload));
        let runner = MapJoinRunner {
            cache_key: "t".into(),
            fk_idx: 1,
            fact_preds: Vec::new(),
            input_schema: Schema::new(vec![Field::i32("lo_key"), Field::i32("lo_fk")]),
            table_mem_bytes: 1,
        };
        let engine = Engine::new(Dfs::for_tests(2));
        let spec = JobSpec::new(
            "mapjoin",
            Arc::new(VecInputFormat::new(rows, 1)),
            Arc::new(runner),
        );
        let client = ClientArtifacts {
            cache,
            build_rows: 0,
            build_wall_ns: 0,
        };
        Ok(engine.run_job_with(&spec, client, 0.0)?.rows)
    }

    /// The table as each task built it before the reload parsed in place:
    /// every entry decoded into a row, then inserted into a map of rows
    /// (ordered here, so the comparison walks it in key order).
    fn row_table(payload: &[u8]) -> Result<BTreeMap<i64, Row>> {
        let mut table = BTreeMap::new();
        for e in rowcodec::read_rows(payload)? {
            let (pk, aux) = e.values().split_first().ok_or_else(|| {
                ClydeError::MapReduce("empty entry in the mapjoin hash table".into())
            })?;
            let pk = pk
                .as_i64()
                .ok_or_else(|| ClydeError::Plan("non-integer dimension key".into()))?;
            table.insert(pk, Row::new(aux.to_vec()));
        }
        Ok(table)
    }

    /// `rows` joined through [`row_table`], as the runner joins them.
    fn row_join(payload: &[u8], rows: &[Row]) -> Result<Vec<Row>> {
        let table = row_table(payload)?;
        Ok(rows
            .iter()
            .filter_map(|r| {
                let aux = table.get(&r.at(1).as_i64()?)?;
                Some(r.values().iter().chain(aux.values()).cloned().collect())
            })
            .collect())
    }

    /// The parsed table and [`row_table`] agree on `payload`: both fail,
    /// or both hold the same keys with the same aux fields.
    fn assert_parses_like_row_table(payload: &[u8]) {
        match (BroadcastTable::parse(payload), row_table(payload)) {
            (Ok(parsed), Ok(rows)) => {
                assert_eq!(parsed.entries.len(), rows.len(), "{payload:02x?}");
                for (key, aux) in &rows {
                    // Debug, not ==: Datum equality coerces I32/I64 and NaN != NaN.
                    assert_eq!(
                        format!("{:?}", parsed.get(*key)),
                        format!("{:?}", Some(aux.values())),
                        "{payload:02x?}"
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (parsed, rows) => panic!(
                "{payload:02x?}: parsed {:?} vs rows {:?}",
                parsed.map(|t| t.entries.len()),
                rows.map(|t| t.len())
            ),
        }
    }

    #[test]
    fn runner_joins_aux_onto_matching_rows() {
        let rows = vec![row![1i32, 7i32], row![2i32, 8i32]];
        let out = mapjoin_job(rowcodec::write_rows(&[row![7i64, "ASIA"]]), rows).unwrap();
        assert_eq!(out, vec![row![1i32, 7i32, "ASIA"]]);
    }

    #[test]
    fn an_empty_cache_entry_is_an_error() {
        let payload = rowcodec::write_rows(&[row![7i64, "ASIA"], Row::empty()]);
        assert!(mapjoin_job(payload, vec![row![1i32, 7i32]]).is_err());
    }

    #[test]
    fn a_non_integer_key_is_an_error() {
        let payload = rowcodec::write_rows(&[row!["7", "ASIA"]]);
        assert!(mapjoin_job(payload, vec![row![1i32, 7i32]]).is_err());
    }

    #[test]
    fn a_row_short_of_its_foreign_key_is_an_error() {
        let payload = rowcodec::write_rows(&[row![7i64, "ASIA"]]);
        assert!(mapjoin_job(payload, vec![row![1i32]]).is_err());
    }

    /// Entries with no aux field, a repeated key, string / NULL / f64 aux
    /// values and an empty table join as the table of rows joins them.
    #[test]
    fn the_reload_joins_every_entry_shape_like_a_table_of_rows() {
        let facts: Vec<Row> = (0..12).map(|i| row![i, i % 6]).collect();
        let tables: [Vec<Row>; 5] = [
            vec![row![1i64], row![2i32]],
            vec![row![3i64, "A"], row![4i64, "B"], row![3i64, "C"]],
            vec![
                row![1i32, "ASIA", 2.5f64],
                Row::new(vec![Datum::I64(2), Datum::Null, Datum::F64(f64::NAN)]),
                row![5i64, "", -0.0f64],
            ],
            vec![row![0i64, "x"], row![5i64, 9i64, "y", 7i32]],
            Vec::new(),
        ];
        for entries in &tables {
            let payload = rowcodec::write_rows(entries);
            let want = row_join(&payload, &facts).unwrap();
            let got = mapjoin_job(payload.clone(), facts.clone()).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{entries:?}");
            assert_parses_like_row_table(&payload);
        }
        // The repeated key's last entry wins.
        let payload = rowcodec::write_rows(&tables[1]);
        let table = BroadcastTable::parse(&payload).unwrap();
        assert_eq!(table.get(3), Some(&[Datum::str("C")][..]));
        assert_eq!(table.get(6), None);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_the_row_tables_answer_or_a_typed_error() {
        let payload = rowcodec::write_rows(&[
            row![1i32, "ASIA", 2.5f64],
            row![300i64],
            Row::new(vec![Datum::I64(-7), Datum::Null, Datum::I32(i32::MIN)]),
            row![1i64, "EUROPE", 1.0f64],
        ]);
        for cut in 0..payload.len() {
            assert_parses_like_row_table(&payload[..cut]);
            assert!(BroadcastTable::parse(&payload[..cut]).is_err(), "cut {cut}");
        }
        let mut flipped = payload.clone();
        for bit in 0..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_parses_like_row_table(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
