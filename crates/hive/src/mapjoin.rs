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
use clyde_common::{rowcodec, ClydeError, FxHashMap, Result, Row, Schema};
use clyde_dfs::Dfs;
use clyde_mapred::engine::ClientArtifacts;
use clyde_mapred::{DistCache, MapRunner, MapTaskContext, Reader};
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::queries::{fact_preds_eval_row, DimJoin, FactPred};
use clyde_ssb::schema as ssb_schema;
use std::sync::Arc;

/// Build the dimension hash table on the job client and publish it.
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
    let rows = reader.read_all_rows(dfs)?;
    let pred = join.predicate.compile(&dim_schema)?;
    let pk_idx = dim_schema.index_of(&join.pk)?;
    let aux_idx: Vec<usize> = join
        .aux
        .iter()
        .map(|a| dim_schema.index_of(a))
        .collect::<Result<_>>()?;

    let mut serialized: Vec<Row> = Vec::new();
    for r in &rows {
        if !pred.eval(r)? {
            continue;
        }
        let mut entry = Row::with_capacity(1 + aux_idx.len());
        for &i in std::iter::once(&pk_idx).chain(&aux_idx) {
            let field = r.get(i).ok_or_else(|| {
                ClydeError::MapReduce(format!("{} row has no column {i}", join.dimension))
            })?;
            entry.push(field.clone());
        }
        serialized.push(entry);
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
    let mem_bytes = serialized.len() as u64 * (560 + 120 * aux_idx.len() as u64);
    let payload = rowcodec::write_rows(&serialized);
    let cache = Arc::new(DistCache::new());
    cache.publish(cache_key, bytes::Bytes::from(payload));
    Ok((
        ClientArtifacts {
            cache,
            build_rows: rows.len() as u64,
        },
        mem_bytes,
    ))
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
        let entries = rowcodec::read_rows(&payload)?;
        let mut table: FxHashMap<i64, Row> = FxHashMap::default();
        for e in entries {
            let (pk, aux) = e.values().split_first().ok_or_else(|| {
                ClydeError::MapReduce("empty entry in the mapjoin hash table".into())
            })?;
            let pk = pk
                .as_i64()
                .ok_or_else(|| ClydeError::Plan("non-integer dimension key".into()))?;
            table.insert(pk, Row::new(aux.to_vec()));
        }
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
                if let Some(aux) = table.get(&fk) {
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

    /// Run a mapjoin stage whose distributed-cache table is `entries`,
    /// probed by `rows` with the foreign key in column 1.
    fn mapjoin_job(entries: &[Row], rows: Vec<Row>) -> Result<Vec<Row>> {
        let cache = Arc::new(DistCache::new());
        cache.publish("t", bytes::Bytes::from(rowcodec::write_rows(entries)));
        let runner = MapJoinRunner {
            cache_key: "t".into(),
            fk_idx: 1,
            fact_preds: Vec::new(),
            input_schema: Schema::new(vec![Field::i32("lo_key"), Field::i32("lo_fk")]),
            table_mem_bytes: 1,
        };
        let engine = Engine::new(Dfs::for_tests(2));
        let mut spec = JobSpec::new(
            "mapjoin",
            Arc::new(VecInputFormat::new(rows, 1)),
            Arc::new(runner),
        );
        spec.max_task_attempts = 1;
        let client = ClientArtifacts {
            cache,
            build_rows: entries.len() as u64,
        };
        Ok(engine.run_job_with(&spec, client)?.rows)
    }

    #[test]
    fn runner_joins_aux_onto_matching_rows() {
        let rows = vec![row![1i32, 7i32], row![2i32, 8i32]];
        let out = mapjoin_job(&[row![7i64, "ASIA"]], rows).unwrap();
        assert_eq!(out, vec![row![1i32, 7i32, "ASIA"]]);
    }

    #[test]
    fn an_empty_cache_entry_is_an_error() {
        let err = mapjoin_job(&[row![7i64, "ASIA"], Row::empty()], vec![row![1i32, 7i32]]);
        assert!(err.is_err());
    }

    #[test]
    fn a_row_short_of_its_foreign_key_is_an_error() {
        let err = mapjoin_job(&[row![7i64, "ASIA"]], vec![row![1i32]]);
        assert!(err.is_err());
    }
}
