//! The repartition ("common") join stage.
//!
//! Hive's robust fallback plan (paper Section 6.1): mappers read *both*
//! tables, tag each record with its source, and emit it keyed by the join
//! column; records of both sides with the same key meet at a reducer, which
//! produces the joined rows. The entire fact side crosses the network — the
//! shuffle cost that makes this plan slow (Q2.1 stage 1: 9,720 s).

use crate::union::{TAG_LEFT, TAG_RIGHT};
use clyde_common::datum::DatumRef;
use clyde_common::{rowcodec, varint, ClydeError, Datum, Result, Row, Schema};
use clyde_mapred::runner::Mapper;
use clyde_mapred::shuffle::{Group, ReduceSink, Reducer};
use clyde_mapred::MapTaskContext;
use clyde_ssb::queries::{fact_preds_eval_row, CompiledDimPred, FactPred};

/// Mapper for the tagged two-source input: fact rows keyed by FK, dimension
/// rows filtered then keyed by PK.
///
/// The source tag stays where [`TaggedUnionInputFormat`] put it, after every
/// scan column, so predicates, keys and aux columns are read off the tagged
/// row at their scan-schema indices. A fact row is emitted as it arrived,
/// tag and all, straight from the reader's row; a dimension row is cut down
/// to its aux columns plus the tag.
///
/// [`TaggedUnionInputFormat`]: crate::union::TaggedUnionInputFormat
pub struct RepartitionMapper {
    /// FK index in the fact-side (left) schema.
    pub fk_idx: usize,
    /// PK index in the dimension-side (right) scan schema.
    pub pk_idx: usize,
    /// Aux column indices in the dimension-side scan schema.
    pub aux_idx: Vec<usize>,
    /// Dimension predicate, compiled against the dimension scan schema.
    pub dim_pred: CompiledDimPred,
    /// Fact predicates (first stage only) + schema to resolve them.
    pub fact_preds: Vec<FactPred>,
    pub left_schema: Schema,
}

impl Mapper for RepartitionMapper {
    fn map(&self, _key: &Row, value: &Row, ctx: &MapTaskContext<'_>) -> Result<()> {
        let (tag, fields) = untag(value)?;
        match tag {
            TAG_LEFT => {
                if fields.len() != self.left_schema.len() {
                    return Err(ClydeError::MapReduce(format!(
                        "fact row has {} columns, its schema {}",
                        fields.len(),
                        self.left_schema.len()
                    )));
                }
                if !self.fact_preds.is_empty()
                    && !fact_preds_eval_row(&self.fact_preds, value, &self.left_schema)?
                {
                    return Ok(());
                }
                let fk = int_key(fields, self.fk_idx, "foreign")?;
                ctx.emit(&[Datum::I64(fk)], value.values());
            }
            TAG_RIGHT => {
                if !self.dim_pred.eval(value)? {
                    return Ok(());
                }
                let pk = int_key(fields, self.pk_idx, "dimension")?;
                let mut v = Vec::with_capacity(self.aux_idx.len() + 1);
                for &i in &self.aux_idx {
                    let aux = fields.get(i).ok_or_else(|| {
                        ClydeError::MapReduce(format!("dimension row has no aux column {i}"))
                    })?;
                    v.push(aux.clone());
                }
                v.push(Datum::I32(TAG_RIGHT));
                ctx.emit(&[Datum::I64(pk)], &v);
            }
            other => {
                return Err(ClydeError::MapReduce(format!(
                    "unexpected source tag {other}"
                )))
            }
        }
        Ok(())
    }
}

/// A tagged row's source tag (its last field) and the fields before it.
fn untag(row: &Row) -> Result<(i32, &[Datum])> {
    match row.values().split_last() {
        Some((tag, fields)) => tag
            .as_i32()
            .map(|tag| (tag, fields))
            .ok_or_else(|| ClydeError::MapReduce(format!("non-integer source tag {tag}"))),
        None => Err(ClydeError::MapReduce("row carries no source tag".into())),
    }
}

/// The integer join key at `idx`, or a typed error for a short row or a
/// non-integer key.
fn int_key(fields: &[Datum], idx: usize, side: &str) -> Result<i64> {
    fields
        .get(idx)
        .ok_or_else(|| ClydeError::MapReduce(format!("row has no {side} key column {idx}")))?
        .as_i64()
        .ok_or_else(|| ClydeError::Plan(format!("non-integer {side} key")))
}

/// Reducer: join the two sides of one key. Dimension keys are unique in SSB,
/// but the implementation handles the general M×N case like Hive's: each
/// fact value in order, joined with each dimension value in order.
///
/// The engine calls [`RepartitionReducer::reduce_encoded`], which joins
/// the values' bytes. [`RepartitionReducer::reduce`], the same join on
/// decoded rows with both tags dropped, is kept for the frozen benchmark
/// replay and as the encoded join's test oracle.
pub struct RepartitionReducer;

impl Reducer for RepartitionReducer {
    fn reduce(&self, _key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
        let mut dims: Vec<&[Datum]> = Vec::new();
        for v in values {
            match untag(v)? {
                (TAG_RIGHT, aux) => dims.push(aux),
                (TAG_LEFT, _) => {}
                (other, _) => {
                    return Err(ClydeError::MapReduce(format!(
                        "unexpected source tag {other}"
                    )))
                }
            }
        }
        if dims.is_empty() {
            return Ok(());
        }
        for v in values {
            let (tag, fact) = untag(v)?;
            if tag != TAG_LEFT {
                continue;
            }
            for aux in &dims {
                let mut joined = Row::with_capacity(fact.len() + aux.len());
                joined.extend(fact.iter().cloned());
                joined.extend(aux.iter().cloned());
                out.push(joined);
            }
        }
        Ok(())
    }

    /// The join on the values' bytes. A value's source tag is its last
    /// field, an `I32` of 0 or 1, so it is read off the value's last two
    /// bytes without walking its fields, and a key that lacks either side
    /// reads nothing more: its values are never decoded. Otherwise every
    /// value reaches the output, and each is walked once
    /// ([`rowcodec::walk_row`]: every field validated, nothing allocated,
    /// the tag confirmed as the last field) before any row is written.
    /// Each joined row is then written as `varint(arity) ‖ fact fields ‖
    /// aux fields`, tags left out: the bytes `rowcodec::write_row` writes
    /// for the row [`RepartitionReducer::reduce`] builds. A key holding a
    /// valid value whose bytes are not in canonical form is joined by
    /// `reduce`, so that the bytes still agree.
    fn reduce_encoded(&self, group: &mut Group<'_>, out: &mut ReduceSink) -> Result<()> {
        let values = group.values();
        let (mut facts, mut dims) = (0, None);
        for (i, v) in values.iter().enumerate() {
            match source_tag(v)? {
                TAG_LEFT => facts += 1,
                _ => dims = Some(dims.map_or((i, i), |(first, _)| (first, i))),
            }
        }
        let (Some((first, last)), true) = (dims, facts > 0) else {
            return Ok(());
        };
        for v in values {
            if !confirm_tag(v)? {
                return group.lend(self, out);
            }
        }
        let dims = values.get(first..=last).unwrap_or_default();
        for fact in values.iter().filter(|v| !is_dim(v)) {
            let (fact_arity, fact) = untagged_fields(fact)?;
            for dim in dims.iter().filter(|v| is_dim(v)) {
                let (aux_arity, aux) = untagged_fields(dim)?;
                out.push_fields(fact_arity + aux_arity, &[fact, aux])?;
            }
        }
        Ok(())
    }
}

/// A tagged value's source tag: read off its last two bytes when they are
/// a one-byte `I32`, and otherwise from its last field, which takes a walk.
/// A tag other than [`TAG_LEFT`] or [`TAG_RIGHT`] is an error, as in
/// [`untag`].
fn source_tag(value: &[u8]) -> Result<i32> {
    let tag = match rowcodec::trailing_small_i32(value) {
        Some(tag) => tag,
        None => match rowcodec::walk_row(value)?.last {
            Some((_, DatumRef::I32(tag))) => tag,
            Some((_, other)) => {
                return Err(ClydeError::MapReduce(format!(
                    "non-integer source tag {}",
                    other.to_datum()
                )))
            }
            None => return Err(ClydeError::MapReduce("row carries no source tag".into())),
        },
    };
    match tag {
        TAG_LEFT | TAG_RIGHT => Ok(tag),
        other => Err(ClydeError::MapReduce(format!(
            "unexpected source tag {other}"
        ))),
    }
}

/// Walk a value bound for the output: every field must read, and the last
/// must be the tag [`source_tag`] read. Whether its bytes are canonical,
/// so that they can be copied as they are.
fn confirm_tag(value: &[u8]) -> Result<bool> {
    let walk = rowcodec::walk_row(value)?;
    match walk.last {
        Some((_, DatumRef::I32(tag))) if tag == source_tag(value)? => Ok(walk.canonical),
        _ => Err(ClydeError::MapReduce(
            "a value's last two bytes are not its source tag".into(),
        )),
    }
}

/// Whether a confirmed value is a dimension value.
fn is_dim(value: &&[u8]) -> bool {
    rowcodec::trailing_small_i32(value) == Some(TAG_RIGHT)
}

/// A confirmed canonical value's fields without its tag, and their number:
/// the bytes between its arity and its last two.
fn untagged_fields(value: &[u8]) -> Result<(usize, &[u8])> {
    let mut pos = 0;
    let arity = varint::read_u64(value, &mut pos)?;
    match (usize::try_from(arity), value.len().checked_sub(2)) {
        (Ok(arity @ 1..), Some(end)) if pos <= end => {
            Ok((arity - 1, value.get(pos..end).unwrap_or_default()))
        }
        _ => Err(ClydeError::MapReduce("value carries no source tag".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::{row, Field};
    use clyde_dfs::Dfs;
    use clyde_mapred::formats::VecInputFormat;
    use clyde_mapred::runner::RowMapRunner;
    use clyde_mapred::{Engine, JobSpec};
    use clyde_ssb::queries::DimPred;
    use std::sync::Arc;

    fn reduce(values: &[Row]) -> Result<Vec<Row>> {
        let borrowed: Vec<&Row> = values.iter().collect();
        let mut out = Vec::new();
        RepartitionReducer.reduce(&row![5i64], &borrowed, &mut out)?;
        Ok(out)
    }

    #[test]
    fn reducer_joins_sides() {
        let values = vec![
            row![10i32, 100i32, 0i32], // fact (10, 100)
            row!["ASIA", 1i32],        // dim aux
            row![20i32, 200i32, 0i32], // fact (20, 200)
        ];
        assert_eq!(
            reduce(&values).unwrap(),
            vec![row![10i32, 100i32, "ASIA"], row![20i32, 200i32, "ASIA"]]
        );
    }

    #[test]
    fn reducer_with_no_dim_side_emits_nothing() {
        assert!(reduce(&[row![10i32, 0i32]]).unwrap().is_empty());
    }

    #[test]
    fn reducer_rejects_untagged_values() {
        assert!(reduce(&[row!["oops"]]).is_err());
        assert!(reduce(&[Row::empty()]).is_err());
        assert!(reduce(&[row![1i32, 7i32]]).is_err());
    }

    /// Run the mapper over `rows` (already tagged, as the union input hands
    /// them over) through the engine's default runner.
    fn map_job(rows: Vec<Row>) -> Result<Vec<Row>> {
        let left_schema = Schema::new(vec![Field::i32("lo_key"), Field::i32("lo_fk")]);
        let mapper = RepartitionMapper {
            fk_idx: 1,
            pk_idx: 0,
            aux_idx: vec![1],
            dim_pred: DimPred::True.compile(&left_schema)?,
            fact_preds: Vec::new(),
            left_schema,
        };
        let engine = Engine::new(Dfs::for_tests(2));
        let mut spec = JobSpec::new(
            "repartition-map",
            Arc::new(VecInputFormat::new(rows, 1)),
            Arc::new(RowMapRunner::new(mapper)),
        );
        spec.reducer = Some(Arc::new(RepartitionReducer));
        spec.max_task_attempts = 1;
        Ok(engine.run_job(&spec)?.rows)
    }

    #[test]
    fn mapper_keys_both_sides_with_the_tag_left_at_the_end() {
        let rows = vec![row![1i32, 7i32, 0i32], row![7i32, "ASIA", 1i32]];
        assert_eq!(map_job(rows).unwrap(), vec![row![1i32, 7i32, "ASIA"]]);
    }

    #[test]
    fn mapper_rejects_untagged_and_short_rows() {
        for bad in [
            Row::empty(),           // no tag at all
            row![1i32, 7i32, "x"],  // non-integer tag
            row![1i32, 7i32, 5i32], // unknown source
            row![1i32, 0i32],       // fact row short of its fk column
            row![1i32],             // dimension-tagged row with neither pk nor aux
        ] {
            let err = map_job(vec![bad.clone()]);
            assert!(err.is_err(), "{bad} was accepted");
        }
    }
}
