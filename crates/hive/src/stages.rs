//! The trailing stages of every Hive plan: group-by and order-by.
//!
//! After the join stages, Hive launches one more MapReduce job for the
//! GROUP BY (720 s in the paper's Q2.1 breakdown) and a final one for the
//! ORDER BY (19 s).

use clyde_common::{ClydeError, Datum, Result, Row, Schema};
use clyde_mapred::runner::Mapper;
use clyde_mapred::shuffle::Reducer;
use clyde_mapred::MapTaskContext;
use clyde_ssb::queries::{aggregate_eval_row, Aggregate, OrderTerm, StarQuery};

/// Group-by mapper: key = group columns, value = the measure.
pub struct GroupByMapper {
    /// Indices of the group-by columns in the joined schema.
    pub group_idx: Vec<usize>,
    pub aggregate: Aggregate,
    pub joined_schema: Schema,
}

impl Mapper for GroupByMapper {
    fn map(&self, _key: &Row, value: &Row, ctx: &MapTaskContext<'_>) -> Result<()> {
        let key: Vec<Datum> = self
            .group_idx
            .iter()
            .map(|&i| field(value, i, "group-by"))
            .collect::<Result<_>>()?;
        let measure = aggregate_eval_row(&self.aggregate, value, &self.joined_schema)?;
        ctx.emit(&key, &[Datum::I64(measure)]);
        Ok(())
    }
}

/// Partial-fold combiner / final-fold reducer for the group-by stage,
/// parameterized by the query's aggregate operation.
pub struct FoldValues {
    /// Combiners emit just the partial value; the final reducer prepends the
    /// group key so the stage output is (group columns..., aggregate).
    pub include_key: bool,
    pub aggregate: Aggregate,
}

impl Reducer for FoldValues {
    fn reduce(&self, key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
        let mut acc = self.aggregate.identity();
        for v in values {
            let partial = v.get(0).and_then(Datum::as_i64).ok_or_else(|| {
                ClydeError::MapReduce("missing or non-integer partial value".into())
            })?;
            acc = self.aggregate.fold(acc, partial);
        }
        let acc_row = Row::new(vec![Datum::I64(acc)]);
        out.push(if self.include_key {
            key.concat(&acc_row)
        } else {
            acc_row
        });
        Ok(())
    }
}

/// Order-by mapper: key encodes the ORDER BY terms (descending integer
/// terms are complemented, `!v`, so the shuffle's ascending byte sort
/// realizes them for every `i64`), followed by the entire row as a
/// deterministic tie-break; value = the row.
pub struct OrderByMapper {
    /// `(index into the stage-input row, descending)` per ORDER BY term.
    pub terms: Vec<(usize, bool)>,
}

impl OrderByMapper {
    /// Resolve a query's ORDER BY against the group-by stage's output shape
    /// (group columns..., aggregate).
    pub fn for_query(query: &StarQuery) -> Result<OrderByMapper> {
        let agg_idx = query.group_by.len();
        let terms = query
            .order_by
            .iter()
            .map(|(term, desc)| {
                let idx = match term {
                    OrderTerm::Aggregate => agg_idx,
                    OrderTerm::Column(name) => query
                        .group_by
                        .iter()
                        .position(|g| g == name)
                        .ok_or_else(|| {
                            ClydeError::Plan(format!("ORDER BY column {name} not grouped"))
                        })?,
                };
                Ok((idx, *desc))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(OrderByMapper { terms })
    }
}

impl Mapper for OrderByMapper {
    fn map(&self, _key: &Row, value: &Row, ctx: &MapTaskContext<'_>) -> Result<()> {
        let mut key = Vec::with_capacity(self.terms.len() + value.len());
        for &(idx, desc) in &self.terms {
            let d = field(value, idx, "ORDER BY")?;
            if desc {
                let v = d.as_i64().ok_or_else(|| {
                    ClydeError::Plan("descending ORDER BY requires an integer term".into())
                })?;
                key.push(Datum::I64(!v));
            } else {
                key.push(d);
            }
        }
        // Tie-break on the full row so the global order is total and matches
        // the reference executor's.
        key.extend(value.iter().cloned());
        ctx.emit(&key, value.values());
        Ok(())
    }
}

/// Column `idx` of a stage-input row; a row too short for the plan is a
/// typed error naming the `stage`.
fn field(row: &Row, idx: usize, stage: &str) -> Result<Datum> {
    row.get(idx).cloned().ok_or_else(|| {
        ClydeError::MapReduce(format!(
            "{stage} column {idx} is past the end of a {}-column row",
            row.len()
        ))
    })
}

/// Order-by reducer: identity over the sorted stream.
pub struct EmitValues;

impl Reducer for EmitValues {
    fn reduce(&self, _key: &Row, values: &[&Row], out: &mut Vec<Row>) -> Result<()> {
        out.extend(values.iter().map(|&v| v.clone()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::row;
    use clyde_dfs::Dfs;
    use clyde_mapred::formats::VecInputFormat;
    use clyde_mapred::runner::RowMapRunner;
    use clyde_mapred::{Engine, JobSpec};
    use clyde_ssb::query_by_id;
    use std::sync::Arc;

    #[test]
    fn order_by_mapper_resolves_flight3_terms() {
        let q = query_by_id("Q3.1").unwrap();
        // Group columns: c_nation(0), s_nation(1), d_year(2); aggregate at 3.
        let m = OrderByMapper::for_query(&q).unwrap();
        assert_eq!(m.terms, vec![(2, false), (3, true)]);
    }

    #[test]
    fn order_by_mapper_rejects_ungrouped_columns() {
        let mut q = query_by_id("Q3.1").unwrap();
        q.order_by
            .push((OrderTerm::Column("not_grouped".into()), false));
        assert!(OrderByMapper::for_query(&q).is_err());
    }

    #[test]
    fn fold_values_respects_each_aggregate() {
        let cases = [
            (Aggregate::SumColumn("x".into()), 60i64),
            (Aggregate::CountStar, 60), // partial counts also sum
            (Aggregate::MinColumn("x".into()), 10),
            (Aggregate::MaxColumn("x".into()), 30),
        ];
        for (aggregate, expect) in cases {
            let f = FoldValues {
                include_key: true,
                aggregate: aggregate.clone(),
            };
            let mut out = Vec::new();
            f.reduce(
                &row!["k"],
                &[&row![10i64], &row![20i64], &row![30i64]],
                &mut out,
            )
            .unwrap();
            assert_eq!(out, vec![row!["k", expect]], "{aggregate:?}");
        }
    }

    /// Run one trailing stage through the engine over `rows`: one reducer,
    /// output in memory.
    fn run_stage(
        rows: Vec<Row>,
        mapper: impl Mapper + 'static,
        reducer: impl Reducer + 'static,
    ) -> Result<Vec<Row>> {
        let mut spec = JobSpec::new(
            "stage",
            Arc::new(VecInputFormat::new(rows, 2)),
            Arc::new(RowMapRunner::new(mapper)),
        );
        spec.reducer = Some(Arc::new(reducer));
        spec.num_reducers = 1;
        Engine::new(Dfs::for_tests(2))
            .run_job(&spec)
            .map(|result| result.rows)
    }

    /// The job failed with the stage's typed error, not a panic.
    fn assert_typed(result: Result<Vec<Row>>, says: &str) {
        let err = result.unwrap_err();
        assert!(
            matches!(&err, ClydeError::MapReduce(m) if m.contains(says) && !m.contains("panicked")),
            "{err:?}"
        );
    }

    #[test]
    fn group_by_on_a_short_row_is_a_typed_error() {
        let mapper = GroupByMapper {
            group_idx: vec![0, 2],
            aggregate: Aggregate::CountStar,
            joined_schema: Schema::new(vec![]),
        };
        let reducer = FoldValues {
            include_key: true,
            aggregate: Aggregate::CountStar,
        };
        let rows = vec![row![1i64, 2i64, 3i64], row![1i64, 2i64]];
        assert_typed(run_stage(rows, mapper, reducer), "group-by column 2");
    }

    #[test]
    fn order_by_on_a_short_row_is_a_typed_error() {
        let mapper = OrderByMapper {
            terms: vec![(1, true)],
        };
        let rows = vec![row!["a", 1i64], row!["b"]];
        assert_typed(run_stage(rows, mapper, EmitValues), "ORDER BY column 1");
    }

    #[test]
    fn fold_values_on_an_empty_partial_is_a_typed_error() {
        struct EmitEmpty;
        impl Mapper for EmitEmpty {
            fn map(&self, _key: &Row, value: &Row, ctx: &MapTaskContext<'_>) -> Result<()> {
                ctx.emit(value.values(), &[]);
                Ok(())
            }
        }
        let reducer = FoldValues {
            include_key: true,
            aggregate: Aggregate::CountStar,
        };
        assert_typed(
            run_stage(vec![row![1i64]], EmitEmpty, reducer),
            "partial value",
        );
    }

    #[test]
    fn descending_order_by_sorts_the_whole_i64_range() {
        let mapper = OrderByMapper {
            terms: vec![(0, true)],
        };
        let values = [5, i64::MIN, i64::MAX, 0, -1, i64::MIN + 1];
        let rows = values.iter().map(|&v| row![v]).collect();
        let sorted = run_stage(rows, mapper, EmitValues).unwrap();
        let expect = [i64::MAX, 5, 0, -1, i64::MIN + 1, i64::MIN];
        assert_eq!(sorted, expect.map(|v| row![v]).to_vec());
    }

    #[test]
    fn fold_values_rejects_non_integer_partials() {
        let f = FoldValues {
            include_key: false,
            aggregate: Aggregate::CountStar,
        };
        let mut out = Vec::new();
        assert!(f.reduce(&row!["k"], &[&row!["oops"]], &mut out).is_err());
    }
}
