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
    fn map(&self, _key: &Row, value: Row, ctx: &MapTaskContext<'_>) -> Result<()> {
        let key: Vec<Datum> = self
            .group_idx
            .iter()
            .map(|&i| value.at(i).clone())
            .collect();
        let measure = aggregate_eval_row(&self.aggregate, &value, &self.joined_schema)?;
        ctx.emit(&key, Row::new(vec![Datum::I64(measure)]));
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
            let partial = v
                .at(0)
                .as_i64()
                .ok_or_else(|| ClydeError::MapReduce("non-integer partial value".into()))?;
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
/// terms are negated so the shuffle's ascending byte sort realizes them),
/// followed by the entire row as a deterministic tie-break; value = the row.
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
    fn map(&self, _key: &Row, value: Row, ctx: &MapTaskContext<'_>) -> Result<()> {
        let mut key = Vec::with_capacity(self.terms.len() + value.len());
        for &(idx, desc) in &self.terms {
            let d = value.at(idx);
            if desc {
                let v = d.as_i64().ok_or_else(|| {
                    ClydeError::Plan("descending ORDER BY requires an integer term".into())
                })?;
                key.push(Datum::I64(-v));
            } else {
                key.push(d.clone());
            }
        }
        // Tie-break on the full row so the global order is total and matches
        // the reference executor's.
        key.extend(value.iter().cloned());
        ctx.emit(&key, value);
        Ok(())
    }
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
    use clyde_ssb::query_by_id;

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
        use clyde_common::row;
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

    #[test]
    fn fold_values_rejects_non_integer_partials() {
        use clyde_common::row;
        let f = FoldValues {
            include_key: false,
            aggregate: Aggregate::CountStar,
        };
        let mut out = Vec::new();
        assert!(f.reduce(&row!["k"], &[&row!["oops"]], &mut out).is_err());
    }
}
