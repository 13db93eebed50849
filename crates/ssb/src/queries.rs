//! The 13 SSB queries as declarative star-query descriptors.
//!
//! Both engines consume the same [`StarQuery`] description: Clydesdale
//! compiles it into a single n-way-join MapReduce job (paper Section 4.2),
//! the Hive baseline into a multi-stage plan with one two-way join per stage
//! (Section 6.1). The reference executor interprets it directly.

use crate::schema;
use clyde_common::{ClydeError, Datum, DatumRef, I32Cell, Result, Row, Schema};
use std::sync::Arc;

/// A predicate over fact-table columns (flight 1's discount/quantity
/// filters).
#[derive(Debug, Clone, PartialEq)]
pub enum FactPred {
    /// `lo <= column <= hi`
    I32Between { column: String, lo: i32, hi: i32 },
    /// `column < value`
    I32Lt { column: String, value: i32 },
}

impl FactPred {
    pub fn column(&self) -> &str {
        match self {
            FactPred::I32Between { column, .. } | FactPred::I32Lt { column, .. } => column,
        }
    }

    /// Compile against a scan schema for block-wise evaluation.
    pub fn compile(&self, scan_schema: &Schema) -> Result<CompiledFactPred> {
        Ok(match self {
            FactPred::I32Between { column, lo, hi } => CompiledFactPred::Between {
                col: scan_schema.index_of(column)?,
                lo: *lo,
                hi: *hi,
            },
            FactPred::I32Lt { column, value } => CompiledFactPred::Lt {
                col: scan_schema.index_of(column)?,
                value: *value,
            },
        })
    }
}

/// Index-resolved fact predicate.
#[derive(Debug, Clone, Copy)]
pub enum CompiledFactPred {
    Between { col: usize, lo: i32, hi: i32 },
    Lt { col: usize, value: i32 },
}

impl CompiledFactPred {
    pub fn col(&self) -> usize {
        match *self {
            CompiledFactPred::Between { col, .. } | CompiledFactPred::Lt { col, .. } => col,
        }
    }
}

/// A predicate over dimension-table columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DimPred {
    /// Always true (dimension joined only for its auxiliary columns).
    True,
    StrEq {
        column: String,
        value: String,
    },
    StrIn {
        column: String,
        values: Vec<String>,
    },
    StrBetween {
        column: String,
        lo: String,
        hi: String,
    },
    I32Eq {
        column: String,
        value: i32,
    },
    I32Between {
        column: String,
        lo: i32,
        hi: i32,
    },
    I32In {
        column: String,
        values: Vec<i32>,
    },
    And(Vec<DimPred>),
}

impl DimPred {
    /// Collect the dimension columns the predicate reads (deduplicated).
    /// Baselines that project dimension scans need these in addition to the
    /// key and auxiliary columns.
    pub fn columns(&self, out: &mut Vec<String>) {
        let mut push = |c: &str| {
            if !out.iter().any(|x| x == c) {
                out.push(c.to_string());
            }
        };
        match self {
            DimPred::True => {}
            DimPred::StrEq { column, .. }
            | DimPred::StrIn { column, .. }
            | DimPred::StrBetween { column, .. }
            | DimPred::I32Eq { column, .. }
            | DimPred::I32Between { column, .. }
            | DimPred::I32In { column, .. } => push(column),
            DimPred::And(preds) => {
                for p in preds {
                    p.columns(out);
                }
            }
        }
    }

    /// Resolve column names to indices for fast row evaluation.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledDimPred> {
        Ok(match self {
            DimPred::True => CompiledDimPred::True,
            DimPred::StrEq { column, value } => CompiledDimPred::StrEq {
                col: schema.index_of(column)?,
                value: Arc::from(value.as_str()),
            },
            DimPred::StrIn { column, values } => CompiledDimPred::StrIn {
                col: schema.index_of(column)?,
                values: values.iter().map(|v| Arc::from(v.as_str())).collect(),
            },
            DimPred::StrBetween { column, lo, hi } => CompiledDimPred::StrBetween {
                col: schema.index_of(column)?,
                lo: lo.clone(),
                hi: hi.clone(),
            },
            DimPred::I32Eq { column, value } => CompiledDimPred::I32Eq {
                col: schema.index_of(column)?,
                value: *value,
            },
            DimPred::I32Between { column, lo, hi } => CompiledDimPred::I32Between {
                col: schema.index_of(column)?,
                lo: *lo,
                hi: *hi,
            },
            DimPred::I32In { column, values } => CompiledDimPred::I32In {
                col: schema.index_of(column)?,
                values: values.clone(),
            },
            DimPred::And(preds) => CompiledDimPred::And(
                preds
                    .iter()
                    .map(|p| p.compile(schema))
                    .collect::<Result<_>>()?,
            ),
        })
    }
}

/// Index-resolved dimension predicate.
#[derive(Debug, Clone)]
pub enum CompiledDimPred {
    True,
    StrEq { col: usize, value: Arc<str> },
    StrIn { col: usize, values: Vec<Arc<str>> },
    StrBetween { col: usize, lo: String, hi: String },
    I32Eq { col: usize, value: i32 },
    I32Between { col: usize, lo: i32, hi: i32 },
    I32In { col: usize, values: Vec<i32> },
    And(Vec<CompiledDimPred>),
}

impl CompiledDimPred {
    /// Whether `row` passes. A column the predicate was compiled for that
    /// `row` does not have is a typed error.
    pub fn eval(&self, row: &Row) -> Result<bool> {
        self.eval_at(&|col| row.get(col).map(DatumRef::from))
    }

    /// [`CompiledDimPred::eval`] over a row's borrowed fields, as the
    /// row-binary reader hands them out; same error condition.
    pub fn eval_fields(&self, fields: &[DatumRef<'_>]) -> Result<bool> {
        self.eval_at(&|col| fields.get(col).copied())
    }

    fn eval_at<'a>(&self, at: &impl Fn(usize) -> Option<DatumRef<'a>>) -> Result<bool> {
        let field = |col: usize| {
            at(col).ok_or_else(|| {
                ClydeError::Format(format!("dimension row has no column {col} to filter on"))
            })
        };
        Ok(match self {
            CompiledDimPred::True => true,
            CompiledDimPred::StrEq { col, value } => field(*col)?.as_str() == Some(value.as_ref()),
            CompiledDimPred::StrIn { col, values } => match field(*col)?.as_str() {
                Some(s) => values.iter().any(|v| v.as_ref() == s),
                None => false,
            },
            CompiledDimPred::StrBetween { col, lo, hi } => match field(*col)?.as_str() {
                Some(s) => s >= lo.as_str() && s <= hi.as_str(),
                None => false,
            },
            CompiledDimPred::I32Eq { col, value } => {
                field(*col)?.as_i64() == Some(i64::from(*value))
            }
            CompiledDimPred::I32Between { col, lo, hi } => match field(*col)?.as_i64() {
                Some(v) => v >= i64::from(*lo) && v <= i64::from(*hi),
                None => false,
            },
            CompiledDimPred::I32In { col, values } => match field(*col)?.as_i64() {
                Some(v) => values.iter().any(|&x| i64::from(x) == v),
                None => false,
            },
            CompiledDimPred::And(preds) => {
                for p in preds {
                    if !p.eval_at(at)? {
                        return Ok(false);
                    }
                }
                true
            }
        })
    }
}

/// One dimension join of a star query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DimJoin {
    /// Dimension table name (`"date"`, `"part"`, ...).
    pub dimension: String,
    /// Primary-key column of the dimension.
    pub pk: String,
    /// Foreign-key column of the fact table.
    pub fk: String,
    /// Filter applied while building the dimension hash table.
    pub predicate: DimPred,
    /// Auxiliary columns carried into the output (group-by columns).
    pub aux: Vec<String>,
}

impl DimJoin {
    /// The dimension columns a projected scan of this join reads: the key,
    /// the auxiliary columns, then the predicate's columns, each once. The
    /// key is always first.
    pub fn scan_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = vec![self.pk.clone()];
        for a in &self.aux {
            if !cols.contains(a) {
                cols.push(a.clone());
            }
        }
        self.predicate.columns(&mut cols);
        cols
    }
}

/// The aggregated measure.
///
/// Every variant is an algebraic aggregate over `i64`: per-row evaluation
/// produces a value, and [`Aggregate::fold`] merges partials associatively
/// and commutatively — which is what lets map tasks pre-aggregate, combiners
/// shrink the shuffle, and reducers finish the job, all with one operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// `sum(column)`
    SumColumn(String),
    /// `sum(a * b)` — flight 1's `lo_extendedprice * lo_discount`.
    SumProduct(String, String),
    /// `sum(a - b)` — flight 4's `lo_revenue - lo_supplycost`.
    SumDiff(String, String),
    /// `count(*)` over the qualifying rows.
    CountStar,
    /// `min(column)`.
    MinColumn(String),
    /// `max(column)`.
    MaxColumn(String),
}

impl Aggregate {
    /// Fact columns the measure reads.
    pub fn columns(&self) -> Vec<&str> {
        match self {
            Aggregate::SumColumn(a) | Aggregate::MinColumn(a) | Aggregate::MaxColumn(a) => {
                vec![a]
            }
            Aggregate::SumProduct(a, b) | Aggregate::SumDiff(a, b) => vec![a, b],
            Aggregate::CountStar => vec![],
        }
    }

    /// Evaluate the measure for row `i` of a block (i32 fact columns).
    /// `a`/`b` are the measure-column slices resolved by the probe plan, in
    /// whichever form each column is stored; `CountStar` needs neither. A
    /// measure column the aggregate needs that is absent, or has no row
    /// `i`, is a typed error.
    #[inline]
    pub fn eval_i64<A: I32Cell, B: I32Cell>(
        &self,
        a: Option<&[A]>,
        b: Option<&[B]>,
        i: usize,
    ) -> Result<i64> {
        fn at<T: I32Cell>(col: Option<&[T]>, i: usize) -> Result<i64> {
            col.and_then(|c| c.get(i))
                .map(|&v| i64::from(v.value()))
                .ok_or_else(|| {
                    ClydeError::Plan(format!("aggregate has no measure value for row {i}"))
                })
        }
        Ok(match self {
            Aggregate::SumColumn(_) | Aggregate::MinColumn(_) | Aggregate::MaxColumn(_) => {
                at(a, i)?
            }
            Aggregate::SumProduct(_, _) => at(a, i)? * at(b, i)?,
            Aggregate::SumDiff(_, _) => at(a, i)? - at(b, i)?,
            Aggregate::CountStar => 1,
        })
    }

    /// Merge two partial aggregates.
    #[inline]
    pub fn fold(&self, acc: i64, v: i64) -> i64 {
        match self {
            Aggregate::SumColumn(_)
            | Aggregate::SumProduct(_, _)
            | Aggregate::SumDiff(_, _)
            | Aggregate::CountStar => acc + v,
            Aggregate::MinColumn(_) => acc.min(v),
            Aggregate::MaxColumn(_) => acc.max(v),
        }
    }

    /// Identity element of [`Aggregate::fold`].
    #[inline]
    pub fn identity(&self) -> i64 {
        match self {
            Aggregate::SumColumn(_)
            | Aggregate::SumProduct(_, _)
            | Aggregate::SumDiff(_, _)
            | Aggregate::CountStar => 0,
            Aggregate::MinColumn(_) => i64::MAX,
            Aggregate::MaxColumn(_) => i64::MIN,
        }
    }
}

/// The most dimension joins a star query may have: the probe kernels keep
/// each join's matched dimension row in a fixed array of this size.
pub const MAX_JOINS: usize = 8;

/// A typed plan error when a query has more than [`MAX_JOINS`] joins. It
/// is [`StarQuery::validate`]'s check; the probe kernels repeat it for a
/// plan compiled from a query that skipped validation.
pub fn check_join_count(joins: usize) -> Result<()> {
    if joins > MAX_JOINS {
        return Err(ClydeError::Plan(format!(
            "{joins} dimension joins; at most {MAX_JOINS} are supported"
        )));
    }
    Ok(())
}

/// One ORDER BY term.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderTerm {
    /// A group-by column, by name.
    Column(String),
    /// The aggregate value (`revenue desc` in flight 3).
    Aggregate,
}

/// A star-schema aggregation query.
#[derive(Debug, Clone, PartialEq)]
pub struct StarQuery {
    /// `"Q2.1"` etc.
    pub id: String,
    pub joins: Vec<DimJoin>,
    pub fact_preds: Vec<FactPred>,
    /// Group-by columns: auxiliary dimension columns, in SELECT order.
    pub group_by: Vec<String>,
    pub aggregate: Aggregate,
    /// `(term, descending)` pairs.
    pub order_by: Vec<(OrderTerm, bool)>,
    /// Keep only the first `limit` result rows after the final sort
    /// (`None` = unlimited; the 13 SSB queries set no limit).
    pub limit: Option<usize>,
}

impl StarQuery {
    /// The fact-table columns this query scans: foreign keys of the joins,
    /// fact-predicate columns, and the measure columns — the list pushed
    /// into CIF so unneeded columns cost no I/O (paper Section 4.2).
    pub fn fact_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = Vec::new();
        let mut push = |c: &str| {
            if !cols.iter().any(|x| x == c) {
                cols.push(c.to_string());
            }
        };
        for j in &self.joins {
            push(&j.fk);
        }
        for p in &self.fact_preds {
            push(p.column());
        }
        for c in self.aggregate.columns() {
            push(c);
        }
        cols
    }

    /// Resolve a group-by column to the join that provides it.
    pub fn group_col_source(&self, name: &str) -> Result<(usize, usize)> {
        for (ji, j) in self.joins.iter().enumerate() {
            if let Some(ai) = j.aux.iter().position(|a| a == name) {
                return Ok((ji, ai));
            }
        }
        Err(ClydeError::Plan(format!(
            "group-by column {name} is not an auxiliary column of any join"
        )))
    }

    /// Sort `groups` (group key + trailing aggregate) by the ORDER BY spec.
    /// A term naming a column outside the group-by list orders nothing;
    /// [`StarQuery::validate`] rejects such queries.
    pub fn sort_result(&self, rows: &mut [Row]) {
        let agg_idx = self.group_by.len();
        let keys: Vec<(usize, bool)> = self
            .order_by
            .iter()
            .filter_map(|(term, desc)| {
                let idx = match term {
                    OrderTerm::Aggregate => agg_idx,
                    OrderTerm::Column(name) => self.group_by.iter().position(|g| g == name)?,
                };
                Some((idx, *desc))
            })
            .collect();
        rows.sort_by(|a, b| {
            for &(idx, desc) in &keys {
                let ord = a.get(idx).cmp(&b.get(idx));
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            // Total order for determinism.
            a.cmp(b)
        });
    }

    /// Sort and truncate a result set per the query's ORDER BY and LIMIT.
    pub fn finish_result(&self, rows: &mut Vec<Row>) {
        self.sort_result(rows);
        if let Some(l) = self.limit {
            rows.truncate(l);
        }
    }

    /// Validate the query against the SSB schemas and the engines' limits.
    pub fn validate(&self) -> Result<()> {
        check_join_count(self.joins.len())?;
        let fact = schema::lineorder_schema();
        for c in self.fact_columns() {
            fact.index_of(&c)?;
        }
        for j in &self.joins {
            let dim = schema::schema_of(&j.dimension)
                .ok_or_else(|| ClydeError::Plan(format!("unknown dimension {}", j.dimension)))?;
            dim.index_of(&j.pk)?;
            for a in &j.aux {
                dim.index_of(a)?;
            }
            j.predicate.compile(&dim)?;
        }
        for g in &self.group_by {
            self.group_col_source(g)?;
        }
        // `sort_result` orders the grouped rows, which carry only the
        // group-by columns and the aggregate.
        for (term, _) in &self.order_by {
            if let OrderTerm::Column(name) = term {
                if !self.group_by.contains(name) {
                    return Err(ClydeError::Plan(format!(
                        "ORDER BY column {name} is not in the group-by list"
                    )));
                }
            }
        }
        Ok(())
    }
}

fn date_join(predicate: DimPred, aux: &[&str]) -> DimJoin {
    DimJoin {
        dimension: schema::DATE.into(),
        pk: "d_datekey".into(),
        fk: "lo_orderdate".into(),
        predicate,
        aux: aux.iter().map(|s| s.to_string()).collect(),
    }
}

fn customer_join(predicate: DimPred, aux: &[&str]) -> DimJoin {
    DimJoin {
        dimension: schema::CUSTOMER.into(),
        pk: "c_custkey".into(),
        fk: "lo_custkey".into(),
        predicate,
        aux: aux.iter().map(|s| s.to_string()).collect(),
    }
}

fn supplier_join(predicate: DimPred, aux: &[&str]) -> DimJoin {
    DimJoin {
        dimension: schema::SUPPLIER.into(),
        pk: "s_suppkey".into(),
        fk: "lo_suppkey".into(),
        predicate,
        aux: aux.iter().map(|s| s.to_string()).collect(),
    }
}

fn part_join(predicate: DimPred, aux: &[&str]) -> DimJoin {
    DimJoin {
        dimension: schema::PART.into(),
        pk: "p_partkey".into(),
        fk: "lo_partkey".into(),
        predicate,
        aux: aux.iter().map(|s| s.to_string()).collect(),
    }
}

fn str_eq(column: &str, value: &str) -> DimPred {
    DimPred::StrEq {
        column: column.into(),
        value: value.into(),
    }
}

/// All 13 SSB queries in flight order.
pub fn all_queries() -> Vec<StarQuery> {
    let mut out = Vec::with_capacity(13);

    // ---- Flight 1: one join (date), fact predicates, no grouping. ----
    out.push(StarQuery {
        id: "Q1.1".into(),
        joins: vec![date_join(
            DimPred::I32Eq {
                column: "d_year".into(),
                value: 1993,
            },
            &[],
        )],
        fact_preds: vec![
            FactPred::I32Between {
                column: "lo_discount".into(),
                lo: 1,
                hi: 3,
            },
            FactPred::I32Lt {
                column: "lo_quantity".into(),
                value: 25,
            },
        ],
        group_by: vec![],
        aggregate: Aggregate::SumProduct("lo_extendedprice".into(), "lo_discount".into()),
        order_by: vec![],
        limit: None,
    });
    out.push(StarQuery {
        id: "Q1.2".into(),
        joins: vec![date_join(
            DimPred::I32Eq {
                column: "d_yearmonthnum".into(),
                value: 199401,
            },
            &[],
        )],
        fact_preds: vec![
            FactPred::I32Between {
                column: "lo_discount".into(),
                lo: 4,
                hi: 6,
            },
            FactPred::I32Between {
                column: "lo_quantity".into(),
                lo: 26,
                hi: 35,
            },
        ],
        group_by: vec![],
        aggregate: Aggregate::SumProduct("lo_extendedprice".into(), "lo_discount".into()),
        order_by: vec![],
        limit: None,
    });
    out.push(StarQuery {
        id: "Q1.3".into(),
        joins: vec![date_join(
            DimPred::And(vec![
                DimPred::I32Eq {
                    column: "d_weeknuminyear".into(),
                    value: 6,
                },
                DimPred::I32Eq {
                    column: "d_year".into(),
                    value: 1994,
                },
            ]),
            &[],
        )],
        fact_preds: vec![
            FactPred::I32Between {
                column: "lo_discount".into(),
                lo: 5,
                hi: 7,
            },
            FactPred::I32Between {
                column: "lo_quantity".into(),
                lo: 26,
                hi: 35,
            },
        ],
        group_by: vec![],
        aggregate: Aggregate::SumProduct("lo_extendedprice".into(), "lo_discount".into()),
        order_by: vec![],
        limit: None,
    });

    // ---- Flight 2: part + supplier + date; group by year, brand. ----
    // Join order follows the SQL FROM clause (lineorder, date, part,
    // supplier), so the Hive baseline's stage order matches the paper's
    // Q2.1 narrative: Date first, then Part, then Supplier.
    let flight2 = |id: &str, part_pred: DimPred, region: &str| StarQuery {
        id: id.into(),
        joins: vec![
            date_join(DimPred::True, &["d_year"]),
            part_join(part_pred, &["p_brand1"]),
            supplier_join(str_eq("s_region", region), &[]),
        ],
        fact_preds: vec![],
        group_by: vec!["d_year".into(), "p_brand1".into()],
        aggregate: Aggregate::SumColumn("lo_revenue".into()),
        order_by: vec![
            (OrderTerm::Column("d_year".into()), false),
            (OrderTerm::Column("p_brand1".into()), false),
        ],
        limit: None,
    };
    out.push(flight2("Q2.1", str_eq("p_category", "MFGR#12"), "AMERICA"));
    out.push(flight2(
        "Q2.2",
        DimPred::StrBetween {
            column: "p_brand1".into(),
            lo: "MFGR#2221".into(),
            hi: "MFGR#2228".into(),
        },
        "ASIA",
    ));
    out.push(flight2("Q2.3", str_eq("p_brand1", "MFGR#2239"), "EUROPE"));

    // ---- Flight 3: customer + supplier + date; revenue desc ordering. ----
    let year_range = DimPred::I32Between {
        column: "d_year".into(),
        lo: 1992,
        hi: 1997,
    };
    let flight3_order = vec![
        (OrderTerm::Column("d_year".into()), false),
        (OrderTerm::Aggregate, true),
    ];
    out.push(StarQuery {
        id: "Q3.1".into(),
        joins: vec![
            customer_join(str_eq("c_region", "ASIA"), &["c_nation"]),
            supplier_join(str_eq("s_region", "ASIA"), &["s_nation"]),
            date_join(year_range.clone(), &["d_year"]),
        ],
        fact_preds: vec![],
        group_by: vec!["c_nation".into(), "s_nation".into(), "d_year".into()],
        aggregate: Aggregate::SumColumn("lo_revenue".into()),
        order_by: flight3_order.clone(),
        limit: None,
    });
    out.push(StarQuery {
        id: "Q3.2".into(),
        joins: vec![
            customer_join(str_eq("c_nation", "UNITED STATES"), &["c_city"]),
            supplier_join(str_eq("s_nation", "UNITED STATES"), &["s_city"]),
            date_join(year_range.clone(), &["d_year"]),
        ],
        fact_preds: vec![],
        group_by: vec!["c_city".into(), "s_city".into(), "d_year".into()],
        aggregate: Aggregate::SumColumn("lo_revenue".into()),
        order_by: flight3_order.clone(),
        limit: None,
    });
    let two_cities = |column: &str| DimPred::StrIn {
        column: column.into(),
        values: vec!["UNITED KI1".into(), "UNITED KI5".into()],
    };
    out.push(StarQuery {
        id: "Q3.3".into(),
        joins: vec![
            customer_join(two_cities("c_city"), &["c_city"]),
            supplier_join(two_cities("s_city"), &["s_city"]),
            date_join(year_range, &["d_year"]),
        ],
        fact_preds: vec![],
        group_by: vec!["c_city".into(), "s_city".into(), "d_year".into()],
        aggregate: Aggregate::SumColumn("lo_revenue".into()),
        order_by: flight3_order.clone(),
        limit: None,
    });
    out.push(StarQuery {
        id: "Q3.4".into(),
        joins: vec![
            customer_join(two_cities("c_city"), &["c_city"]),
            supplier_join(two_cities("s_city"), &["s_city"]),
            date_join(str_eq("d_yearmonth", "Dec1997"), &["d_year"]),
        ],
        fact_preds: vec![],
        group_by: vec!["c_city".into(), "s_city".into(), "d_year".into()],
        aggregate: Aggregate::SumColumn("lo_revenue".into()),
        order_by: flight3_order,
        limit: None,
    });

    // ---- Flight 4: all four dimensions; profit = revenue - supplycost. ----
    let mfgr_12 = DimPred::StrIn {
        column: "p_mfgr".into(),
        values: vec!["MFGR#1".into(), "MFGR#2".into()],
    };
    let years_97_98 = DimPred::I32In {
        column: "d_year".into(),
        values: vec![1997, 1998],
    };
    let profit = Aggregate::SumDiff("lo_revenue".into(), "lo_supplycost".into());
    out.push(StarQuery {
        id: "Q4.1".into(),
        joins: vec![
            customer_join(str_eq("c_region", "AMERICA"), &["c_nation"]),
            supplier_join(str_eq("s_region", "AMERICA"), &[]),
            part_join(mfgr_12.clone(), &[]),
            date_join(DimPred::True, &["d_year"]),
        ],
        fact_preds: vec![],
        group_by: vec!["d_year".into(), "c_nation".into()],
        aggregate: profit.clone(),
        order_by: vec![
            (OrderTerm::Column("d_year".into()), false),
            (OrderTerm::Column("c_nation".into()), false),
        ],
        limit: None,
    });
    out.push(StarQuery {
        id: "Q4.2".into(),
        joins: vec![
            customer_join(str_eq("c_region", "AMERICA"), &[]),
            supplier_join(str_eq("s_region", "AMERICA"), &["s_nation"]),
            part_join(mfgr_12, &["p_category"]),
            date_join(years_97_98.clone(), &["d_year"]),
        ],
        fact_preds: vec![],
        group_by: vec!["d_year".into(), "s_nation".into(), "p_category".into()],
        aggregate: profit.clone(),
        order_by: vec![
            (OrderTerm::Column("d_year".into()), false),
            (OrderTerm::Column("s_nation".into()), false),
            (OrderTerm::Column("p_category".into()), false),
        ],
        limit: None,
    });
    out.push(StarQuery {
        id: "Q4.3".into(),
        joins: vec![
            customer_join(str_eq("c_region", "AMERICA"), &[]),
            supplier_join(str_eq("s_nation", "UNITED STATES"), &["s_city"]),
            part_join(str_eq("p_category", "MFGR#14"), &["p_brand1"]),
            date_join(years_97_98, &["d_year"]),
        ],
        fact_preds: vec![],
        group_by: vec!["d_year".into(), "s_city".into(), "p_brand1".into()],
        aggregate: profit,
        order_by: vec![
            (OrderTerm::Column("d_year".into()), false),
            (OrderTerm::Column("s_city".into()), false),
            (OrderTerm::Column("p_brand1".into()), false),
        ],
        limit: None,
    });

    out
}

/// Look up a query by id (`"Q3.2"`).
pub fn query_by_id(id: &str) -> Result<StarQuery> {
    all_queries()
        .into_iter()
        .find(|q| q.id == id)
        .ok_or_else(|| ClydeError::Plan(format!("unknown SSB query: {id}")))
}

/// Convenience: evaluate a compiled fact predicate list against a row of
/// datums (used by the reference executor and the Hive row pipeline).
pub fn fact_preds_eval_row(preds: &[FactPred], row: &Row, schema: &Schema) -> Result<bool> {
    for p in preds {
        let idx = schema.index_of(p.column())?;
        let v = row
            .get(idx)
            .and_then(Datum::as_i64)
            .ok_or_else(|| ClydeError::Plan("fact predicate on non-integer column".into()))?;
        let pass = match p {
            FactPred::I32Between { lo, hi, .. } => v >= i64::from(*lo) && v <= i64::from(*hi),
            FactPred::I32Lt { value, .. } => v < i64::from(*value),
        };
        if !pass {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluate an aggregate measure against a full fact row.
pub fn aggregate_eval_row(agg: &Aggregate, row: &Row, schema: &Schema) -> Result<i64> {
    let get = |c: &str| -> Result<i64> {
        let idx = schema.index_of(c)?;
        row.get(idx)
            .ok_or_else(|| ClydeError::Plan(format!("row has no measure column {c} ({idx})")))?
            .as_i64()
            .ok_or_else(|| ClydeError::Plan(format!("measure column {c} is not an integer")))
    };
    Ok(match agg {
        Aggregate::SumColumn(a) | Aggregate::MinColumn(a) | Aggregate::MaxColumn(a) => get(a)?,
        Aggregate::SumProduct(a, b) => get(a)? * get(b)?,
        Aggregate::SumDiff(a, b) => get(a)? - get(b)?,
        Aggregate::CountStar => 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::row;

    #[test]
    fn thirteen_queries_in_four_flights() {
        let qs = all_queries();
        assert_eq!(qs.len(), 13);
        let ids: Vec<&str> = qs.iter().map(|q| q.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4",
                "Q4.1", "Q4.2", "Q4.3"
            ]
        );
        // Flight membership by join fan-out, as in the paper's description.
        assert!(qs[0..3].iter().all(|q| q.joins.len() == 1));
        assert!(qs[3..6].iter().all(|q| q.joins.len() == 3));
        assert!(qs[6..10].iter().all(|q| q.joins.len() == 3));
        assert!(qs[10..13].iter().all(|q| q.joins.len() == 4));
    }

    #[test]
    fn all_queries_validate_against_schemas() {
        for q in all_queries() {
            q.validate().unwrap_or_else(|e| panic!("{}: {e}", q.id));
        }
    }

    #[test]
    fn fact_columns_are_minimal_and_unique() {
        let q21 = query_by_id("Q2.1").unwrap();
        let cols = q21.fact_columns();
        assert_eq!(
            cols,
            vec!["lo_orderdate", "lo_partkey", "lo_suppkey", "lo_revenue"]
        );
        let q11 = query_by_id("Q1.1").unwrap();
        let cols = q11.fact_columns();
        assert_eq!(
            cols,
            vec![
                "lo_orderdate",
                "lo_discount",
                "lo_quantity",
                "lo_extendedprice"
            ]
        );
    }

    #[test]
    fn unknown_query_id_errors() {
        assert!(query_by_id("Q9.9").is_err());
    }

    #[test]
    fn dim_pred_evaluation() {
        let s = crate::schema::date_schema();
        let d = crate::gen::SsbGen::new(0.001, 1).gen_date();
        let year93 = DimPred::I32Eq {
            column: "d_year".into(),
            value: 1993,
        }
        .compile(&s)
        .unwrap();
        let matches = d.iter().filter(|r| year93.eval(r).unwrap()).count();
        assert_eq!(matches, 365);

        let dec97 = DimPred::StrEq {
            column: "d_yearmonth".into(),
            value: "Dec1997".into(),
        }
        .compile(&s)
        .unwrap();
        assert_eq!(d.iter().filter(|r| dec97.eval(r).unwrap()).count(), 31);

        let week6 = DimPred::And(vec![
            DimPred::I32Eq {
                column: "d_weeknuminyear".into(),
                value: 6,
            },
            DimPred::I32Eq {
                column: "d_year".into(),
                value: 1994,
            },
        ])
        .compile(&s)
        .unwrap();
        assert_eq!(d.iter().filter(|r| week6.eval(r).unwrap()).count(), 7);
    }

    #[test]
    fn borrowed_fields_evaluate_like_rows() {
        let data = crate::gen::SsbGen::new(0.002, 7).gen_all().unwrap();
        for q in all_queries() {
            for join in &q.joins {
                let schema = crate::schema::schema_of(&join.dimension).unwrap();
                let pred = join.predicate.compile(&schema).unwrap();
                for r in data.dimension(&join.dimension).unwrap() {
                    let fields: Vec<DatumRef<'_>> = r.iter().map(DatumRef::from).collect();
                    assert_eq!(
                        pred.eval_fields(&fields).unwrap(),
                        pred.eval(r).unwrap(),
                        "{} {r}",
                        q.id
                    );
                }
            }
        }
    }

    #[test]
    fn str_preds() {
        let s = crate::schema::part_schema();
        let between = DimPred::StrBetween {
            column: "p_brand1".into(),
            lo: "MFGR#2221".into(),
            hi: "MFGR#2228".into(),
        }
        .compile(&s)
        .unwrap();
        let mk = |brand: &str| row![1i32, "n", "MFGR#2", "MFGR#22", brand, "c", "t", 1i32, "box"];
        assert!(between.eval(&mk("MFGR#2221")).unwrap());
        assert!(between.eval(&mk("MFGR#2225")).unwrap());
        assert!(between.eval(&mk("MFGR#2228")).unwrap());
        assert!(!between.eval(&mk("MFGR#2229")).unwrap());
        assert!(!between.eval(&mk("MFGR#221")).unwrap()); // 1-digit brand sorts below
        let in_pred = DimPred::StrIn {
            column: "p_mfgr".into(),
            values: vec!["MFGR#1".into(), "MFGR#2".into()],
        }
        .compile(&s)
        .unwrap();
        assert!(in_pred.eval(&mk("MFGR#2221")).unwrap());
    }

    #[test]
    fn sort_result_applies_descending_aggregate() {
        let q = query_by_id("Q3.1").unwrap();
        // rows: (c_nation, s_nation, d_year, revenue)
        let mut rows = vec![
            row!["CHINA", "JAPAN", 1993i32, 50i64],
            row!["CHINA", "INDIA", 1992i32, 10i64],
            row!["JAPAN", "CHINA", 1992i32, 99i64],
            row!["INDIA", "CHINA", 1993i32, 70i64],
        ];
        q.sort_result(&mut rows);
        assert_eq!(rows[0], row!["JAPAN", "CHINA", 1992i32, 99i64]);
        assert_eq!(rows[1], row!["CHINA", "INDIA", 1992i32, 10i64]);
        assert_eq!(rows[2], row!["INDIA", "CHINA", 1993i32, 70i64]);
        assert_eq!(rows[3], row!["CHINA", "JAPAN", 1993i32, 50i64]);
    }

    #[test]
    fn group_col_source_resolution() {
        let q = query_by_id("Q4.2").unwrap();
        assert_eq!(q.group_col_source("d_year").unwrap(), (3, 0));
        assert_eq!(q.group_col_source("s_nation").unwrap(), (1, 0));
        assert!(q.group_col_source("c_city").is_err());
    }

    #[test]
    fn aggregate_row_eval() {
        let s = crate::schema::lineorder_schema();
        let data = crate::gen::SsbGen::new(0.0005, 2).gen_all().unwrap();
        let lo = &data.lineorder[0];
        let rev = aggregate_eval_row(&Aggregate::SumColumn("lo_revenue".into()), lo, &s).unwrap();
        assert!(rev > 0);
        let profit = aggregate_eval_row(
            &Aggregate::SumDiff("lo_revenue".into(), "lo_supplycost".into()),
            lo,
            &s,
        )
        .unwrap();
        assert!(profit < rev);
    }
}
