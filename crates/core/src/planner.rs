//! Compiles a [`StarQuery`] into one MapReduce job (paper Figure 4's
//! `main()`): CIF input with the projected column list, the multi-threaded
//! map runner, memory-marked tasks for one-task-per-node scheduling, and a
//! sum reducer for the group-by.

use crate::config::Features;
use crate::mtrunner::MtMapRunner;
use clyde_columnar::{CifInputFormat, MultiSplit, ScanMode, ZonePred};
use clyde_common::{ClydeError, Datum, Result, Row, Schema};
use clyde_dfs::ClusterSpec;
use clyde_mapred::shuffle::FnReducer;
use clyde_mapred::{JobSpec, OutputSpec};
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::queries::{DimPred, FactPred, StarQuery};
use clyde_ssb::schema;
use std::sync::Arc;

/// Rows per scanned block — and therefore per *morsel*, the unit of work
/// the multi-threaded runner's threads steal from each other. Small enough
/// that a morsel's columns sit in L2 while it is probed, big enough to
/// amortize per-block dispatch. Benchmarks (`bench_probe`) use the same
/// granularity so measured kernels match production blocks.
pub const ROWS_PER_BLOCK: usize = 4096;

/// The scan schema for a query under the given features: the projected
/// fact columns when columnar scanning is on, all 17 columns otherwise.
pub fn scan_schema(query: &StarQuery, features: &Features) -> Result<(Vec<String>, Schema)> {
    let fact = schema::lineorder_schema();
    let names: Vec<String> = if features.columnar {
        query.fact_columns()
    } else {
        fact.fields().iter().map(|f| f.name.clone()).collect()
    };
    let scan = fact.select(&names)?;
    Ok((names, scan))
}

/// Conjunctive range predicates the scan can prune row groups with: the
/// query's own fact-column predicates, plus a `lo_orderdate` range derived
/// from the date dimension's filter. Datekeys are `yyyymmdd` integers, so
/// year / yearmonth filters translate to contiguous key ranges — and the
/// loader's date clustering makes those ranges line up with row groups.
/// Pruning with these is purely an optimization; results never change.
pub fn zone_preds(query: &StarQuery) -> Vec<ZonePred> {
    let mut out = Vec::new();
    for p in &query.fact_preds {
        match p {
            FactPred::I32Between { column, lo, hi } => {
                out.push(ZonePred::new(column.clone(), *lo, *hi));
            }
            FactPred::I32Lt { column, value } => {
                out.push(ZonePred::new(
                    column.clone(),
                    i32::MIN,
                    value.saturating_sub(1),
                ));
            }
        }
    }
    for j in &query.joins {
        if j.dimension == schema::DATE && j.pk == "d_datekey" {
            if let Some((lo, hi)) = date_pred_range(&j.predicate) {
                out.push(ZonePred::new(j.fk.clone(), lo, hi));
            }
        }
    }
    out
}

/// Translate a date-dimension predicate into an inclusive `d_datekey`
/// range, when one exists. Conservative: `None` when the predicate doesn't
/// constrain the key to a contiguous range we can prove. The keys are
/// computed in `i64` and clamped to `i32`, so a bound outside the calendar
/// widens the range to the end of the key domain — never wraps it into a
/// narrower one that would prune qualifying groups.
fn date_pred_range(p: &DimPred) -> Option<(i32, i32)> {
    let key = |v: i64| v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
    let year_span = |lo: i32, hi: i32| {
        (
            key(i64::from(lo) * 10_000 + 101),
            key(i64::from(hi) * 10_000 + 1231),
        )
    };
    match p {
        DimPred::I32Eq { column, value } if column == "d_year" => Some(year_span(*value, *value)),
        DimPred::I32Eq { column, value } if column == "d_yearmonthnum" => {
            // yyyymm -> [yyyymm01, yyyymm31].
            let base = i64::from(*value) * 100;
            Some((key(base + 1), key(base + 31)))
        }
        DimPred::I32Between { column, lo, hi } if column == "d_year" => Some(year_span(*lo, *hi)),
        DimPred::I32In { column, values } if column == "d_year" => {
            Some(year_span(*values.iter().min()?, *values.iter().max()?))
        }
        DimPred::StrEq { column, value } if column == "d_yearmonth" => {
            // "Dec1997": three-letter month abbreviation + year.
            let (mon, year) = value.split_at(3.min(value.len()));
            let m = schema::MONTHS.iter().position(|&(_, abbr)| abbr == mon)? as i64 + 1;
            let y: i64 = year.parse().ok()?;
            let base = y.checked_mul(10_000)?.checked_add(m * 100)?;
            Some((key(base + 1), key(base + 31)))
        }
        DimPred::And(ps) => {
            // Intersect whichever conjuncts translate.
            let mut acc: Option<(i32, i32)> = None;
            for p in ps {
                if let Some((lo, hi)) = date_pred_range(p) {
                    acc = Some(match acc {
                        Some((a, b)) => (a.max(lo), b.min(hi)),
                        None => (lo, hi),
                    });
                }
            }
            acc
        }
        _ => None,
    }
}

/// Build the MapReduce job for `query`.
pub fn plan_query(
    query: &StarQuery,
    layout: &SsbLayout,
    features: Features,
    cluster: &ClusterSpec,
) -> Result<JobSpec> {
    query.validate()?;
    let (scan_cols, scan) = scan_schema(query, &features)?;

    let mode = if features.block_iteration {
        ScanMode::Blocks {
            rows_per_block: ROWS_PER_BLOCK,
        }
    } else {
        ScanMode::Rows
    };
    // One multi-split per node (Section 5.1) with multithreading; otherwise
    // plain per-group splits that fill every slot with independent
    // single-threaded tasks (the ablation configuration).
    let multi = if features.multithreading {
        MultiSplit::OnePerNode
    } else {
        MultiSplit::Single
    };
    let mut input = CifInputFormat::new(layout.fact_cif())
        .with_columns(scan_cols)
        .with_mode(mode)
        .with_multi(multi);
    if features.zone_skipping {
        input = input.with_zone_preds(zone_preds(query));
    }

    let runner = MtMapRunner {
        query: Arc::new(query.clone()),
        scan_schema: scan,
        layout: layout.clone(),
        features,
    };

    let mut spec = JobSpec::new(
        format!("clydesdale-{}", query.id),
        Arc::new(input),
        Arc::new(runner),
    );
    // Fold the per-task partial aggregates with the query's operation.
    let agg = query.aggregate.clone();
    spec.reducer = Some(Arc::new(FnReducer(
        move |key: &Row, values: &[&Row], out: &mut Vec<Row>| {
            let mut acc = agg.identity();
            for v in values {
                let partial = v
                    .get(0)
                    .and_then(Datum::as_i64)
                    .ok_or_else(|| ClydeError::MapReduce("non-integer partial aggregate".into()))?;
                acc = agg.fold(acc, partial);
            }
            out.push(key.concat(&clyde_common::row![acc]));
            Ok(())
        },
    )));
    spec.num_reducers = cluster.total_reduce_slots().max(1) as usize;
    spec.output = OutputSpec::Memory;
    spec.reuse_jvm = features.jvm_reuse;
    // Result-cache identity: the conf is empty for Clydesdale plans, so the
    // token must carry everything that shapes the output — the query and
    // the feature flags (which also shape the split list via zone pruning).
    spec.code_token = format!("clyde:{}:{}:v1", query.id, features.token_bits());
    if features.multithreading {
        // Mark the task as consuming the whole node's memory so the capacity
        // scheduler admits exactly one per node (Section 5.2), and let it
        // use every map slot's worth of threads.
        spec.declared_task_memory = cluster.node.memory_bytes;
        spec.task_threads = Some(cluster.map_slots);
    } else {
        spec.declared_task_memory = 0;
        spec.task_threads = Some(1);
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_ssb::query_by_id;

    #[test]
    fn scan_schema_projects_or_not() {
        let q = query_by_id("Q2.1").unwrap();
        let (cols, s) = scan_schema(&q, &Features::default()).unwrap();
        assert_eq!(cols.len(), 4);
        assert_eq!(s.len(), 4);
        let (cols_all, s_all) = scan_schema(&q, &Features::without_columnar()).unwrap();
        assert_eq!(cols_all.len(), 17);
        assert_eq!(s_all.len(), 17);
        // The probe plan must still resolve in the full schema.
        crate::probe::ProbePlan::compile(&q, &s_all).unwrap();
        crate::probe::ProbePlan::compile(&q, &s).unwrap();
    }

    #[test]
    fn plan_marks_memory_for_one_task_per_node() {
        let cluster = ClusterSpec::cluster_a();
        let q = query_by_id("Q3.1").unwrap();
        let spec = plan_query(&q, &SsbLayout::default(), Features::default(), &cluster).unwrap();
        assert_eq!(spec.declared_task_memory, cluster.node.memory_bytes);
        assert_eq!(spec.task_threads, Some(6));
        assert!(spec.reuse_jvm);
        assert_eq!(spec.num_reducers, 8);
        assert!(spec.reducer.is_some());
    }

    #[test]
    fn zone_preds_cover_fact_and_date_predicates() {
        // Q1.1: d_year = 1993, discount in [1,3], quantity < 25.
        let q = query_by_id("Q1.1").unwrap();
        let zp = zone_preds(&q);
        assert!(zp.contains(&ZonePred::new("lo_discount", 1, 3)));
        assert!(zp.contains(&ZonePred::new("lo_quantity", i32::MIN, 24)));
        assert!(zp.contains(&ZonePred::new("lo_orderdate", 19930101, 19931231)));

        // Q1.2 filters on d_yearmonthnum = 199401.
        let q12 = query_by_id("Q1.2").unwrap();
        assert!(zone_preds(&q12).contains(&ZonePred::new("lo_orderdate", 19940101, 19940131)));

        // Q3.4 filters on d_yearmonth = "Dec1997".
        let q34 = query_by_id("Q3.4").unwrap();
        assert!(zone_preds(&q34).contains(&ZonePred::new("lo_orderdate", 19971201, 19971231)));

        // Q4.2 restricts d_year to {1997, 1998}.
        let q42 = query_by_id("Q4.2").unwrap();
        assert!(zone_preds(&q42).contains(&ZonePred::new("lo_orderdate", 19970101, 19981231)));

        // Q2.1's date join is unfiltered: no fact preds, no date range.
        let q21 = query_by_id("Q2.1").unwrap();
        assert!(zone_preds(&q21).is_empty());
    }

    #[test]
    fn date_bounds_outside_the_calendar_clamp_instead_of_wrapping() {
        let year = |lo, hi| DimPred::I32Between {
            column: "d_year".into(),
            lo,
            hi,
        };
        assert_eq!(
            date_pred_range(&year(1992, 300_000)),
            Some((19_920_101, i32::MAX))
        );
        assert_eq!(
            date_pred_range(&year(i32::MIN, i32::MAX)),
            Some((i32::MIN, i32::MAX))
        );
        let eq = |column: &str, value| DimPred::I32Eq {
            column: column.into(),
            value,
        };
        assert_eq!(
            date_pred_range(&eq("d_year", i32::MIN)),
            Some((i32::MIN, i32::MIN))
        );
        assert_eq!(
            date_pred_range(&eq("d_yearmonthnum", i32::MAX)),
            Some((i32::MAX, i32::MAX))
        );
        let within = DimPred::I32In {
            column: "d_year".into(),
            values: vec![1997, i32::MIN],
        };
        assert_eq!(date_pred_range(&within), Some((i32::MIN, 19_971_231)));
        let empty = DimPred::I32In {
            column: "d_year".into(),
            values: vec![],
        };
        assert_eq!(date_pred_range(&empty), None);
        let month = |value: &str| DimPred::StrEq {
            column: "d_yearmonth".into(),
            value: value.into(),
        };
        assert_eq!(
            date_pred_range(&month("Dec300000")),
            Some((i32::MAX, i32::MAX))
        );
        assert_eq!(date_pred_range(&month("Dec99999999999999999")), None);
    }

    #[test]
    fn ablated_plan_uses_slots() {
        let cluster = ClusterSpec::cluster_a();
        let q = query_by_id("Q3.1").unwrap();
        let spec = plan_query(
            &q,
            &SsbLayout::default(),
            Features::without_multithreading(),
            &cluster,
        )
        .unwrap();
        assert_eq!(spec.declared_task_memory, 0);
        assert_eq!(spec.task_threads, Some(1));
        assert!(!spec.reuse_jvm);
    }
}
