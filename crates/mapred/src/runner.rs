//! Map runners.
//!
//! The `MapRunner` is Hadoop's hook for owning the entire map-side loop
//! (paper Section 3): the default implementation opens the split's record
//! reader and applies the map function record by record; alternates — like
//! Clydesdale's multi-threaded `MTMapRunner` in `clydesdale::mtrunner` — can
//! be substituted per job without touching the framework.

use crate::task::MapTaskContext;
use clyde_common::{Result, Row};

/// Owns the execution of one map task.
pub trait MapRunner: Send + Sync {
    fn run(&self, ctx: &MapTaskContext<'_>) -> Result<()>;
}

/// A map function over (key, value) records.
///
/// The mapper *owns* the value: the runner hands over the row it just read,
/// so a mapper that forwards it (an identity or repartition map) emits it
/// without a copy. The key is only borrowed.
pub trait Mapper: Send + Sync {
    fn map(&self, key: &Row, value: Row, ctx: &MapTaskContext<'_>) -> Result<()>;
}

/// The default MapRunner: open the reader, apply the map function to every
/// record. One record at a time — this is exactly the per-record framework
/// overhead the paper's Section 5.3 measures.
pub struct RowMapRunner<M: Mapper> {
    mapper: M,
}

impl<M: Mapper> RowMapRunner<M> {
    pub fn new(mapper: M) -> RowMapRunner<M> {
        RowMapRunner { mapper }
    }
}

impl<M: Mapper> MapRunner for RowMapRunner<M> {
    fn run(&self, ctx: &MapTaskContext<'_>) -> Result<()> {
        // Multi-splits expose several parts; the default runner drains them
        // sequentially (only the multi-threaded runner fans them out).
        for part in 0..ctx.split.spec.num_parts() {
            let mut reader = ctx.input.open(ctx.split, part, &ctx.io)?.into_rows()?;
            let mut rows = 0u64;
            while let Some((key, value)) = reader.next()? {
                rows += 1;
                self.mapper.map(&key, value, ctx)?;
            }
            ctx.add_cost(|c| c.deser_rows += rows);
        }
        Ok(())
    }
}

/// A [`Mapper`] from a closure, for tests and small examples.
pub struct FnMapper<F>(pub F)
where
    F: Fn(&Row, Row, &MapTaskContext<'_>) -> Result<()> + Send + Sync;

impl<F> Mapper for FnMapper<F>
where
    F: Fn(&Row, Row, &MapTaskContext<'_>) -> Result<()> + Send + Sync,
{
    fn map(&self, key: &Row, value: Row, ctx: &MapTaskContext<'_>) -> Result<()> {
        (self.0)(key, value, ctx)
    }
}

/// A complete [`MapRunner`] from a closure over the task context.
pub struct FnMapRunner<F>(pub F)
where
    F: Fn(&MapTaskContext<'_>) -> Result<()> + Send + Sync;

impl<F> MapRunner for FnMapRunner<F>
where
    F: Fn(&MapTaskContext<'_>) -> Result<()> + Send + Sync,
{
    fn run(&self, ctx: &MapTaskContext<'_>) -> Result<()> {
        (self.0)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conf::JobConf;
    use crate::input::{InputFormat, InputSplit, Reader, RecordReader, SplitSpec};
    use crate::task::TaskIo;
    use clyde_common::row;
    use clyde_dfs::Dfs;
    use std::sync::Arc;

    /// A multi-part format: part `p` of a Groups split yields the rows
    /// `[group*10, group*10+1)`.
    struct MultiPartFormat;

    struct OneRow(Option<Row>);

    impl RecordReader for OneRow {
        fn next(&mut self) -> Result<Option<(Row, Row)>> {
            Ok(self.0.take().map(|r| (Row::empty(), r)))
        }
    }

    impl InputFormat for MultiPartFormat {
        fn splits(&self, _dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
            Ok(vec![InputSplit {
                index: 0,
                spec: SplitSpec::Groups {
                    base: "/x".into(),
                    groups: vec![3, 7, 9],
                },
                hosts: vec![],
                bytes: 1,
            }])
        }

        fn open(&self, split: &InputSplit, part: usize, _io: &TaskIo) -> Result<Reader> {
            let SplitSpec::Groups { groups, .. } = &split.spec else {
                unreachable!("test split is Groups")
            };
            Ok(Reader::Rows(Box::new(OneRow(Some(row![
                (groups[part] * 10) as i64
            ])))))
        }
    }

    /// The default runner drains every constituent part of a multi-split
    /// sequentially (the single-threaded counterpart of MTMapRunner's
    /// `getMultipleReaders()` fan-out).
    #[test]
    fn default_runner_drains_all_parts_in_order() {
        use crate::engine::Engine;
        use crate::job::JobSpec;
        let dfs = Dfs::for_tests(2);
        let engine = Engine::new(Arc::clone(&dfs));
        let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: Row, ctx: &_| {
            ctx.emit(&[], v);
            Ok(())
        }));
        let spec = JobSpec::new("parts", Arc::new(MultiPartFormat), Arc::new(mapper));
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![30i64], row![70i64], row![90i64]]);
        // Each materialized record was counted for the cost model.
        assert_eq!(result.profile.total_map_cost().deser_rows, 3);
    }

    #[test]
    fn fn_map_runner_bypasses_readers_entirely() {
        use crate::engine::Engine;
        use crate::formats::VecInputFormat;
        use crate::job::JobSpec;
        let dfs = Dfs::for_tests(2);
        let engine = Engine::new(Arc::clone(&dfs));
        let runner = FnMapRunner(|ctx: &crate::task::MapTaskContext<'_>| {
            ctx.emit(&[], row![ctx.split.index as i64]);
            Ok(())
        });
        let spec = JobSpec::new(
            "raw",
            Arc::new(VecInputFormat::new(vec![row![0i64]; 4], 2)),
            Arc::new(runner),
        );
        let result = engine.run_job(&spec).unwrap();
        let mut ids: Vec<i64> = result
            .rows
            .iter()
            .map(|r| r.at(0).as_i64().unwrap())
            .collect();
        ids.sort();
        assert_eq!(ids, vec![0, 1]);
    }
}
