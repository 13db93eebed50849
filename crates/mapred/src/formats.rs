//! Framework-provided input formats: row-binary part files (the format the
//! engine writes for intermediate results, so multi-stage plans can chain
//! jobs) and in-memory inputs for tests and synthetic generators.

use crate::conf::JobConf;
use crate::input::{InputFormat, InputSplit, Reader, RecordReader, SplitSpec};
use crate::task::TaskIo;
use bytes::Bytes;
use clyde_common::rowcodec::{self, StrPool};
use clyde_common::{varint, ClydeError, Result, Row};
use clyde_dfs::Dfs;
use std::sync::Arc;

/// Reads directories of `part-*` files in the engine's row-binary format —
/// how Hive's stage N+1 consumes stage N's output.
pub struct RowBinInputFormat {
    dir: String,
}

impl RowBinInputFormat {
    pub fn new(dir: impl Into<String>) -> RowBinInputFormat {
        RowBinInputFormat { dir: dir.into() }
    }
}

impl InputFormat for RowBinInputFormat {
    fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
        let prefix = format!("{}/", self.dir.trim_end_matches('/'));
        let files = dfs.list(&prefix);
        if files.is_empty() {
            return Err(ClydeError::MapReduce(format!(
                "no input files under {prefix}"
            )));
        }
        files
            .into_iter()
            .enumerate()
            .map(|(index, path)| {
                let len = dfs.file_len(&path)?;
                let hosts = dfs.hosts(&path)?;
                Ok(InputSplit {
                    index,
                    spec: SplitSpec::FileRange {
                        path,
                        offset: 0,
                        len,
                    },
                    hosts,
                    bytes: len,
                })
            })
            .collect()
    }

    fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
        if part != 0 {
            return Err(ClydeError::MapReduce(
                "row-binary splits have one part".into(),
            ));
        }
        let SplitSpec::FileRange { path, .. } = &split.spec else {
            return Err(ClydeError::MapReduce("unexpected split spec".into()));
        };
        let data = io.read_file(path)?;
        Ok(Reader::Rows(Box::new(RowBinReader::new(data)?)))
    }
}

/// Decodes a row-binary file one row per record: the rows
/// [`rowcodec::read_rows`] returns, in order, erring where it errs.
/// [`RecordReader::next_into`] decodes into the caller's row
/// ([`rowcodec::read_row_into`]).
struct RowBinReader {
    data: Bytes,
    pos: usize,
    /// Rows of the count prefix not yet read.
    left: u64,
    /// The file's rows share their equal strings.
    strings: StrPool,
}

impl RowBinReader {
    fn new(data: Bytes) -> Result<RowBinReader> {
        let mut pos = 0;
        let left = varint::read_u64(&data, &mut pos)?;
        Ok(RowBinReader {
            data,
            pos,
            left,
            strings: StrPool::default(),
        })
    }
}

impl RecordReader for RowBinReader {
    fn next(&mut self) -> Result<Option<(Row, Row)>> {
        let mut value = Row::empty();
        Ok(self
            .next_into(&mut Row::empty(), &mut value)?
            .then(|| (Row::empty(), value)))
    }

    fn next_into(&mut self, key: &mut Row, value: &mut Row) -> Result<bool> {
        if self.left == 0 {
            return match self.data.len().saturating_sub(self.pos) {
                0 => Ok(false),
                n => Err(ClydeError::Format(format!("rowcodec: {n} trailing bytes"))),
            };
        }
        self.left -= 1;
        rowcodec::read_row_into(&self.data, &mut self.pos, value, &mut self.strings)?;
        key.clear();
        Ok(true)
    }
}

/// An in-memory input: `rows` divided into `num_splits` contiguous splits.
/// No locality (hosts empty), so the scheduler load-balances freely.
pub struct VecInputFormat {
    rows: Arc<Vec<Row>>,
    num_splits: usize,
}

impl VecInputFormat {
    pub fn new(rows: Vec<Row>, num_splits: usize) -> VecInputFormat {
        VecInputFormat {
            rows: Arc::new(rows),
            num_splits: num_splits.max(1),
        }
    }
}

impl InputFormat for VecInputFormat {
    fn splits(&self, _dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
        let n = self.rows.len();
        let k = self.num_splits.min(n.max(1));
        let per = n.div_ceil(k);
        Ok((0..k)
            .map(|i| {
                let from = i * per;
                let to = ((i + 1) * per).min(n);
                InputSplit {
                    index: i,
                    spec: SplitSpec::Inline { from, to },
                    hosts: Vec::new(),
                    bytes: ((to - from) * 16) as u64,
                }
            })
            .collect())
    }

    fn open(&self, split: &InputSplit, part: usize, _io: &TaskIo) -> Result<Reader> {
        if part != 0 {
            return Err(ClydeError::MapReduce("inline splits have one part".into()));
        }
        let SplitSpec::Inline { from, to } = split.spec else {
            return Err(ClydeError::MapReduce("unexpected split spec".into()));
        };
        Ok(Reader::Rows(Box::new(InlineReader {
            rows: Arc::clone(&self.rows),
            pos: from,
            end: to,
        })))
    }
}

struct InlineReader {
    rows: Arc<Vec<Row>>,
    pos: usize,
    end: usize,
}

impl InlineReader {
    /// The next row of the split, or `None` at its end.
    fn advance(&mut self) -> Result<Option<&Row>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let row = self.rows.get(self.pos).ok_or_else(|| {
            ClydeError::MapReduce(format!(
                "inline split reads row {} of {}",
                self.pos,
                self.rows.len()
            ))
        })?;
        self.pos += 1;
        Ok(Some(row))
    }
}

impl RecordReader for InlineReader {
    fn next(&mut self) -> Result<Option<(Row, Row)>> {
        Ok(self.advance()?.map(|row| (Row::empty(), row.clone())))
    }

    /// Copies the held row's fields into `value` ([`Row::refill`]).
    fn next_into(&mut self, key: &mut Row, value: &mut Row) -> Result<bool> {
        let Some(row) = self.advance()? else {
            return Ok(false);
        };
        value.refill(row.iter().cloned());
        key.clear();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::input::tests::drain;
    use crate::job::{JobSpec, OutputSpec};
    use crate::runner::{FnMapper, RowMapRunner};
    use crate::shuffle::FnReducer;
    use clyde_common::row;
    use clyde_common::Datum;

    fn word_rows() -> Vec<Row> {
        ["the", "quick", "the", "fox", "fox", "the"]
            .iter()
            .map(|w| row![*w])
            .collect()
    }

    /// The canonical smoke test: word count through map, combine, reduce.
    #[test]
    fn word_count_end_to_end() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
            ctx.emit(&v.values()[..1], &[Datum::I64(1)]);
            Ok(())
        }));
        // Combiner: partial sum, emitting only the running total (values must
        // stay shape-compatible with map output for algebraic combining).
        let partial_sum = FnReducer(|_key: &Row, values: &[&Row], out: &mut Vec<Row>| {
            let total: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
            out.push(row![total]);
            Ok(())
        });
        let final_sum = FnReducer(|key: &Row, values: &[&Row], out: &mut Vec<Row>| {
            let total: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
            out.push(key.concat(&row![total]));
            Ok(())
        });
        let mut spec = JobSpec::new(
            "wordcount",
            Arc::new(VecInputFormat::new(word_rows(), 3)),
            Arc::new(mapper),
        );
        spec.combiner = Some(Arc::new(partial_sum));
        spec.reducer = Some(Arc::new(final_sum));
        spec.num_reducers = 2;
        let result = engine.run_job(&spec).unwrap();
        let mut rows = result.rows;
        rows.sort();
        assert_eq!(
            rows,
            vec![row!["fox", 2i64], row!["quick", 1i64], row!["the", 3i64]]
        );
        assert_eq!(result.profile.map_tasks.len(), 3);
        assert_eq!(result.profile.reduce_tasks.len(), 2);
        assert!(result.cost.total_s() > 0.0);
    }

    #[test]
    fn word_count_without_combiner_matches() {
        let dfs = Dfs::for_tests(2);
        let engine = Engine::new(Arc::clone(&dfs));
        let mapper = || {
            RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
                ctx.emit(&v.values()[..1], &[Datum::I64(1)]);
                Ok(())
            }))
        };
        let partial = || {
            FnReducer(|_key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                let total: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
                out.push(row![total]);
                Ok(())
            })
        };
        let final_sum = || {
            FnReducer(|key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                let total: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
                out.push(key.concat(&row![total]));
                Ok(())
            })
        };
        let mut with = JobSpec::new(
            "wc+c",
            Arc::new(VecInputFormat::new(word_rows(), 2)),
            Arc::new(mapper()),
        );
        with.combiner = Some(Arc::new(partial()));
        with.reducer = Some(Arc::new(final_sum()));
        with.num_reducers = 1;
        let mut without = JobSpec::new(
            "wc-c",
            Arc::new(VecInputFormat::new(word_rows(), 2)),
            Arc::new(mapper()),
        );
        without.reducer = Some(Arc::new(final_sum()));
        without.num_reducers = 1;
        let a = engine.run_job(&with).unwrap();
        let b = engine.run_job(&without).unwrap();
        assert_eq!(a.rows, b.rows);
        // The combiner shrinks the shuffle.
        assert!(a.profile.shuffle_bytes < b.profile.shuffle_bytes);
    }

    #[test]
    fn map_only_job_writes_part_files_readable_by_rowbin_format() {
        let dfs = Dfs::for_tests(2);
        let engine = Engine::new(Arc::clone(&dfs));
        let identity = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
            ctx.emit(&[], v.values());
            Ok(())
        }));
        let mut spec = JobSpec::new(
            "identity",
            Arc::new(VecInputFormat::new(word_rows(), 2)),
            Arc::new(identity),
        );
        spec.output = OutputSpec::DfsDir("/tmp/stage1".into());
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.output_files.len(), 2);
        assert!(result.rows.is_empty());

        // Chain: read the part files back with RowBinInputFormat.
        let count = RowMapRunner::new(FnMapper(|_k: &Row, _v: &Row, ctx: &_| {
            ctx.emit(&[Datum::I64(0)], &[Datum::I64(1)]);
            Ok(())
        }));
        let mut stage2 = JobSpec::new(
            "count",
            Arc::new(RowBinInputFormat::new("/tmp/stage1")),
            Arc::new(count),
        );
        stage2.reducer = Some(Arc::new(FnReducer(
            |_k: &Row, values: &[&Row], out: &mut Vec<Row>| {
                out.push(row![values.len() as i64]);
                Ok(())
            },
        )));
        stage2.num_reducers = 1;
        let r2 = engine.run_job(&stage2).unwrap();
        assert_eq!(r2.rows, vec![row![6i64]]);
    }

    /// A split that claims rows the input does not hold reads what exists,
    /// then errors instead of panicking.
    #[test]
    fn an_inline_split_past_the_rows_is_a_typed_error() {
        let fmt = VecInputFormat::new(word_rows(), 1);
        let split = InputSplit {
            index: 0,
            spec: SplitSpec::Inline { from: 4, to: 9 },
            hosts: Vec::new(),
            bytes: 80,
        };
        let io = TaskIo::new(Dfs::for_tests(1), clyde_dfs::NodeId(0));
        let mut reader = fmt.open(&split, 0, &io).unwrap().into_rows().unwrap();
        assert!(reader.next().unwrap().is_some());
        assert!(reader.next().unwrap().is_some());
        assert!(matches!(reader.next(), Err(ClydeError::MapReduce(_))));
        // Refilling reads the same rows and errs at the same record.
        let open = || fmt.open(&split, 0, &io).unwrap().into_rows().unwrap();
        let (owned, refilled) = (drain(open(), false), drain(open(), true));
        assert_eq!(owned, refilled);
        assert_eq!((owned.0.len(), owned.1), (2, true));
        let whole = InputSplit {
            spec: SplitSpec::Inline { from: 0, to: 6 },
            ..split.clone()
        };
        let open = || fmt.open(&whole, 0, &io).unwrap().into_rows().unwrap();
        let (owned, refilled) = (drain(open(), false), drain(open(), true));
        assert_eq!(owned, refilled);
        assert_eq!((owned.0.len(), owned.1), (6, false));
    }

    #[test]
    fn rowbin_format_errors_on_missing_dir() {
        let dfs = Dfs::for_tests(2);
        let fmt = RowBinInputFormat::new("/nope");
        assert!(fmt.splits(&dfs, &JobConf::new()).is_err());
    }

    #[test]
    fn map_only_memory_output_collects_key_and_value() {
        let dfs = Dfs::for_tests(2);
        let engine = Engine::new(Arc::clone(&dfs));
        let m = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
            ctx.emit(&[Datum::I64(1)], v.values());
            Ok(())
        }));
        let spec = JobSpec::new(
            "kv",
            Arc::new(VecInputFormat::new(vec![row!["x"]], 1)),
            Arc::new(m),
        );
        let r = engine.run_job(&spec).unwrap();
        assert_eq!(r.rows, vec![row![1i64, "x"]]);
    }

    #[test]
    fn deterministic_across_runs() {
        let dfs = Dfs::for_tests(4);
        let engine = Engine::new(Arc::clone(&dfs));
        let make_spec = || {
            let m = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
                ctx.emit(&v.values()[..1], &[Datum::I64(1)]);
                Ok(())
            }));
            let mut s = JobSpec::new(
                "det",
                Arc::new(VecInputFormat::new(word_rows(), 4)),
                Arc::new(m),
            );
            s.reducer = Some(Arc::new(FnReducer(
                |key: &Row, values: &[&Row], out: &mut Vec<Row>| {
                    out.push(key.concat(&Row::new(vec![Datum::I64(values.len() as i64)])));
                    Ok(())
                },
            )));
            s.num_reducers = 3;
            s
        };
        let a = engine.run_job(&make_spec()).unwrap();
        let b = engine.run_job(&make_spec()).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.cost.total_s(), b.cost.total_s());
    }

    #[test]
    fn mapper_error_fails_the_job() {
        let dfs = Dfs::for_tests(2);
        let engine = Engine::new(Arc::clone(&dfs));
        let failing = RowMapRunner::new(FnMapper(|_k: &Row, _v: &Row, _ctx: &_| {
            Err(ClydeError::MapReduce("injected failure".into()))
        }));
        let spec = JobSpec::new(
            "boom",
            Arc::new(VecInputFormat::new(word_rows(), 2)),
            Arc::new(failing),
        );
        let err = engine.run_job(&spec).unwrap_err();
        assert!(err.to_string().contains("injected failure"));
    }

    /// Varied rows as a written part file: strings (one empty, one
    /// repeated), NULLs, `f64`, both integer widths, an empty row.
    fn part_file() -> Vec<u8> {
        rowcodec::write_rows(&[
            row![7i32, "ASIA", 2.5f64],
            Row::new(vec![Datum::Null, Datum::str(""), Datum::I64(-1 << 40)]),
            Row::empty(),
            row!["ASIA", -0.5f64],
        ])
    }

    /// Store `bytes` as the only part file of a directory and open it
    /// through `RowBinInputFormat`.
    fn open_stored(dfs: &Arc<Dfs>, bytes: &[u8]) -> Result<Box<dyn RecordReader>> {
        let path = "/rowbin/part-00000";
        if dfs.exists(path) {
            dfs.delete(path)?;
        }
        dfs.write_file(path, None, bytes)?;
        let fmt = RowBinInputFormat::new("/rowbin");
        let split = fmt
            .splits(dfs, &JobConf::new())?
            .into_iter()
            .next()
            .unwrap();
        let io = TaskIo::new(Arc::clone(dfs), clyde_dfs::NodeId(0));
        fmt.open(&split, 0, &io)?.into_rows()
    }

    /// Drain `bytes`, stored as the only part file of a directory, through
    /// `RowBinInputFormat::open` and `next`.
    fn read_through_format(dfs: &Arc<Dfs>, bytes: &[u8]) -> Result<Vec<Row>> {
        let mut reader = open_stored(dfs, bytes)?;
        let mut rows = Vec::new();
        while let Some((_, row)) = reader.next()? {
            rows.push(row);
        }
        Ok(rows)
    }

    /// The streaming reader errs exactly when `read_rows` does, and
    /// otherwise yields its rows in order (Debug, not ==: Datum equality
    /// coerces I32/I64); refilling one pair with `next_into` yields the
    /// rows `next` yields and errs at the same record.
    fn reads_like_read_rows(dfs: &Arc<Dfs>, bytes: &[u8]) -> std::result::Result<(), String> {
        match (rowcodec::read_rows(bytes), read_through_format(dfs, bytes)) {
            (Ok(a), Ok(b)) if format!("{a:?}") == format!("{b:?}") => {}
            (Err(_), Err(_)) => {}
            (a, b) => return Err(format!("{bytes:02x?}: read_rows {a:?}, format {b:?}")),
        }
        let (owned, refilled) = match (open_stored(dfs, bytes), open_stored(dfs, bytes)) {
            (Ok(a), Ok(b)) => (drain(a, false), drain(b, true)),
            // The count prefix did not parse: no reader either way.
            (Err(_), Err(_)) => return Ok(()),
            (a, b) => {
                return Err(format!(
                    "{bytes:02x?}: open {:?} then {:?}",
                    a.is_ok(),
                    b.is_ok()
                ))
            }
        };
        if format!("{owned:?}") == format!("{refilled:?}") {
            Ok(())
        } else {
            Err(format!(
                "{bytes:02x?}: next {owned:?}, next_into {refilled:?}"
            ))
        }
    }

    #[test]
    fn rowbin_reads_every_truncation_and_bit_flip_like_read_rows() {
        let dfs = Dfs::for_tests(1);
        let file = part_file();
        reads_like_read_rows(&dfs, &file).unwrap();
        for cut in 0..file.len() {
            reads_like_read_rows(&dfs, &file[..cut]).unwrap();
        }
        for bit in 0..file.len() * 8 {
            let mut flipped = file.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            reads_like_read_rows(&dfs, &flipped).unwrap();
        }
    }

    proptest::proptest! {
        #[test]
        fn rowbin_reads_arbitrary_bytes_like_read_rows(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            spliced in proptest::prelude::any::<bool>(),
        ) {
            // Half the cases are the written file with the bytes appended,
            // so the rows parse and the tail is what varies.
            let bytes = if spliced {
                let mut file = part_file();
                file.extend_from_slice(&bytes);
                file
            } else {
                bytes
            };
            let dfs = Dfs::for_tests(1);
            let agreed = reads_like_read_rows(&dfs, &bytes);
            proptest::prop_assert!(agreed.is_ok(), "{:?}", agreed);
        }
    }
}
