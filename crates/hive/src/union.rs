//! A two-source input format for repartition joins.
//!
//! Hive's common join runs one MapReduce job whose mappers read *both*
//! tables; each record is tagged with the table it came from so the reducer
//! can separate the sides (paper Section 6.1). This format concatenates the
//! splits of two inner formats and appends an integer tag to every value
//! row: `0` for the left (fact) side, `1` for the right (dimension) side.
//! The tag stays at the end, past every scan column, all the way through
//! the shuffle. The row readers refill one row per task and keep a spare
//! slot in it ([`Row::refill`], `rowcodec::read_row_into`), so tagging
//! never reallocates the row.

use clyde_common::{ClydeError, Datum, Result, Row};
use clyde_dfs::Dfs;
use clyde_mapred::{InputFormat, InputSplit, JobConf, Reader, RecordReader, TaskIo};
use std::sync::Arc;
use std::sync::OnceLock;

/// Tag appended to left-side rows.
pub const TAG_LEFT: i32 = 0;
/// Tag appended to right-side rows.
pub const TAG_RIGHT: i32 = 1;

/// Union of two input formats with per-row source tagging.
///
/// The split list is the concatenation left-then-right; the boundary is
/// recorded when `splits` runs (the engine always computes splits before
/// opening any of them, mirroring Hadoop's job-client/ task split).
pub struct TaggedUnionInputFormat {
    pub left: Arc<dyn InputFormat>,
    pub right: Arc<dyn InputFormat>,
    left_count: OnceLock<usize>,
}

impl TaggedUnionInputFormat {
    pub fn new(left: Arc<dyn InputFormat>, right: Arc<dyn InputFormat>) -> TaggedUnionInputFormat {
        TaggedUnionInputFormat {
            left,
            right,
            left_count: OnceLock::new(),
        }
    }
}

impl InputFormat for TaggedUnionInputFormat {
    fn splits(&self, dfs: &Dfs, conf: &JobConf) -> Result<Vec<InputSplit>> {
        let mut out = self.left.splits(dfs, conf)?;
        let left_count = out.len();
        out.extend(self.right.splits(dfs, conf)?);
        for (i, s) in out.iter_mut().enumerate() {
            s.index = i;
        }
        if self.left_count.set(left_count).is_err() && self.left_count.get() != Some(&left_count) {
            return Err(ClydeError::MapReduce(
                "union input format reused across jobs with different inputs".into(),
            ));
        }
        Ok(out)
    }

    fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
        let left_count = *self.left_count.get().ok_or_else(|| {
            ClydeError::MapReduce("union input format opened before splits()".into())
        })?;
        if split.index < left_count {
            // The inner format sees its own split indexing.
            let mut inner = split.clone();
            inner.index = split.index;
            tag_reader(self.left.open(&inner, part, io)?, TAG_LEFT)
        } else {
            let mut inner = split.clone();
            inner.index = split.index - left_count;
            tag_reader(self.right.open(&inner, part, io)?, TAG_RIGHT)
        }
    }
}

fn tag_reader(reader: Reader, tag: i32) -> Result<Reader> {
    let rows = reader.into_rows()?;
    Ok(Reader::Rows(Box::new(TaggingReader { inner: rows, tag })))
}

struct TaggingReader {
    inner: Box<dyn RecordReader>,
    tag: i32,
}

impl RecordReader for TaggingReader {
    fn next(&mut self) -> Result<Option<(Row, Row)>> {
        match self.inner.next()? {
            None => Ok(None),
            Some((k, mut v)) => {
                v.push(Datum::I32(self.tag));
                Ok(Some((k, v)))
            }
        }
    }

    /// Refills through the inner reader, then appends the tag in the spare
    /// slot.
    fn next_into(&mut self, key: &mut Row, value: &mut Row) -> Result<bool> {
        if !self.inner.next_into(key, value)? {
            return Ok(false);
        }
        value.push(Datum::I32(self.tag));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::row;
    use clyde_mapred::formats::VecInputFormat;

    #[test]
    fn union_tags_both_sides() {
        let dfs = Dfs::for_tests(2);
        let left = VecInputFormat::new(vec![row![1i32], row![2i32]], 2);
        let right = VecInputFormat::new(vec![row!["a"]], 1);
        let fmt = TaggedUnionInputFormat::new(Arc::new(left), Arc::new(right));
        let splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        assert_eq!(splits.len(), 3);
        let io = TaskIo::client(Arc::clone(&dfs));
        let mut left_rows = 0;
        let mut right_rows = 0;
        for s in &splits {
            let mut r = fmt.open(s, 0, &io).unwrap().into_rows().unwrap();
            while let Some((_, v)) = r.next().unwrap() {
                let (tag, fields) = v.values().split_last().unwrap();
                match tag.as_i32() {
                    Some(TAG_LEFT) => {
                        assert!(fields[0].as_i32().is_some());
                        left_rows += 1;
                    }
                    Some(TAG_RIGHT) => {
                        assert_eq!(fields, row!["a"].values());
                        right_rows += 1;
                    }
                    other => panic!("bad tag {other:?}"),
                }
            }
        }
        assert_eq!(left_rows, 2);
        assert_eq!(right_rows, 1);
    }

    /// The records a reader yields and whether it then erred, read with
    /// `next` or with `next_into` over one reused pair.
    fn drain(mut r: Box<dyn RecordReader>, refill: bool) -> (Vec<(Row, Row)>, bool) {
        let mut seen = Vec::new();
        let (mut key, mut value) = (row![9i64], row!["stale", 7i32, 8i32, 9i32]);
        loop {
            let next = if refill {
                r.next_into(&mut key, &mut value)
                    .map(|more| more.then(|| (key.clone(), value.clone())))
            } else {
                r.next()
            };
            match next {
                Ok(Some(record)) => seen.push(record),
                Ok(None) => return (seen, false),
                Err(_) => return (seen, true),
            }
        }
    }

    #[test]
    fn tagging_refills_what_next_returns() {
        let dfs = Dfs::for_tests(2);
        let left = VecInputFormat::new(vec![row![1i32, "x"], row![2i32, "y"]], 1);
        let right = VecInputFormat::new(vec![row!["a"]], 1);
        let fmt = TaggedUnionInputFormat::new(Arc::new(left), Arc::new(right));
        let mut splits = fmt.splits(&dfs, &JobConf::new()).unwrap();
        // A split past its rows reads what exists, then errs.
        let mut torn = splits[0].clone();
        torn.spec = clyde_mapred::SplitSpec::Inline { from: 1, to: 5 };
        splits.push(torn);
        let io = TaskIo::client(Arc::clone(&dfs));
        let mut tails = Vec::new();
        for s in &splits {
            let open = || fmt.open(s, 0, &io).unwrap().into_rows().unwrap();
            let (owned, refilled) = (drain(open(), false), drain(open(), true));
            assert_eq!(format!("{owned:?}"), format!("{refilled:?}"));
            tails.push((owned.0.len(), owned.1));
        }
        assert_eq!(tails, vec![(2, false), (1, false), (1, true)]);
    }

    #[test]
    fn open_before_splits_errors() {
        let dfs = Dfs::for_tests(2);
        let left = VecInputFormat::new(vec![row![1i32]], 1);
        let right = VecInputFormat::new(vec![row![2i32]], 1);
        let fmt = TaggedUnionInputFormat::new(Arc::new(left), Arc::new(right));
        let probe = VecInputFormat::new(vec![row![1i32]], 1);
        let splits = probe.splits(&dfs, &JobConf::new()).unwrap();
        let io = TaskIo::client(Arc::clone(&dfs));
        assert!(fmt.open(&splits[0], 0, &io).is_err());
    }
}
