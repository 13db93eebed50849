//! Pipe-delimited text — the `dbgen` interchange format.
//!
//! The paper quotes the star schema benchmark's sizes in "uncompressed text
//! format" (600 GB at SF1000) against 334 GB in binary Multi-CIF; this module
//! provides that text representation so the size comparison and the
//! TextInputFormat fallback experiments (Section 6.3 mentions re-running
//! with `TextInputFormat`) are reproducible.

use clyde_common::Datum;
use clyde_common::{ClydeError, DatumType, Result, Row, Schema};
use clyde_dfs::Dfs;
use clyde_mapred::{InputFormat, InputSplit, JobConf, Reader, RecordReader, SplitSpec, TaskIo};
use std::sync::Arc;

const DELIM: char = '|';

/// Serialize rows as `a|b|c\n` lines.
pub struct TextWriter {
    writer: clyde_dfs::DfsWriter,
    buf: String,
}

impl TextWriter {
    pub fn create(dfs: &Arc<Dfs>, path: impl Into<String>) -> Result<TextWriter> {
        Ok(TextWriter {
            writer: dfs.create(path, None, None)?,
            buf: String::new(),
        })
    }

    pub fn append(&mut self, row: &Row) -> Result<()> {
        use std::fmt::Write as _;
        self.buf.clear();
        for (i, d) in row.iter().enumerate() {
            if i > 0 {
                self.buf.push(DELIM);
            }
            if let Datum::Str(s) = d {
                if s.contains(DELIM) || s.contains('\n') {
                    return Err(ClydeError::Format(format!(
                        "string value {s:?} contains the delimiter"
                    )));
                }
            }
            write!(self.buf, "{d}").map_err(|e| ClydeError::Format(e.to_string()))?;
        }
        self.buf.push('\n');
        self.writer.write_all(self.buf.as_bytes())?;
        Ok(())
    }

    pub fn close(self) -> Result<()> {
        self.writer.close()
    }
}

/// Parse one delimited line against a schema.
pub fn parse_line(line: &str, schema: &Schema) -> Result<Row> {
    let mut row = Row::with_capacity(schema.len());
    let mut parts = line.split(DELIM);
    for field in schema.fields() {
        let part = parts
            .next()
            .ok_or_else(|| ClydeError::Format(format!("line has too few fields: {line:?}")))?;
        let datum = match field.dtype {
            DatumType::I32 => Datum::I32(part.parse().map_err(|_| {
                ClydeError::Format(format!("bad i32 {part:?} in column {}", field.name))
            })?),
            DatumType::I64 => Datum::I64(part.parse().map_err(|_| {
                ClydeError::Format(format!("bad i64 {part:?} in column {}", field.name))
            })?),
            DatumType::F64 => Datum::F64(part.parse().map_err(|_| {
                ClydeError::Format(format!("bad f64 {part:?} in column {}", field.name))
            })?),
            DatumType::Str => Datum::str(part),
        };
        row.push(datum);
    }
    if parts.next().is_some() {
        return Err(ClydeError::Format(format!(
            "line has too many fields: {line:?}"
        )));
    }
    Ok(row)
}

/// Input format over newline-delimited text files. Splits at DFS block
/// boundaries, extending each split to the next newline (Hadoop's
/// `TextInputFormat` convention), so records never straddle readers.
pub struct TextInputFormat {
    pub path: String,
    pub schema: Schema,
    /// Target split size in bytes (defaults to the DFS block size).
    pub split_bytes: Option<u64>,
}

impl TextInputFormat {
    pub fn new(path: impl Into<String>, schema: Schema) -> TextInputFormat {
        TextInputFormat {
            path: path.into(),
            schema,
            split_bytes: None,
        }
    }
}

impl InputFormat for TextInputFormat {
    fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
        let len = dfs.file_len(&self.path)?;
        let hosts = dfs.hosts(&self.path)?;
        let chunk = self.split_bytes.unwrap_or(dfs.block_size()).max(1);
        let mut splits = Vec::new();
        let mut offset = 0u64;
        let mut index = 0usize;
        while offset < len {
            let this = chunk.min(len - offset);
            splits.push(InputSplit {
                index,
                spec: SplitSpec::FileRange {
                    path: self.path.clone(),
                    offset,
                    len: this,
                },
                hosts: hosts.clone(),
                bytes: this,
            });
            offset += this;
            index += 1;
        }
        if splits.is_empty() {
            splits.push(InputSplit {
                index: 0,
                spec: SplitSpec::FileRange {
                    path: self.path.clone(),
                    offset: 0,
                    len: 0,
                },
                hosts,
                bytes: 0,
            });
        }
        Ok(splits)
    }

    fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
        if part != 0 {
            return Err(ClydeError::MapReduce("text splits have one part".into()));
        }
        let SplitSpec::FileRange { path, offset, len } = &split.spec else {
            return Err(ClydeError::MapReduce(
                "text expects file-range splits".into(),
            ));
        };
        let file_len = io.dfs.file_len(path)?;
        // Hadoop convention: a split owns the records that *start* within it.
        // Read past the end to the next newline; skip the partial first line
        // unless at offset 0.
        let read_end = (*offset + *len + 64 * 1024).min(file_len);
        let data = io.read_range(path, *offset, read_end - *offset)?;
        let text = std::str::from_utf8(&data)
            .map_err(|_| ClydeError::Format("text file is not utf-8".into()))?;

        let mut start = 0usize;
        if *offset > 0 {
            match text.find('\n') {
                Some(nl) => start = nl + 1,
                None => start = text.len(),
            }
        }
        let logical_end = (*len as usize).min(text.len());
        let mut rows = Vec::new();
        let mut pos = start;
        for line in text.get(start..).unwrap_or_default().split_inclusive('\n') {
            // Hadoop convention: consume lines whose start is <= the split
            // boundary (a line starting exactly at the boundary belongs to
            // this split; the next split, having offset > 0, skips it as its
            // partial first line).
            if pos > logical_end {
                break;
            }
            let body = line.strip_suffix('\n').unwrap_or(line);
            if !body.is_empty() {
                rows.push(parse_line(body, &self.schema)?);
            }
            pos += line.len();
        }
        Ok(Reader::Rows(Box::new(TextRows(rows.into_iter()))))
    }
}

struct TextRows(std::vec::IntoIter<Row>);

impl RecordReader for TextRows {
    fn next(&mut self) -> Result<Option<(Row, Row)>> {
        Ok(self.0.next().map(|r| (Row::empty(), r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::{row, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::i32("id"), Field::str("name"), Field::i64("v")])
    }

    fn write_rows(dfs: &Arc<Dfs>, path: &str, n: usize) {
        let mut w = TextWriter::create(dfs, path).unwrap();
        for i in 0..n {
            w.append(&row![i as i32, format!("name{i}"), (i * 7) as i64])
                .unwrap();
        }
        w.close().unwrap();
    }

    fn read_all(fmt: &TextInputFormat, dfs: &Arc<Dfs>) -> Vec<Row> {
        let splits = fmt.splits(dfs, &JobConf::new()).unwrap();
        let io = TaskIo::client(Arc::clone(dfs));
        let mut out = Vec::new();
        for s in &splits {
            let mut r = fmt.open(s, 0, &io).unwrap().into_rows().unwrap();
            while let Some((_, v)) = r.next().unwrap() {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn roundtrip_single_split() {
        let dfs = Dfs::for_tests(2);
        write_rows(&dfs, "/text/t1", 10);
        let mut fmt = TextInputFormat::new("/text/t1", schema());
        fmt.split_bytes = Some(1 << 20);
        let rows = read_all(&fmt, &dfs);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[3], row![3i32, "name3", 21i64]);
    }

    #[test]
    fn split_boundaries_do_not_lose_or_duplicate_records() {
        let dfs = Dfs::for_tests(2);
        write_rows(&dfs, "/text/t2", 200);
        // Try many split sizes, including pathological ones.
        for split_bytes in [1u64, 7, 16, 33, 100, 1000, 1 << 20] {
            let mut fmt = TextInputFormat::new("/text/t2", schema());
            fmt.split_bytes = Some(split_bytes);
            let rows = read_all(&fmt, &dfs);
            assert_eq!(rows.len(), 200, "split_bytes={split_bytes}");
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(r.at(0).as_i32().unwrap() as usize, i);
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let s = schema();
        assert!(parse_line("1|a", &s).is_err()); // too few
        assert!(parse_line("1|a|2|3", &s).is_err()); // too many
        assert!(parse_line("x|a|2", &s).is_err()); // bad int
        assert_eq!(parse_line("1|a|2", &s).unwrap(), row![1i32, "a", 2i64]);
    }

    #[test]
    fn writer_rejects_delimiter_in_strings() {
        let dfs = Dfs::for_tests(2);
        let mut w = TextWriter::create(&dfs, "/text/bad").unwrap();
        assert!(w.append(&row![1i32, "a|b", 2i64]).is_err());
    }

    #[test]
    fn empty_file_yields_no_rows() {
        let dfs = Dfs::for_tests(2);
        TextWriter::create(&dfs, "/text/empty")
            .unwrap()
            .close()
            .unwrap();
        let fmt = TextInputFormat::new("/text/empty", schema());
        assert!(read_all(&fmt, &dfs).is_empty());
    }
}
