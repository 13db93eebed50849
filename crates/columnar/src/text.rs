//! Pipe-delimited text — the `dbgen` interchange format.
//!
//! The paper quotes the star schema benchmark's sizes in "uncompressed text
//! format" (600 GB at SF1000) against 334 GB in binary Multi-CIF. The loader
//! writes this representation beside CIF and RCFile so §6.2's size
//! comparison is measured, not assumed; nothing reads it back.

use clyde_common::Datum;
use clyde_common::{ClydeError, Result, Row};
use clyde_dfs::Dfs;
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

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::row;

    #[test]
    fn writer_rejects_delimiter_in_strings() {
        let dfs = Dfs::for_tests(2);
        let mut w = TextWriter::create(&dfs, "/text/bad").unwrap();
        assert!(w.append(&row![1i32, "a|b", 2i64]).is_err());
    }
}
