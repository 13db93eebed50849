//! Table and record schemas.

use crate::datum::DatumType;
use crate::error::{ClydeError, Result};
use crate::row::Row;
use std::fmt;
use std::sync::Arc;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DatumType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DatumType) -> Field {
        Field {
            name: name.into(),
            dtype,
        }
    }

    pub fn i32(name: impl Into<String>) -> Field {
        Field::new(name, DatumType::I32)
    }

    pub fn i64(name: impl Into<String>) -> Field {
        Field::new(name, DatumType::I64)
    }

    pub fn f64(name: impl Into<String>) -> Field {
        Field::new(name, DatumType::F64)
    }

    pub fn str(name: impl Into<String>) -> Field {
        Field::new(name, DatumType::Str)
    }
}

/// An ordered collection of fields describing a table or record stream.
///
/// Schemas are cheaply cloneable (`Arc` inside) because every split reader,
/// map task, and hash table holds one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<[Field]>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema {
            fields: fields.into(),
        }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Panicking accessor, kept for the frozen benchmark's callers; engine
    /// code reads fields through [`Schema::fields`].
    #[expect(
        clippy::indexing_slicing,
        reason = "frozen-benchmark shim, ROADMAP item 3"
    )]
    pub fn field(&self, idx: usize) -> &Field {
        // clyde-lint: allow(panicfree, reason=frozen-benchmark shim, ROADMAP item 3)
        &self.fields[idx]
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| ClydeError::Plan(format!("unknown column: {name}")))
    }

    /// A new schema of the named columns, in the order given; an unknown
    /// name is a typed error.
    pub fn select<S: AsRef<str>>(&self, names: &[S]) -> Result<Schema> {
        let fields = names
            .iter()
            .map(|n| {
                let n = n.as_ref();
                self.fields
                    .iter()
                    .find(|f| f.name == n)
                    .cloned()
                    .ok_or_else(|| ClydeError::Plan(format!("unknown column: {n}")))
            })
            .collect::<Result<_>>()?;
        Ok(Schema::new(fields))
    }

    /// A new schema containing only the given column indices. Panics on an
    /// index past the end; kept for the frozen benchmark's callers, while
    /// engine code builds schemas from [`Schema::fields`].
    #[expect(
        clippy::indexing_slicing,
        reason = "frozen-benchmark shim, ROADMAP item 3"
    )]
    pub fn project(&self, indices: &[usize]) -> Schema {
        // clyde-lint: allow(panicfree, reason=frozen-benchmark shim, ROADMAP item 3)
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Validate that a row matches this schema (NULLs match any type).
    pub fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.len() {
            return Err(ClydeError::Format(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.len()
            )));
        }
        for (i, (v, f)) in row.iter().zip(self.fields.iter()).enumerate() {
            match v.datum_type() {
                None => {}
                Some(t) if t == f.dtype => {}
                Some(t) => {
                    return Err(ClydeError::Format(format!(
                        "column {i} ({}) expects {} but row holds {t}",
                        f.name, f.dtype
                    )))
                }
            }
        }
        Ok(())
    }

    /// Column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, fld) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}:{}", fld.name, fld.dtype)?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;
    use crate::row;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::i32("id"),
            Field::str("name"),
            Field::i64("amount"),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("name").unwrap(), 1);
        assert!(s.index_of("nope").is_err());
    }

    #[test]
    fn projection_preserves_order_given() {
        let s = sample().project(&[2, 0]);
        assert_eq!(s.names(), vec!["amount", "id"]);
        assert_eq!(s.field(0).dtype, DatumType::I64);
    }

    #[test]
    fn row_validation() {
        let s = sample();
        assert!(s.check_row(&row![1i32, "a", 2i64]).is_ok());
        // NULL matches any type.
        let mut r = Row::empty();
        r.push(Datum::Null);
        r.push(Datum::Null);
        r.push(Datum::Null);
        assert!(s.check_row(&r).is_ok());
        // Wrong arity.
        assert!(s.check_row(&row![1i32]).is_err());
        // Wrong type.
        assert!(s.check_row(&row![1i32, 2i32, 3i64]).is_err());
    }

    #[test]
    fn display_lists_fields() {
        assert_eq!(sample().to_string(), "[id:i32, name:str, amount:i64]");
    }
}
