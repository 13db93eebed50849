//! Deterministic SSB data generator (`dbgen` equivalent).
//!
//! Cardinalities follow the SSB specification:
//!
//! * `lineorder` — 6,000,000 × SF
//! * `customer`  — 30,000 × SF
//! * `supplier`  — 2,000 × SF
//! * `part`      — 200,000 × (1 + ⌊log₂ SF⌋) for SF ≥ 1
//! * `date`      — one row per day of 1992-01-01 .. 1998-12-31
//!
//! Fractional scale factors (used by tests and laptop-scale benchmarks)
//! scale the linear tables proportionally. Generation is a pure function of
//! `(sf, seed)`; the same inputs always produce byte-identical tables, which
//! the determinism tests rely on.

use crate::schema;
use clyde_common::{row, ClydeError, ColumnData, Result, Row, RowBlock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Days from 1992-01-01 through 1998-12-31 (two leap years: 1992, 1996).
pub const NUM_DATES: usize = 2557;

const COLORS: [&str; 12] = [
    "almond", "aqua", "azure", "beige", "blue", "brown", "coral", "cyan", "forest", "green",
    "ivory", "plum",
];
const TYPES: [&str; 6] = [
    "STANDARD ANODIZED",
    "SMALL PLATED",
    "MEDIUM POLISHED",
    "LARGE BRUSHED",
    "ECONOMY BURNISHED",
    "PROMO ANODIZED",
];
const CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BAG",
    "MED BOX",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP JAR",
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

/// Gregorian calendar helpers for the SSB date range.
pub mod calendar {
    /// Is `year` a leap year?
    pub fn is_leap(year: i32) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    /// Days in `month` (1–12) of `year`. Total: a month number outside
    /// 1–12 counts 31 days, which `from_day_index` never asks for.
    pub fn days_in_month(year: i32, month: u32) -> u32 {
        match month {
            4 | 6 | 9 | 11 => 30,
            2 if is_leap(year) => 29,
            2 => 28,
            _ => 31,
        }
    }

    /// (year, month, day, day-of-year) for a day index counted from
    /// 1992-01-01 (index 0).
    pub fn from_day_index(mut idx: u32) -> (i32, u32, u32, u32) {
        let mut year = 1992;
        loop {
            let ydays = if is_leap(year) { 366 } else { 365 };
            if idx < ydays {
                break;
            }
            idx -= ydays;
            year += 1;
        }
        let day_of_year = idx + 1;
        let mut month = 1;
        let mut rem = idx;
        loop {
            let mdays = days_in_month(year, month);
            if rem < mdays {
                return (year, month, rem + 1, day_of_year);
            }
            rem -= mdays;
            month += 1;
        }
    }

    /// `yyyymmdd` integer key for a day index.
    pub fn datekey(idx: u32) -> i32 {
        let (y, m, d, _) = from_day_index(idx);
        y * 10_000 + (m as i32) * 100 + d as i32
    }
}

/// The generator: a pure function of scale factor and seed.
#[derive(Debug, Clone, Copy)]
pub struct SsbGen {
    pub sf: f64,
    pub seed: u64,
}

fn scaled(base: u64, sf: f64) -> usize {
    (((base as f64) * sf).round() as usize).max(1)
}

impl SsbGen {
    pub fn new(sf: f64, seed: u64) -> SsbGen {
        SsbGen { sf, seed }
    }

    pub fn num_customers(&self) -> usize {
        scaled(30_000, self.sf)
    }

    pub fn num_suppliers(&self) -> usize {
        scaled(2_000, self.sf)
    }

    pub fn num_parts(&self) -> usize {
        if self.sf >= 1.0 {
            200_000 * (1 + self.sf.log2().floor() as usize)
        } else {
            scaled(200_000, self.sf)
        }
    }

    pub fn num_dates(&self) -> usize {
        NUM_DATES
    }

    pub fn num_lineorders(&self) -> usize {
        scaled(6_000_000, self.sf)
    }

    /// Cardinality of a table by name (used by the SF extrapolator).
    pub fn cardinality(&self, table: &str) -> usize {
        match table {
            schema::LINEORDER => self.num_lineorders(),
            schema::CUSTOMER => self.num_customers(),
            schema::SUPPLIER => self.num_suppliers(),
            schema::PART => self.num_parts(),
            schema::DATE => self.num_dates(),
            _ => 0,
        }
    }

    fn rng_for(&self, table: &str) -> StdRng {
        let mut mix = self.seed;
        for b in table.bytes() {
            mix = mix.wrapping_mul(0x100000001b3).wrapping_add(u64::from(b));
        }
        StdRng::seed_from_u64(mix)
    }

    /// The dimension table `table` (`customer`, `supplier`, `part` or
    /// `date`), generated whole; any other name is a typed error.
    pub fn dimension(&self, table: &str) -> Result<Vec<Row>> {
        match table {
            schema::CUSTOMER => self.customer_rows(),
            schema::SUPPLIER => self.supplier_rows(),
            schema::PART => self.part_rows(),
            schema::DATE => self.date_rows(),
            other => Err(ClydeError::Config(format!(
                "{other} is not an SSB dimension"
            ))),
        }
    }

    /// The `date` dimension (fixed 7-year calendar). A panicking form of [`SsbGen::dimension`], kept
    /// for the frozen benchmark's callers.
    #[expect(clippy::expect_used, reason = "frozen-benchmark shim, ROADMAP item 3")]
    pub fn gen_date(&self) -> Vec<Row> {
        self.date_rows().expect("the calendar covers every day")
    }

    /// The `customer` dimension. A panicking form of [`SsbGen::dimension`], kept
    /// for the frozen benchmark's callers.
    #[expect(clippy::expect_used, reason = "frozen-benchmark shim, ROADMAP item 3")]
    pub fn gen_customer(&self) -> Vec<Row> {
        self.customer_rows().expect("every draw indexes its table")
    }

    /// The `supplier` dimension. A panicking form of [`SsbGen::dimension`], kept
    /// for the frozen benchmark's callers.
    #[expect(clippy::expect_used, reason = "frozen-benchmark shim, ROADMAP item 3")]
    pub fn gen_supplier(&self) -> Vec<Row> {
        self.supplier_rows().expect("every draw indexes its table")
    }

    /// The `part` dimension. A panicking form of [`SsbGen::dimension`], kept
    /// for the frozen benchmark's callers.
    #[expect(clippy::expect_used, reason = "frozen-benchmark shim, ROADMAP item 3")]
    pub fn gen_part(&self) -> Vec<Row> {
        self.part_rows().expect("every draw indexes its table")
    }

    fn date_rows(&self) -> Result<Vec<Row>> {
        (0..NUM_DATES as u32)
            .map(|idx| {
                let (y, m, d, doy) = calendar::from_day_index(idx);
                let (month_name, month_abbr) = pick(&schema::MONTHS, (m as usize).wrapping_sub(1))?;
                let day_in_week = (idx % 7) as i32 + 1; // 1992-01-01 = day 1
                let season = match m {
                    12 => "Christmas",
                    1 | 2 => "Winter",
                    3..=5 => "Spring",
                    6..=8 => "Summer",
                    _ => "Fall",
                };
                Ok(row![
                    calendar::datekey(idx),
                    format!("{month_name} {d}, {y}"),
                    pick(&schema::DAYS_OF_WEEK, (idx % 7) as usize)?,
                    month_name,
                    y,
                    y * 100 + m as i32,
                    format!("{month_abbr}{y}"),
                    day_in_week,
                    doy as i32,
                    ((doy - 1) / 7 + 1) as i32,
                    season
                ])
            })
            .collect()
    }

    fn customer_rows(&self) -> Result<Vec<Row>> {
        let mut rng = self.rng_for(schema::CUSTOMER);
        (1..=self.num_customers() as i32)
            .map(|key| {
                let (nation, region_idx) = pick(&schema::NATIONS, rng.gen_range(0..25usize))?;
                let city = schema::city_name(nation, rng.gen_range(0..10));
                Ok(row![
                    key,
                    format!("Customer#{key:09}"),
                    random_address(&mut rng),
                    city,
                    nation,
                    pick(&schema::REGIONS, region_idx)?,
                    random_phone(&mut rng, region_idx),
                    pick(&SEGMENTS, rng.gen_range(0..SEGMENTS.len()))?
                ])
            })
            .collect()
    }

    fn supplier_rows(&self) -> Result<Vec<Row>> {
        let mut rng = self.rng_for(schema::SUPPLIER);
        (1..=self.num_suppliers() as i32)
            .map(|key| {
                let (nation, region_idx) = pick(&schema::NATIONS, rng.gen_range(0..25usize))?;
                let city = schema::city_name(nation, rng.gen_range(0..10));
                Ok(row![
                    key,
                    format!("Supplier#{key:09}"),
                    random_address(&mut rng),
                    city,
                    nation,
                    pick(&schema::REGIONS, region_idx)?,
                    random_phone(&mut rng, region_idx)
                ])
            })
            .collect()
    }

    fn part_rows(&self) -> Result<Vec<Row>> {
        let mut rng = self.rng_for(schema::PART);
        (1..=self.num_parts() as i32)
            .map(|key| {
                let mfgr_num = rng.gen_range(1..=schema::MFGRS);
                let cat_num = rng.gen_range(1..=schema::CATEGORIES_PER_MFGR);
                let brand_num = rng.gen_range(1..=schema::BRANDS_PER_CATEGORY);
                let mfgr = format!("MFGR#{mfgr_num}");
                let category = format!("MFGR#{mfgr_num}{cat_num}");
                let brand1 = format!("{category}{brand_num}");
                let color = pick(&COLORS, rng.gen_range(0..COLORS.len()))?;
                Ok(row![
                    key,
                    format!(
                        "{} {}",
                        color,
                        pick(&COLORS, rng.gen_range(0..COLORS.len()))?
                    ),
                    mfgr,
                    category,
                    brand1,
                    color,
                    pick(&TYPES, rng.gen_range(0..TYPES.len()))?,
                    rng.gen_range(1..=50i32),
                    pick(&CONTAINERS, rng.gen_range(0..CONTAINERS.len()))?
                ])
            })
            .collect()
    }

    /// Generate the `lineorder` fact table into columns, in generation order.
    ///
    /// Rows come in orders of 1–7 lines sharing order key, customer, date,
    /// and priority, exactly like `dbgen`'s order structure.
    pub(crate) fn gen_lineorder(&self) -> LineorderColumns {
        let mut rng = self.rng_for(schema::LINEORDER);
        let customers = self.num_customers() as i32;
        let suppliers = self.num_suppliers() as i32;
        let parts = self.num_parts() as i32;
        let target = self.num_lineorders();
        let mut cols = LineorderColumns::with_capacity(target);

        let mut orderkey = 0i32;
        let mut line_data = Vec::with_capacity(7);
        while cols.len() < target {
            orderkey += 1;
            let lines = rng.gen_range(1..=7usize).min(target - cols.len());
            let custkey = rng.gen_range(1..=customers);
            let orderdate = rng.gen_range(0..NUM_DATES as u32);
            let priority = rng.gen_range(0..schema::PRIORITIES.len()) as u8;
            let mut ordtotal = 0i64;
            line_data.clear();
            for _ in 0..lines {
                let quantity = rng.gen_range(1..=50i32);
                let unit_price = rng.gen_range(900..=10_500i32);
                let extendedprice = quantity * unit_price;
                ordtotal += i64::from(extendedprice);
                line_data.push((quantity, extendedprice));
            }
            let ordtotalprice = ordtotal.min(i64::from(i32::MAX)) as i32;
            for (linenumber, &(quantity, extendedprice)) in (1..).zip(&line_data) {
                let partkey = rng.gen_range(1..=parts);
                let suppkey = rng.gen_range(1..=suppliers);
                let discount = rng.gen_range(0..=10i32);
                let tax = rng.gen_range(0..=8i32);
                let commitdate = (orderdate + rng.gen_range(30..=90u32)).min(NUM_DATES as u32 - 1);
                let shipmode = rng.gen_range(0..schema::SHIP_MODES.len()) as u8;
                cols.orderkey.push(orderkey);
                cols.linenumber.push(linenumber);
                cols.custkey.push(custkey);
                cols.partkey.push(partkey);
                cols.suppkey.push(suppkey);
                cols.orderdate.push(orderdate as u16);
                cols.priority.push(priority);
                cols.quantity.push(quantity);
                cols.extendedprice.push(extendedprice);
                cols.ordtotalprice.push(ordtotalprice);
                cols.discount.push(discount);
                cols.revenue.push(extendedprice * (100 - discount) / 100);
                cols.supplycost.push(extendedprice * 6 / 10);
                cols.tax.push(tax);
                cols.commitdate.push(commitdate as u16);
                cols.shipmode.push(shipmode);
            }
        }
        cols
    }

    /// Hand the `lineorder` fact table to `f` row by row, in generation
    /// order.
    pub fn for_each_lineorder(&self, mut f: impl FnMut(&Row) -> Result<()>) -> Result<()> {
        const ROWS_PER_BLOCK: usize = 4096;
        let fact = self.gen_lineorder();
        for rows in fact.order(false)?.chunks(ROWS_PER_BLOCK) {
            for row in fact.gather(rows)?.rows() {
                f(&row)?;
            }
        }
        Ok(())
    }

    /// Materialize the full dataset (tests and the reference executor).
    pub fn gen_all(&self) -> Result<SsbData> {
        let mut lineorder = Vec::with_capacity(self.num_lineorders());
        self.for_each_lineorder(|r| {
            lineorder.push(r.clone());
            Ok(())
        })?;
        Ok(SsbData {
            customer: self.customer_rows()?,
            supplier: self.supplier_rows()?,
            part: self.part_rows()?,
            date: self.date_rows()?,
            lineorder,
        })
    }
}

/// A fully materialized SSB dataset.
#[derive(Debug, Clone)]
pub struct SsbData {
    pub customer: Vec<Row>,
    pub supplier: Vec<Row>,
    pub part: Vec<Row>,
    pub date: Vec<Row>,
    pub lineorder: Vec<Row>,
}

impl SsbData {
    /// Dimension rows by table name.
    pub fn dimension(&self, table: &str) -> Option<&[Row]> {
        match table {
            schema::CUSTOMER => Some(&self.customer),
            schema::SUPPLIER => Some(&self.supplier),
            schema::PART => Some(&self.part),
            schema::DATE => Some(&self.date),
            _ => None,
        }
    }
}

/// The `lineorder` fact table in typed columns, in generation order.
///
/// Dates are day indexes into the calendar and the two string columns are
/// 1-byte codes into [`schema::PRIORITIES`] / [`schema::SHIP_MODES`], so a
/// buffered table costs 54 B/row where a `Row` costs ~430.
/// [`LineorderColumns::gather`] expands a selection of rows into a
/// [`RowBlock`] of the schema's types.
pub(crate) struct LineorderColumns {
    orderkey: Vec<i32>,
    linenumber: Vec<i32>,
    custkey: Vec<i32>,
    partkey: Vec<i32>,
    suppkey: Vec<i32>,
    orderdate: Vec<u16>,
    priority: Vec<u8>,
    quantity: Vec<i32>,
    extendedprice: Vec<i32>,
    ordtotalprice: Vec<i32>,
    discount: Vec<i32>,
    revenue: Vec<i32>,
    supplycost: Vec<i32>,
    tax: Vec<i32>,
    commitdate: Vec<u16>,
    shipmode: Vec<u8>,
    /// `calendar::datekey` of every day index, computed once.
    datekeys: Vec<i32>,
    priorities: Vec<Arc<str>>,
    ship_modes: Vec<Arc<str>>,
}

impl LineorderColumns {
    fn with_capacity(n: usize) -> LineorderColumns {
        LineorderColumns {
            orderkey: Vec::with_capacity(n),
            linenumber: Vec::with_capacity(n),
            custkey: Vec::with_capacity(n),
            partkey: Vec::with_capacity(n),
            suppkey: Vec::with_capacity(n),
            orderdate: Vec::with_capacity(n),
            priority: Vec::with_capacity(n),
            quantity: Vec::with_capacity(n),
            extendedprice: Vec::with_capacity(n),
            ordtotalprice: Vec::with_capacity(n),
            discount: Vec::with_capacity(n),
            revenue: Vec::with_capacity(n),
            supplycost: Vec::with_capacity(n),
            tax: Vec::with_capacity(n),
            commitdate: Vec::with_capacity(n),
            shipmode: Vec::with_capacity(n),
            datekeys: (0..NUM_DATES as u32).map(calendar::datekey).collect(),
            priorities: schema::PRIORITIES.iter().map(|s| Arc::from(*s)).collect(),
            ship_modes: schema::SHIP_MODES.iter().map(|s| Arc::from(*s)).collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.orderkey.len()
    }

    /// Row indexes in storage order: generation order, or stable by order
    /// date — a counting sort over the calendar's days, O(rows).
    pub(crate) fn order(&self, by_date: bool) -> Result<Vec<u32>> {
        let n = u32::try_from(self.len())
            .map_err(|_| ClydeError::Config("lineorder has more rows than u32 indexes".into()))?;
        if !by_date {
            return Ok((0..n).collect());
        }
        // First output slot of each day: counts, then exclusive prefix sums
        // (each ≤ n, so no sum overflows).
        let bad_day =
            |d: u16| ClydeError::Config(format!("lineorder day index {d} off the calendar"));
        let mut next = vec![0u32; NUM_DATES];
        for &d in &self.orderdate {
            *next.get_mut(usize::from(d)).ok_or_else(|| bad_day(d))? += 1;
        }
        let mut start = 0u32;
        for slot in &mut next {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut order = vec![0u32; self.len()];
        for (row, &d) in (0..n).zip(&self.orderdate) {
            let slot = next.get_mut(usize::from(d)).ok_or_else(|| bad_day(d))?;
            // The prefix sums keep every slot below the row count.
            if let Some(out) = order.get_mut(*slot as usize) {
                *out = row;
            }
            *slot += 1;
        }
        Ok(order)
    }

    /// The selected rows, in the order given, as a block of the `lineorder`
    /// schema's columns.
    pub(crate) fn gather(&self, rows: &[u32]) -> Result<RowBlock> {
        let ints = |col: &[i32]| gather_col(col, rows, Some).map(ColumnData::I32);
        let dates = |col: &[u16]| {
            gather_col(col, rows, |d| self.datekeys.get(usize::from(d)).copied())
                .map(ColumnData::I32)
        };
        let strs = |col: &[u8], names: &[Arc<str>]| {
            gather_col(col, rows, |c| names.get(usize::from(c)).cloned()).map(ColumnData::Str)
        };
        RowBlock::new(vec![
            ints(&self.orderkey)?,
            ints(&self.linenumber)?,
            ints(&self.custkey)?,
            ints(&self.partkey)?,
            ints(&self.suppkey)?,
            dates(&self.orderdate)?,
            strs(&self.priority, &self.priorities)?,
            ColumnData::I32(vec![0; rows.len()]),
            ints(&self.quantity)?,
            ints(&self.extendedprice)?,
            ints(&self.ordtotalprice)?,
            ints(&self.discount)?,
            ints(&self.revenue)?,
            ints(&self.supplycost)?,
            ints(&self.tax)?,
            dates(&self.commitdate)?,
            strs(&self.shipmode, &self.ship_modes)?,
        ])
    }
}

/// `decode(col[r])` for each selected row `r`, in order; a row past the
/// column or a code outside its table is a typed error.
fn gather_col<T: Copy, U>(
    col: &[T],
    rows: &[u32],
    decode: impl Fn(T) -> Option<U>,
) -> Result<Vec<U>> {
    let mut out = Vec::with_capacity(rows.len());
    for &r in rows {
        let v = col
            .get(r as usize)
            .copied()
            .and_then(&decode)
            .ok_or_else(|| {
                ClydeError::Config(format!(
                    "lineorder row {r} out of range or holds an unknown code"
                ))
            })?;
        out.push(v);
    }
    Ok(out)
}

/// `table[i]` for a generator draw `i`; a draw outside the table is a typed
/// error.
fn pick<T: Copy>(table: &[T], i: usize) -> Result<T> {
    table.get(i).copied().ok_or_else(|| {
        ClydeError::Config(format!(
            "generator draw {i} outside a table of {}",
            table.len()
        ))
    })
}

fn random_address(rng: &mut StdRng) -> String {
    let len = rng.gen_range(10..25);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

fn random_phone(rng: &mut StdRng, region: usize) -> String {
    format!(
        "{}{}-{:03}-{:03}-{:04}",
        region + 1,
        rng.gen_range(0..10),
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::FxHashSet;

    #[test]
    fn calendar_basics() {
        assert!(calendar::is_leap(1992));
        assert!(calendar::is_leap(1996));
        assert!(!calendar::is_leap(1994));
        assert_eq!(calendar::from_day_index(0), (1992, 1, 1, 1));
        assert_eq!(calendar::from_day_index(31), (1992, 2, 1, 32));
        assert_eq!(calendar::from_day_index(365), (1992, 12, 31, 366));
        assert_eq!(calendar::from_day_index(366), (1993, 1, 1, 1));
        assert_eq!(
            calendar::from_day_index(NUM_DATES as u32 - 1),
            (1998, 12, 31, 365)
        );
        assert_eq!(calendar::datekey(0), 19920101);
        assert_eq!(calendar::datekey(NUM_DATES as u32 - 1), 19981231);
    }

    #[test]
    fn cardinalities_follow_ssb_scaling() {
        let g1 = SsbGen::new(1.0, 7);
        assert_eq!(g1.num_customers(), 30_000);
        assert_eq!(g1.num_suppliers(), 2_000);
        assert_eq!(g1.num_parts(), 200_000);
        assert_eq!(g1.num_lineorders(), 6_000_000);
        assert_eq!(g1.num_dates(), 2557);

        let g1000 = SsbGen::new(1000.0, 7);
        assert_eq!(g1000.num_customers(), 30_000_000);
        assert_eq!(g1000.num_parts(), 200_000 * 10); // 1 + floor(log2 1000) = 10
        assert_eq!(g1000.num_dates(), 2557); // date never scales

        let tiny = SsbGen::new(0.001, 7);
        assert_eq!(tiny.num_lineorders(), 6_000);
        assert_eq!(tiny.num_customers(), 30);
        assert_eq!(tiny.cardinality(schema::PART), 200);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SsbGen::new(0.002, 42).gen_all().unwrap();
        let b = SsbGen::new(0.002, 42).gen_all().unwrap();
        assert_eq!(a.customer, b.customer);
        assert_eq!(a.lineorder, b.lineorder);
        // A different seed produces different data.
        let c = SsbGen::new(0.002, 43).gen_all().unwrap();
        assert_ne!(a.lineorder, c.lineorder);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let g = SsbGen::new(0.002, 11);
        let data = g.gen_all().unwrap();
        let datekeys: FxHashSet<i64> = data
            .date
            .iter()
            .map(|r| r.at(0).as_i64().unwrap())
            .collect();
        let nc = data.customer.len() as i64;
        let ns = data.supplier.len() as i64;
        let np = data.part.len() as i64;
        assert_eq!(data.lineorder.len(), g.num_lineorders());
        for lo in &data.lineorder {
            let ck = lo.at(2).as_i64().unwrap();
            let pk = lo.at(3).as_i64().unwrap();
            let sk = lo.at(4).as_i64().unwrap();
            let od = lo.at(5).as_i64().unwrap();
            assert!(ck >= 1 && ck <= nc);
            assert!(pk >= 1 && pk <= np);
            assert!(sk >= 1 && sk <= ns);
            assert!(datekeys.contains(&od), "orderdate {od} not in calendar");
            assert!(datekeys.contains(&lo.at(15).as_i64().unwrap()));
        }
    }

    #[test]
    fn measures_respect_domains() {
        let data = SsbGen::new(0.001, 3).gen_all().unwrap();
        for lo in &data.lineorder {
            let quantity = lo.at(8).as_i32().unwrap();
            let ext = lo.at(9).as_i32().unwrap();
            let discount = lo.at(11).as_i32().unwrap();
            let revenue = lo.at(12).as_i32().unwrap();
            assert!((1..=50).contains(&quantity));
            assert!((0..=10).contains(&discount));
            assert_eq!(revenue, ext * (100 - discount) / 100);
            assert!(lo.at(13).as_i32().unwrap() > 0); // supplycost
        }
    }

    #[test]
    fn orders_group_lines() {
        let data = SsbGen::new(0.001, 3).gen_all().unwrap();
        // Line numbers restart at 1 for each order and increment.
        let mut prev_order = 0i32;
        let mut prev_line = 0i32;
        for lo in &data.lineorder {
            let ok = lo.at(0).as_i32().unwrap();
            let ln = lo.at(1).as_i32().unwrap();
            if ok != prev_order {
                assert_eq!(ln, 1, "order {ok} does not start at line 1");
                prev_order = ok;
            } else {
                assert_eq!(ln, prev_line + 1);
            }
            prev_line = ln;
        }
    }

    #[test]
    fn rows_match_schemas() {
        let data = SsbGen::new(0.001, 5).gen_all().unwrap();
        for r in data.customer.iter().take(20) {
            schema::customer_schema().check_row(r).unwrap();
        }
        for r in data.part.iter().take(20) {
            schema::part_schema().check_row(r).unwrap();
        }
        for r in data.date.iter().take(20) {
            schema::date_schema().check_row(r).unwrap();
        }
        for r in data.supplier.iter().take(20) {
            schema::supplier_schema().check_row(r).unwrap();
        }
        for r in data.lineorder.iter().take(20) {
            schema::lineorder_schema().check_row(r).unwrap();
        }
    }

    #[test]
    fn streaming_matches_collected() {
        let g = SsbGen::new(0.001, 9);
        let collected = g.gen_all().unwrap().lineorder;
        let mut streamed = Vec::new();
        g.for_each_lineorder(|r| {
            streamed.push(r.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(collected, streamed);
    }

    #[test]
    fn date_order_is_the_stable_sort_by_order_date() {
        let g = SsbGen::new(0.002, 11);
        let fact = g.gen_lineorder();
        let mut expected = g.gen_all().unwrap().lineorder;
        let n = expected.len() as u32;
        assert_eq!(fact.order(false).unwrap(), (0..n).collect::<Vec<_>>());
        // Many rows share a day, so equal keys must keep generation order.
        expected.sort_by_key(|r| r.at(5).as_i64());
        let block = fact.gather(&fact.order(true).unwrap()).unwrap();
        let sorted: Vec<Row> = block.rows().collect();
        assert_eq!(sorted, expected);
        assert!(fact.gather(&[0, n]).is_err());
    }

    #[test]
    fn predicate_selectivities_are_plausible() {
        // The SSB queries rely on these domains: check rough selectivity of
        // Q1.1's fact predicates (discount 1..3 ≈ 3/11, quantity < 25 ≈ 24/50).
        let data = SsbGen::new(0.01, 1).gen_all().unwrap();
        let n = data.lineorder.len() as f64;
        let selected = data
            .lineorder
            .iter()
            .filter(|lo| {
                let d = lo.at(11).as_i32().unwrap();
                let q = lo.at(8).as_i32().unwrap();
                (1..=3).contains(&d) && q < 25
            })
            .count() as f64;
        let expected = (3.0 / 11.0) * (24.0 / 50.0);
        assert!((selected / n - expected).abs() < 0.05);
    }
}
