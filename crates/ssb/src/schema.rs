//! SSB table schemas and shared domains (paper Figure 1).

use clyde_common::{Field, Schema};

/// Table names as used in DFS paths and query descriptors.
pub const LINEORDER: &str = "lineorder";
pub const CUSTOMER: &str = "customer";
pub const SUPPLIER: &str = "supplier";
pub const PART: &str = "part";
pub const DATE: &str = "date";

/// The five TPC-H regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations with their region index into [`REGIONS`].
pub const NATIONS: [(&str, usize); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// SSB city: the nation name truncated/padded to 9 characters plus a digit
/// (`"UNITED KI1"`, `"CHINA    4"`). Queries 3.3/3.4 match on these.
pub fn city_name(nation: &str, digit: u32) -> String {
    format!("{:<9.9}{}", nation, digit % 10)
}

/// Month names used for `d_month` and the `d_yearmonth` abbreviation.
pub const MONTHS: [(&str, &str); 12] = [
    ("January", "Jan"),
    ("February", "Feb"),
    ("March", "Mar"),
    ("April", "Apr"),
    ("May", "May"),
    ("June", "Jun"),
    ("July", "Jul"),
    ("August", "Aug"),
    ("September", "Sep"),
    ("October", "Oct"),
    ("November", "Nov"),
    ("December", "Dec"),
];

pub const DAYS_OF_WEEK: [&str; 7] = [
    "Wednesday", // 1992-01-01 was a Wednesday
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
    "Monday",
    "Tuesday",
];

pub const SEASONS: [&str; 5] = ["Winter", "Spring", "Summer", "Fall", "Christmas"];

pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"];

pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

pub const MFGRS: u32 = 5; // MFGR#1 .. MFGR#5
pub const CATEGORIES_PER_MFGR: u32 = 5; // MFGR#11 .. MFGR#55
pub const BRANDS_PER_CATEGORY: u32 = 40; // MFGR#1101 style suffix 1..40

/// The `lineorder` fact table: 17 columns, as in SSB.
pub fn lineorder_schema() -> Schema {
    Schema::new(vec![
        Field::i32("lo_orderkey"),
        Field::i32("lo_linenumber"),
        Field::i32("lo_custkey"),
        Field::i32("lo_partkey"),
        Field::i32("lo_suppkey"),
        Field::i32("lo_orderdate"),
        Field::str("lo_orderpriority"),
        Field::i32("lo_shippriority"),
        Field::i32("lo_quantity"),
        Field::i32("lo_extendedprice"),
        Field::i32("lo_ordtotalprice"),
        Field::i32("lo_discount"),
        Field::i32("lo_revenue"),
        Field::i32("lo_supplycost"),
        Field::i32("lo_tax"),
        Field::i32("lo_commitdate"),
        Field::str("lo_shipmode"),
    ])
}

pub fn customer_schema() -> Schema {
    Schema::new(vec![
        Field::i32("c_custkey"),
        Field::str("c_name"),
        Field::str("c_address"),
        Field::str("c_city"),
        Field::str("c_nation"),
        Field::str("c_region"),
        Field::str("c_phone"),
        Field::str("c_mktsegment"),
    ])
}

pub fn supplier_schema() -> Schema {
    Schema::new(vec![
        Field::i32("s_suppkey"),
        Field::str("s_name"),
        Field::str("s_address"),
        Field::str("s_city"),
        Field::str("s_nation"),
        Field::str("s_region"),
        Field::str("s_phone"),
    ])
}

pub fn part_schema() -> Schema {
    Schema::new(vec![
        Field::i32("p_partkey"),
        Field::str("p_name"),
        Field::str("p_mfgr"),
        Field::str("p_category"),
        Field::str("p_brand1"),
        Field::str("p_color"),
        Field::str("p_type"),
        Field::i32("p_size"),
        Field::str("p_container"),
    ])
}

pub fn date_schema() -> Schema {
    Schema::new(vec![
        Field::i32("d_datekey"),
        Field::str("d_date"),
        Field::str("d_dayofweek"),
        Field::str("d_month"),
        Field::i32("d_year"),
        Field::i32("d_yearmonthnum"),
        Field::str("d_yearmonth"),
        Field::i32("d_daynuminweek"),
        Field::i32("d_daynuminyear"),
        Field::i32("d_weeknuminyear"),
        Field::str("d_sellingseason"),
    ])
}

/// Schema of a table by name.
pub fn schema_of(table: &str) -> Option<Schema> {
    match table {
        LINEORDER => Some(lineorder_schema()),
        CUSTOMER => Some(customer_schema()),
        SUPPLIER => Some(supplier_schema()),
        PART => Some(part_schema()),
        DATE => Some(date_schema()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nations_map_to_valid_regions() {
        assert_eq!(NATIONS.len(), 25);
        for (n, r) in NATIONS {
            assert!(r < REGIONS.len(), "{n} has bad region");
        }
        // Each region has exactly 5 nations (TPC-H invariant).
        for region in 0..5 {
            assert_eq!(NATIONS.iter().filter(|(_, r)| *r == region).count(), 5);
        }
    }

    #[test]
    fn city_names_match_query_literals() {
        assert_eq!(city_name("UNITED KINGDOM", 1), "UNITED KI1");
        assert_eq!(city_name("UNITED KINGDOM", 5), "UNITED KI5");
        assert_eq!(city_name("CHINA", 3), "CHINA    3");
        assert_eq!(city_name("UNITED STATES", 0), "UNITED ST0");
        assert_eq!(city_name("PERU", 9).len(), 10);
    }

    #[test]
    fn schemas_have_expected_shapes() {
        assert_eq!(lineorder_schema().len(), 17);
        assert_eq!(customer_schema().len(), 8);
        assert_eq!(supplier_schema().len(), 7);
        assert_eq!(part_schema().len(), 9);
        assert_eq!(date_schema().len(), 11);
        assert!(schema_of("lineorder").is_some());
        assert!(schema_of("nope").is_none());
    }
}
