//! The committed gate artifacts, checked in tier-1.
//!
//! CI's `gates` job runs the three gated bins against `BENCH_probe.json`,
//! `BENCH_workload.json` and `BENCH_restore.json`; tier-1 builds no bin, so
//! without this suite a malformed or incomplete committed file is first
//! noticed there. Each file must parse, hold every leaf its rule table
//! gates, and pass when it is its own fresh run; and each rule must bite:
//! a leaf moved past its bound in the worse direction fails, one moved in
//! the better direction passes, and a leaf dropped from either document is
//! reported missing — by its full path, never satisfied by a same-named
//! leaf of a sibling object.

use clyde_bench::gate::{self, Better, Outcome, Rule};
use clyde_common::obs::json::{self, Json};

const ARTIFACTS: [(&str, &[Rule]); 3] = [
    ("BENCH_probe.json", gate::PROBE),
    ("BENCH_workload.json", gate::WORKLOAD),
    ("BENCH_restore.json", gate::RESTORE),
];

fn committed(file: &str) -> Json {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The members of the object `path` leads to.
fn members<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
    let mut at = doc;
    for key in path {
        let Json::Obj(fields) = at else {
            panic!("{key}: parent is not an object")
        };
        at = &mut fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no member {key}"))
            .1;
    }
    match at {
        Json::Obj(fields) => fields,
        _ => panic!("{path:?} is not an object"),
    }
}

fn with_leaf(doc: &Json, path: &[&str], value: Option<f64>) -> Json {
    let mut doc = doc.clone();
    let (leaf, parent) = path.split_last().expect("non-empty path");
    let fields = members(&mut doc, parent);
    fields.retain(|(k, _)| k != leaf);
    if let Some(v) = value {
        fields.push((leaf.to_string(), Json::Num(v)));
    }
    doc
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    doc.at(path)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("{path:?} is not a number"))
}

fn all_ok(outcomes: &[Outcome]) -> bool {
    outcomes.iter().all(|o| o.ok)
}

#[test]
fn every_committed_artifact_gates_clean_against_itself() {
    for (file, rules) in ARTIFACTS {
        let doc = committed(file);
        let outcomes = gate::check(rules, &doc, &doc);
        assert_eq!(outcomes.len(), rules.len());
        assert!(all_ok(&outcomes), "{file}: {outcomes:#?}");
    }
}

#[test]
fn every_rule_fails_in_the_worse_direction_and_passes_in_the_better_one() {
    for (file, rules) in ARTIFACTS {
        let doc = committed(file);
        for (i, rule) in rules.iter().enumerate() {
            // (a fresh value the rule must reject, one it must accept)
            let (path, worse, better) = match *rule {
                Rule::Committed {
                    path,
                    better,
                    bound,
                } => {
                    let v = num(&doc, path);
                    match better {
                        Better::Higher => (path, v * (1.0 - bound) * 0.999, v * 2.0),
                        Better::Lower => (path, v * (1.0 + bound) * 1.001, v / 2.0),
                    }
                }
                Rule::Floor { path, floor } => (path, floor - 0.01, floor),
                Rule::Below { path, than } => (path, num(&doc, than), num(&doc, than) / 2.0),
            };
            let rejected = gate::check(rules, &doc, &with_leaf(&doc, path, Some(worse)));
            assert!(!rejected[i].ok, "{file} rule {i}: {}", rejected[i].line);
            let accepted = gate::check(rules, &doc, &with_leaf(&doc, path, Some(better)));
            assert!(accepted[i].ok, "{file} rule {i}: {}", accepted[i].line);
        }
    }
}

#[test]
fn a_dropped_leaf_is_reported_missing_by_its_full_path() {
    for (file, rules) in ARTIFACTS {
        let doc = committed(file);
        for (i, rule) in rules.iter().enumerate() {
            let (Rule::Committed { path, .. }
            | Rule::Floor { path, .. }
            | Rule::Below { path, .. }) = *rule;
            let dropped = with_leaf(&doc, path, None);
            let full = path.join(".");
            let fresh_side = &gate::check(rules, &doc, &dropped)[i];
            assert!(!fresh_side.ok, "{file} rule {i}");
            assert_eq!(
                fresh_side.line,
                format!("{full}: missing from the fresh document")
            );
            if let Rule::Committed { .. } = rule {
                let committed_side = &gate::check(rules, &dropped, &doc)[i];
                assert!(!committed_side.ok, "{file} rule {i}");
                assert_eq!(
                    committed_side.line,
                    format!("{full}: missing from the committed document")
                );
            }
        }
    }
}
