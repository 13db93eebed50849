//! `clyde-profdiff`: attribute the delta between two performance artifacts
//! to named phases and counters.
//!
//! Three artifact kinds are auto-detected:
//!
//! * **Query-profile bundles** (`{"format":"clyde-profiles",...}`, written by
//!   the `profile` binary / [`crate::harness::profile_suite`]) — per-query
//!   simulated makespans with per-stage and per-phase decomposition. The
//!   diff attributes each query's makespan delta to stages, and splits a
//!   map/reduce stage delta across its per-phase critical-path deltas when
//!   those are well-conditioned, so a regression reads "Q2.1 −12%: probe
//!   +9%, shuffle merge +3%" instead of a bare number.
//! * **Chrome traces** (`{"traceEvents":[...]}`) — stage spans and the
//!   final-sort span per job process give stage-level attribution.
//! * **`bench_probe` artifacts** (`BENCH_probe.json` and friends) — scalar
//!   and vectorized probe throughput; deltas are reported per query.
//!
//! Everything sums: for profile and trace pairs the named components add up
//! to the full makespan delta (coverage 1.0) unless the job structure
//! itself changed, in which case the residual is reported as its own
//! component.

use clyde_common::obs::json::{self, Json};

/// Ignore components below this share of the before-makespan when rendering
/// headlines (they still count toward coverage).
const HEADLINE_MIN_PCT: f64 = 0.05;

/// A stage's sub-phase decomposition is trusted when the summed phase deltas
/// agree with the stage delta in sign and explain at least half of it.
const PHASE_CONDITION_MIN: f64 = 0.5;

/// One query (or job process) extracted from an artifact, reduced to
/// additive components.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub name: String,
    pub total_s: f64,
    /// Additive stage components `(name, seconds)`; they sum to `total_s`.
    pub stages: Vec<(String, f64)>,
    /// Per-stage phase critical-path seconds (profiles only), used to
    /// sub-attribute a stage's delta.
    pub stage_phases: Vec<(String, Vec<(String, f64)>)>,
}

impl QueryRecord {
    fn stage(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn phases_of(&self, stage: &str) -> Option<&[(String, f64)]> {
        self.stage_phases
            .iter()
            .find(|(n, _)| n == stage)
            .map(|(_, p)| p.as_slice())
    }
}

/// Per-query throughput numbers from a `bench_probe` artifact.
#[derive(Debug, Clone)]
pub struct ProbeRecord {
    pub name: String,
    pub scalar_rows_per_s: f64,
    pub vectorized_rows_per_s: f64,
    pub speedup: f64,
}

/// A parsed artifact.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Makespan-bearing artifacts: query-profile bundles and Chrome traces.
    Makespans {
        kind: &'static str,
        queries: Vec<QueryRecord>,
    },
    /// `bench_probe` throughput artifacts.
    Probe(Vec<ProbeRecord>),
}

impl Artifact {
    pub fn kind(&self) -> &'static str {
        match self {
            Artifact::Makespans { kind, .. } => kind,
            Artifact::Probe(_) => "bench-probe",
        }
    }
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(|v| v.as_num()).unwrap_or(0.0)
}

fn obj_entries(j: &Json) -> Vec<(String, &Json)> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, v)| (k.clone(), v)).collect(),
        _ => Vec::new(),
    }
}

/// Detect and parse an artifact.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let doc = json::parse(text)?;
    if doc.get("format").and_then(|f| f.as_str()) == Some("clyde-profiles") {
        return parse_profiles(&doc);
    }
    if doc.get("traceEvents").is_some() {
        return parse_trace(&doc);
    }
    if let Some(queries) = doc.get("queries") {
        let probe_like = obj_entries(queries)
            .first()
            .is_some_and(|(_, q)| q.get("scalar_rows_per_s").is_some());
        if probe_like {
            return parse_probe(queries);
        }
    }
    Err(
        "unrecognized artifact: expected a clyde-profiles bundle, a Chrome trace, \
         or a bench_probe JSON"
            .to_string(),
    )
}

fn parse_profiles(doc: &Json) -> Result<Artifact, String> {
    let queries = doc
        .get("queries")
        .and_then(|q| q.as_arr())
        .ok_or("clyde-profiles bundle has no queries array")?;
    let mut out = Vec::with_capacity(queries.len());
    for q in queries {
        let name = q
            .get("query")
            .and_then(|n| n.as_str())
            .ok_or("profile entry has no query name")?
            .to_string();
        let jobs = q.get("jobs").and_then(|j| j.as_arr()).unwrap_or(&[]);
        let multi = jobs.len() > 1;
        let mut stages = Vec::new();
        let mut stage_phases = Vec::new();
        for (ji, job) in jobs.iter().enumerate() {
            let prefix = if multi {
                format!("job{}/", ji + 1)
            } else {
                String::new()
            };
            if let Some(st) = job.get("stages") {
                for (sname, v) in obj_entries(st) {
                    let key = format!("{prefix}{sname}");
                    let secs = v.as_num().unwrap_or(0.0);
                    stages.push((key.clone(), secs));
                    let detail = match sname.as_str() {
                        "map" => job.get("map_phases"),
                        "reduce" => job.get("reduce_phases"),
                        _ => None,
                    };
                    if let Some(d) = detail {
                        let phases: Vec<(String, f64)> = obj_entries(d)
                            .into_iter()
                            .map(|(p, v)| (p, v.as_num().unwrap_or(0.0)))
                            .collect();
                        if !phases.is_empty() {
                            stage_phases.push((key, phases));
                        }
                    }
                }
            }
        }
        stages.push(("final-sort".to_string(), num(q, "final_sort_s")));
        out.push(QueryRecord {
            name,
            total_s: num(q, "total_s"),
            stages,
            stage_phases,
        });
    }
    Ok(Artifact::Makespans {
        kind: "clyde-profiles",
        queries: out,
    })
}

fn parse_trace(doc: &Json) -> Result<Artifact, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("trace has no traceEvents array")?;
    // pid -> display name, then pid -> stage sums.
    let mut names: Vec<(f64, String)> = Vec::new();
    let mut records: Vec<(f64, QueryRecord)> = Vec::new();
    for e in events {
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("");
        let pid = num(e, "pid");
        if name == "process_name" {
            if let Some(pname) = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
            {
                names.push((pid, pname.to_string()));
            }
            continue;
        }
        let cat = e.get("cat").and_then(|c| c.as_str()).unwrap_or("");
        let is_stage = cat == "stage";
        let is_final_sort = cat == "phase" && name == "final-sort";
        if !is_stage && !is_final_sort {
            continue;
        }
        let secs = num(e, "dur") / 1e6;
        let rec = match records.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, r)) => r,
            None => {
                records.push((
                    pid,
                    QueryRecord {
                        name: String::new(),
                        total_s: 0.0,
                        stages: Vec::new(),
                        stage_phases: Vec::new(),
                    },
                ));
                &mut records.last_mut().expect("just pushed").1
            }
        };
        match rec.stages.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += secs,
            None => rec.stages.push((name.to_string(), secs)),
        }
        rec.total_s += secs;
    }
    let mut out = Vec::with_capacity(records.len());
    for (pid, mut rec) in records {
        rec.name = names
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("pid{pid}"));
        out.push(rec);
    }
    if out.is_empty() {
        return Err("trace contains no stage spans".to_string());
    }
    Ok(Artifact::Makespans {
        kind: "chrome-trace",
        queries: out,
    })
}

fn parse_probe(queries: &Json) -> Result<Artifact, String> {
    let mut out = Vec::new();
    for (name, q) in obj_entries(queries) {
        out.push(ProbeRecord {
            name,
            scalar_rows_per_s: num(q, "scalar_rows_per_s"),
            vectorized_rows_per_s: num(q, "vectorized_rows_per_s"),
            speedup: num(q, "speedup"),
        });
    }
    Ok(Artifact::Probe(out))
}

/// One query's attributed delta.
#[derive(Debug, Clone)]
pub struct QueryDelta {
    pub name: String,
    pub before_s: f64,
    pub after_s: f64,
    /// Named contributions in seconds, sorted by |contribution| descending;
    /// they sum to `after_s - before_s` up to float noise.
    pub components: Vec<(String, f64)>,
}

impl QueryDelta {
    pub fn delta_s(&self) -> f64 {
        self.after_s - self.before_s
    }

    /// Relative makespan change, percent (positive = slower).
    pub fn delta_pct(&self) -> f64 {
        if self.before_s <= 0.0 {
            0.0
        } else {
            self.delta_s() / self.before_s * 100.0
        }
    }

    /// Fraction of the delta explained by named components (1.0 when the
    /// decomposition is exact).
    pub fn coverage(&self) -> f64 {
        let d = self.delta_s();
        if d.abs() < 1e-12 {
            return 1.0;
        }
        let explained: f64 = self.components.iter().map(|(_, v)| v).sum();
        explained / d
    }

    /// "Q2.1 -12.1%: probe -6.5%, shuffle -2.0%"
    pub fn headline(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (name, secs) in &self.components {
            let pct = if self.before_s > 0.0 {
                secs / self.before_s * 100.0
            } else {
                0.0
            };
            if pct.abs() < HEADLINE_MIN_PCT {
                continue;
            }
            parts.push(format!("{name} {pct:+.1}%"));
            if parts.len() == 4 {
                break;
            }
        }
        let tail = if parts.is_empty() {
            "no component above noise".to_string()
        } else {
            parts.join(", ")
        };
        format!("{} {:+.1}%: {}", self.name, self.delta_pct(), tail)
    }
}

/// The full diff of two artifacts.
#[derive(Debug)]
pub struct DiffReport {
    pub kind: &'static str,
    /// Makespan attribution (empty for bench-probe diffs).
    pub queries: Vec<QueryDelta>,
    /// Pre-rendered lines for bench-probe diffs.
    pub probe_lines: Vec<String>,
}

/// Attribute one query pair's makespan delta to stage/phase components.
fn attribute(before: &QueryRecord, after: &QueryRecord) -> QueryDelta {
    let mut stage_names: Vec<String> = before.stages.iter().map(|(n, _)| n.clone()).collect();
    for (n, _) in &after.stages {
        if !stage_names.iter().any(|s| s == n) {
            stage_names.push(n.clone());
        }
    }
    let mut components: Vec<(String, f64)> = Vec::new();
    let mut attributed = 0.0;
    for stage in &stage_names {
        let d = after.stage(stage) - before.stage(stage);
        attributed += d;
        if d.abs() < 1e-12 {
            continue;
        }
        // Sub-attribute via per-phase critical-path deltas when available
        // and well-conditioned: the phase deltas must point the same way as
        // the stage delta and explain at least half of it — otherwise the
        // decomposition would mislead more than a plain stage name.
        let detail = match (before.phases_of(stage), after.phases_of(stage)) {
            (Some(b), Some(a)) => {
                let mut phase_names: Vec<&str> = b.iter().map(|(n, _)| n.as_str()).collect();
                for (n, _) in a {
                    if !phase_names.contains(&n.as_str()) {
                        phase_names.push(n);
                    }
                }
                let of = |set: &[(String, f64)], n: &str| {
                    set.iter().find(|(pn, _)| pn == n).map_or(0.0, |(_, v)| *v)
                };
                let raw: Vec<(String, f64)> = phase_names
                    .iter()
                    .map(|n| (format!("{stage}/{n}"), of(a, n) - of(b, n)))
                    .collect();
                let sum: f64 = raw.iter().map(|(_, v)| v).sum();
                if sum * d > 0.0 && sum.abs() >= PHASE_CONDITION_MIN * d.abs() {
                    let scale = d / sum;
                    Some(
                        raw.into_iter()
                            .filter(|(_, v)| v.abs() > 1e-12)
                            .map(|(n, v)| (n, v * scale))
                            .collect::<Vec<_>>(),
                    )
                } else {
                    None
                }
            }
            _ => None,
        };
        match detail {
            Some(phases) => components.extend(phases),
            None => components.push((stage.clone(), d)),
        }
    }
    // Residual from structural change (job added/removed: totals move more
    // than the paired stages explain).
    let total_delta = after.total_s - before.total_s;
    let residual = total_delta - attributed;
    if residual.abs() > 1e-9 {
        components.push(("job-structure".to_string(), residual));
    }
    components.sort_by(|a, b| {
        b.1.abs()
            .partial_cmp(&a.1.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    QueryDelta {
        name: before.name.clone(),
        before_s: before.total_s,
        after_s: after.total_s,
        components,
    }
}

fn diff_probe(before: &[ProbeRecord], after: &[ProbeRecord]) -> Vec<String> {
    let mut lines = Vec::new();
    for b in before {
        let Some(a) = after.iter().find(|r| r.name == b.name) else {
            lines.push(format!("{}: missing from after-artifact", b.name));
            continue;
        };
        let pct = |x: f64, y: f64| if x > 0.0 { (y - x) / x * 100.0 } else { 0.0 };
        lines.push(format!(
            "{}: vectorized {:.2}M -> {:.2}M rows/s ({:+.1}%), scalar {:+.1}%, \
             speedup {:.2}x -> {:.2}x",
            b.name,
            b.vectorized_rows_per_s / 1e6,
            a.vectorized_rows_per_s / 1e6,
            pct(b.vectorized_rows_per_s, a.vectorized_rows_per_s),
            pct(b.scalar_rows_per_s, a.scalar_rows_per_s),
            b.speedup,
            a.speedup,
        ));
    }
    for a in after {
        if !before.iter().any(|r| r.name == a.name) {
            lines.push(format!("{}: new in after-artifact", a.name));
        }
    }
    lines
}

/// Diff two artifacts of the same kind.
pub fn diff(before: &Artifact, after: &Artifact) -> Result<DiffReport, String> {
    match (before, after) {
        (
            Artifact::Makespans {
                kind: bk,
                queries: bq,
            },
            Artifact::Makespans {
                kind: ak,
                queries: aq,
            },
        ) => {
            if bk != ak {
                return Err(format!("artifact kinds differ: {bk} vs {ak}"));
            }
            let mut out = Vec::new();
            for b in bq {
                match aq.iter().find(|r| r.name == b.name) {
                    Some(a) => out.push(attribute(b, a)),
                    None => out.push(QueryDelta {
                        name: b.name.clone(),
                        before_s: b.total_s,
                        after_s: 0.0,
                        components: vec![("removed".to_string(), -b.total_s)],
                    }),
                }
            }
            for a in aq {
                if !bq.iter().any(|r| r.name == a.name) {
                    out.push(QueryDelta {
                        name: a.name.clone(),
                        before_s: 0.0,
                        after_s: a.total_s,
                        components: vec![("added".to_string(), a.total_s)],
                    });
                }
            }
            Ok(DiffReport {
                kind: bk,
                queries: out,
                probe_lines: Vec::new(),
            })
        }
        (Artifact::Probe(b), Artifact::Probe(a)) => Ok(DiffReport {
            kind: "bench-probe",
            queries: Vec::new(),
            probe_lines: diff_probe(b, a),
        }),
        _ => Err(format!(
            "artifact kinds differ: {} vs {}",
            before.kind(),
            after.kind()
        )),
    }
}

impl DiffReport {
    /// Queries that got slower by more than `threshold_pct` percent.
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&QueryDelta> {
        self.queries
            .iter()
            .filter(|q| q.delta_pct() > threshold_pct)
            .collect()
    }

    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(out, "clyde-profdiff ({})", self.kind).expect("string write");
        if !self.probe_lines.is_empty() {
            for l in &self.probe_lines {
                out.push_str(l);
                out.push('\n');
            }
            return out;
        }
        for q in &self.queries {
            writeln!(out, "{}", q.headline()).expect("string write");
            for (name, secs) in &q.components {
                let pct = if q.before_s > 0.0 {
                    secs / q.before_s * 100.0
                } else {
                    0.0
                };
                if pct.abs() < HEADLINE_MIN_PCT {
                    continue;
                }
                writeln!(out, "    {name:<24} {secs:>+10.2}s  {pct:>+7.2}%").expect("string write");
            }
            writeln!(
                out,
                "    {:<24} {:>+10.2}s  coverage {:.0}%",
                "= total",
                q.delta_s(),
                q.coverage() * 100.0
            )
            .expect("string write");
        }
        let before: f64 = self.queries.iter().map(|q| q.before_s).sum();
        let after: f64 = self.queries.iter().map(|q| q.after_s).sum();
        if before > 0.0 {
            writeln!(
                out,
                "suite makespan {before:.1}s -> {after:.1}s ({:+.1}%)",
                (after - before) / before * 100.0
            )
            .expect("string write");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, stages: &[(&str, f64)], phases: &[(&str, &[(&str, f64)])]) -> QueryRecord {
        QueryRecord {
            name: name.to_string(),
            total_s: stages.iter().map(|(_, v)| v).sum(),
            stages: stages.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            stage_phases: phases
                .iter()
                .map(|(s, ps)| {
                    (
                        s.to_string(),
                        ps.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn attribution_splits_stage_delta_across_phases() {
        let before = rec(
            "Q2.1",
            &[("setup", 10.0), ("map", 100.0), ("final-sort", 1.0)],
            &[("map", &[("scan", 40.0), ("probe", 60.0)])],
        );
        let after = rec(
            "Q2.1",
            &[("setup", 10.0), ("map", 120.0), ("final-sort", 1.0)],
            &[("map", &[("scan", 42.0), ("probe", 76.0)])],
        );
        let d = attribute(&before, &after);
        assert!((d.delta_s() - 20.0).abs() < 1e-9);
        assert!((d.coverage() - 1.0).abs() < 1e-9, "exact: {}", d.coverage());
        // Probe's raw delta is 16 of raw-sum 18, scaled onto the 20s stage
        // delta: probe gets the lion's share and leads the ranking.
        assert_eq!(d.components[0].0, "map/probe");
        assert!((d.components[0].1 - 16.0 * (20.0 / 18.0)).abs() < 1e-9);
        let head = d.headline();
        assert!(head.starts_with("Q2.1 +18.0%:"), "{head}");
        assert!(head.contains("map/probe +16.0%"), "{head}");
    }

    #[test]
    fn ill_conditioned_phases_fall_back_to_stage() {
        // Stage got 20s slower but phase deltas point the other way — the
        // split would lie, so the component stays at stage granularity.
        let before = rec(
            "Q1.1",
            &[("map", 100.0)],
            &[("map", &[("scan", 50.0), ("probe", 50.0)])],
        );
        let after = rec(
            "Q1.1",
            &[("map", 120.0)],
            &[("map", &[("scan", 49.0), ("probe", 48.0)])],
        );
        let d = attribute(&before, &after);
        assert_eq!(d.components[0].0, "map");
        assert!((d.components[0].1 - 20.0).abs() < 1e-9);
        assert!((d.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn structural_residual_is_reported() {
        let before = rec("Qx", &[("map", 50.0)], &[]);
        let mut after = rec("Qx", &[("map", 50.0)], &[]);
        after.total_s += 7.0; // an unpaired extra job
        let d = attribute(&before, &after);
        assert!(d
            .components
            .iter()
            .any(|(n, v)| n == "job-structure" && (*v - 7.0).abs() < 1e-9));
        assert!((d.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probe_artifacts_diff_per_query() {
        let mk = |vec_rps: f64| {
            Artifact::Probe(vec![ProbeRecord {
                name: "Q2.1".into(),
                scalar_rows_per_s: 10e6,
                vectorized_rows_per_s: vec_rps,
                speedup: vec_rps / 10e6,
            }])
        };
        let text = diff(&mk(50e6), &mk(40e6)).unwrap().render();
        assert!(text.contains("Q2.1: vectorized 50.00M -> 40.00M rows/s (-20.0%)"));
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let p = Artifact::Probe(Vec::new());
        let m = Artifact::Makespans {
            kind: "clyde-profiles",
            queries: Vec::new(),
        };
        assert!(diff(&p, &m).is_err());
    }
}
