//! Plain-text table rendering for the figure binaries.

/// Render an aligned text table: header row + data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            // Right-align numbers (cells that parse as a float), left-align text.
            if c.parse::<f64>().is_ok() || c.ends_with('x') || c.ends_with('s') {
                line.push_str(&format!("{c:>width$}", width = widths[i]));
            } else {
                line.push_str(&format!("{c:<width$}", width = widths[i]));
            }
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// `"123.4s"` / `"17.4x"` style numbers.
pub fn secs(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}s")
    } else {
        format!("{v:.1}s")
    }
}

pub fn speedup(v: f64) -> String {
    format!("{v:.1}x")
}

/// Render the `--faults <seed>` degradation table shared by fig7/fig8:
/// per-query recovery actions and the simulated seconds they cost.
pub fn render_fault_impact(impacts: &[crate::harness::FaultImpact]) -> String {
    let rows: Vec<Vec<String>> = impacts
        .iter()
        .map(|i| {
            vec![
                i.query_id.clone(),
                secs(i.clean_s),
                secs(i.faulted_s),
                format!("{:+.1}s", i.faulted_s - i.clean_s),
                i.failed_attempts.to_string(),
                format!("{}/{}", i.speculative_wins, i.speculative_attempts),
                i.dead_nodes.to_string(),
                i.rereplicated_blocks.to_string(),
                secs(i.wasted_s),
            ]
        })
        .collect();
    render_table(
        &[
            "query", "clean", "faulted", "overhead", "retries", "spec w/l", "dead", "rerepl",
            "wasted",
        ],
        &rows,
    )
}

/// Render the cost-model calibration report across a suite of query
/// profiles: one row per (query, job, phase) with the model's share of the
/// priced time, the measured wall share, and the relative drift. Phases
/// past the profile's threshold are flagged; a verdict line closes the
/// report. Wall-bearing — for humans, not for byte-compared artifacts.
pub fn render_calibration(profiles: &[clyde_common::obs::QueryProfile]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut flagged: Vec<String> = Vec::new();
    let threshold = clyde_common::obs::DRIFT_THRESHOLD_PCT;
    for p in profiles {
        for j in &p.jobs {
            for ph in &j.phases {
                let (wall_share, drift, flag) = match ph.drift_pct {
                    Some(d) => (
                        format!("{:.1}%", ph.wall_share * 100.0),
                        format!("{d:+.1}%"),
                        if ph.flagged { "DRIFT" } else { "" },
                    ),
                    None => ("-".to_string(), "-".to_string(), ""),
                };
                if ph.flagged {
                    flagged.push(format!(
                        "{} {} {:+.1}%",
                        p.query,
                        ph.phase.label(),
                        ph.drift_pct.unwrap_or(0.0)
                    ));
                }
                rows.push(vec![
                    p.query.clone(),
                    ph.phase.label().to_string(),
                    format!("{:.2}s", ph.model_s),
                    if ph.drift_pct.is_some() {
                        format!("{:.1}%", ph.model_share * 100.0)
                    } else {
                        "-".to_string()
                    },
                    wall_share,
                    drift,
                    flag.to_string(),
                ]);
            }
        }
    }
    let mut out = render_table(
        &[
            "query", "phase", "model", "model%", "wall%", "drift", "verdict",
        ],
        &rows,
    );
    if flagged.is_empty() {
        out.push_str(&format!(
            "calibration: all phases within {threshold:.0}% of CostParams pricing across {} queries\n",
            profiles.len()
        ));
    } else {
        out.push_str(&format!(
            "calibration: {} phase(s) drift >{threshold:.0}%: {}\n",
            flagged.len(),
            flagged.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["query", "time"],
            &[
                vec!["Q1.1".into(), "12.5s".into()],
                vec!["Q10.10".into(), "3.0s".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("query"));
        assert!(lines[2].contains("Q1.1"));
        // Numeric column right-aligned: both time cells end at same column.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn number_formats() {
        assert_eq!(secs(15142.3), "15142s");
        assert_eq!(secs(21.46), "21.5s");
        assert_eq!(speedup(38.04), "38.0x");
    }
}
