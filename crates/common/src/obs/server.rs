//! Job-server run reports: per-tenant swimlanes over the shared simulated
//! cluster timeline, plus the admission-control roll-up.
//!
//! A [`ServerRun`] is the server-level analog of a [`JobHistory`]: one record
//! per `drain`, listing where every admitted job sat on the shared timeline
//! (arrival → first slot → finish) and every rejected submission with its
//! reason. Everything is simulated time, so renders and JSON exports are
//! byte-stable across reruns and host thread counts.
//!
//! [`JobHistory`]: super::history::JobHistory

use super::json::escape;

/// One served job's position on the server timeline.
#[derive(Debug, Clone)]
pub struct ServedLane {
    pub tenant: String,
    pub job: String,
    /// Submission time (seconds on the server clock).
    pub arrival_s: f64,
    /// When the scheduler granted the job its first slot.
    pub start_s: f64,
    /// When the job's last stage (including overhead) completed.
    pub finish_s: f64,
}

impl ServedLane {
    /// Queue wait: submission to first granted slot.
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrival_s
    }

    /// End-to-end job latency as the tenant saw it.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

/// A submission admission control turned away, with its reason.
#[derive(Debug, Clone)]
pub struct RejectedLane {
    pub tenant: String,
    pub job: String,
    pub arrival_s: f64,
    pub reason: String,
}

/// The full record of one job-server drain.
#[derive(Debug, Clone)]
pub struct ServerRun {
    /// Scheduling policy label ("fifo" | "fair" | "capacity").
    pub policy: String,
    pub queue_capacity: usize,
    pub lanes: Vec<ServedLane>,
    pub rejected: Vec<RejectedLane>,
}

impl ServerRun {
    /// Last finish over all served jobs (0 when nothing ran).
    pub fn makespan_s(&self) -> f64 {
        self.lanes.iter().map(|l| l.finish_s).fold(0.0, f64::max)
    }

    /// Sorted unique tenant names over served and rejected submissions.
    pub fn tenants(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .lanes
            .iter()
            .map(|l| l.tenant.as_str())
            .chain(self.rejected.iter().map(|r| r.tenant.as_str()))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Served lanes of one tenant, in schedule order.
    pub fn tenant_lanes(&self, tenant: &str) -> Vec<&ServedLane> {
        self.lanes.iter().filter(|l| l.tenant == tenant).collect()
    }

    /// ASCII swimlane report: one row per job, grouped by tenant, with a bar
    /// over the run's makespan (`.` queued, `#` running).
    pub fn render(&self) -> String {
        const BAR: usize = 48;
        let span = self.makespan_s().max(1e-9);
        let col = |t: f64| ((t / span) * BAR as f64).round().min(BAR as f64) as usize;
        let mut out = format!(
            "server run: policy {}, queue capacity {}, {} served / {} rejected, makespan {:.1}s\n",
            self.policy,
            self.queue_capacity,
            self.lanes.len(),
            self.rejected.len(),
            self.makespan_s()
        );
        for tenant in self.tenants() {
            out.push_str(&format!("  tenant {tenant}:\n"));
            for l in self.tenant_lanes(tenant) {
                let (a, s, f) = (col(l.arrival_s), col(l.start_s), col(l.finish_s));
                let bar: String = (0..BAR)
                    .map(|c| {
                        if (a..s).contains(&c) {
                            '.'
                        } else if (s..f).contains(&c) {
                            '#'
                        } else {
                            ' '
                        }
                    })
                    .collect();
                out.push_str(&format!(
                    "    {:<14} arr {:>7.1}s wait {:>7.1}s latency {:>7.1}s |{}|\n",
                    l.job,
                    l.arrival_s,
                    l.wait_s(),
                    l.latency_s(),
                    bar
                ));
            }
            for r in self.rejected.iter().filter(|r| r.tenant == tenant) {
                out.push_str(&format!(
                    "    {:<14} arr {:>7.1}s REJECTED: {}\n",
                    r.job, r.arrival_s, r.reason
                ));
            }
        }
        out
    }

    /// Hand-rolled JSON export (same dialect as the other obs artifacts).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"policy\":\"{}\",\"queue_capacity\":{},\"makespan_s\":{:.6},\"jobs\":[",
            escape(&self.policy),
            self.queue_capacity,
            self.makespan_s()
        );
        for (i, l) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"job\":\"{}\",\"arrival_s\":{:.6},\"start_s\":{:.6},\"finish_s\":{:.6},\"wait_s\":{:.6},\"latency_s\":{:.6}}}",
                escape(&l.tenant),
                escape(&l.job),
                l.arrival_s,
                l.start_s,
                l.finish_s,
                l.wait_s(),
                l.latency_s()
            ));
        }
        out.push_str("],\"rejected\":[");
        for (i, r) in self.rejected.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"job\":\"{}\",\"arrival_s\":{:.6},\"reason\":\"{}\"}}",
                escape(&r.tenant),
                escape(&r.job),
                r.arrival_s,
                escape(&r.reason)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;

    fn run() -> ServerRun {
        ServerRun {
            policy: "fair".into(),
            queue_capacity: 4,
            lanes: vec![
                ServedLane {
                    tenant: "etl".into(),
                    job: "Q2.1".into(),
                    arrival_s: 0.0,
                    start_s: 1.0,
                    finish_s: 41.0,
                },
                ServedLane {
                    tenant: "adhoc".into(),
                    job: "Q1.1".into(),
                    arrival_s: 5.0,
                    start_s: 20.0,
                    finish_s: 50.0,
                },
            ],
            rejected: vec![RejectedLane {
                tenant: "etl".into(),
                job: "Q3.1".into(),
                arrival_s: 2.0,
                reason: "queue full (capacity 4)".into(),
            }],
        }
    }

    #[test]
    fn swimlane_math_and_render() {
        let r = run();
        assert_eq!(r.makespan_s(), 50.0);
        assert_eq!(r.tenants(), vec!["adhoc", "etl"]);
        assert_eq!(r.tenant_lanes("etl").len(), 1);
        assert!((r.lanes[1].wait_s() - 15.0).abs() < 1e-12);
        assert!((r.lanes[1].latency_s() - 45.0).abs() < 1e-12);
        let text = r.render();
        assert!(text.contains("tenant adhoc"));
        assert!(text.contains("REJECTED: queue full (capacity 4)"));
        assert!(text.contains('#'));
        assert_eq!(text, r.render(), "render is deterministic");
    }

    #[test]
    fn json_roundtrips_through_the_obs_parser() {
        let doc = json::parse(&run().to_json()).expect("valid JSON");
        assert_eq!(doc.get("policy").unwrap().as_str().unwrap(), "fair");
        let jobs = doc.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].get("wait_s").unwrap().as_num().unwrap(), 15.0);
        let rej = doc.get("rejected").unwrap().as_arr().unwrap();
        assert_eq!(rej.len(), 1);
    }
}
