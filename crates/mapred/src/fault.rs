//! Seeded, deterministic fault plans for the simulated cluster.
//!
//! A [`FaultPlan`] is a pure function of its seed: every decision — which
//! task attempts fail, how slow a node runs, when a datanode dies, which
//! block replicas are corrupted — is derived by hashing the seed with a
//! stream id and an index through a splitmix64 finalizer. Two runs with the
//! same seed inject byte-identical faults, which is what lets the CI
//! fault-matrix assert that recovery is *transparent*: the query output under
//! any survivable plan must equal the fault-free output bit for bit.
//!
//! Plans are attempt-scoped on the task axis (an injected task failure burns
//! one attempt, never the whole budget) and wall-clock-free on the time axis
//! (datanode deaths trigger at a *simulated* time, compared against the cost
//! model's task durations), so fault runs stay as deterministic as clean runs.

use crate::job::MAX_TASK_ATTEMPTS;

/// The named plans exercised by the CI fault-matrix, in matrix order.
pub const NAMES: [&str; 6] = [
    "none",
    "task-fail",
    "slow-node",
    "datanode-death",
    "corruption",
    "combined",
];

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Streams keep the per-task, per-count decisions statistically independent.
const STREAM_TASK_FAIL: u64 = 1;
const STREAM_FAIL_COUNT: u64 = 2;

/// A scheduled datanode death: `node` (wrapped modulo the cluster size)
/// drops off the cluster once simulated time passes `at_sim_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatanodeDeath {
    /// Victim node index; wrapped modulo the number of workers at use time.
    pub node: usize,
    /// Simulated job time (seconds) after which the node is considered dead.
    pub at_sim_s: f64,
}

/// A deterministic description of everything that goes wrong during one job.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every injected fault is a pure function of it.
    pub seed: u64,
    /// Probability that a map task draws a run of injected attempt failures.
    pub task_fail_rate: f64,
    /// `(node, factor)` pairs: the node's simulated task durations are
    /// multiplied by `factor` (straggler injection).
    pub slow_nodes: Vec<(usize, f64)>,
    /// Datanodes that die mid-job at a simulated time.
    pub datanode_deaths: Vec<DatanodeDeath>,
    /// Number of block replicas to flip a byte in before the job starts.
    pub corrupt_replicas: u32,
    /// Launch a backup attempt for any task slower than `factor × median`
    /// task duration. `f64::INFINITY` disables speculative execution.
    pub speculative_slowdown: f64,
}

impl FaultPlan {
    /// A plan that injects nothing but keeps speculation armed at the
    /// default 1.5× slowdown threshold.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            task_fail_rate: 0.0,
            slow_nodes: Vec::new(),
            datanode_deaths: Vec::new(),
            corrupt_replicas: 0,
            speculative_slowdown: 1.5,
        }
    }

    /// The named CI-matrix plans (see [`NAMES`]); `None` for unknown names.
    pub fn named(name: &str, seed: u64) -> Option<FaultPlan> {
        let mut plan = FaultPlan::new(seed);
        match name {
            "none" => {}
            "task-fail" => plan.task_fail_rate = 0.5,
            "slow-node" => plan.slow_nodes = vec![(1, 3.0)],
            "datanode-death" => {
                plan.datanode_deaths = vec![DatanodeDeath {
                    node: 2,
                    at_sim_s: 1.0,
                }]
            }
            // High enough to cover every eligible block of a small test
            // cluster: whatever file the job scans, its preferred replica is
            // rotten and the checksum-fallback path must fire.
            "corruption" => plan.corrupt_replicas = 64,
            "combined" => {
                plan.task_fail_rate = 0.3;
                plan.slow_nodes = vec![(1, 2.5)];
                plan.datanode_deaths = vec![DatanodeDeath {
                    node: 2,
                    at_sim_s: 1.0,
                }];
                plan.corrupt_replicas = 64;
            }
            _ => return None,
        }
        Some(plan)
    }

    /// Keyed hash: independent 64-bit draw per (stream, index).
    fn hash(&self, stream: u64, idx: u64) -> u64 {
        mix(self.seed ^ mix(stream ^ mix(idx)))
    }

    /// How many leading attempts of `task` fail. Always
    /// `< MAX_TASK_ATTEMPTS`, so an injected failure run is recoverable by
    /// construction — the plan models flaky attempts, not impossible tasks.
    pub fn planned_failures(&self, task: usize) -> u32 {
        if self.task_fail_rate <= 0.0 {
            return 0;
        }
        let h = self.hash(STREAM_TASK_FAIL, task as u64);
        // 53 high bits → uniform in [0, 1).
        let fraction = (h >> 11) as f64 / (1u64 << 53) as f64;
        if fraction >= self.task_fail_rate {
            return 0;
        }
        let h2 = self.hash(STREAM_FAIL_COUNT, task as u64);
        1 + (h2 % u64::from(MAX_TASK_ATTEMPTS - 1)) as u32
    }

    /// Whether attempt `attempt` (0-based) of `task` is injected to fail.
    pub fn fails_attempt(&self, task: usize, attempt: u32) -> bool {
        attempt < self.planned_failures(task)
    }

    /// Straggler multiplier for `node` in a cluster of `workers` nodes
    /// (1.0 when the node is not slowed; max factor on collisions).
    pub fn slow_factor(&self, node: usize, workers: usize) -> f64 {
        if workers == 0 {
            return 1.0;
        }
        self.slow_nodes
            .iter()
            .filter(|(n, _)| n % workers == node % workers)
            .map(|&(_, f)| f)
            .fold(1.0, f64::max)
    }

    /// Simulated time at which `node` dies, if the plan kills it.
    pub fn death_time(&self, node: usize, workers: usize) -> Option<f64> {
        if workers == 0 {
            return None;
        }
        self.datanode_deaths
            .iter()
            .filter(|d| d.node % workers == node % workers)
            .map(|d| d.at_sim_s)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_plan_exists_and_unknown_names_do_not() {
        for name in NAMES {
            assert!(FaultPlan::named(name, 46).is_some(), "missing plan {name}");
        }
        assert!(FaultPlan::named("chaos-monkey", 46).is_none());
    }

    #[test]
    fn planned_failures_are_deterministic_and_recoverable() {
        let plan = FaultPlan::named("task-fail", 46).unwrap();
        let again = FaultPlan::named("task-fail", 46).unwrap();
        let mut any_failed = false;
        for task in 0..64 {
            let n = plan.planned_failures(task);
            assert_eq!(n, again.planned_failures(task));
            assert!(
                n < MAX_TASK_ATTEMPTS,
                "failure run must leave one surviving attempt"
            );
            any_failed |= n > 0;
        }
        assert!(
            any_failed,
            "rate 0.5 over 64 tasks should hit at least once"
        );
    }

    #[test]
    fn different_seeds_draw_different_failures() {
        let a = FaultPlan::named("task-fail", 1).unwrap();
        let b = FaultPlan::named("task-fail", 2).unwrap();
        let pattern =
            |p: &FaultPlan| -> Vec<u32> { (0..64).map(|t| p.planned_failures(t)).collect() };
        assert_ne!(pattern(&a), pattern(&b));
    }

    #[test]
    fn fails_attempt_is_a_prefix_of_the_attempt_sequence() {
        let plan = FaultPlan::named("task-fail", 46).unwrap();
        for task in 0..32 {
            let n = plan.planned_failures(task);
            for attempt in 0..MAX_TASK_ATTEMPTS {
                assert_eq!(plan.fails_attempt(task, attempt), attempt < n);
            }
        }
    }

    #[test]
    fn slow_factor_wraps_node_indices() {
        let plan = FaultPlan::named("slow-node", 46).unwrap();
        assert_eq!(plan.slow_factor(1, 4), 3.0);
        assert_eq!(plan.slow_factor(0, 4), 1.0);
        // Node 1 wraps onto node 0 in a 1-node cluster.
        assert_eq!(plan.slow_factor(0, 1), 3.0);
        assert_eq!(plan.slow_factor(7, 0), 1.0);
    }

    #[test]
    fn death_time_picks_the_earliest_matching_death() {
        let mut plan = FaultPlan::new(46);
        plan.datanode_deaths = vec![
            DatanodeDeath {
                node: 2,
                at_sim_s: 5.0,
            },
            DatanodeDeath {
                node: 6,
                at_sim_s: 2.0,
            },
        ];
        assert_eq!(plan.death_time(2, 4), Some(2.0));
        assert_eq!(plan.death_time(1, 4), None);
    }
}
