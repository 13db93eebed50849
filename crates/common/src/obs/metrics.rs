//! Global metrics registry: counters, gauges, and histograms behind one
//! snapshot-able, resettable API.
//!
//! This unifies the accounting that used to be scattered across `TaskCost`,
//! `clyde-dfs`'s `IoSnapshot`, scheduler locality fractions, and shuffle
//! record/byte counts. Names are dotted paths (`mapred.shuffle.bytes`),
//! declared once in [`catalog`](super::catalog); the emitters take its
//! handles. Snapshots are sorted by name, so rendering is deterministic.

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the metrics registry's map: one lock held for a single update or \
                snapshot"
)]

use super::catalog::{Counter, Gauge, Histogram};
use crate::lockorder::Mutex;
use std::collections::BTreeMap;

/// Aggregated observations of a histogram metric.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistogramSummary {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }
}

/// Value of one registered metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSummary),
}

/// Point-in-time copy of the registry, sorted by metric name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(*h),
            _ => None,
        })
    }

    /// Deterministic text rendering, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(c) => out.push_str(&format!("{name} = {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("{name} = {g:.4}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{name} = count {} sum {:.4} min {:.4} mean {:.4} max {:.4}\n",
                    h.count,
                    h.sum,
                    h.min,
                    h.mean(),
                    h.max
                )),
            }
        }
        out
    }
}

/// The registry. `disabled()` constructs a no-op that ignores every update.
pub struct MetricsRegistry {
    inner: Option<Mutex<BTreeMap<String, MetricValue>>>,
}

impl MetricsRegistry {
    pub fn enabled() -> MetricsRegistry {
        MetricsRegistry {
            inner: Some(Mutex::new(BTreeMap::new())),
        }
    }

    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to a counter (created at zero on first use). The series
    /// is a [`catalog`](super::catalog) handle; a bare name does not compile:
    ///
    /// ```compile_fail
    /// let m = clyde_common::obs::MetricsRegistry::enabled();
    /// m.counter_add("mapred.jobs", 1);
    /// ```
    pub fn counter_add(&self, series: Counter, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut map = inner.lock();
        match map.get_mut(series.name()) {
            Some(MetricValue::Counter(c)) => *c += delta,
            _ => {
                map.insert(series.name().to_string(), MetricValue::Counter(delta));
            }
        }
    }

    /// Set a gauge to `value` (last write wins).
    pub fn gauge_set(&self, series: Gauge, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut map = inner.lock();
        map.insert(series.name().to_string(), MetricValue::Gauge(value));
    }

    /// Record one simulated-time observation into a histogram.
    pub fn histogram_record(&self, series: Histogram, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut map = inner.lock();
        match map.get_mut(series.name()) {
            Some(MetricValue::Histogram(h)) => h.record(value),
            _ => {
                let mut h = HistogramSummary::default();
                h.record(value);
                map.insert(series.name().to_string(), MetricValue::Histogram(h));
            }
        }
    }

    /// Copy out every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => {
                let map = inner.lock();
                MetricsSnapshot {
                    entries: map.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                }
            }
        }
    }

    /// Drop every metric; the next update recreates them from zero.
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            inner.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::catalog::{MAPRED_JOBS, MAPRED_MAP_TASK_SIM_S, SCHEDULER_SPLIT_LOCALITY};

    #[test]
    fn snapshot_and_reset_semantics() {
        let m = MetricsRegistry::enabled();
        m.counter_add(MAPRED_JOBS, 1);
        m.counter_add(MAPRED_JOBS, 2);
        m.gauge_set(SCHEDULER_SPLIT_LOCALITY, 0.5);
        m.gauge_set(SCHEDULER_SPLIT_LOCALITY, 0.75);
        m.histogram_record(MAPRED_MAP_TASK_SIM_S, 2.0);
        m.histogram_record(MAPRED_MAP_TASK_SIM_S, 4.0);

        let snap = m.snapshot();
        assert_eq!(snap.counter("mapred.jobs"), Some(3));
        assert_eq!(snap.gauge("scheduler.split_locality"), Some(0.75));
        let h = snap.histogram("mapred.map_task_sim_s").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 4.0);
        assert_eq!(h.mean(), 3.0);

        // Snapshot is a copy: later updates don't mutate it.
        m.counter_add(MAPRED_JOBS, 10);
        assert_eq!(snap.counter("mapred.jobs"), Some(3));

        // Names come out sorted regardless of insertion order.
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "mapred.jobs",
                "mapred.map_task_sim_s",
                "scheduler.split_locality"
            ]
        );

        m.reset();
        let empty = m.snapshot();
        assert!(empty.entries.is_empty());
        assert_eq!(empty.counter("mapred.jobs"), None);
        m.counter_add(MAPRED_JOBS, 5);
        assert_eq!(m.snapshot().counter("mapred.jobs"), Some(5));
    }

    #[test]
    fn disabled_registry_ignores_updates() {
        let m = MetricsRegistry::disabled();
        assert!(!m.is_enabled());
        m.counter_add(MAPRED_JOBS, 1);
        m.gauge_set(SCHEDULER_SPLIT_LOCALITY, 1.0);
        m.histogram_record(MAPRED_MAP_TASK_SIM_S, 1.0);
        assert!(m.snapshot().entries.is_empty());
    }

    #[test]
    fn render_is_deterministic() {
        let m = MetricsRegistry::enabled();
        m.counter_add(MAPRED_JOBS, 7);
        m.gauge_set(SCHEDULER_SPLIT_LOCALITY, 0.25);
        m.histogram_record(MAPRED_MAP_TASK_SIM_S, 1.5);
        let a = m.snapshot().render();
        let b = m.snapshot().render();
        assert_eq!(a, b);
        assert!(a.contains("mapred.jobs = 7\n"));
        assert!(a.contains("scheduler.split_locality = 0.2500\n"));
    }
}
