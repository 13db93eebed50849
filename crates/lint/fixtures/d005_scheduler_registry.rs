//! D005 fixture: the `scheduler.*` namespace is closed — a literal name
//! must be one of the series `clyde_lint::D005_REGISTRY` lists for it. The CI
//! workload gate reads these series by name, so an unregistered one
//! would silently escape the gate.

struct Metrics;
impl Metrics {
    fn add(&self, _name: &str, _delta: u64) {}
}

fn emit(m: &Metrics) {
    // Right namespace, but not a registered series.
    m.counter_add("scheduler.queue_drops", 1);
    // A typo'd registered series is still unregistered.
    m.gauge_set("scheduler.tenant_counts", 3.0);
}
