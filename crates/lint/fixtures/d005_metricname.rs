//! D005 fixture: metric names must be string literals in a registered
//! namespace (`mapred.*`, `dfs.*`, `scheduler.*`, `cache.*`).

struct Metrics;
impl Metrics {
    fn add(&self, _name: &str, _delta: u64) {}
}

fn emit(m: &Metrics, dynamic: &str) {
    // Wrong namespace: `clyde.*` was retired when the engine metrics moved
    // under `mapred.*`.
    m.counter_add("clyde.queries", 1);
    // No namespace at all.
    m.gauge_set("locality", 0.5);
    // Not a literal: the name cannot be grepped for.
    m.histogram_record(dynamic, 2.0);
}
