//! D008 fixture: a wall-derived value flowing into a sim-time sink.
//! This file is NOT compiled; the fixture test must flag it.

/// Tainted flow: timer → elapsed → metric series CI byte-compares.
fn publish(m: &MetricsRegistry) {
    let timer = WallTimer::start();
    let spent_s = timer.elapsed_s();
    m.histogram_record(series::MAPRED_MAP_TASK_SIM_S, spent_s);
}

/// The sanctioned channel: a `WallHistogram` series, which shadow_check's
/// `filter_wall` drops before byte-comparing — must NOT be flagged.
fn sanctioned(m: &MetricsRegistry, timer: &WallTimer) {
    m.wall_histogram_record(series::MAPRED_TASK_WALL_MS, timer.elapsed_s() * 1e3);
}

/// Sim-time values are untainted — must NOT be flagged.
fn sim_time(m: &MetricsRegistry, sim_s: f64) {
    m.histogram_record(series::MAPRED_MAP_TASK_SIM_S, sim_s);
}
