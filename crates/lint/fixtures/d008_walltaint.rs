//! D008 fixture: a wall-derived value flowing into a sim-time sink.
//! This file is NOT compiled; the fixture test must flag it.

/// Tainted flow: timer → elapsed → metric series CI byte-compares.
fn publish(m: &MetricsRegistry) {
    let timer = WallTimer::start();
    let spent_s = timer.elapsed_s();
    m.histogram_record(series::MAPRED_MAP_TASK_SIM_S, spent_s);
}

/// The sanctioned channel: a task's wall phases, which no compared
/// artifact carries — must NOT be flagged.
fn sanctioned(ctx: &MapTaskContext<'_>, timer: &WallTimer) {
    ctx.note_wall_phase(Phase::Probe, timer.elapsed_ns());
}

/// Sim-time values are untainted — must NOT be flagged.
fn sim_time(m: &MetricsRegistry, sim_s: f64) {
    m.histogram_record(series::MAPRED_MAP_TASK_SIM_S, sim_s);
}
