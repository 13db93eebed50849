//! Replay the seeded mixed-tenant workload under every scheduling policy
//! and report throughput plus per-tenant latency percentiles.
//!
//! Usage: `workload [SF] [--seed <n>] [--json PATH] [--report PATH] [--gate PATH]`
//! (default SF 0.005, seed 46).
//!
//! * `--json PATH` writes the runs as the committed-gate JSON document
//!   (see `BENCH_workload.json` at the repo root for a committed run).
//! * `--report PATH` writes the human-readable latency report (uploaded
//!   as an artifact of the CI `gates` job).
//! * `--gate PATH` reads a committed run and **fails (exit 1)** unless
//!   fair scheduling beats FIFO on the starved tenant's p99 and every
//!   policy's throughput stays within 0.95x of its committed value.
//!
//! Query execution is real; the multi-job timeline is deterministic
//! simulated time, so the reported numbers are byte-stable across reruns
//! and machines.

use clyde_bench::{cli, gate, workload};
use clyde_mapred::SchedPolicy;

fn main() {
    let args = cli::parse(
        "usage: workload [SF] [--seed <n>] [--json PATH] [--report PATH] [--gate PATH]",
        &["--seed", "--json", "--report", "--gate"],
        &["--dump"],
    );
    let sf = args.sf(0.005);
    let seed: u64 = args.parsed("--seed").unwrap_or(46);
    let dump = args.has("--dump");

    eprintln!("loading SSB at SF {sf} (seed {seed}) on the workload cluster...");
    let clyde = workload::build_clyde(sf, seed, None, None)
        .unwrap_or_else(|e| panic!("workload cluster setup failed: {e}"));
    let arrivals = workload::scenario(seed);
    eprintln!(
        "replaying {} submissions from {} tenants under {} policies...",
        arrivals.len(),
        workload::TENANTS.len(),
        SchedPolicy::all().len()
    );

    let mut runs = Vec::new();
    for policy in SchedPolicy::all() {
        let run = workload::run_policy(&clyde, &arrivals, policy)
            .unwrap_or_else(|e| panic!("{} replay failed: {e}", policy.label()));
        eprintln!(
            "  {}: {} jobs in {:.1}s simulated ({:.2} jobs/min)",
            policy.label(),
            run.served.len(),
            run.makespan_s,
            run.throughput_jobs_per_min
        );
        if dump {
            for s in &run.served {
                eprintln!(
                    "    {:<7} {:<5} arrive {:>7.2}  start {:>7.2}  finish {:>7.2}  \
                     latency {:>7.2}",
                    s.tenant,
                    s.query_id,
                    s.arrival_s,
                    s.start_s,
                    s.finish_s,
                    s.latency_s()
                );
            }
        }
        runs.push(run);
    }

    let report = workload::render_report(sf, seed, &runs);
    print!("{report}");
    if let Some(path) = args.value("--report") {
        std::fs::write(path, &report).expect("write report");
        eprintln!("wrote {path}");
    }
    let fresh = workload::to_json(sf, seed, &runs);
    gate::finish("workload", gate::WORKLOAD, &args, &fresh);
}
