//! Throughput of the SAT escalation stage alone: the faults the committed
//! PODEM configuration (backtrack 16) aborts on, replayed through one
//! single-threaded [`atpg::SatProver`] at the committed conflict budget
//! (`ProofConfig::default().sat_conflict_limit`) — the workload behind the
//! `sat_throughput` section of `BENCH_flow.json` and the SAT layer's CI
//! perf-smoke gate.
//!
//! The preparation (structural rules + SBST fault simulation to select the
//! survivors, then a PODEM-only proof run to find its aborts) happens once
//! outside the measured region. Before measuring, the bench replays the
//! **full** worklist once per budget of [`SWEEP`] and prints each run: the
//! committed budget's run (20,000) is `sat_throughput.full_worklist`, and
//! all four are `sat_throughput.conflict_limit_sweep`. The measured region is the
//! SAT replay of the first [`bench::SAT_STAGE_SLICE`] aborts. The full
//! portfolio is measured by the `proof_throughput` bench, and the PODEM-only
//! run is recorded in `BENCH_flow.json` as `proof_throughput.podem_only`.

use atpg::ProofConfig;
use bench::{ProofCampaign, SAT_STAGE_SLICE};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// Per-fault conflict budgets of the full-worklist sweep.
const SWEEP: [u64; 4] = [500, 2_000, 20_000, 40_000];

fn sat_throughput(c: &mut Criterion) {
    let campaign = ProofCampaign::prepare();
    println!("survivors               : {}", campaign.survivors());

    let committed = ProofConfig::default().sat_conflict_limit;
    let worklist = campaign.run_podem_only().aborted;
    for limit in SWEEP {
        let full = campaign.run_sat_stage(&worklist, limit);
        println!(
            "SAT stage (full, {limit:>6}) : {} aborts in, {} proven, {} testable, {} unresolved, \
             {:.3} s ({:.3} ms per concluded fault)",
            full.attempted,
            full.proven,
            full.test_exists,
            full.unresolved,
            full.wall_clock.as_secs_f64(),
            full.ms_per_concluded_fault()
        );
    }

    let slice = &worklist[..SAT_STAGE_SLICE.min(worklist.len())];
    let sat = campaign.run_sat_stage(slice, committed);
    println!(
        "SAT stage (slice)       : {} of {} aborts in, {} proven, {} testable, {} unresolved, \
         {:.3} s ({:.3} ms per concluded fault; committed numbers in BENCH_flow.json)",
        sat.attempted,
        worklist.len(),
        sat.proven,
        sat.test_exists,
        sat.unresolved,
        sat.wall_clock.as_secs_f64(),
        sat.ms_per_concluded_fault()
    );

    let mut group = c.benchmark_group("sat_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(20));
    group.bench_function("podem_abort_worklist_small_soc", |b| {
        b.iter(|| campaign.run_sat_stage(slice, committed))
    });
    group.finish();
}

criterion_group!(benches, sat_throughput);
criterion_main!(benches);
