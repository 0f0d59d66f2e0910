//! Throughput of the cone-clipped, SCOAP-guided, collapse-scheduled proof
//! stage over the full survivor set of the reduced SoC — the workload behind
//! the `proof_throughput` section of `BENCH_flow.json`. The third CI
//! perf-smoke gate holds that number against the `atpg-proof` phase of its
//! pipeline run, which proves the same worklist on the same single-threaded
//! portfolio.
//!
//! The preparation (structural rules + SBST fault simulation, which select
//! the genuine survivors) runs once outside the measured region; the
//! measured region is a single-threaded [`atpg::proof::prove_faults`] run
//! under the mission constraints. The pre-acceleration engine's number (no
//! clipping, no SCOAP, no X-path, no collapse scheduling) is recorded in
//! `BENCH_flow.json` as `proof_throughput.reference_engine`.

use bench::ProofCampaign;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn proof_throughput(c: &mut Criterion) {
    let campaign = ProofCampaign::prepare();
    println!("survivors               : {}", campaign.survivors());

    // One measured run for the report.
    let accelerated = campaign.run();
    println!(
        "accelerated engine      : {:.3} s, {} proven, {:.3} ms per proven fault \
         (committed numbers in BENCH_flow.json)",
        accelerated.wall_clock.as_secs_f64(),
        accelerated.proven,
        accelerated.ms_per_proven_fault()
    );

    let mut group = c.benchmark_group("proof_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(20));
    group.bench_function("full_survivor_set_small_soc", |b| b.iter(|| campaign.run()));
    group.finish();
}

criterion_group!(benches, proof_throughput);
criterion_main!(benches);
