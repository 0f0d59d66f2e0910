//! End-to-end wall-clock of the staged identification pipeline on the
//! reduced SoC — the workload behind `BENCH_flow.json` and the CI perf-smoke
//! gate.
//!
//! The pipeline is the full §4 loop: baseline structural analysis, the four
//! §3 screening rules, compiled-engine fault simulation of the SBST suite
//! (dropping everything the suite detects), and the constraint-aware
//! PODEM/SAT proof portfolio over every survivor. The bench prints the
//! per-stage fault-count deltas and timings and the proof engines'
//! breakdown, then measures the end-to-end flow runtime.

use bench::{print_stage_table, quick_pipeline_config, small_soc};
use criterion::{criterion_group, criterion_main, Criterion};
use faultmodel::UntestableSource;
use online_untestable::flow::IdentificationFlow;
use std::time::{Duration, Instant};

fn flow_pipeline(c: &mut Criterion) {
    let soc = small_soc();
    let flow = IdentificationFlow::new(quick_pipeline_config());

    // One measured reference run for the report.
    let start = Instant::now();
    let report = flow.run(&soc).expect("identification flow");
    let elapsed = start.elapsed();
    print_stage_table(&report);
    println!(
        "atpg-proof bucket       : {} faults proven untestable",
        report.count_for(UntestableSource::AtpgProof)
    );
    if let Some(engines) = report.engine_breakdown {
        println!("proof engines           : {engines}");
    }
    println!(
        "flow wall-clock         : {:.3} s (reference run; committed number in BENCH_flow.json)",
        elapsed.as_secs_f64()
    );

    let mut group = c.benchmark_group("flow_pipeline");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(15));
    group.bench_function("staged_pipeline_small_soc", |b| {
        b.iter(|| flow.run(&soc).expect("identification flow"))
    });
    group.finish();
}

criterion_group!(benches, flow_pipeline);
criterion_main!(benches);
