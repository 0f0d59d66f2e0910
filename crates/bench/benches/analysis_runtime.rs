//! §4 runtime claim — "the modified circuit is analyzed by Tetramax in less
//! than 1 second": measure the runtime of our structural untestability
//! analysis on the manipulated industrial-like SoC.

use atpg::analysis::StructuralAnalysis;
use atpg::ConstraintSet;
use bench::industrial_soc;
use criterion::{criterion_group, criterion_main, Criterion};
use faultmodel::FaultList;
use std::time::{Duration, Instant};

fn analysis_runtime(c: &mut Criterion) {
    let soc = industrial_soc();
    let mut constraints = ConstraintSet::full_scan();
    for (net, value) in soc.mission_tied_inputs() {
        constraints.tie_net(net, value);
    }

    // One measured reference run for the report.
    let start = Instant::now();
    let mut faults = FaultList::full_universe(&soc.netlist);
    let untestable = StructuralAnalysis::with_constraints(constraints.clone())
        .run(&soc.netlist, &mut faults)
        .expect("analysis");
    let elapsed = start.elapsed();
    println!("--- reproduced §4 runtime claim -------------------------------");
    println!("fault universe          : {}", faults.len());
    println!("untestable identified   : {untestable}");
    println!("analysis wall-clock     : {:.3} s", elapsed.as_secs_f64());
    println!("paper (TetraMAX)        : < 1 s");
    assert!(
        elapsed < Duration::from_secs(5),
        "analysis should complete within a few seconds"
    );

    let mut group = c.benchmark_group("analysis_runtime");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    group.bench_function("structural_analysis_manipulated_soc", |b| {
        b.iter(|| {
            let mut faults = FaultList::full_universe(&soc.netlist);
            StructuralAnalysis::with_constraints(constraints.clone())
                .run(&soc.netlist, &mut faults)
                .expect("analysis")
        })
    });
    group.finish();
}

criterion_group!(benches, analysis_runtime);
criterion_main!(benches);
