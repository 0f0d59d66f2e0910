//! Figure 6 — tying the output of a mission-constant address register lets
//! the tied value propagate into the downstream combinational logic, exposing
//! further structurally untestable faults there.

use atpg::analysis::StructuralAnalysis;
use atpg::ConstraintSet;
use criterion::{criterion_group, criterion_main, Criterion};
use faultmodel::FaultList;
use netlist::NetlistBuilder;
use std::time::Duration;

fn fig6(c: &mut Criterion) {
    // An 8-bit "address register" feeding an adder and a comparator; the high
    // nibble of the register is constant in mission mode.
    let mut b = NetlistBuilder::new("fig6");
    let ck = b.input("ck");
    let d = b.input_bus("addr_d", 8);
    let q = b.register(&d, ck);
    let offset = b.input_bus("offset", 8);
    let zero = b.tie0();
    let (sum, _) = b.ripple_adder(&q, &offset, zero);
    let in_range = b.eq_const(&q, 0x12);
    b.output_bus("effective_addr", &sum);
    b.output("in_range", in_range);
    let n = b.finish();

    // Tie the high nibble of the register (input and output), as the §3.3
    // manipulation does for frozen address bits.
    let mut constraints = ConstraintSet::full_scan();
    for bit in 4..8 {
        constraints.tie_net(q[bit], false);
        constraints.tie_net(d[bit], false);
    }
    let run_tied = || {
        let mut faults = FaultList::full_universe(&n);
        StructuralAnalysis::with_constraints(constraints.clone())
            .run(&n, &mut faults)
            .expect("analysis")
    };
    let run_baseline = || {
        let mut faults = FaultList::full_universe(&n);
        StructuralAnalysis::with_constraints(ConstraintSet::full_scan())
            .run(&n, &mut faults)
            .expect("analysis")
    };

    let baseline = run_baseline();
    let tied = run_tied();
    println!("--- reproduced Figure 6 (tie propagation into downstream logic) ---");
    println!("untestable faults without ties : {baseline}");
    println!("untestable faults with ties    : {tied}");
    println!("additional faults exposed      : {}", tied - baseline);
    // The tied value must reach beyond the register itself: more faults than
    // just the 4*2 tied flip-flop outputs and 4*2 tied inputs are affected.
    assert!(tied > baseline + 16);

    let mut group = c.benchmark_group("fig6");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("tie_propagation_analysis", |b| b.iter(run_tied));
    group.finish();
}

criterion_group!(benches, fig6);
criterion_main!(benches);
