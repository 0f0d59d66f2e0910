//! Figure 2 — the mux-scan flip-flop: which of the faults on its SI, SE and
//! SO connections are on-line functionally untestable. The paper's analysis
//! concludes that only the SE stuck-at-1 fault must be kept.

use criterion::{criterion_group, criterion_main, Criterion};
use dft::scan::{insert_scan, ScanConfig};
use dft::trace::{find_scan_in_ports, trace_scan_chains};
use faultmodel::StuckAt;
use netlist::NetlistBuilder;
use online_untestable::rules::scan_rule;
use std::time::Duration;

fn single_scan_cell() -> (netlist::Netlist, netlist::CellId) {
    let mut b = NetlistBuilder::new("fig2");
    let ck = b.input("ck");
    let d = b.input("d");
    let q = b.dff(d, ck);
    b.output("q", q);
    let mut n = b.finish();
    insert_scan(
        &mut n,
        &ScanConfig {
            num_chains: 1,
            insert_path_buffers: false,
            ..ScanConfig::default()
        },
    );
    let ff = n.sequential_cells()[0];
    (n, ff)
}

fn fig2(c: &mut Criterion) {
    let (n, ff) = single_scan_cell();
    let ports = find_scan_in_ports(&n, "scan_in");
    let trace = trace_scan_chains(&n, &ports, "scan_out").expect("trace");
    let untestable = scan_rule(&n, &trace, false);

    let kind = n.cell(ff).kind();
    let si = kind.scan_in_pin().unwrap();
    let se = kind.scan_enable_pin().unwrap();
    println!("--- reproduced Figure 2 (mux-scan cell fault classification) ---");
    for (label, fault) in [
        ("SI stuck-at-0", StuckAt::input(ff, si, false)),
        ("SI stuck-at-1", StuckAt::input(ff, si, true)),
        ("SE stuck-at-0", StuckAt::input(ff, se, false)),
        ("SE stuck-at-1", StuckAt::input(ff, se, true)),
    ] {
        let pruned = untestable.contains(&fault);
        println!(
            "  {label:<15} {}",
            if pruned {
                "on-line functionally untestable (pruned)"
            } else {
                "kept in the fault list"
            }
        );
    }
    // The paper's conclusion: SI s-a-0/1 and SE s-a-0 are pruned, SE s-a-1 is
    // the only one that needs to stay.
    assert!(untestable.contains(&StuckAt::input(ff, si, false)));
    assert!(untestable.contains(&StuckAt::input(ff, si, true)));
    assert!(untestable.contains(&StuckAt::input(ff, se, false)));
    assert!(!untestable.contains(&StuckAt::input(ff, se, true)));

    let mut group = c.benchmark_group("fig2");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("scan_rule_single_cell", |b| {
        b.iter(|| scan_rule(&n, &trace, false).len())
    });
    group.finish();
}

criterion_group!(benches, fig2);
criterion_main!(benches);
