//! Pins the service-mix generator to the committed corpus: the benchmark's
//! copy of `synth_circuit` must regenerate `circuits/synth_*.bench` byte for
//! byte from their committed seeds, so the workload cannot drift from the
//! corpus distribution unnoticed.

use idbench::corpus::{caller_plan, fresh_job, job_shape, synth_circuit, COMMITTED};
use netlist::frontend::bench::write_bench;
use netlist::frontend::{parse_netlist, Format};
use std::path::Path;

#[test]
fn generator_regenerates_the_committed_corpus() {
    let circuits = Path::new(env!("CARGO_MANIFEST_DIR")).join("../circuits");
    for (name, inputs, outputs, base_gates, seed) in COMMITTED {
        let text = write_bench(&synth_circuit(name, inputs, outputs, base_gates, seed))
            .expect("synthetic circuits are bench-expressible");
        let path = circuits.join(format!("{name}.bench"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(committed, text, "{name}.bench drifted from the generator");
    }
}

#[test]
fn jobs_are_seeded_and_at_corpus_scale() {
    let shape = job_shape(0, 0);
    assert_eq!(fresh_job(7, shape), fresh_job(7, shape));
    assert_ne!(fresh_job(7, shape).circuit, fresh_job(8, shape).circuit);
    for index in 0..8 {
        let (inputs, outputs, base_gates) = job_shape(1, index);
        assert!((32..=64).contains(&inputs) && (8..=32).contains(&outputs));
        assert!((300..=600).contains(&base_gates));
        let job = fresh_job(index as u64, (inputs, outputs, base_gates));
        let netlist = parse_netlist(&job.circuit, Format::Bench).expect("job circuit parses");
        assert!(netlist.num_cells() > base_gates);
        assert_eq!(job.constraints.matches("force ").count(), 2);
        assert_eq!(job.constraints.matches("mask ").count(), 1);
    }
}

#[test]
fn job_sizes_cover_the_range_evenly() {
    let gates: Vec<usize> = (0..100).map(|i| job_shape(0, i).2).collect();
    for decile in 0..10 {
        let low = 300 + 30 * decile;
        let count = gates
            .iter()
            .filter(|&&g| (low..low + 30).contains(&g))
            .count();
        assert!((7..=13).contains(&count), "decile {decile}: {count}");
    }
}

#[test]
fn every_fourth_submission_is_a_resubmission() {
    let plan = caller_plan(3, 0, 400);
    let resubmissions = plan.order.iter().filter(|(_, again)| *again).count();
    assert_eq!(resubmissions, 100);
    assert_eq!(plan.fresh.len(), 300);
    // A resubmission always names a job the caller already submitted.
    let mut seen = 0;
    for &(job, again) in &plan.order {
        if again {
            assert!(job < seen);
        } else {
            assert_eq!(job, seen);
            seen += 1;
        }
    }
}
