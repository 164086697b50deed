//! What the server relies on when it hands one `&Cobra` to a thread per
//! connection: a batch of programs optimized on scoped threads sharing
//! that one optimizer yields byte-identical programs and bit-identical
//! costs to sequential `optimize_program` calls.

use cobra::core::{Cobra, Optimized};
use cobra::imperative::ast::Program;
use cobra::imperative::pretty::function_to_string;
use cobra::netsim::NetworkProfile;
use cobra::workloads::{motivating, wilos};

/// Byte-identical results: threaded == sequential, program by program.
/// One thread per program, whatever the host's core count, so this always
/// exercises real cross-thread optimization.
#[test]
fn batch_matches_sequential_results() {
    // P0/M0 against the motivating fixture.
    let fx = motivating::build_fixture(2_000, 400, 21);
    let cobra = fx
        .cobra_builder()
        .network(NetworkProfile::slow_remote())
        .build();
    let programs = vec![motivating::p0(), motivating::m0()];
    assert_batch_matches(&cobra, &programs);

    // All six Wilos representatives against the wilos fixture.
    let fx = wilos::build_fixture(2_000, 21);
    let cobra = fx
        .cobra_builder()
        .network(NetworkProfile::fast_local())
        .build();
    let programs: Vec<Program> = wilos::Pattern::all()
        .into_iter()
        .map(wilos::representative)
        .collect();
    assert!(programs.len() >= 4);
    assert_batch_matches(&cobra, &programs);
}

fn assert_batch_matches(cobra: &Cobra, programs: &[Program]) {
    // Threads first, so they fill the shared estimate cache concurrently.
    let parallel: Vec<Optimized> = std::thread::scope(|scope| {
        let handles: Vec<_> = programs
            .iter()
            .map(|p| scope.spawn(|| cobra.optimize_program(p).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let sequential: Vec<Optimized> = programs
        .iter()
        .map(|p| cobra.optimize_program(p).unwrap())
        .collect();
    assert_eq!(sequential.len(), parallel.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(
            function_to_string(&s.program),
            function_to_string(&p.program),
            "program {i}: byte-identical emitted program"
        );
        assert_eq!(
            s.est_cost_ns.to_bits(),
            p.est_cost_ns.to_bits(),
            "program {i}: bit-identical cost"
        );
        assert_eq!(s.alternatives, p.alternatives, "program {i}");
        assert_eq!(s.tags, p.tags, "program {i}");
    }
}

/// The two ends of the range: a batch of one (a lone thread beside the
/// caller's), and a batch that is the same program four times, so every
/// thread races for the same estimate-cache entries.
#[test]
fn batch_edge_cases() {
    let fx = motivating::build_fixture(500, 100, 5);
    let cobra = fx
        .cobra_builder()
        .network(NetworkProfile::fast_local())
        .build();
    assert_batch_matches(&cobra, &[motivating::p0()]);
    assert_batch_matches(&cobra, &vec![motivating::p0(); 4]);
}
