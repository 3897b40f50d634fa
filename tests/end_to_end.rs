//! End-to-end integration tests spanning the whole workspace: every suite
//! class × every method × sequential/parallel execution, plus the simulated
//! executor and the headline qualitative claims of the paper at test scale.

use sts_k::core::{analysis, Method, ParallelSolver, SimulatedExecutor};
use sts_k::matrix::ops;
use sts_k::matrix::suite::{SuiteId, SuiteScale, TestSuite};
use sts_k::numa::{NumaTopology, Schedule};

fn representative_suite() -> TestSuite {
    TestSuite::generate_subset(
        SuiteScale::Tiny,
        &[
            SuiteId::G1,
            SuiteId::D1,
            SuiteId::S1,
            SuiteId::D2,
            SuiteId::D3,
        ],
    )
    .expect("suite generation succeeds")
}

#[test]
fn every_method_solves_every_suite_class_correctly() {
    let suite = representative_suite();
    let solver = ParallelSolver::new(4, Schedule::Guided { min_chunk: 1 });
    for m in &suite.matrices {
        let l = m.lower().unwrap();
        for method in Method::all() {
            let s = method.build(&l, 40).unwrap();
            s.validate().unwrap();
            let x_true: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 11) as f64 * 0.1).collect();
            let b = s.lower().multiply(&x_true).unwrap();
            let x_seq = s.solve_sequential(&b).unwrap();
            let x_par = solver.solve_unsplit(&s, &b).unwrap();
            assert!(
                ops::relative_error_inf(&x_seq, &x_true) < 1e-9,
                "{} sequential solve wrong on {}",
                method.label(),
                m.id.label()
            );
            assert!(
                ops::relative_error_inf(&x_par, &x_seq) < 1e-12,
                "{} parallel solve differs from sequential on {}",
                method.label(),
                m.id.label()
            );
        }
    }
}

#[test]
fn reordered_solution_maps_back_to_original_numbering() {
    let suite = representative_suite();
    let m = &suite.matrices[3]; // D2, planar triangulation
    let l = m.lower().unwrap();
    let s = Method::Sts3.build(&l, 40).unwrap();
    // Take a vector in original numbering, gather, scatter: identity.
    let v: Vec<f64> = (0..s.n()).map(|i| i as f64 * 0.5 - 3.0).collect();
    let roundtrip = s.scatter_to_original(&s.gather_from_original(&v));
    assert_eq!(roundtrip, v);
}

#[test]
fn coloring_dominates_level_sets_in_parallelism_metrics() {
    // Figure 7 + Figure 8 at test scale, across classes.
    let suite = representative_suite();
    for m in &suite.matrices {
        let l = m.lower().unwrap();
        let ls = Method::CsrLs.build(&l, 40).unwrap();
        let sts = Method::Sts3.build(&l, 40).unwrap();
        let stat_ls = analysis::parallelism_stats(&ls);
        let stat_sts = analysis::parallelism_stats(&sts);
        assert!(
            stat_sts.num_packs < stat_ls.num_packs,
            "{}: STS-3 should need fewer packs ({} vs {})",
            m.id.label(),
            stat_sts.num_packs,
            stat_ls.num_packs
        );
        assert!(
            stat_sts.work_fraction_top5 > stat_ls.work_fraction_top5,
            "{}: STS-3 should concentrate more work in its top packs",
            m.id.label()
        );
    }
}

#[test]
fn simulated_machines_reproduce_the_headline_ordering() {
    // Figure 9's qualitative outcome at test scale: on both modelled machines,
    // STS-3 is the fastest of the four methods and CSR-LS the slowest, for a
    // mesh-class matrix.
    let suite = TestSuite::generate_subset(SuiteScale::Tiny, &[SuiteId::D2]).unwrap();
    let l = suite.matrices[0].lower().unwrap();
    for (topology, cores, rows) in [
        (NumaTopology::intel_westmere_ex_32(), 16usize, 80usize),
        (NumaTopology::amd_magny_cours_24(), 12, 320),
    ] {
        let exec = SimulatedExecutor::new(topology);
        let time = |method: Method| {
            let s = method.build(&l, rows).unwrap();
            let schedule = match method {
                Method::CsrLs | Method::CsrCol => Schedule::Dynamic { chunk: 32 },
                _ => Schedule::Guided { min_chunk: 1 },
            };
            exec.simulate(&s, cores, schedule).total_cycles
        };
        let t_ls = time(Method::CsrLs);
        let t_col = time(Method::CsrCol);
        let t_sts = time(Method::Sts3);
        assert!(
            t_sts < t_col,
            "STS-3 ({t_sts}) should beat CSR-COL ({t_col})"
        );
        assert!(
            t_col < t_ls,
            "CSR-COL ({t_col}) should beat CSR-LS ({t_ls})"
        );
    }
}

#[test]
fn parallel_speedup_of_sts3_exceeds_one_on_the_modelled_machine() {
    let suite = TestSuite::generate_subset(SuiteScale::Tiny, &[SuiteId::D2]).unwrap();
    let l = suite.matrices[0].lower().unwrap();
    // Small super-rows so the tiny test matrix still exposes enough tasks per
    // pack to occupy 16 modelled cores.
    let s = Method::Sts3.build(&l, 16).unwrap();
    let exec = SimulatedExecutor::new(NumaTopology::intel_westmere_ex_32());
    let t1 = exec
        .simulate(&s, 1, Schedule::Guided { min_chunk: 1 })
        .total_cycles;
    let t16 = exec
        .simulate(&s, 16, Schedule::Guided { min_chunk: 1 })
        .total_cycles;
    let speedup = t1 / t16;
    assert!(
        speedup > 2.0,
        "expected a clear parallel speedup, got {speedup:.2}"
    );
    assert!(
        speedup <= 16.0,
        "speedup cannot exceed the core count, got {speedup:.2}"
    );
}

#[test]
fn build_then_solve_many_right_hand_sides_amortises_preprocessing() {
    // The intended usage pattern: one build, many solves (the paper amortises
    // pre-processing over repeated right-hand sides).
    let suite = TestSuite::generate_subset(SuiteScale::Tiny, &[SuiteId::D3]).unwrap();
    let l = suite.matrices[0].lower().unwrap();
    let s = Method::Sts3.build(&l, 40).unwrap();
    let solver = ParallelSolver::new(2, Schedule::Guided { min_chunk: 1 });
    for k in 0..10 {
        let x_true: Vec<f64> = (0..s.n()).map(|i| ((i + k) % 7) as f64 + 1.0).collect();
        let b = s.lower().multiply(&x_true).unwrap();
        let x = solver.solve_unsplit(&s, &b).unwrap();
        assert!(ops::relative_error_inf(&x, &x_true) < 1e-9);
    }
}
