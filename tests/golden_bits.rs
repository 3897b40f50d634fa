//! Golden-bits guard for the triangular sweep kernels.
//!
//! Pins the exact `f64` bit patterns the sweeps produce on one small fixed
//! STS-3 structure, for both directions, batch widths {1, 3, 9} (9 crosses
//! the 8-wide accumulator blocks of the batch bodies) and both value-slab
//! precisions, against the committed snapshot
//! `tests/contract/golden_bits.txt`. Each snapshot line is one
//! `direction nrhs precision` cell; the solve must reproduce it bit for
//! bit at 1, 2 and 4 worker threads. Each lane of a batch cell is bitwise
//! the single-RHS solve of that lane.
//!
//! To regenerate after an *intentional* change of kernel arithmetic:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test golden_bits
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use sts_k::core::{
    Method, ParallelSolver, PrecisionPolicy, SolveOptions, StsStructure, SweepDirection,
};
use sts_k::matrix::generators;
use sts_k::numa::Schedule;

const SNAPSHOT: &str = "golden_bits.txt";

fn structure() -> StsStructure {
    // Random off-diagonal values, so the f32 slabs round and the f32 cells
    // differ from the f64 ones.
    let l = generators::random_lower_triangular(30, 3.0, 7).unwrap();
    Method::Sts3.build(&l, 4).unwrap()
}

fn rhs(n: usize, nrhs: usize) -> Vec<f64> {
    (0..n * nrhs)
        .map(|k| 1.0 + ((k * 7) % 13) as f64 * 0.37 - (k % 3) as f64 * 0.11)
        .collect()
}

fn solve_cell(solver: &ParallelSolver, s: &StsStructure, opts: &SolveOptions) -> Vec<f64> {
    let b = rhs(s.n(), opts.nrhs);
    solver.solve_with(s, &b, opts).unwrap()
}

fn render(s: &StsStructure, threads: usize) -> String {
    let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
    let mut out = String::new();
    for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
        for nrhs in [1usize, 3, 9] {
            for precision in [
                PrecisionPolicy::ValuesF64,
                PrecisionPolicy::ValuesF32WithRefinement,
            ] {
                let opts = SolveOptions::default()
                    .with_direction(direction)
                    .with_nrhs(nrhs)
                    .with_precision(precision);
                let x = solve_cell(&solver, s, &opts);
                write!(
                    out,
                    "{} nrhs={nrhs} {}:",
                    direction.as_str(),
                    precision.as_str()
                )
                .unwrap();
                for v in x {
                    write!(out, " {:016x}", v.to_bits()).unwrap();
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn every_sweep_cell_reproduces_its_golden_bits() {
    let s = structure();
    assert!(
        s.num_packs() > 2,
        "the structure must exercise several packs"
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("contract")
        .join(SNAPSHOT);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, render(&s, 1)).expect("snapshot is writable");
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; run `UPDATE_SNAPSHOTS=1 cargo test --test golden_bits`",
            path.display()
        )
    });
    for threads in [1usize, 2, 4] {
        let actual = render(&s, threads);
        for (want, got) in expected.lines().zip(actual.lines()) {
            let cell = want.split(':').next().unwrap_or_default();
            assert_eq!(want, got, "cell `{cell}` drifted at {threads} threads");
        }
        assert_eq!(expected.lines().count(), actual.lines().count());
    }
}
