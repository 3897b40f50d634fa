//! Quickstart: build an STS-3 structure for a sparse triangular system and
//! solve it sequentially and in parallel.
//!
//! Run with `cargo run --release --example quickstart`.

use sts_k::core::{Method, ParallelSolver, SolveOptions};
use sts_k::matrix::generators;
use sts_k::matrix::ops;
use sts_k::numa::Schedule;

fn main() {
    // 1. A sparse symmetric matrix: a 2-D 9-point stencil on a 60x60 grid.
    //    Its lower triangle is the triangular operand L.
    let a = generators::grid2d_9point(60, 60).expect("grid dimensions are valid");
    let l = generators::lower_operand(&a).expect("stencil matrices have nonzero diagonals");
    println!(
        "L: n = {}, nnz = {}, nnz/n = {:.2}",
        l.n(),
        l.nnz(),
        l.row_density()
    );

    // 2. Build STS-3 (coloring ordering, 3-level sub-structuring). The builder
    //    symmetrically reorders the system; `structure.lower()` is the
    //    reordered operand the solves run on.
    let structure = Method::Sts3
        .build(&l, 80)
        .expect("builder succeeds on this matrix");
    println!(
        "STS-3: {} packs, {} super-rows, k = {}",
        structure.num_packs(),
        structure.num_super_rows(),
        structure.k()
    );

    // 3. Manufacture a right-hand side from a known solution and solve.
    let x_true: Vec<f64> = (0..structure.n()).map(|i| 1.0 + (i % 10) as f64).collect();
    let b = structure
        .lower()
        .multiply(&x_true)
        .expect("dimensions match");

    let x_seq = structure
        .solve_sequential(&b)
        .expect("sequential solve succeeds");
    println!(
        "sequential solve: max relative error = {:.2e}",
        ops::relative_error_inf(&x_seq, &x_true)
    );

    // 4. The same solve on a pool of worker threads (guided schedule, as the
    //    paper uses for the 3-level methods).
    let threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
    let x_par = solver
        .solve_with(&structure, &b, &SolveOptions::default())
        .expect("parallel solve succeeds");
    println!(
        "parallel solve on {threads} threads: max relative error = {:.2e}",
        ops::relative_error_inf(&x_par, &x_true)
    );

    // 5. Map the solution back to the original row numbering if needed.
    let x_original = structure.scatter_to_original(&x_par);
    println!(
        "solution mapped back to original numbering: {} entries",
        x_original.len()
    );
}
