//! Solve a triangular system read from a Matrix Market file.
//!
//! Usage: `cargo run --release --example matrix_market_solve [path.mtx]`
//!
//! When no path is given, the example writes a small Matrix Market file to a
//! temporary location first, so it is runnable out of the box; point it at a
//! symmetric matrix from the SuiteSparse/UF collection (the paper's Table 1)
//! to reproduce the pipeline on the original inputs.

use sts_k::core::{Method, ParallelSolver, SolveOptions};
use sts_k::matrix::{generators, io, ops, LowerTriangularCsr};
use sts_k::numa::Schedule;

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // No input given: write a demonstration matrix and use it.
            let a = generators::triangulated_grid(40, 40, 1).expect("valid dimensions");
            let path = std::env::temp_dir().join("sts_k_example.mtx");
            io::write_matrix_market_file(&a, &path).expect("temporary file is writable");
            println!("no input given; wrote a demo matrix to {}", path.display());
            path
        }
    };

    let a = match io::read_matrix_market_file(&path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    println!(
        "read {}: {} x {}, {} stored entries",
        path.display(),
        a.nrows(),
        a.ncols(),
        a.nnz()
    );

    let l = match LowerTriangularCsr::from_lower_triangle_of(&a) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("the lower triangle is not a solvable triangular operand: {e}");
            std::process::exit(1);
        }
    };

    let structure = Method::Sts3.build(&l, 80).expect("builder succeeds");
    println!(
        "STS-3 built: {} packs, {} super-rows",
        structure.num_packs(),
        structure.num_super_rows()
    );

    let x_true = vec![1.0; structure.n()];
    let b = structure
        .lower()
        .multiply(&x_true)
        .expect("dimensions match");
    let threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
    let x = solver
        .solve_with(&structure, &b, &SolveOptions::default())
        .expect("solve succeeds");
    println!(
        "solved on {threads} threads; max relative error vs manufactured solution = {:.2e}",
        ops::relative_error_inf(&x, &x_true)
    );
}
