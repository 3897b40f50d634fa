//! Isolated per-layer probes: each times calls into one crate's public
//! functions from outside, on the workload's own operator.

use std::hint::black_box;
use std::time::Instant;

use serde::Value;
use sts_core::{PrecisionPolicy, SimulatedExecutor, SolveOptions, StsStructure, SweepDirection};
use sts_graph::{rcm, Coarsening, CoarseningStrategy, Coloring, ColoringOrder, Graph};
use sts_krylov::SpdSystem;
use sts_matrix::{ops, CsrMatrix};
use sts_numa::{affinity, NumaTopology, Schedule, WorkerPool};
use sts_serve::protocol::{float_array, obj, ok_envelope, parse_request, render, PROTOCOL_VERSION};

use crate::inproc::{analyse, ROWS_PER_SUPER_ROW};
use crate::inputs::{stream, Rng};
use crate::report::Metrics;
use crate::stats::{median, percentile};

/// Median wall time of `reps` calls of `f`, nanoseconds, after two warm-up
/// calls.
pub fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Per-call costs of the steps a PCG iteration takes outside the
/// preconditioner, measured in isolation; the traced run scales them by
/// exact call counts to attribute the non-preconditioner part of a solve.
#[derive(Debug, Clone, Copy)]
pub struct IterationCosts {
    /// `ParallelSolver::spmv_into` on the workload's pool.
    pub spmv_ns: f64,
    /// `ops::dot`.
    pub dot_ns: f64,
    /// `ops::axpy`.
    pub axpy_ns: f64,
    /// `ops::norm2`.
    pub norm2_ns: f64,
    /// `SpdSystem::gather_into` plus `SpdSystem::scatter_into`.
    pub gather_scatter_ns: f64,
}

impl IterationCosts {
    /// One CG iteration outside the preconditioner: one product, two dots,
    /// two axpys plus the direction update (an axpy-shaped loop) and one
    /// norm.
    pub fn per_iteration_ns(&self) -> f64 {
        self.spmv_ns + 2.0 * self.dot_ns + 3.0 * self.axpy_ns + self.norm2_ns
    }
}

/// sts-matrix and sts-krylov vector probes plus sts-core sweeps, products
/// and computed bytes, on the analysed main operator `sys`, with `solver`
/// the pool the workload's solves run on.
pub fn steady_layers(
    m: &mut Metrics,
    sys: &SpdSystem,
    solver: &sts_core::ParallelSolver,
    seed: u64,
) -> Result<IterationCosts, String> {
    let n = sys.n();
    let mut rng = Rng::new(seed, stream::PROBE);
    let x = rng.rhs(n);
    let mut y = rng.rhs(n);
    let mut out = vec![0.0; n];

    let dot_ns = time_ns(200, || {
        black_box(ops::dot(black_box(&x), black_box(&y)));
    });
    let axpy_ns = time_ns(200, || ops::axpy(black_box(1e-12), black_box(&x), &mut y));
    let norm2_ns = time_ns(200, || {
        black_box(ops::norm2(black_box(&x)));
    });
    let spmv_seq_ns = time_ns(50, || {
        let _ = ops::spmv_into(sys.matrix(), black_box(&x), &mut out);
    });
    let spmv_ns = time_ns(50, || {
        let _ = solver.spmv_into(sys.matrix(), black_box(&x), &mut out);
    });
    let gather_scatter_ns = time_ns(50, || {
        sys.gather_into(black_box(&x), &mut out);
        sys.scatter_into(black_box(&out), &mut y);
    });
    m.put("matrix.dot_ns", dot_ns, "ns");
    m.put("matrix.axpy_ns", axpy_ns, "ns");
    m.put("matrix.norm2_ns", norm2_ns, "ns");
    m.put("matrix.spmv_seq_ns", spmv_seq_ns, "ns");
    m.put("core.spmv_ns", spmv_ns, "ns");
    m.put("krylov.gather_scatter_ns", gather_scatter_ns, "ns");

    // Sweeps on the IC(0) factor structure, as the preconditioner runs them.
    let factor = solver
        .parallel_ic0(sys.structure(), sys.matrix())
        .map_err(|e| e.to_string())?;
    let fs = sys
        .structure()
        .with_operand(factor)
        .map_err(|e| e.to_string())?;
    let (first_ns, fwd_ns, bwd_ns) = sweep_costs(solver, &fs, &x)?;
    m.put("core.fwd_sweep_ns", fwd_ns, "ns");
    m.put("core.bwd_sweep_ns", bwd_ns, "ns");
    m.put("core.layout_first_use_ns", first_ns - fwd_ns - bwd_ns, "ns");
    m.put("core.packs", sys.structure().num_packs() as f64, "count");
    m.put(
        "core.super_rows",
        sys.structure().num_super_rows() as f64,
        "count",
    );
    let bytes = SimulatedExecutor::new(NumaTopology::detect_host())
        .model_solve_bytes(&fs, PrecisionPolicy::ValuesF64)
        .total_bytes() as f64;
    m.put("core.sweep_bytes_computed", bytes, "B");
    m.put("core.sweep_gbps_computed", bytes / fwd_ns, "GB/s");
    Ok(IterationCosts {
        spmv_ns,
        dot_ns,
        axpy_ns,
        norm2_ns,
        gather_scatter_ns,
    })
}

/// First forward-plus-transpose `solve_with` on a fresh factor structure
/// (lazy layouts built inside), then steady forward and transpose medians.
fn sweep_costs(
    solver: &sts_core::ParallelSolver,
    fs: &StsStructure,
    b: &[f64],
) -> Result<(f64, f64, f64), String> {
    let fwd = SolveOptions::default();
    let bwd = SolveOptions::default().with_direction(SweepDirection::Transpose);
    let t = Instant::now();
    solver.solve_with(fs, b, &fwd).map_err(|e| e.to_string())?;
    solver.solve_with(fs, b, &bwd).map_err(|e| e.to_string())?;
    let first_ns = t.elapsed().as_nanos() as f64;
    let fwd_ns = time_ns(30, || {
        black_box(solver.solve_with(fs, black_box(b), &fwd).ok());
    });
    let bwd_ns = time_ns(30, || {
        black_box(solver.solve_with(fs, black_box(b), &bwd).ok());
    });
    Ok((first_ns, fwd_ns, bwd_ns))
}

/// sts-graph ordering (RCM, super-row coarsening, greedy colouring: the
/// graph phases of an STS-3 analysis) plus sts-core analysis and IC(0)
/// factor times, each the median over `patterns`.
pub fn cold_layers(
    m: &mut Metrics,
    patterns: &[&CsrMatrix],
    solver: &sts_core::ParallelSolver,
) -> Result<(), String> {
    let mut ordering = Vec::new();
    let mut analysis = Vec::new();
    let mut factor = Vec::new();
    let mut colors = 0usize;
    for &a in patterns {
        let t = Instant::now();
        let g = Graph::from_symmetric_csr(a);
        let perm = rcm::reverse_cuthill_mckee(&g);
        let gp = g.permute(perm.new_to_old());
        let coarsening = Coarsening::coarsen(
            &gp,
            CoarseningStrategy::ContiguousRows {
                rows_per_group: ROWS_PER_SUPER_ROW,
            },
        );
        let coloring = Coloring::greedy(
            &coarsening.coarse_graph(&gp),
            ColoringOrder::LargestDegreeFirst,
        );
        ordering.push(t.elapsed().as_nanos() as f64);
        colors = colors.max(coloring.num_colors());

        let t = Instant::now();
        let sys = analyse(a)?;
        analysis.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        solver
            .parallel_ic0(sys.structure(), sys.matrix())
            .map_err(|e| e.to_string())?;
        factor.push(t.elapsed().as_nanos() as f64);
    }
    m.put("graph.ordering_ns", median(&ordering), "ns");
    m.put("graph.colors", colors as f64, "count");
    m.put("core.analysis_ns", median(&analysis), "ns");
    m.put("core.factor_ns", median(&factor), "ns");
    Ok(())
}

/// sts-numa: an empty `parallel_for` over `threads` items on a pool of
/// `threads` workers (pinned to `core_order` when non-empty).
pub fn dispatch_layer(m: &mut Metrics, threads: usize, core_order: &[usize]) -> Result<(), String> {
    let pool = WorkerPool::with_pinning(threads, core_order);
    let noop = |_: usize| {};
    let samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            let _ = pool.parallel_for(threads, Schedule::Static, &noop);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    m.put("numa.dispatch_ns.p50", percentile(&samples, 50.0)?, "ns");
    m.put("numa.dispatch_ns.p95", percentile(&samples, 95.0)?, "ns");
    Ok(())
}

/// Client- and server-side codec costs of one wire operation.
#[derive(Debug, Clone, Copy)]
pub struct CodecCosts {
    /// Server: `protocol::parse_request` of the request line.
    pub parse_ns: f64,
    /// Server: rendering the reply envelope.
    pub render_ns: f64,
    /// Client: rendering the request line.
    pub client_render_ns: f64,
    /// Client: parsing the reply line.
    pub client_parse_ns: f64,
}

impl CodecCosts {
    /// All four codec steps of one round trip.
    pub fn total_ns(&self) -> f64 {
        self.parse_ns + self.render_ns + self.client_render_ns + self.client_parse_ns
    }
}

/// Renders the request line the client sends for `op`.
fn request_line(op: &str, fields: Vec<(&str, Value)>) -> String {
    let mut entries = vec![
        ("v", Value::UInt(PROTOCOL_VERSION)),
        ("id", Value::UInt(1)),
        ("op", Value::Str(op.to_string())),
    ];
    entries.extend(fields);
    render(&obj(entries))
}

/// Times the four codec steps of one request/reply pair and records its
/// wire sizes (newline included) under `serve.*.<op>`.
fn codec_op(
    m: &mut Metrics,
    op: &'static str,
    request: impl Fn() -> String,
    reply: impl Fn() -> String,
) -> Result<CodecCosts, String> {
    let line = request();
    let reply_line = reply();
    parse_request(&line).map_err(|e| format!("{op} line does not parse: {}", e.message))?;
    let reps = 10;
    let costs = CodecCosts {
        parse_ns: time_ns(reps, || {
            black_box(parse_request(black_box(&line)).ok());
        }),
        render_ns: time_ns(reps, || {
            black_box(reply());
        }),
        client_render_ns: time_ns(reps, || {
            black_box(request());
        }),
        client_parse_ns: time_ns(reps, || {
            black_box(serde_json::from_str(black_box(&reply_line)).ok());
        }),
    };
    let name = |what: &str| format!("serve.{what}.{op}");
    m.put(&name("request_bytes"), (line.len() + 1) as f64, "B");
    m.put(&name("reply_bytes"), (reply_line.len() + 1) as f64, "B");
    Ok(costs)
}

/// sts-serve wire codec on `a`'s dimensions: the solve request and reply,
/// plus the sizes of `submit_values` and `submit_pattern`. Returns the
/// solve's codec costs.
pub fn codec_layers(m: &mut Metrics, a: &CsrMatrix, seed: u64) -> Result<CodecCosts, String> {
    let mut rng = Rng::new(seed, stream::PROBE);
    let b = rng.rhs(a.nrows());
    let x = rng.rhs(a.nrows());
    let pattern = "00000000deadbeef";
    let solve = codec_op(
        m,
        "solve",
        || {
            request_line(
                "solve",
                vec![
                    ("pattern", Value::Str(pattern.into())),
                    ("b", float_array(&b)),
                ],
            )
        },
        || {
            ok_envelope(
                1,
                obj(vec![
                    ("x", float_array(&x)),
                    ("iterations", Value::UInt(60)),
                    ("converged", Value::Bool(true)),
                    ("residual_norm", Value::Float(1.234_567_890_123e-9)),
                    ("solve_wall_ns", Value::UInt(12_345_678)),
                    ("cache", Value::Str("warm".into())),
                    ("precision", Value::Str("f64".into())),
                ]),
            )
        },
    )?;
    m.put("serve.parse_ns", solve.parse_ns, "ns");
    m.put("serve.render_ns", solve.render_ns, "ns");
    codec_op(
        m,
        "submit_values",
        || {
            request_line(
                "submit_values",
                vec![
                    ("pattern", Value::Str(pattern.into())),
                    ("values", float_array(a.values())),
                ],
            )
        },
        || {
            ok_envelope(
                1,
                obj(vec![
                    ("pattern", Value::Str(pattern.into())),
                    ("preconditioner", Value::Str("ic0".into())),
                    ("degraded", Value::Bool(false)),
                    ("recovery_attempts", Value::UInt(0)),
                    ("final_shift", Value::Float(0.0)),
                    ("factor_wall_ns", Value::UInt(12_345_678)),
                    ("precision", Value::Str("f64".into())),
                ]),
            )
        },
    )?;
    let ints = |v: &[usize]| Value::Array(v.iter().map(|&i| Value::UInt(i as u64)).collect());
    codec_op(
        m,
        "submit_pattern",
        || {
            request_line(
                "submit_pattern",
                vec![
                    ("n", Value::UInt(a.nrows() as u64)),
                    ("row_ptr", ints(a.row_ptr())),
                    ("col_idx", ints(a.col_idx())),
                    ("method", Value::Str("STS-3".into())),
                    ("rows_per_super_row", Value::UInt(ROWS_PER_SUPER_ROW as u64)),
                ],
            )
        },
        || {
            ok_envelope(
                1,
                obj(vec![
                    ("pattern", Value::Str(pattern.into())),
                    ("cached", Value::Bool(false)),
                    ("analysis_wall_ns", Value::UInt(123_456_789)),
                    ("n", Value::UInt(a.nrows() as u64)),
                    ("nnz_lower", Value::UInt(a.nnz() as u64)),
                    ("packs", Value::UInt(10)),
                    ("super_rows", Value::UInt(500)),
                ]),
            )
        },
    )?;
    Ok(solve)
}

/// Last-level cache size reported by the host, bytes (`None` when the host
/// does not report one).
fn llc_bytes() -> Option<usize> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| std::fs::read_to_string(format!("{dir}/index{i}/size")).ok())
        .filter_map(|s| {
            let s = s.trim();
            let (digits, scale) = match s.chars().last()? {
                'K' => (&s[..s.len() - 1], 1 << 10),
                'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            digits.parse::<usize>().ok().map(|v| v * scale)
        })
        .max()
}

/// STREAM triad `a = b + s·c` on `threads` threads pinned in compact
/// order, each array at least four times the reported last-level cache
/// (32 MiB assumed when none is reported). Records the best of three
/// passes.
pub fn triad_layer(m: &mut Metrics, threads: usize) {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let len = 4 * llc / 8 + 1;
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            let chunks = a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk));
            for (core, ((ac, bc), cc)) in chunks.enumerate() {
                scope.spawn(move || {
                    affinity::pin_current_thread(core);
                    for ((ai, bi), ci) in ac.iter_mut().zip(bc).zip(cc) {
                        *ai = bi + 3.0 * ci;
                    }
                });
            }
        });
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&a);
    }
    m.put("host.triad_gbps", (3 * 8 * len) as f64 / best / 1e9, "GB/s");
    m.put(
        "host.triad_array_mb",
        (8 * len) as f64 / (1 << 20) as f64,
        "MiB",
    );
    m.put("host.llc_mb", llc as f64 / (1 << 20) as f64, "MiB");
}
