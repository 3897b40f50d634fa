//! The dependency-split CSR layout behind the pipelined solve
//! orchestrator, for both sweep directions.
//!
//! The pack-parallel solver's critical path walks every row's full nonzero
//! list between two barriers. But most of those nonzeros reference rows of
//! packs that are *already final* when the row's pack starts. Only the few
//! entries that reference the row's own super-row form a true dependence
//! chain. [`SplitLayout`] materialises that distinction at build time by
//! splitting every row's off-diagonal entries into two slabs:
//!
//! * the **external** slab holds the `(col, val)` pairs whose column belongs
//!   to another pack. Gathering them is a pure sparse-matrix-vector product
//!   against finalized data — embarrassingly parallel, no ordering
//!   constraint, bandwidth-bound streaming;
//! * the **internal** slab holds the entries whose column belongs to the same
//!   pack (and therefore, by [`StsStructure::validate`]'s pack-independence
//!   invariant, to the same super-row). This is the short true dependence
//!   chain that must run under the pack schedule.
//!
//! Both slabs are stored contiguously in row order — the rows of a pack are
//! contiguous in the reordered numbering, so a pack's external slab is one
//! dense streamable range. The reciprocal of each diagonal is precomputed so
//! the substitution multiplies instead of divides.
//!
//! # Stages
//!
//! A sweep runs the packs as a sequence of **stages**. The forward layout
//! ([`SweepDirection::Forward`], solving `L' x' = b'`) runs stage `st` =
//! pack `st`; the transpose layout ([`SweepDirection::Transpose`], solving
//! `L'ᵀ x' = b'`) runs stage `st` = pack `num_packs − 1 − st`
//! ([`SplitLayout::stage_pack`], [`SplitLayout::stage_rows`]). Everything
//! the kernels schedule against is stored in stage order, so no kernel
//! knows which direction it runs:
//!
//! * the **chain tasks** of stage `st` — the super-rows owning at least one
//!   internal entry ([`SplitLayout::chain_super_rows`]) — and each task's
//!   chain rows in substitution order: increasing for the forward sweep,
//!   decreasing for the transpose ([`SplitLayout::chain_rows_of`]);
//! * the **readiness metadata** ([`SplitLayout::ext_dep`]): for every row,
//!   `1 +` the latest *stage* its external entries reference, `0` when it
//!   has none (a row whose latest dependency is stage 0 therefore stores
//!   `1`, not `0`). A phase-1 gather chunk is ready as soon as stages
//!   `0..max(ext_dep)` of its rows are *done* — typically much earlier than
//!   "the previous stage is done", which is the slack barrier fusion
//!   converts into overlap.
//!
//! # Why the reverse stage order is correct
//!
//! `L'ᵀ` is upper triangular: component `i` of the transpose solution reads
//! only components `j > i` (`x[i] = (b[i] − Σ_{j>i} L'[j][i]·x[j]) /
//! L'[i][i]`). Classify each such read by where row `j` lives relative to
//! row `i`'s pack:
//!
//! * if `j` is in a **different super-row**, then `L'[j][i] ≠ 0` means row
//!   `j` *depends on* row `i`, and the pack-independence invariant forces
//!   `pack(j) > pack(i)` — a strictly **later** pack;
//! * otherwise `j` is in the **same super-row** as `i` (and the same pack).
//!
//! Executing the packs in reverse order therefore makes the transposed
//! system's dependence structure mirror the forward one exactly: when a
//! stage starts, every cross-super-row read targets an earlier stage that
//! has already finished, so those entries gather in any order and any
//! interleaving (phase 1), and only the short within-super-row chains remain
//! ordered (phase 2, walking each super-row's rows in decreasing index
//! order). The forward two-phase and pipelined kernels — and their
//! barrier/epoch-gate correctness arguments — apply verbatim to the stages
//! of the transpose layout.
//!
//! # Lazy construction
//!
//! A layout duplicates the operand's off-diagonal storage (its slabs hold
//! every strictly-lower entry exactly once, next to the original CSR
//! arrays). Each direction's layout is therefore built **lazily** by the
//! first [`StsStructure::layout`] call for that direction, so unsplit-only
//! callers skip the ≈2× off-diagonal storage and the build sweep entirely.
//!
//! [`StsStructure::layout`]: crate::csrk::StsStructure::layout
//! [`StsStructure::validate`]: crate::csrk::StsStructure::validate

use std::ops::Range;
use std::sync::OnceLock;

use sts_matrix::LowerTriangularCsr;

use crate::options::SweepDirection;

/// Per-row split of the reordered operand (forward) or its transpose into
/// external (other-pack) and internal (in-pack) slabs, plus the stage-ordered
/// chain tasks and readiness metadata the kernels schedule against. Built
/// lazily by the first
/// [`StsStructure::layout`](crate::csrk::StsStructure::layout) call for its
/// direction; immutable afterwards.
#[derive(Debug, Clone)]
pub struct SplitLayout {
    /// Which system the layout solves, and hence the stage → pack binding.
    direction: SweepDirection,
    /// Pack → first row (`num_packs + 1` entries).
    pack_row_ptr: Vec<usize>,
    /// CSR row pointer over the external slab (`n + 1` entries).
    ext_row_ptr: Vec<usize>,
    /// Columns of the external slab, referencing rows of earlier stages
    /// only. Stored as `u32` to halve the slab's index traffic
    /// ([`StsStructure::new`](crate::csrk::StsStructure::new) rejects
    /// systems with more than 2^32 rows).
    ext_cols: Vec<u32>,
    /// Values of the external slab (`L'[i][j]` forward, `L'[j][i]` at
    /// transpose-row `i`).
    ext_vals: Vec<f64>,
    /// CSR row pointer over the internal slab (`n + 1` entries).
    int_row_ptr: Vec<usize>,
    /// Columns of the internal slab, referencing rows of the same
    /// super-row, as `u32` like `ext_cols`.
    int_cols: Vec<u32>,
    /// Values of the internal slab.
    int_vals: Vec<f64>,
    /// Reciprocal diagonal, `1.0 / L'[i][i]` (the diagonal of `L'ᵀ` is the
    /// diagonal of `L'`).
    inv_diag: Vec<f64>,
    /// Super-rows owning at least one internal entry ("chain tasks"),
    /// grouped by stage: the chain tasks of stage `st` are
    /// `chain_srs[chain_sr_ptr[st]..chain_sr_ptr[st + 1]]`. Phase 2
    /// dispatches only these; all other super-rows are final after phase 1.
    chain_srs: Vec<usize>,
    /// Stage pointer into `chain_srs` (`num_packs + 1` entries).
    chain_sr_ptr: Vec<usize>,
    /// The chain *rows* (rows with internal entries) of each chain task, in
    /// substitution order: task `t` of `chain_srs` owns
    /// `chain_rows[chain_row_ptr[t]..chain_row_ptr[t + 1]]`. Phase 2 visits
    /// exactly these rows and no others.
    chain_rows: Vec<u32>,
    /// Task pointer into `chain_rows` (`chain_srs.len() + 1` entries).
    chain_row_ptr: Vec<usize>,
    /// Per-row readiness: `1 + (latest stage referenced by the row's
    /// external entries)`, `0` when the row has none. The row's phase-1
    /// gather may run as soon as stages `0..ext_dep[i]` are done.
    ext_dep: Vec<u32>,
    /// Lazily demoted `f32` copy of `ext_vals` for the mixed-precision
    /// kernels (storage-only — accumulation stays `f64`). Built on first
    /// [`SplitLayout::ext_vals_f32`] call so `f64`-only callers never pay
    /// the extra storage; ignored by `PartialEq` like the lazy caches on
    /// `StsStructure`.
    ext_vals_f32: OnceLock<Vec<f32>>,
    /// Lazily demoted `f32` copy of `int_vals` (see `ext_vals_f32`).
    int_vals_f32: OnceLock<Vec<f32>>,
}

/// Equality compares the built slabs and metadata; the lazily demoted `f32`
/// value caches are derived data and are ignored (the same convention as
/// `StsStructure`'s lazy layout caches).
impl PartialEq for SplitLayout {
    fn eq(&self, other: &SplitLayout) -> bool {
        self.direction == other.direction
            && self.pack_row_ptr == other.pack_row_ptr
            && self.ext_row_ptr == other.ext_row_ptr
            && self.ext_cols == other.ext_cols
            && self.ext_vals == other.ext_vals
            && self.int_row_ptr == other.int_row_ptr
            && self.int_cols == other.int_cols
            && self.int_vals == other.int_vals
            && self.inv_diag == other.inv_diag
            && self.chain_srs == other.chain_srs
            && self.chain_sr_ptr == other.chain_sr_ptr
            && self.chain_rows == other.chain_rows
            && self.chain_row_ptr == other.chain_row_ptr
            && self.ext_dep == other.ext_dep
    }
}

impl SplitLayout {
    /// The forward layout of the reordered operand `L'`: row `i`'s slabs
    /// hold its strictly-lower entries, and stage `st` is pack `st`.
    /// `index3`/`index2` are the validated hierarchy arrays. Because packs
    /// execute in row order, a column is external exactly when it is smaller
    /// than its row's pack start.
    pub(crate) fn forward(
        l: &LowerTriangularCsr,
        index3: &[usize],
        index2: &[usize],
    ) -> SplitLayout {
        let n = l.n();
        let (row_ptr, col_idx, values) = (l.row_ptr(), l.col_idx(), l.values());
        let (pack_row_ptr, pack_of_row) = pack_rows(n, index3, index2);
        let off_diag = l.nnz() - n;
        let mut ext_row_ptr = Vec::with_capacity(n + 1);
        let mut int_row_ptr = Vec::with_capacity(n + 1);
        let mut ext_cols = Vec::with_capacity(off_diag);
        let mut ext_vals = Vec::with_capacity(off_diag);
        let mut int_cols = Vec::new();
        let mut int_vals = Vec::new();
        let mut ext_dep = Vec::with_capacity(n);
        ext_row_ptr.push(0);
        int_row_ptr.push(0);
        for i in 0..n {
            let pack_start = pack_row_ptr[pack_of_row[i] as usize];
            let mut dep = 0u32;
            for k in row_ptr[i]..row_ptr[i + 1] - 1 {
                if col_idx[k] < pack_start {
                    ext_cols.push(col_idx[k] as u32);
                    ext_vals.push(values[k]);
                    dep = dep.max(pack_of_row[col_idx[k]] + 1);
                } else {
                    int_cols.push(col_idx[k] as u32);
                    int_vals.push(values[k]);
                }
            }
            ext_row_ptr.push(ext_cols.len());
            int_row_ptr.push(int_cols.len());
            debug_assert!(
                dep <= pack_of_row[i],
                "external reads stay in earlier packs"
            );
            ext_dep.push(dep);
        }
        SplitLayout::with_slabs(
            SweepDirection::Forward,
            l,
            pack_row_ptr,
            (ext_row_ptr, ext_cols, ext_vals),
            (int_row_ptr, int_cols, int_vals),
            ext_dep,
        )
        .group_chain_tasks(index3, index2)
    }

    /// The transpose layout of `L'ᵀ`: row `i`'s slabs hold the
    /// strictly-lower entries `L'[j][i]` of column `i` (CSR of `L'ᵀ`, i.e.
    /// CSC of `L'` without the diagonal), and stage `st` is pack
    /// `num_packs − 1 − st` (see the module docs for why that order is
    /// correct). An entry is external exactly when row `j` lies in a later
    /// pack.
    pub(crate) fn transpose(
        l: &LowerTriangularCsr,
        index3: &[usize],
        index2: &[usize],
    ) -> SplitLayout {
        let n = l.n();
        let (row_ptr, col_idx, values) = (l.row_ptr(), l.col_idx(), l.values());
        let (pack_row_ptr, pack_of_row) = pack_rows(n, index3, index2);
        let num_packs = index3.len() - 1;
        // Counting pass: each strictly-lower entry (j, i) of L' is an entry
        // (i, j) of the transpose; classify by pack(j) vs pack(i).
        let mut ext_row_ptr = vec![0usize; n + 1];
        let mut int_row_ptr = vec![0usize; n + 1];
        for j in 0..n {
            for &i in &col_idx[row_ptr[j]..row_ptr[j + 1] - 1] {
                if pack_of_row[j] > pack_of_row[i] {
                    ext_row_ptr[i + 1] += 1;
                } else {
                    // Same pack ⇒ same super-row by the pack-independence
                    // invariant; an *earlier* pack is impossible for j > i.
                    debug_assert_eq!(pack_of_row[j], pack_of_row[i]);
                    int_row_ptr[i + 1] += 1;
                }
            }
        }
        for i in 0..n {
            ext_row_ptr[i + 1] += ext_row_ptr[i];
            int_row_ptr[i + 1] += int_row_ptr[i];
        }
        let mut ext_cols = vec![0u32; ext_row_ptr[n]];
        let mut ext_vals = vec![0.0f64; ext_row_ptr[n]];
        let mut int_cols = vec![0u32; int_row_ptr[n]];
        let mut int_vals = vec![0.0f64; int_row_ptr[n]];
        let mut ext_dep = vec![0u32; n];
        // Fill pass; sweeping j in increasing order leaves every
        // transpose-row's columns sorted increasingly.
        let mut ext_cursor = ext_row_ptr[..n].to_vec();
        let mut int_cursor = int_row_ptr[..n].to_vec();
        for j in 0..n {
            for k in row_ptr[j]..row_ptr[j + 1] - 1 {
                let i = col_idx[k];
                if pack_of_row[j] > pack_of_row[i] {
                    ext_cols[ext_cursor[i]] = j as u32;
                    ext_vals[ext_cursor[i]] = values[k];
                    ext_cursor[i] += 1;
                    // Pack q is stage num_packs − 1 − q, so "stage of
                    // pack(j) done" is epoch ≥ num_packs − pack(j).
                    ext_dep[i] = ext_dep[i].max(num_packs as u32 - pack_of_row[j]);
                } else {
                    int_cols[int_cursor[i]] = j as u32;
                    int_vals[int_cursor[i]] = values[k];
                    int_cursor[i] += 1;
                }
            }
        }
        SplitLayout::with_slabs(
            SweepDirection::Transpose,
            l,
            pack_row_ptr,
            (ext_row_ptr, ext_cols, ext_vals),
            (int_row_ptr, int_cols, int_vals),
            ext_dep,
        )
        .group_chain_tasks(index3, index2)
    }

    /// A layout around built slabs, with no chain tasks grouped yet.
    fn with_slabs(
        direction: SweepDirection,
        l: &LowerTriangularCsr,
        pack_row_ptr: Vec<usize>,
        (ext_row_ptr, ext_cols, ext_vals): (Vec<usize>, Vec<u32>, Vec<f64>),
        (int_row_ptr, int_cols, int_vals): (Vec<usize>, Vec<u32>, Vec<f64>),
        ext_dep: Vec<u32>,
    ) -> SplitLayout {
        // Enforced with a proper error by StsStructure::new before this runs.
        debug_assert!(
            l.n() == 0 || l.n() - 1 <= u32::MAX as usize,
            "columns are stored as u32"
        );
        SplitLayout {
            direction,
            pack_row_ptr,
            ext_row_ptr,
            ext_cols,
            ext_vals,
            int_row_ptr,
            int_cols,
            int_vals,
            inv_diag: (0..l.n()).map(|i| 1.0 / l.diag(i)).collect(),
            chain_srs: Vec::new(),
            chain_sr_ptr: vec![0],
            chain_rows: Vec::new(),
            chain_row_ptr: vec![0],
            ext_dep,
            ext_vals_f32: OnceLock::new(),
            int_vals_f32: OnceLock::new(),
        }
    }

    /// Groups the super-rows that own internal entries ("chain tasks") by
    /// stage, and records each task's chain rows in substitution order so
    /// phase 2 visits nothing else.
    fn group_chain_tasks(mut self, index3: &[usize], index2: &[usize]) -> SplitLayout {
        let int_row_ptr = &self.int_row_ptr;
        let has_chain = |&r: &usize| int_row_ptr[r] != int_row_ptr[r + 1];
        for st in 0..self.num_stages() {
            let p = self.stage_pack(st);
            for sr in index3[p]..index3[p + 1] {
                let rows = index2[sr]..index2[sr + 1];
                if int_row_ptr[rows.start] == int_row_ptr[rows.end] {
                    continue;
                }
                self.chain_srs.push(sr);
                let rows = rows.filter(has_chain).map(|r| r as u32);
                match self.direction {
                    SweepDirection::Forward => self.chain_rows.extend(rows),
                    SweepDirection::Transpose => self.chain_rows.extend(rows.rev()),
                }
                self.chain_row_ptr.push(self.chain_rows.len());
            }
            self.chain_sr_ptr.push(self.chain_srs.len());
        }
        self
    }

    /// The system this layout solves: `L'` ([`SweepDirection::Forward`]) or
    /// `L'ᵀ` ([`SweepDirection::Transpose`]).
    pub fn direction(&self) -> SweepDirection {
        self.direction
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.inv_diag.len()
    }

    /// Number of stages (= packs).
    pub fn num_stages(&self) -> usize {
        self.pack_row_ptr.len() - 1
    }

    /// The pack stage `st` runs: `st` forward, `num_packs − 1 − st` for the
    /// transpose.
    #[inline]
    pub fn stage_pack(&self, st: usize) -> usize {
        stage_of_pack(self.direction, self.num_stages(), st)
    }

    /// The rows of stage `st`'s pack (contiguous in the reordered
    /// numbering).
    #[inline]
    pub fn stage_rows(&self, st: usize) -> Range<usize> {
        let p = self.stage_pack(st);
        self.pack_row_ptr[p]..self.pack_row_ptr[p + 1]
    }

    /// Total entries in the external (other-pack) slab.
    pub fn ext_nnz(&self) -> usize {
        self.ext_cols.len()
    }

    /// Total entries in the internal (in-pack) slab.
    pub fn int_nnz(&self) -> usize {
        self.int_cols.len()
    }

    /// The demoted `f32` copy of the external value slab, built on first
    /// use (one rounding per entry; the reciprocal diagonal is *not*
    /// demoted). Thread-safe: concurrent first calls race benignly inside
    /// the `OnceLock`.
    #[inline]
    pub fn ext_vals_f32(&self) -> &[f32] {
        self.ext_vals_f32
            .get_or_init(|| self.ext_vals.iter().map(|&v| v as f32).collect())
    }

    /// The demoted `f32` copy of the internal value slab (see
    /// [`SplitLayout::ext_vals_f32`]).
    #[inline]
    pub fn int_vals_f32(&self) -> &[f32] {
        self.int_vals_f32
            .get_or_init(|| self.int_vals.iter().map(|&v| v as f32).collect())
    }

    /// Whether the demoted `f32` slabs have been built yet (diagnostic;
    /// `f64`-only callers should keep this `false`).
    pub fn f32_slabs_built(&self) -> bool {
        self.ext_vals_f32.get().is_some() && self.int_vals_f32.get().is_some()
    }

    /// The external slab's CSR row pointer (`n + 1` entries).
    #[inline]
    pub fn ext_row_ptr(&self) -> &[usize] {
        &self.ext_row_ptr
    }

    /// The external slab's column array.
    #[inline]
    pub fn ext_cols(&self) -> &[u32] {
        &self.ext_cols
    }

    /// The external slab's value array.
    #[inline]
    pub fn ext_vals(&self) -> &[f64] {
        &self.ext_vals
    }

    /// The internal slab's CSR row pointer (`n + 1` entries).
    #[inline]
    pub fn int_row_ptr(&self) -> &[usize] {
        &self.int_row_ptr
    }

    /// The internal slab's column array.
    #[inline]
    pub fn int_cols(&self) -> &[u32] {
        &self.int_cols
    }

    /// The internal slab's value array.
    #[inline]
    pub fn int_vals(&self) -> &[f64] {
        &self.int_vals
    }

    /// The reciprocal diagonal array.
    #[inline]
    pub fn inv_diags(&self) -> &[f64] {
        &self.inv_diag
    }

    /// External entries of row `i` as parallel `(cols, vals)` slices.
    #[inline]
    pub fn ext_row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.ext_row_ptr[i]..self.ext_row_ptr[i + 1];
        (&self.ext_cols[r.clone()], &self.ext_vals[r])
    }

    /// Internal entries of row `i` as parallel `(cols, vals)` slices.
    #[inline]
    pub fn int_row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.int_row_ptr[i]..self.int_row_ptr[i + 1];
        (&self.int_cols[r.clone()], &self.int_vals[r])
    }

    /// The chain tasks of stage `st`: the super-rows with at least one
    /// internal entry, i.e. the only tasks phase 2 must dispatch.
    #[inline]
    pub fn chain_super_rows(&self, st: usize) -> &[usize] {
        &self.chain_srs[self.chain_sr_ptr[st]..self.chain_sr_ptr[st + 1]]
    }

    /// The chain rows of the `t`-th chain task of stage `st`, in
    /// substitution order (increasing forward, decreasing for the
    /// transpose) — exactly the rows phase 2 must correct for that task.
    #[inline]
    pub fn chain_rows_of(&self, st: usize, t: usize) -> &[u32] {
        let task = self.chain_sr_ptr[st] + t;
        &self.chain_rows[self.chain_row_ptr[task]..self.chain_row_ptr[task + 1]]
    }

    /// Per-row readiness metadata: `ext_dep()[i]` is `1 +` the latest stage
    /// referenced by row `i`'s external entries (`0` when it has none). Row
    /// `i`'s phase-1 gather may run as soon as stages `0..ext_dep()[i]` are
    /// done.
    #[inline]
    pub fn ext_dep(&self) -> &[u32] {
        &self.ext_dep
    }

    /// Readiness of a contiguous row range (a phase-1 gather chunk): the
    /// number of leading stages that must be done before every external
    /// read of the range is final. Always `≤` the range's own stage, and
    /// for chained orderings typically `<` — the slack the pipelined kernel
    /// overlaps.
    #[inline]
    pub fn range_ext_dep(&self, rows: Range<usize>) -> u32 {
        self.ext_dep[rows].iter().copied().max().unwrap_or(0)
    }
}

/// Pack → first row (`num_packs + 1` entries) and row → pack lookups of
/// the validated hierarchy arrays.
fn pack_rows(n: usize, index3: &[usize], index2: &[usize]) -> (Vec<usize>, Vec<u32>) {
    let pack_row_ptr: Vec<usize> = index3.iter().map(|&sr| index2[sr]).collect();
    let mut pack_of_row = vec![0u32; n];
    for (p, rows) in pack_row_ptr.windows(2).enumerate() {
        pack_of_row[rows[0]..rows[1]].fill(p as u32);
    }
    (pack_row_ptr, pack_of_row)
}

/// The stage ↔ pack bijection of a direction (an involution, so it maps
/// both ways).
#[inline]
fn stage_of_pack(direction: SweepDirection, num_packs: usize, p: usize) -> usize {
    match direction {
        SweepDirection::Forward => p,
        SweepDirection::Transpose => num_packs - 1 - p,
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::Method;
    use crate::options::SweepDirection::{Forward, Transpose};
    use sts_matrix::generators;

    #[test]
    fn slabs_partition_the_off_diagonal_entries() {
        let a = generators::triangulated_grid(12, 12, 1).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            for direction in [Forward, Transpose] {
                let layout = s.layout(direction);
                assert_eq!(layout.n(), s.n());
                assert_eq!(
                    layout.ext_nnz() + layout.int_nnz(),
                    s.nnz() - s.n(),
                    "{} {direction:?}: ext + int must cover every strictly-lower entry",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn external_entries_reference_earlier_stages_only() {
        let a = generators::grid2d_9point(14, 14).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        for direction in [Forward, Transpose] {
            let layout = s.layout(direction);
            for st in 0..layout.num_stages() {
                let rows = layout.stage_rows(st);
                assert_eq!(rows, s.pack_rows(layout.stage_pack(st)));
                for i in rows.clone() {
                    let (ext_cols, _) = layout.ext_row(i);
                    assert!(ext_cols.iter().all(|&j| {
                        let j = j as usize;
                        match direction {
                            Forward => j < rows.start,
                            Transpose => j >= rows.end,
                        }
                    }));
                    let (int_cols, _) = layout.int_row(i);
                    assert!(int_cols.iter().all(|&j| {
                        let j = j as usize;
                        rows.contains(&j) && (j < i) == (direction == Forward)
                    }));
                }
            }
        }
    }

    #[test]
    fn internal_entries_stay_inside_the_super_row() {
        let a = generators::triangulated_grid(10, 10, 4).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        for direction in [Forward, Transpose] {
            let layout = s.layout(direction);
            for sr in 0..s.num_super_rows() {
                let rows = s.super_row_rows(sr);
                for i in rows.clone() {
                    let (int_cols, _) = layout.int_row(i);
                    assert!(
                        int_cols.iter().all(|&j| rows.contains(&(j as usize))),
                        "{direction:?}: internal entry of row {i} escapes super-row {sr}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_entries_mirror_the_forward_operand() {
        // Every (i, j, v) of the transpose layout must be a strictly-lower
        // (j, i, v) of L'.
        let a = generators::grid2d_laplacian(9, 9).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Csr3Ls.build(&l, 6).unwrap();
        let ts = s.layout(Transpose);
        let lp = s.lower();
        for i in 0..s.n() {
            for (cols, vals) in [ts.ext_row(i), ts.int_row(i)] {
                for (&j, &v) in cols.iter().zip(vals) {
                    let j = j as usize;
                    assert!(j > i);
                    let pos = lp
                        .row_off_diag_cols(j)
                        .iter()
                        .position(|&c| c == i)
                        .unwrap_or_else(|| panic!("transpose entry ({i}, {j}) not in L'"));
                    assert_eq!(lp.row_off_diag_values(j)[pos], v);
                }
            }
        }
    }

    #[test]
    fn chain_rows_follow_the_substitution_order() {
        let a = generators::grid2d_laplacian(12, 12).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 6).unwrap();
        for direction in [Forward, Transpose] {
            let layout = s.layout(direction);
            for st in 0..layout.num_stages() {
                for t in 0..layout.chain_super_rows(st).len() {
                    let rows = layout.chain_rows_of(st, t);
                    assert!(!rows.is_empty());
                    for w in rows.windows(2) {
                        assert_eq!(
                            w[0] < w[1],
                            direction == Forward,
                            "chain rows increase forward and decrease backward"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn readiness_metadata_bounds_every_external_read() {
        let a = generators::triangulated_grid(12, 12, 7).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            for direction in [Forward, Transpose] {
                let layout = s.layout(direction);
                // Row → stage lookup from the layout.
                let mut stage_of = vec![0usize; s.n()];
                for st in 0..layout.num_stages() {
                    for r in layout.stage_rows(st) {
                        stage_of[r] = st;
                    }
                }
                let mut any_slack = false;
                for st in 0..layout.num_stages() {
                    let rows = layout.stage_rows(st);
                    assert!(layout.range_ext_dep(rows.clone()) as usize <= st);
                    for i in rows {
                        let dep = layout.ext_dep()[i];
                        let (cols, _) = layout.ext_row(i);
                        // dep is exactly 1 + the latest referenced stage.
                        let latest = cols.iter().map(|&j| stage_of[j as usize] + 1).max();
                        assert_eq!(dep as usize, latest.unwrap_or(0));
                        if st > 0 && (dep as usize) < st {
                            any_slack = true;
                        }
                    }
                }
                // The pipelining premise: some rows' forward gathers are
                // ready before the predecessor pack finishes (row-granular
                // slack; whole packs rarely have it under level-set
                // orderings, where every level depends on its predecessor
                // by construction).
                if direction == Forward && s.num_packs() > 2 {
                    assert!(
                        any_slack,
                        "{}: no pipelining slack found in the readiness metadata",
                        method.label()
                    );
                }
            }
        }
    }

    #[test]
    fn ext_dep_distinguishes_a_pack_zero_dependency_from_none() {
        // Level-set packs: pack 0 is the dependency-free level, and every
        // pack-1 row reads pack-0 rows only. The encoding must keep those two
        // cases apart: "no external reads" stores 0, "latest dependency is
        // pack 0" stores 1.
        let l = generators::paper_figure1_l();
        let s = Method::CsrLs.build(&l, 2).unwrap();
        assert!(s.num_packs() > 1);
        let split = s.layout(Forward);
        for i in s.pack_rows(0) {
            assert_eq!(split.ext_dep()[i], 0, "pack-0 row {i} has no dependency");
        }
        let pack0 = s.pack_rows(0);
        let mut saw_boundary_row = false;
        for i in s.pack_rows(1) {
            let (cols, _) = split.ext_row(i);
            if cols.is_empty() {
                assert_eq!(split.ext_dep()[i], 0);
                continue;
            }
            assert!(cols.iter().all(|&j| pack0.contains(&(j as usize))));
            assert_eq!(
                split.ext_dep()[i],
                1,
                "row {i}'s latest dependency is pack 0, so it must store 1, not 0"
            );
            saw_boundary_row = true;
        }
        assert!(saw_boundary_row, "some pack-1 row depends on pack 0");
    }

    #[test]
    fn inv_diag_is_the_reciprocal_of_the_stored_diagonal() {
        let l = generators::paper_figure1_l();
        let s = Method::CsrCol.build(&l, 2).unwrap();
        for direction in [Forward, Transpose] {
            let layout = s.layout(direction);
            for i in 0..s.n() {
                assert!((layout.inv_diags()[i] * s.lower().diag(i) - 1.0).abs() < 1e-15);
            }
        }
    }
}
