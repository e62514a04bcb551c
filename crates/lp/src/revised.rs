//! Sparse revised simplex with implicit variable bounds and self-certified
//! results.
//!
//! This is the crate's only LP solver.  Three structural choices fit it to
//! the small sparse LPs the Palmed pipeline generates, LP2's tens to
//! hundreds per run:
//!
//! * **Sparse storage.**  The standard form is held column-major (CSC); an
//!   iteration touches `O(nnz + m²)` numbers instead of a full
//!   `rows × cols` tableau.
//! * **Implicit bounds.**  Lower/upper variable bounds are handled by the
//!   bounded-variable simplex rule: a nonbasic variable simply sits at one of
//!   its bounds (or at zero when free).  No `x <= u` rows are materialised
//!   and free variables are not split into positive/negative parts.
//! * **Factorised basis.**  The basis matrix is kept as a sparse LU
//!   factorisation plus a chain of product-form eta updates, refactorised
//!   periodically.  Pivots never rewrite the constraint data.
//!
//! Feasibility is reached with an **artificial-free phase 1** that minimises
//! the total bound violation of the basic variables, starting from the
//! all-slack basis.
//!
//! Pricing is Dantzig with a switch to Bland's rule after
//! `BLAND_THRESHOLD` pivots.
//!
//! **Every outcome carries a certificate**, checked against the [`Problem`]
//! by the crate's `certify` module, which shares no code with the pivoting
//! here: the row duals `y = B⁻ᵀ c_B` of the final basis for an optimum, the
//! phase-1 duals for infeasibility, and the entering column's edge
//! direction for unboundedness.  Each check bumps `lp.certify.checked`, and
//! a failed one `lp.certify.failed`; debug builds also panic on it.
//! Certification never changes a result.

use crate::certify::{self, Check};
use crate::error::{LpError, LpResult};
use crate::model::{ConstraintOp, Problem, Sense, Solution};

/// Hard limit on the number of pivots across both phases.
const MAX_ITERATIONS: usize = 50_000;
/// Number of Dantzig-rule pivots before switching to Bland's rule.
const BLAND_THRESHOLD: usize = 5_000;
/// Feasibility / optimality tolerance.
const TOLERANCE: f64 = 1e-8;
/// Refactorise the basis after this many eta updates.
const REFACTOR_INTERVAL: usize = 64;
/// Smallest pivot magnitude the ratio test lets block: rows whose entry in
/// the entering column is at most this are never chosen to leave.
const PIVOT_TOL: f64 = 1e-9;

/// Status of one standard-form column (structural variables first, then one
/// slack per row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable, resting at zero.
    Free,
}

/// Sparse left-looking LU factorisation with partial pivoting
/// (Gilbert–Peierls style, column-major storage).
///
/// Column `j` of the input becomes pivot position `j`; elimination sweeps the
/// previously pivoted positions in order, touching only non-zero entries, so
/// factorisation costs `O(k² index scans + flops(fill))` and each solve costs
/// `O(nnz(L) + nnz(U))`.  On the band-structured bases Palmed-style LPs
/// produce, fill-in is tiny and solves run orders of magnitude below the
/// dense `O(k²)` bound.
struct SparseLu {
    k: usize,
    /// Strictly-sub-diagonal part of column `t`, entries `(original row,
    /// multiplier)`; the unit diagonal is implicit.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Above-diagonal part of column `t`, entries `(pivot position < t,
    /// value)`.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U` per pivot position.
    u_diag: Vec<f64>,
    /// `p[t]` = original row pivoted at position `t`.
    p: Vec<usize>,
    /// Inverse of `p`.
    pinv: Vec<usize>,
}

impl SparseLu {
    /// Factorises the `k x k` matrix given as sparse columns.
    fn factorize(k: usize, columns: &[Vec<(usize, f64)>]) -> Option<SparseLu> {
        debug_assert_eq!(columns.len(), k);
        let mut lu = SparseLu {
            k,
            l_cols: Vec::with_capacity(k),
            u_cols: Vec::with_capacity(k),
            u_diag: Vec::with_capacity(k),
            p: Vec::with_capacity(k),
            pinv: vec![usize::MAX; k],
        };
        let mut x = vec![0.0; k];
        // Rows holding a work value this column.  A marker, not `x[r] != 0`:
        // a value can cancel to exactly zero and then fill in again, and the
        // row must still be listed once.
        let mut is_touched = vec![false; k];
        let mut touched: Vec<usize> = Vec::new();
        for (j, column) in columns.iter().enumerate() {
            for &(r, v) in column {
                if !is_touched[r] {
                    is_touched[r] = true;
                    touched.push(r);
                }
                x[r] += v;
            }
            // Eliminate against already-pivoted positions in order.
            let mut u_col = Vec::new();
            for t in 0..j {
                let xv = x[lu.p[t]];
                if xv == 0.0 {
                    continue;
                }
                u_col.push((t, xv));
                for &(r, lv) in &lu.l_cols[t] {
                    if !is_touched[r] {
                        is_touched[r] = true;
                        touched.push(r);
                    }
                    x[r] -= lv * xv;
                }
            }
            // Partial pivoting among the unpivoted rows.
            let mut pr = usize::MAX;
            let mut best = 0.0;
            for &r in &touched {
                if lu.pinv[r] == usize::MAX && x[r].abs() > best {
                    best = x[r].abs();
                    pr = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            let d = x[pr];
            let mut l_col = Vec::new();
            for &r in &touched {
                if lu.pinv[r] == usize::MAX && r != pr && x[r] != 0.0 {
                    l_col.push((r, x[r] / d));
                }
            }
            lu.p.push(pr);
            lu.pinv[pr] = j;
            lu.u_diag.push(d);
            lu.u_cols.push(u_col);
            lu.l_cols.push(l_col);
            for &r in &touched {
                x[r] = 0.0;
                is_touched[r] = false;
            }
            touched.clear();
        }
        Some(lu)
    }

    /// Solves `B x = v` (`v` indexed by row, result indexed by column).
    fn solve(&self, v: &[f64]) -> Vec<f64> {
        let k = self.k;
        let mut work = v.to_vec();
        let mut z = vec![0.0; k];
        for t in 0..k {
            let zt = work[self.p[t]];
            z[t] = zt;
            if zt != 0.0 {
                for &(r, lv) in &self.l_cols[t] {
                    work[r] -= lv * zt;
                }
            }
        }
        for s in (0..k).rev() {
            let xs = z[s] / self.u_diag[s];
            z[s] = xs;
            if xs != 0.0 {
                for &(t, uv) in &self.u_cols[s] {
                    z[t] -= uv * xs;
                }
            }
        }
        z
    }

    /// Solves `Bᵀ y = c` (`c` indexed by column, result indexed by row).
    fn solve_transpose(&self, c: &[f64]) -> Vec<f64> {
        let k = self.k;
        // Uᵀ w = c, ascending positions.
        let mut w = vec![0.0; k];
        for t in 0..k {
            let mut acc = c[t];
            for &(s, uv) in &self.u_cols[t] {
                acc -= uv * w[s];
            }
            w[t] = acc / self.u_diag[t];
        }
        // Lᵀ u = w, descending positions (unit diagonal).
        for t in (0..k).rev() {
            let mut acc = w[t];
            for &(r, lv) in &self.l_cols[t] {
                acc -= lv * w[self.pinv[r]];
            }
            w[t] = acc;
        }
        // Undo the row permutation.
        let mut y = vec![0.0; k];
        for t in 0..k {
            y[self.p[t]] = w[t];
        }
        y
    }
}

/// Factorisation of the basis that exploits singleton columns.
///
/// In Palmed's LPs (and in bounded LPs generally) a large share of the basis
/// consists of slack columns — unit vectors.  Each basic column with a single
/// non-zero pivots its row at zero cost; only the remaining *kernel* block
/// (general columns × uncovered rows, size `k × k` with `k ≤ m`, often
/// `k ≪ m`) needs a dense LU.  Solves then cost `O(k² + nnz)` instead of
/// `O(m²)`, and refactorisation `O(k³)` instead of `O(m³)` — the difference
/// between the revised simplex winning and losing on slack-heavy instances.
struct BasisFactors {
    /// `(basis position, row, value)` of every singleton basic column.
    singletons: Vec<(usize, usize, f64)>,
    /// Positions in the basis of the kernel (non-singleton) columns, in LU
    /// order.
    kernel_pos: Vec<usize>,
    /// Original row of each compressed kernel row.
    kernel_rows: Vec<usize>,
    /// Per singleton: the kernel columns' entries in its pivoted row, as
    /// `(kernel column index, value)`.
    sing_rows: Vec<Vec<(usize, f64)>>,
    /// Sparse LU of the `k × k` kernel block.
    lu: SparseLu,
}

impl BasisFactors {
    /// Factorises the basis given as sparse columns (indexed by position).
    fn factorize(m: usize, columns: &[Vec<(usize, f64)>]) -> Option<BasisFactors> {
        debug_assert_eq!(columns.len(), m);
        // Singleton pass: basic columns with one non-zero pivot their row.
        let mut singleton_of_row: Vec<Option<usize>> = vec![None; m];
        let mut singletons = Vec::new();
        let mut kernel_pos = Vec::new();
        for (pos, col) in columns.iter().enumerate() {
            match col.as_slice() {
                &[(row, value)] if value.abs() > 1e-12 && singleton_of_row[row].is_none() => {
                    singleton_of_row[row] = Some(singletons.len());
                    singletons.push((pos, row, value));
                }
                _ => kernel_pos.push(pos),
            }
        }
        // Compress the uncovered rows.
        let mut row_comp: Vec<Option<usize>> = vec![None; m];
        let mut kernel_rows = Vec::new();
        for row in 0..m {
            if singleton_of_row[row].is_none() {
                row_comp[row] = Some(kernel_rows.len());
                kernel_rows.push(row);
            }
        }
        let k = kernel_rows.len();
        if kernel_pos.len() != k {
            return None;
        }
        // Kernel block and the singleton-row coupling entries.
        let mut sing_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); singletons.len()];
        let mut kernel_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(k);
        for (ci, &pos) in kernel_pos.iter().enumerate() {
            let mut compressed = Vec::with_capacity(columns[pos].len());
            for &(row, value) in &columns[pos] {
                match row_comp[row] {
                    Some(cr) => compressed.push((cr, value)),
                    None => {
                        let si = singleton_of_row[row].expect("covered row has a singleton");
                        sing_rows[si].push((ci, value));
                    }
                }
            }
            kernel_cols.push(compressed);
        }
        let lu = SparseLu::factorize(k, &kernel_cols)?;
        Some(BasisFactors { singletons, kernel_pos, kernel_rows, sing_rows, lu })
    }

    /// Solves `B x = v`; the result is indexed by basis *position*.
    fn solve(&self, v: &[f64]) -> Vec<f64> {
        let rhs: Vec<f64> = self.kernel_rows.iter().map(|&r| v[r]).collect();
        let x_kernel = self.lu.solve(&rhs);
        let mut x = vec![0.0; v.len()];
        for (ci, &pos) in self.kernel_pos.iter().enumerate() {
            x[pos] = x_kernel[ci];
        }
        for (si, &(pos, row, value)) in self.singletons.iter().enumerate() {
            let mut acc = v[row];
            for &(ci, a) in &self.sing_rows[si] {
                acc -= a * x_kernel[ci];
            }
            x[pos] = acc / value;
        }
        x
    }

    /// Solves `Bᵀ y = c` (`c` indexed by position); result indexed by row.
    fn solve_transpose(&self, c: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; c.len()];
        for &(pos, row, value) in &self.singletons {
            y[row] = c[pos] / value;
        }
        let mut rhs: Vec<f64> = self.kernel_pos.iter().map(|&pos| c[pos]).collect();
        for (si, &(_, row, _)) in self.singletons.iter().enumerate() {
            let y_row = y[row];
            if y_row != 0.0 {
                for &(ci, a) in &self.sing_rows[si] {
                    rhs[ci] -= a * y_row;
                }
            }
        }
        let y_kernel = self.lu.solve_transpose(&rhs);
        for (cr, &row) in self.kernel_rows.iter().enumerate() {
            y[row] = y_kernel[cr];
        }
        y
    }
}

/// Product-form eta update: after a pivot at basis position `pos` with
/// entering column spike `w = B⁻¹ aq`, the new inverse is `E⁻¹ B⁻¹`.
/// Stored sparsely — the spike of a sparse basis has few non-zeros, and the
/// eta chain is applied twice per iteration (FTRAN and BTRAN).
struct Eta {
    pos: usize,
    /// Spike value at `pos`.
    pivot: f64,
    /// Remaining non-zeros of the spike, `(position, value)`, `pos` excluded.
    entries: Vec<(usize, f64)>,
}

impl Eta {
    fn from_spike(pos: usize, w: &[f64]) -> Eta {
        let entries = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != pos && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        Eta { pos, pivot: w[pos], entries }
    }
}

/// The problem in sparse bounded standard form plus solver state.
struct Solver {
    m: usize,
    /// Total columns: structural variables then one slack per row.
    n_total: usize,
    n_struct: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Minimisation costs over all columns (slacks cost 0).
    cost: Vec<f64>,
    b: Vec<f64>,
    status: Vec<ColStatus>,
    /// Column basic at each basis position.
    basis_cols: Vec<usize>,
    /// Value of the basic variable at each basis position.
    x_basic: Vec<f64>,
    factors: BasisFactors,
    etas: Vec<Eta>,
    iterations: usize,
    refactorizations: usize,
}

enum PhaseOutcome {
    /// Phase 1 only: feasibility reached.
    Feasible,
    /// Phase 2 only: optimum reached.  Holds the row duals `B⁻ᵀ c_B` of the
    /// final basis, the optimality certificate.
    Optimal(Vec<f64>),
    /// Phase 1 only: no improving column but infeasibility remains.  Holds
    /// the phase-1 row duals, a Farkas certificate.
    Infeasible(Vec<f64>),
    /// Phase 2 only: improving ray with no blocking bound.  Holds the ray
    /// over the structural variables.
    Unbounded(Vec<f64>),
}

impl Solver {
    /// Assembles the standard form and factorises the all-slack basis.
    fn build(problem: &Problem) -> Solver {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        let n_total = n + m;

        // Sparse CSC assembly: structural columns from the constraint rows,
        // then one +1 slack column per row.
        let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut b = Vec::with_capacity(m);
        let mut lower = Vec::with_capacity(n_total);
        let mut upper = Vec::with_capacity(n_total);
        for def in problem.vars() {
            lower.push(def.lower);
            upper.push(def.upper);
        }
        for (i, c) in problem.constraints().iter().enumerate() {
            for (v, coefficient) in c.expr.sparse_terms() {
                entries[v.index()].push((i, coefficient));
            }
            b.push(c.rhs);
        }
        let mut col_ptr = Vec::with_capacity(n_total + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for col in &entries {
            for &(r, v) in col {
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        for (i, c) in problem.constraints().iter().enumerate() {
            row_idx.push(i);
            values.push(1.0);
            col_ptr.push(row_idx.len());
            // Slack bounds encode the constraint sense: a x + s = b with
            // s >= 0 is `<=`, s <= 0 is `>=`, s = 0 is `==`.
            match c.op {
                ConstraintOp::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                ConstraintOp::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                ConstraintOp::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }

        // Minimisation cost row (maximisation is negated).
        let maximize = problem.sense() == Sense::Maximize;
        let mut cost = vec![0.0; n_total];
        for (v, coefficient) in problem.objective().sparse_terms() {
            cost[v.index()] += if maximize { -coefficient } else { coefficient };
        }

        // All-slack starting basis: each structural column rests at a bound.
        let mut status: Vec<ColStatus> =
            (0..n).map(|j| Self::resting_status(lower[j], upper[j])).collect();
        status.resize(n_total, ColStatus::Basic);
        let mut solver = Solver {
            m,
            n_total,
            n_struct: n,
            col_ptr,
            row_idx,
            values,
            lower,
            upper,
            cost,
            b,
            status,
            basis_cols: (n..n_total).collect(),
            x_basic: vec![0.0; m],
            factors: BasisFactors::factorize(0, &[]).expect("the empty basis factorises"),
            etas: Vec::new(),
            iterations: 0,
            refactorizations: 0,
        };
        let ok = solver.refactorize();
        debug_assert!(ok, "the all-slack basis is the identity and always factorises");
        solver
    }

    fn resting_status(lower: f64, upper: f64) -> ColStatus {
        if lower.is_finite() {
            ColStatus::AtLower
        } else if upper.is_finite() {
            ColStatus::AtUpper
        } else {
            ColStatus::Free
        }
    }

    #[inline]
    fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            ColStatus::AtLower => self.lower[j],
            ColStatus::AtUpper => self.upper[j],
            ColStatus::Free => 0.0,
            ColStatus::Basic => unreachable!("basic column has no resting value"),
        }
    }

    /// Rebuilds the basis factorisation and recomputes the basic values from
    /// scratch.  Returns false if the basis is singular.
    fn refactorize(&mut self) -> bool {
        self.refactorizations += 1;
        let columns: Vec<Vec<(usize, f64)>> = self
            .basis_cols
            .iter()
            .map(|&j| {
                let (rows, vals) = self.col(j);
                rows.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        match BasisFactors::factorize(self.m, &columns) {
            Some(factors) => {
                self.factors = factors;
                self.etas.clear();
                self.recompute_x_basic();
                true
            }
            None => false,
        }
    }

    fn recompute_x_basic(&mut self) {
        let mut rhs = self.b.clone();
        for j in 0..self.n_total {
            if self.status[j] == ColStatus::Basic {
                continue;
            }
            let value = self.nonbasic_value(j);
            if value != 0.0 {
                let (rows, vals) = self.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    rhs[r] -= v * value;
                }
            }
        }
        self.x_basic = self.ftran(&rhs);
    }

    /// `B⁻¹ v` through the basis factors and the eta chain.
    fn ftran(&self, v: &[f64]) -> Vec<f64> {
        let mut x = self.factors.solve(v);
        for eta in &self.etas {
            let t = x[eta.pos] / eta.pivot;
            if t != 0.0 {
                for &(i, wi) in &eta.entries {
                    x[i] -= wi * t;
                }
            }
            x[eta.pos] = t;
        }
        x
    }

    /// `B⁻ᵀ c` through the eta chain (reverse) and the basis factors.
    fn btran(&self, c: &[f64]) -> Vec<f64> {
        let mut y = c.to_vec();
        for eta in self.etas.iter().rev() {
            let mut acc = y[eta.pos];
            for &(i, wi) in &eta.entries {
                acc -= wi * y[i];
            }
            y[eta.pos] = acc / eta.pivot;
        }
        self.factors.solve_transpose(&y)
    }

    /// Sparse dot product of column `j` with dense `y`.
    #[inline]
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        let mut acc = 0.0;
        for (&r, &v) in rows.iter().zip(vals) {
            acc += v * y[r];
        }
        acc
    }

    /// Total bound violation of the basic variables.
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for (p, &j) in self.basis_cols.iter().enumerate() {
            let x = self.x_basic[p];
            if x < self.lower[j] - TOLERANCE {
                total += self.lower[j] - x;
            } else if x > self.upper[j] + TOLERANCE {
                total += x - self.upper[j];
            }
        }
        total
    }

    /// One simplex phase.  `phase1` selects the dynamic infeasibility costs;
    /// otherwise the stored cost row is used.
    fn run_phase(&mut self, phase1: bool) -> LpResult<PhaseOutcome> {
        loop {
            if self.iterations >= MAX_ITERATIONS {
                return Err(LpError::IterationLimit { iterations: self.iterations });
            }
            if self.etas.len() >= REFACTOR_INTERVAL && !self.refactorize() {
                return Err(LpError::IterationLimit { iterations: self.iterations });
            }

            // Cost of the basic variables for this phase.
            let mut d_basic = vec![0.0; self.m];
            if phase1 {
                let mut any = false;
                for (p, &j) in self.basis_cols.iter().enumerate() {
                    let x = self.x_basic[p];
                    if x < self.lower[j] - TOLERANCE {
                        d_basic[p] = -1.0;
                        any = true;
                    } else if x > self.upper[j] + TOLERANCE {
                        d_basic[p] = 1.0;
                        any = true;
                    }
                }
                if !any {
                    return Ok(PhaseOutcome::Feasible);
                }
            } else {
                for (p, &j) in self.basis_cols.iter().enumerate() {
                    d_basic[p] = self.cost[j];
                }
            }

            let y = self.btran(&d_basic);

            // Pricing: choose the entering column and its direction.
            let use_bland = self.iterations >= BLAND_THRESHOLD;
            let mut entering: Option<(usize, f64)> = None; // (column, direction)
            let mut best_violation = TOLERANCE;
            for j in 0..self.n_total {
                let status = self.status[j];
                if status == ColStatus::Basic || self.lower[j] == self.upper[j] {
                    continue;
                }
                let z =
                    if phase1 { -self.col_dot(j, &y) } else { self.cost[j] - self.col_dot(j, &y) };
                let candidate = match status {
                    ColStatus::AtLower if z < -TOLERANCE => Some((j, 1.0, -z)),
                    ColStatus::AtUpper if z > TOLERANCE => Some((j, -1.0, z)),
                    ColStatus::Free if z.abs() > TOLERANCE => {
                        Some((j, if z < 0.0 { 1.0 } else { -1.0 }, z.abs()))
                    }
                    _ => None,
                };
                if let Some((j, dir, violation)) = candidate {
                    if use_bland {
                        entering = Some((j, dir));
                        break;
                    }
                    if violation > best_violation {
                        best_violation = violation;
                        entering = Some((j, dir));
                    }
                }
            }
            let Some((q, dir)) = entering else {
                return Ok(if !phase1 {
                    PhaseOutcome::Optimal(y)
                } else if self.infeasibility() > 1e-7 {
                    PhaseOutcome::Infeasible(y)
                } else {
                    PhaseOutcome::Feasible
                });
            };

            // Spike of the entering column.
            let mut aq = vec![0.0; self.m];
            {
                let (rows, vals) = self.col(q);
                for (&r, &v) in rows.iter().zip(vals) {
                    aq[r] = v;
                }
            }
            let w = self.ftran(&aq);

            // Ratio test.  Basic variable p changes at rate `-dir * w[p]` per
            // unit of entering movement.  In phase 1, variables outside their
            // bounds block at the first bound they cross on the way back to
            // feasibility.
            #[derive(Clone, Copy)]
            enum Blocker {
                BasicAtLower(usize),
                BasicAtUpper(usize),
                OwnBound,
            }
            let mut t_star = f64::INFINITY;
            let mut blockers: Vec<(f64, Blocker, f64)> = Vec::new(); // (ratio, blocker, |w|)
            for (p, &wp) in w.iter().enumerate() {
                let rate = -dir * wp;
                if rate.abs() <= PIVOT_TOL {
                    continue;
                }
                let j = self.basis_cols[p];
                let x = self.x_basic[p];
                let (ratio, blocker) = if rate > 0.0 {
                    if phase1 && x < self.lower[j] - TOLERANCE {
                        // Rising back towards its violated lower bound.
                        ((self.lower[j] - x) / rate, Blocker::BasicAtLower(p))
                    } else if self.upper[j].is_finite() && x <= self.upper[j] + TOLERANCE {
                        ((self.upper[j] - x) / rate, Blocker::BasicAtUpper(p))
                    } else {
                        continue;
                    }
                } else {
                    // rate < 0: the basic variable decreases.
                    if phase1 && x > self.upper[j] + TOLERANCE {
                        ((self.upper[j] - x) / rate, Blocker::BasicAtUpper(p))
                    } else if self.lower[j].is_finite() && x >= self.lower[j] - TOLERANCE {
                        ((self.lower[j] - x) / rate, Blocker::BasicAtLower(p))
                    } else {
                        continue;
                    }
                };
                let ratio = ratio.max(0.0);
                if ratio < t_star + TOLERANCE {
                    t_star = t_star.min(ratio);
                    blockers.push((ratio, blocker, w[p].abs()));
                }
            }
            // The entering variable's own opposite bound.
            let span = self.upper[q] - self.lower[q];
            if self.status[q] != ColStatus::Free && span.is_finite() && span < t_star + TOLERANCE {
                t_star = t_star.min(span);
                blockers.push((span, Blocker::OwnBound, f64::INFINITY));
            }

            if t_star.is_infinite() {
                if phase1 {
                    // A negative phase-1 direction with no breakpoint cannot
                    // happen exactly (infeasibility is bounded below by 0);
                    // numerically, treat it as a failed solve.
                    return Err(LpError::IterationLimit { iterations: self.iterations });
                }
                // The edge the entering column opens: `dir` on q, and
                // `-dir * w[p]` on the column basic at position p; slacks
                // are dropped.
                let mut ray = vec![0.0; self.n_total];
                ray[q] = dir;
                for (&j, &wp) in self.basis_cols.iter().zip(&w) {
                    ray[j] = -dir * wp;
                }
                ray.truncate(self.n_struct);
                return Ok(PhaseOutcome::Unbounded(ray));
            }

            // Among blockers within tolerance of the best ratio, prefer the
            // largest pivot magnitude (stability); under Bland's rule, the
            // lowest column index (termination).
            let chosen = blockers
                .iter()
                .filter(|&&(ratio, _, _)| ratio <= t_star + TOLERANCE)
                .min_by(|&&(_, a, wa), &&(_, b, wb)| {
                    if use_bland {
                        let idx = |blk: Blocker| match blk {
                            Blocker::OwnBound => q,
                            Blocker::BasicAtLower(p) | Blocker::BasicAtUpper(p) => {
                                self.basis_cols[p]
                            }
                        };
                        idx(a).cmp(&idx(b))
                    } else {
                        wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal)
                    }
                })
                .map(|&(_, blocker, _)| blocker)
                .expect("t_star finite implies at least one blocker");

            // Apply the step.
            let t = t_star;
            for (p, &wp) in w.iter().enumerate() {
                if wp != 0.0 {
                    self.x_basic[p] -= dir * t * wp;
                }
            }
            match chosen {
                Blocker::OwnBound => {
                    // Bound flip: the entering variable crosses to its other
                    // bound; the basis is unchanged.
                    self.status[q] = match self.status[q] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        ColStatus::AtUpper => ColStatus::AtLower,
                        other => other,
                    };
                }
                Blocker::BasicAtLower(p) | Blocker::BasicAtUpper(p) => {
                    let leaving = self.basis_cols[p];
                    let entering_value = self.nonbasic_value(q) + dir * t;
                    self.status[leaving] = match chosen {
                        Blocker::BasicAtLower(_) => ColStatus::AtLower,
                        _ => ColStatus::AtUpper,
                    };
                    self.status[q] = ColStatus::Basic;
                    self.basis_cols[p] = q;
                    self.x_basic[p] = entering_value;
                    // The ratio test skips every row with `|w[p]| ≤
                    // PIVOT_TOL`, so a blocking row's pivot is large enough
                    // to chain an eta (or NaN, which the test lets through).
                    debug_assert!(
                        w[p].abs() > PIVOT_TOL || w[p].is_nan(),
                        "blocking pivot {} at or below PIVOT_TOL",
                        w[p]
                    );
                    self.etas.push(Eta::from_spike(p, &w));
                }
            }
            self.iterations += 1;
        }
    }

    /// Current values of the structural variables.
    fn values(&self) -> Vec<f64> {
        let mut values: Vec<f64> = (0..self.n_struct)
            .map(|j| if self.status[j] == ColStatus::Basic { 0.0 } else { self.nonbasic_value(j) })
            .collect();
        for (&j, &x) in self.basis_cols.iter().zip(&self.x_basic) {
            if j < self.n_struct {
                values[j] = x;
            }
        }
        values
    }
}

/// Solves the continuous LP with the sparse revised simplex, from the
/// all-slack basis.  [`Problem::solve`] is the public way in.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`], [`LpError::Unbounded`] or
/// [`LpError::IterationLimit`] as appropriate, and the model-validation
/// errors of [`Problem::validate`] for malformed problems.  This is the one
/// place a problem is validated; the check is O(nnz) and negligible next to
/// a solve.
pub(crate) fn solve(problem: &Problem) -> LpResult<Solution> {
    problem
        .validate()
        .and_then(|()| {
            let mut solver = Solver::build(problem);
            palmed_obs::counter!("lp.simplex.solves").inc();
            let duals = run_phases(&mut solver, problem);
            // Pivot and refactorization totals are recorded even when the
            // solve errors out — iteration-limit blowups are exactly what the
            // counters exist to surface.
            palmed_obs::counter!("lp.simplex.iterations").add(solver.iterations as u64);
            palmed_obs::counter!("lp.simplex.refactorizations").add(solver.refactorizations as u64);
            let duals = duals?;
            let values = solver.values();
            record(certify::optimal(problem, &values, &duals));
            let objective = problem.objective().evaluate(&values);
            Ok(Solution { values, objective })
        })
        .inspect_err(|_| palmed_obs::counter!("lp.simplex.failures").inc())
}

/// Runs both phases and returns the optimal basis's row duals; an infeasible
/// or unbounded verdict is certified before it is returned.
fn run_phases(solver: &mut Solver, problem: &Problem) -> LpResult<Vec<f64>> {
    match solver.run_phase(true)? {
        PhaseOutcome::Infeasible(farkas) => {
            record(certify::infeasible(problem, &farkas));
            return Err(LpError::Infeasible);
        }
        PhaseOutcome::Feasible => {}
        PhaseOutcome::Optimal(_) | PhaseOutcome::Unbounded(_) => {
            unreachable!("phase 1 reports feasibility or infeasibility")
        }
    }
    match solver.run_phase(false)? {
        PhaseOutcome::Unbounded(ray) => {
            record(certify::unbounded(problem, &solver.values(), &ray));
            Err(LpError::Unbounded)
        }
        PhaseOutcome::Optimal(duals) => Ok(duals),
        PhaseOutcome::Feasible | PhaseOutcome::Infeasible(_) => {
            unreachable!("phase 2 reports optimality or unboundedness")
        }
    }
}

/// Counts a certificate check.  A failed certificate is a solver defect:
/// debug builds stop on it, release builds count it and return the result
/// unchanged.
fn record(check: Check) {
    palmed_obs::counter!("lp.certify.checked").inc();
    if let Err(violation) = check {
        palmed_obs::counter!("lp.certify.failed").inc();
        if cfg!(debug_assertions) {
            panic!("simplex result failed its certificate: {violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_maximization() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.add_le(p.expr().term(1.0, x), 4.0);
        p.add_le(p.expr().term(2.0, y), 12.0);
        p.add_le(p.expr().term(3.0, x).term(2.0, y), 18.0);
        p.set_objective(p.expr().term(3.0, x).term(5.0, y));
        let sol = solve(&p).unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol[x], 2.0);
        assert_close(sol[y], 6.0);
    }

    #[test]
    fn bounds_are_implicit_no_extra_rows_needed() {
        // max x + 2y with x in [1, 3], y in [-2, 2], x + y <= 4.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 1.0, 3.0);
        let y = p.add_var("y", -2.0, 2.0);
        p.add_le(p.expr().term(1.0, x).term(1.0, y), 4.0);
        p.set_objective(p.expr().term(1.0, x).term(2.0, y));
        let sol = solve(&p).unwrap();
        assert_close(sol[y], 2.0);
        assert_close(sol[x], 2.0);
        assert_close(sol.objective, 6.0);
    }

    #[test]
    fn free_variables_are_not_split() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        p.add_ge(p.expr().term(1.0, x), -5.0);
        p.set_objective(p.expr().term(1.0, x));
        let sol = solve(&p).unwrap();
        assert_close(sol[x], -5.0);
    }

    #[test]
    fn negative_bounds_and_equalities() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", -10.0, 10.0);
        let y = p.add_var("y", -10.0, 10.0);
        p.add_eq(p.expr().term(1.0, x).term(1.0, y), 10.0);
        p.add_eq(p.expr().term(1.0, x).term(-1.0, y), 2.0);
        p.set_objective(p.expr().term(2.0, x).term(3.0, y));
        let sol = solve(&p).unwrap();
        assert_close(sol[x], 6.0);
        assert_close(sol[y], 4.0);
        assert_close(sol.objective, 24.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        p.add_ge(p.expr().term(1.0, x), 2.0);
        p.set_objective(p.expr().term(1.0, x));
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective(p.expr().term(1.0, x));
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn malformed_problems_error_instead_of_panicking() {
        // A VarId from another problem must surface as UnknownVariable, not
        // as an out-of-bounds panic inside the solver.
        let mut other = Problem::new(Sense::Minimize);
        let _ = other.add_var("f", 0.0, 1.0);
        // Index 1: out of range for the 1-variable problem below.
        let foreign = other.add_var("g", 0.0, 1.0);
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        p.add_le(p.expr().term(1.0, x).term(1.0, foreign), 1.0);
        let foreign_err = solve(&p);
        assert!(matches!(foreign_err, Err(LpError::UnknownVariable { .. })), "{foreign_err:?}");

        let mut q = Problem::new(Sense::Minimize);
        let y = q.add_var("y", 0.0, 1.0);
        q.add_le(q.expr().term(f64::NAN, y), 1.0);
        let nan_err = solve(&q);
        assert!(matches!(nan_err, Err(LpError::NonFiniteCoefficient { .. })));
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 2.5, 2.5);
        let y = p.add_var("y", 0.0, 10.0);
        p.add_le(p.expr().term(1.0, x).term(1.0, y), 5.0);
        p.set_objective(p.expr().term(1.0, x).term(1.0, y));
        let sol = solve(&p).unwrap();
        assert_close(sol[x], 2.5);
        assert_close(sol[y], 2.5);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut p = Problem::new(Sense::Maximize);
        let x1 = p.add_var("x1", 0.0, f64::INFINITY);
        let x2 = p.add_var("x2", 0.0, f64::INFINITY);
        let x3 = p.add_var("x3", 0.0, f64::INFINITY);
        p.add_le(p.expr().term(0.5, x1).term(-5.5, x2).term(-2.5, x3), 0.0);
        p.add_le(p.expr().term(0.5, x1).term(-1.5, x2).term(-0.5, x3), 0.0);
        p.add_le(p.expr().term(1.0, x1), 1.0);
        p.set_objective(p.expr().term(10.0, x1).term(-57.0, x2).term(-9.0, x3));
        let sol = solve(&p).unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn objective_constant_is_included() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0, 10.0);
        p.set_objective(p.expr().term(2.0, x).plus(7.0));
        let sol = solve(&p).unwrap();
        assert_close(sol.objective, 9.0);
    }

    #[test]
    fn textbook_problems_certify_with_their_known_duals() {
        // (problem, optimum, row duals in minimisation form).  First: max
        // x + 2y, x + y <= 4, x in [0, 3], y in [0, 2]; the binding row
        // prices at -1.  Second: min x + y, x + 2y >= 4, 3x + y >= 6, where
        // y·b = 0.4 * 4 + 0.2 * 6 = 2.8 = x + y.
        let mut max = Problem::new(Sense::Maximize);
        let (x, y) = (max.add_var("x", 0.0, 3.0), max.add_var("y", 0.0, 2.0));
        max.add_le(max.expr().term(1.0, x).term(1.0, y), 4.0);
        max.set_objective(max.expr().term(1.0, x).term(2.0, y));
        let mut min = Problem::new(Sense::Minimize);
        let (x, y) = (min.add_var("x", 0.0, f64::INFINITY), min.add_var("y", 0.0, f64::INFINITY));
        min.add_ge(min.expr().term(1.0, x).term(2.0, y), 4.0);
        min.add_ge(min.expr().term(3.0, x).term(1.0, y), 6.0);
        min.set_objective(min.expr().term(1.0, x).term(1.0, y));
        for (p, optimum, duals) in
            [(max, vec![2.0, 2.0], vec![-1.0]), (min, vec![1.6, 1.2], vec![0.4, 0.2])]
        {
            let mut solver = Solver::build(&p);
            let y = run_phases(&mut solver, &p).unwrap();
            let values = solver.values();
            for (got, want) in values.iter().zip(&optimum).chain(y.iter().zip(&duals)) {
                assert_close(*got, *want);
            }
            assert_eq!(certify::optimal(&p, &values, &y), Ok(()));
        }
    }

    #[test]
    fn long_solves_refactorise_periodically_and_certify() {
        // A 12 × 12 transportation LP: every source ships its whole supply
        // (equality rows) and every sink receives at least its demand.  The
        // solve chains more than `REFACTOR_INTERVAL` eta updates, so the
        // basis is refactorised mid-solve as well as at the start.
        let n = 12usize;
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> =
            (0..n * n).map(|k| p.add_var(format!("x{k}"), 0.0, f64::INFINITY)).collect();
        for i in 0..n {
            let mut row = p.expr();
            for j in 0..n {
                row.add_term(1.0, vars[i * n + j]);
            }
            p.add_eq(row, 1.25 + i as f64);
        }
        for j in 0..n {
            let mut col = p.expr();
            for i in 0..n {
                col.add_term(1.0, vars[i * n + j]);
            }
            p.add_ge(col, 0.5 + j as f64 * 0.5);
        }
        let mut obj = p.expr();
        for (k, &v) in vars.iter().enumerate() {
            obj.add_term(1.0 + (k % 7) as f64, v);
        }
        p.set_objective(obj);

        let mut solver = Solver::build(&p);
        let y = run_phases(&mut solver, &p).unwrap();
        assert!(
            solver.refactorizations >= 2,
            "only {} refactorisation(s) in {} iterations",
            solver.refactorizations,
            solver.iterations
        );
        let values = solver.values();
        assert_eq!(certify::optimal(&p, &values, &y), Ok(()));
        // A min-cost-flow formulation of the same instance gives 82.25 too.
        assert_close(p.objective().evaluate(&values), 82.25);
    }

    /// Knuth's MMIX LCG (high bits), a seeded stream for the property test.
    fn next(state: &mut u64) -> u64 {
        *state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    #[test]
    fn sparse_lu_solves_random_bases_to_roundoff() {
        // Small integer entries make exact cancellation common: a work value
        // that cancels to 0.0 and fills in again must not list its row twice,
        // or the factorisation stores that row's L entry twice.
        let mut state = 0x5EED_0F1D_u64;
        let mut nonsingular = 0usize;
        for case in 0..10_000 {
            let k = 2 + (next(&mut state) % 7) as usize;
            let columns: Vec<Vec<(usize, f64)>> = (0..k)
                .map(|_| {
                    (0..k)
                        .filter_map(|r| {
                            let draw = next(&mut state);
                            let value = [-2.0, -1.0, 1.0, 2.0][(draw >> 1) as usize % 4];
                            (draw & 1 == 0).then_some((r, value))
                        })
                        .collect()
                })
                .collect();
            let Some(lu) = SparseLu::factorize(k, &columns) else { continue };
            nonsingular += 1;
            for e in 0..k {
                let unit: Vec<f64> = (0..k).map(|i| if i == e { 1.0 } else { 0.0 }).collect();
                // B x = e: accumulate B x column by column.
                let x = lu.solve(&unit);
                let mut bx = vec![0.0; k];
                for (column, &xj) in columns.iter().zip(&x) {
                    for &(r, v) in column {
                        bx[r] += v * xj;
                    }
                }
                // Bᵀ y = e: entry j is column j dotted with y.
                let y = lu.solve_transpose(&unit);
                let bty: Vec<f64> = columns
                    .iter()
                    .map(|column| column.iter().map(|&(r, v)| v * y[r]).sum())
                    .collect();
                for i in 0..k {
                    assert!(
                        (bx[i] - unit[i]).abs() <= 1e-9 && (bty[i] - unit[i]).abs() <= 1e-9,
                        "case {case}: k = {k}, e{e}: B x = {bx:?}, Bᵀ y = {bty:?}, B = {columns:?}"
                    );
                }
            }
        }
        assert!(nonsingular >= 3_000, "only {nonsingular} non-singular bases drawn");
    }
}
