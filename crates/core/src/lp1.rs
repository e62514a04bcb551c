//! LP1 — discovering the *shape* of the core mapping (Algorithm 3).
//!
//! The shape of a mapping is the number of abstract resources and the set of
//! edges that *may* carry a non-zero weight; LP2 later assigns the weights.
//! The paper formulates shape discovery as an integer linear program whose
//! constraints encode what the seed benchmarks (`a`, `aabb`, `a^M b`) reveal:
//!
//! * every *very basic* instruction owns a resource no other very basic
//!   instruction touches;
//! * every *greedy* instruction shares a resource with each instruction it is
//!   not disjoint from;
//! * in every benchmark, each *saturating* instruction (one whose own
//!   throughput already explains the benchmark's execution time) owns a
//!   resource unused by the rest of the benchmark; benchmarks without a
//!   saturating instruction share a common resource instead;
//!
//! with the objective of minimising the number of resources.
//!
//! Two solvers are provided, and [`discover_shape`] picks one by size:
//!
//! * [`shape_via_ilp`] — the faithful ILP (binary `ρ_{i,r}`, big-M encodings
//!   of the existential constraints), exact but exponential.  It runs for
//!   basic sets of at most [`ILP_SIZE_LIMIT`] instructions.
//! * [`shape_via_cliques`] — a constructive algorithm that produces the same
//!   family of shapes in polynomial time: one private resource per very
//!   basic instruction, plus one shared resource per maximal clique of the
//!   "not disjoint" graph, closed under the same enrichment loop.  It runs
//!   for larger basic sets, and whenever the ILP fails or finds no resource,
//!   because the ILP's branch and bound grows exponentially with the basic
//!   set while the cliques encode the same constraints.
//!
//! Both solvers finish with the paper's enrichment loop: for every
//! discovered resource, a benchmark combining all its users (weighted by
//! their IPC) is generated, measured and fed back until no new benchmark
//! appears.

use crate::quadratic::{QuadraticCampaign, COEFFICIENT_TOLERANCE, MAX_KERNEL_SIZE};
use crate::select::Selection;
use palmed_isa::{InstId, Microkernel};
use palmed_lp::minimax::exists_zero;
use palmed_lp::{MilpOptions, Problem, Sense};
use palmed_machine::Measurer;
use std::collections::{BTreeMap, BTreeSet};

/// Basic sets of at most this many instructions get their shape from the
/// exact ILP; larger ones from the constructive clique search.
pub const ILP_SIZE_LIMIT: usize = 3;

/// Relative tolerance on execution time when deciding that an instruction
/// saturates a benchmark.
pub const SATURATING_TOLERANCE: f64 = 0.05;

/// Maximum number of enrichment rounds.
pub const MAX_ENRICHMENT_ROUNDS: usize = 4;

/// The discovered shape: which instruction may use which resource, plus the
/// benchmark set accumulated along the way (reused by LP2).
#[derive(Debug, Clone, Default)]
pub struct ShapeMapping {
    /// Number of abstract resources.
    pub num_resources: usize,
    /// Allowed edges: for every basic instruction, the set of resource
    /// indices it may map to.
    pub allowed: BTreeMap<InstId, BTreeSet<usize>>,
    /// Benchmarks (kernel, measured IPC) available to LP2.
    pub kernels: Vec<(Microkernel, f64)>,
}

impl ShapeMapping {
    /// Resources instruction `i` may use (empty set when unknown).
    pub fn allowed_resources(&self, inst: InstId) -> BTreeSet<usize> {
        self.allowed.get(&inst).cloned().unwrap_or_default()
    }

    /// Instructions allowed to use resource `r`.
    pub fn users_of(&self, r: usize) -> Vec<InstId> {
        self.allowed.iter().filter(|(_, set)| set.contains(&r)).map(|(&i, _)| i).collect()
    }

    fn push_kernel_if_new(&mut self, kernel: Microkernel, ipc: f64) -> bool {
        if kernel.is_empty() || self.kernels.iter().any(|(k, _)| *k == kernel) {
            return false;
        }
        self.kernels.push((kernel, ipc));
        true
    }
}

/// Seed benchmark set of Algorithm 2: `a`, `aabb` and `a^M b` for all pairs
/// of basic instructions, measured on `measurer`.
pub fn seed_kernels<M: Measurer>(
    measurer: &M,
    campaign: &QuadraticCampaign,
    basic: &[InstId],
) -> Vec<(Microkernel, f64)> {
    let mut kernels: Vec<(Microkernel, f64)> = Vec::new();
    let mut push = |k: Microkernel, ipc: f64| {
        if !kernels.iter().any(|(existing, _)| *existing == k) {
            kernels.push((k, ipc));
        }
    };
    for &a in basic {
        let k = Microkernel::single(a);
        let ipc = campaign.single_ipc(a).unwrap_or_else(|| measurer.ipc(&k));
        push(k, ipc);
    }
    for (i, &a) in basic.iter().enumerate() {
        for &b in &basic[i + 1..] {
            let pair = campaign.pair_kernel(a, b);
            let pair_ipc = campaign.pair_ipc(a, b).unwrap_or_else(|| measurer.ipc(&pair));
            push(pair, pair_ipc);
            let asym = campaign.asymmetric_kernel(a, b);
            let asym_ipc = measurer.ipc(&asym);
            push(asym, asym_ipc);
            let asym_rev = campaign.asymmetric_kernel(b, a);
            let asym_rev_ipc = measurer.ipc(&asym_rev);
            push(asym_rev, asym_rev_ipc);
        }
    }
    kernels
}

/// Instructions of `kernel` that saturate it: their own throughput already
/// accounts for the kernel's execution time (`σ_i / ipc(i) ≈ t(K)`).
fn saturating_instructions(
    campaign: &QuadraticCampaign,
    kernel: &Microkernel,
    kernel_ipc: f64,
) -> Vec<InstId> {
    if kernel_ipc <= 0.0 {
        return Vec::new();
    }
    let t_kernel = kernel.total_instructions() as f64 / kernel_ipc;
    kernel
        .iter()
        .filter(|&(inst, count)| {
            campaign.single_ipc(inst).is_some_and(|ipc| {
                ipc > 0.0 && {
                    let t_inst = count as f64 / ipc;
                    (t_inst - t_kernel).abs() <= SATURATING_TOLERANCE * t_kernel
                }
            })
        })
        .map(|(inst, _)| inst)
        .collect()
}

/// The faithful ILP of Algorithm 3, with up to two resources per basic
/// instruction.
///
/// # Errors
///
/// Returns the LP error when the integer program cannot be solved within the
/// default solver budgets (the caller usually falls back to
/// [`shape_via_cliques`]).
pub fn shape_via_ilp<M: Measurer>(
    measurer: &M,
    campaign: &QuadraticCampaign,
    selection: &Selection,
) -> Result<ShapeMapping, palmed_lp::LpError> {
    let basic = &selection.basic;
    let kernels = seed_kernels(measurer, campaign, basic);
    let n_res = 2 * basic.len().max(1);

    let mut problem = Problem::new(Sense::Minimize);
    // rho[i][r]: instruction i may use resource r.
    let rho: Vec<Vec<_>> = basic
        .iter()
        .map(|i| (0..n_res).map(|r| problem.add_bool_var(format!("rho_{i}_{r}"))).collect())
        .collect();
    // u[r]: resource r is used at all.
    let used: Vec<_> = (0..n_res).map(|r| problem.add_bool_var(format!("u_{r}"))).collect();
    let index_of = |inst: InstId| basic.iter().position(|&b| b == inst).expect("basic inst");

    for (i, row) in rho.iter().enumerate() {
        let mut any = problem.expr();
        for (r, &v) in row.iter().enumerate() {
            // rho_{i,r} <= u_r
            problem.add_le(problem.expr().term(1.0, v).term(-1.0, used[r]), 0.0);
            any.add_term(1.0, v);
        }
        // every basic instruction uses at least one resource
        problem.add_ge(any, 1.0);
        let _ = i;
    }
    // Symmetry breaking: resources are used in order.
    for r in 1..n_res {
        problem.add_le(problem.expr().term(1.0, used[r]).term(-1.0, used[r - 1]), 0.0);
    }

    let big_m = basic.len() as f64 + 2.0;
    // Very basic instructions own a private resource.
    for &i in &selection.very_basic {
        if !basic.contains(&i) {
            continue;
        }
        let ii = index_of(i);
        let exprs: Vec<_> = (0..n_res)
            .map(|r| {
                let mut e = palmed_lp::LinExpr::constant(1.0).term(-1.0, rho[ii][r]);
                for &j in &selection.very_basic {
                    if j != i && basic.contains(&j) {
                        e.add_term(1.0, rho[index_of(j)][r]);
                    }
                }
                e
            })
            .collect();
        exists_zero(&mut problem, &format!("vb_{i}"), &exprs, big_m);
    }
    // Greedy instructions share a resource with every non-disjoint partner.
    for &i in &selection.most_greedy {
        if !basic.contains(&i) {
            continue;
        }
        let ii = index_of(i);
        let partners: Vec<InstId> =
            basic.iter().copied().filter(|&j| j != i && !campaign.are_disjoint(i, j)).collect();
        if partners.is_empty() {
            continue;
        }
        let exprs: Vec<_> = (0..n_res)
            .map(|r| {
                let mut e = palmed_lp::LinExpr::constant(1.0).term(-1.0, rho[ii][r]);
                for &j in &partners {
                    e.add_constant(1.0);
                    e.add_term(-1.0, rho[index_of(j)][r]);
                }
                e
            })
            .collect();
        exists_zero(&mut problem, &format!("mf_{i}"), &exprs, big_m);
    }
    // Benchmark-derived constraints.  Only the `aabb` pair benchmarks are
    // encoded as ILP constraints: the asymmetric `a^M b` benchmarks mostly
    // guard the continuous LP2 against degenerate weights and would double
    // the number of big-M selectors here for no extra shape information.
    let mut constraint_kernels: Vec<(Microkernel, f64)> = Vec::new();
    for (i, &a) in basic.iter().enumerate() {
        for &b in &basic[i + 1..] {
            if let Some(ipc) = campaign.pair_ipc(a, b) {
                constraint_kernels.push((campaign.pair_kernel(a, b), ipc));
            }
        }
    }
    for (k_idx, (kernel, ipc)) in constraint_kernels.iter().enumerate() {
        if kernel.num_distinct() < 2 {
            continue;
        }
        let saturating = saturating_instructions(campaign, kernel, *ipc);
        if saturating.is_empty() {
            // All instructions of the kernel share a resource.
            let members: Vec<InstId> = kernel.instructions().collect();
            let exprs: Vec<_> = (0..n_res)
                .map(|r| {
                    let mut e = palmed_lp::LinExpr::constant(0.0);
                    for &j in &members {
                        e.add_constant(1.0);
                        e.add_term(-1.0, rho[index_of(j)][r]);
                    }
                    e
                })
                .collect();
            exists_zero(&mut problem, &format!("share_{k_idx}"), &exprs, big_m);
        } else {
            for &sat in &saturating {
                let others: Vec<InstId> = kernel.instructions().filter(|&j| j != sat).collect();
                let exprs: Vec<_> = (0..n_res)
                    .map(|r| {
                        let mut e =
                            palmed_lp::LinExpr::constant(1.0).term(-1.0, rho[index_of(sat)][r]);
                        for &j in &others {
                            e.add_term(1.0, rho[index_of(j)][r]);
                        }
                        e
                    })
                    .collect();
                exists_zero(&mut problem, &format!("sat_{k_idx}_{sat}"), &exprs, big_m);
            }
        }
    }

    // Objective: minimise the number of resources (plus a tiny edge penalty to
    // keep the shape sparse among optimal solutions).
    let mut objective = problem.expr();
    for &u in &used {
        objective.add_term(1.0, u);
    }
    for row in &rho {
        for &v in row {
            objective.add_term(0.01, v);
        }
    }
    problem.set_objective(objective);

    let solution = problem.solve_with(&MilpOptions { max_nodes: 1_500 })?;

    let mut shape = ShapeMapping { kernels, ..Default::default() };
    let active: Vec<usize> = (0..n_res).filter(|&r| solution[used[r]] > 0.5).collect();
    shape.num_resources = active.len();
    for (i, &inst) in basic.iter().enumerate() {
        let set: BTreeSet<usize> = active
            .iter()
            .enumerate()
            .filter(|&(_, &r)| solution[rho[i][r]] > 0.5)
            .map(|(new_r, _)| new_r)
            .collect();
        shape.allowed.insert(inst, set);
    }
    enrich(measurer, campaign, &mut shape);
    Ok(shape)
}

/// Constructive shape discovery (scalable variant).
///
/// Private resources come from the very-basic clique; shared resources come
/// from the maximal cliques of the "non-disjoint" graph over the basic
/// instructions, which is exactly the family of constraints the ILP enforces
/// (every benchmark whose instructions all interfere must share a resource,
/// every saturating instruction keeps a private one).
pub fn shape_via_cliques<M: Measurer>(
    measurer: &M,
    campaign: &QuadraticCampaign,
    selection: &Selection,
) -> ShapeMapping {
    let basic = &selection.basic;
    let kernels = seed_kernels(measurer, campaign, basic);
    let mut shape = ShapeMapping { kernels, ..Default::default() };
    let mut resources: Vec<BTreeSet<InstId>> = Vec::new();

    // Private resource per very-basic instruction.
    for &i in &selection.very_basic {
        resources.push(BTreeSet::from([i]));
    }

    // Non-disjointness graph over all basic instructions.
    let interferes = |a: InstId, b: InstId| !campaign.are_disjoint(a, b);
    // Enumerate maximal cliques with a simple Bron–Kerbosch (basic sets are
    // small: |I_B| is a few tens at most).
    let mut cliques: Vec<BTreeSet<InstId>> = Vec::new();
    bron_kerbosch(
        &mut cliques,
        BTreeSet::new(),
        basic.iter().copied().collect(),
        BTreeSet::new(),
        &interferes,
    );
    for clique in cliques {
        if clique.len() >= 2 && !resources.contains(&clique) {
            resources.push(clique);
        }
    }

    shape.num_resources = resources.len();
    for &i in basic {
        let set: BTreeSet<usize> = resources
            .iter()
            .enumerate()
            .filter(|(_, members)| members.contains(&i))
            .map(|(r, _)| r)
            .collect();
        shape.allowed.insert(i, set);
    }
    enrich(measurer, campaign, &mut shape);
    shape
}

/// Finds the shape with the ILP for basic sets of at most
/// [`ILP_SIZE_LIMIT`] instructions, and with the clique search otherwise or
/// when the ILP yields no usable shape.
pub fn discover_shape<M: Measurer>(
    measurer: &M,
    campaign: &QuadraticCampaign,
    selection: &Selection,
) -> ShapeMapping {
    if selection.basic.len() <= ILP_SIZE_LIMIT {
        match shape_via_ilp(measurer, campaign, selection) {
            Ok(shape) if shape.num_resources > 0 => return shape,
            _ => {}
        }
    }
    shape_via_cliques(measurer, campaign, selection)
}

/// Enrichment loop of Algorithm 2: for every resource, benchmark all its
/// users together (weighted by their IPC) and add the result to the kernel
/// set; repeat until no new benchmark appears.
fn enrich<M: Measurer>(measurer: &M, campaign: &QuadraticCampaign, shape: &mut ShapeMapping) {
    for _ in 0..MAX_ENRICHMENT_ROUNDS {
        let mut added = false;
        for r in 0..shape.num_resources {
            let users = shape.users_of(r);
            if users.len() < 2 {
                continue;
            }
            let kernel = Microkernel::from_proportions(
                users.iter().map(|&i| (i, campaign.single_ipc(i).unwrap_or(1.0))),
                COEFFICIENT_TOLERANCE,
                MAX_KERNEL_SIZE,
            );
            if kernel.is_empty() {
                continue;
            }
            let ipc = measurer.ipc(&kernel);
            added |= shape.push_kernel_if_new(kernel, ipc);
        }
        if !added {
            break;
        }
    }
}

/// Bron–Kerbosch maximal-clique enumeration (without pivoting — fine for the
/// very small graphs LP1 sees).
fn bron_kerbosch(
    out: &mut Vec<BTreeSet<InstId>>,
    r: BTreeSet<InstId>,
    mut p: BTreeSet<InstId>,
    mut x: BTreeSet<InstId>,
    interferes: &impl Fn(InstId, InstId) -> bool,
) {
    if p.is_empty() && x.is_empty() {
        if !r.is_empty() {
            out.push(r);
        }
        return;
    }
    let candidates: Vec<InstId> = p.iter().copied().collect();
    for v in candidates {
        let mut r2 = r.clone();
        r2.insert(v);
        let p2 = p.iter().copied().filter(|&u| u != v && interferes(u, v)).collect();
        let x2 = x.iter().copied().filter(|&u| interferes(u, v)).collect();
        bron_kerbosch(out, r2, p2, x2, interferes);
        p.remove(&v);
        x.insert(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_basic_instructions;
    use palmed_machine::{presets, AnalyticMeasurer, MemoizingMeasurer};

    fn paper_setup() -> (
        MemoizingMeasurer<AnalyticMeasurer>,
        QuadraticCampaign,
        Selection,
        std::sync::Arc<palmed_isa::InstructionSet>,
    ) {
        let preset = presets::paper_ports016();
        let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
        let ids: Vec<InstId> = preset.instructions.ids().collect();
        let campaign = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
        let sel = select_basic_instructions(&campaign, &ids, 5);
        (measurer, campaign, sel, preset.instructions)
    }

    #[test]
    fn constructive_shape_covers_every_basic_instruction() {
        let (measurer, campaign, sel, _) = paper_setup();
        let shape = shape_via_cliques(&measurer, &campaign, &sel);
        for &i in &sel.basic {
            assert!(
                !shape.allowed_resources(i).is_empty(),
                "basic instruction {i} has no allowed resource"
            );
        }
        assert!(shape.num_resources >= sel.very_basic.len());
    }

    #[test]
    fn constructive_shape_finds_the_paper_resources() {
        let (measurer, campaign, sel, insts) = paper_setup();
        let shape = shape_via_cliques(&measurer, &campaign, &sel);
        // The paper finds 6 resources for this machine (r0, r1, r6, r01, r06,
        // r016); the constructive shape finds the private ones plus the
        // pairwise-interference cliques — at least 5, at most 8.
        assert!(
            (5..=8).contains(&shape.num_resources),
            "unexpected resource count {}",
            shape.num_resources
        );
        // ADDSS and BSR must share at least one resource (they interfere on p1/p01).
        let addss = insts.find("ADDSS").unwrap();
        let bsr = insts.find("BSR").unwrap();
        let shared: Vec<usize> = shape
            .allowed_resources(addss)
            .intersection(&shape.allowed_resources(bsr))
            .copied()
            .collect();
        assert!(!shared.is_empty(), "ADDSS and BSR must share a resource");
        // BSR and JMP are disjoint and must not share any resource.
        let jmp = insts.find("JMP").unwrap();
        let overlap: Vec<usize> = shape
            .allowed_resources(bsr)
            .intersection(&shape.allowed_resources(jmp))
            .copied()
            .collect();
        assert!(overlap.is_empty(), "BSR and JMP are disjoint but share {overlap:?}");
    }

    #[test]
    fn seed_kernels_contain_singles_pairs_and_asymmetric_benchmarks() {
        let (measurer, campaign, sel, _) = paper_setup();
        let kernels = seed_kernels(&measurer, &campaign, &sel.basic);
        let n = sel.basic.len();
        // n singles + (pair + 2 asymmetric) per unordered pair, some of which
        // may coincide and be deduplicated.
        assert!(kernels.len() > n + n * (n - 1) / 2);
        assert!(kernels.iter().all(|(k, ipc)| !k.is_empty() && *ipc > 0.0));
    }

    #[test]
    fn enrichment_adds_multi_instruction_benchmarks() {
        let (measurer, campaign, sel, _) = paper_setup();
        let shape = shape_via_cliques(&measurer, &campaign, &sel);
        let max_distinct = shape.kernels.iter().map(|(k, _)| k.num_distinct()).max().unwrap_or(0);
        assert!(max_distinct >= 3, "enrichment should create kernels mixing >= 3 instructions");
    }

    #[test]
    fn ilp_shape_on_a_tiny_machine_matches_structure() {
        // Toy machine: ADD on {0,1}, BSR on {1}, IMUL on {0}.  Expected
        // resources: private(BSR), private(IMUL) and a shared one for ADD
        // with each of them (or a single r01-like resource).
        let preset = presets::toy_two_port();
        let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
        let add = preset.instructions.find("ADD").unwrap();
        let bsr = preset.instructions.find("BSR").unwrap();
        let imul = preset.instructions.find("IMUL").unwrap();
        let ids = vec![add, bsr, imul];
        let campaign = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
        let sel = select_basic_instructions(&campaign, &ids, 3);
        let shape = shape_via_ilp(&measurer, &campaign, &sel).expect("ILP solvable");
        // Under a finite branch-and-bound budget the incumbent may not be the
        // minimum-resource shape, but it must be a *valid* shape: every basic
        // instruction keeps at least one resource, and the very-basic
        // instructions (BSR, IMUL) each keep one of their own.
        assert!(shape.num_resources >= 2, "resources: {}", shape.num_resources);
        for inst in [add, bsr, imul] {
            assert!(!shape.allowed_resources(inst).is_empty(), "{inst} lost all resources");
        }
        let bsr_private = shape
            .allowed_resources(bsr)
            .iter()
            .any(|&r| !shape.allowed_resources(imul).contains(&r));
        let imul_private = shape
            .allowed_resources(imul)
            .iter()
            .any(|&r| !shape.allowed_resources(bsr).contains(&r));
        assert!(bsr_private && imul_private, "disjoint instructions must keep private resources");
    }

    #[test]
    fn auto_strategy_falls_back_to_cliques_for_larger_sets() {
        let (measurer, campaign, sel, _) = paper_setup();
        // 5 basic instructions > ILP_SIZE_LIMIT of 3 -> constructive path.
        let shape = discover_shape(&measurer, &campaign, &sel);
        assert!(shape.num_resources > 0);
    }
}
