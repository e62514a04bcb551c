//! LP1 — discovering the *shape* of the core mapping (Algorithm 3).
//!
//! The shape of a mapping is the number of abstract resources and the set of
//! edges that *may* carry a non-zero weight; LP2 later assigns the weights.
//! The paper formulates shape discovery as an integer linear program over
//! what the seed benchmarks (`a`, `aabb`, `a^M b`) reveal, minimising the
//! number of resources.  This reproduction solves no integer program:
//! [`shape_via_cliques`] builds the shape from the campaign's disjointness
//! relation over the basic instructions, with
//!
//! * one private resource per *very basic* instruction, allowed to no other
//!   instruction;
//! * one shared resource per maximal clique (of two or more instructions) of
//!   the "not disjoint" graph, allowed to every member of the clique.
//!
//! So every pair of interfering instructions shares a resource and no pair
//! of disjoint instructions does.  The shape is not minimal in the number of
//! resources, and the paper's constraints on saturating instructions are not
//! encoded.  The shape is then finished by the paper's enrichment loop: for
//! every resource, a benchmark combining all its users (weighted by their
//! IPC) is generated, measured and fed back until no new benchmark appears.

use crate::quadratic::{QuadraticCampaign, COEFFICIENT_TOLERANCE, MAX_KERNEL_SIZE};
use crate::select::Selection;
use palmed_isa::{InstId, Microkernel};
use palmed_machine::Measurer;
use std::collections::{BTreeMap, BTreeSet};

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

/// Builds the shape of the core mapping from cliques and enriches its
/// benchmark set (see the module docs).
///
/// Private resources come from the very-basic instructions; shared resources
/// come from the maximal cliques of the "non-disjoint" graph over the basic
/// instructions.
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
    fn clique_shape_on_a_tiny_machine_matches_structure() {
        // Toy machine: ADD on {0,1}, BSR on {1}, IMUL on {0}.  BSR and IMUL
        // are very basic and keep private resources 0 and 1; ADD interferes
        // with both, so it shares clique resource 2 with BSR and 3 with
        // IMUL, and the disjoint BSR and IMUL share nothing.
        let preset = presets::toy_two_port();
        let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
        let add = preset.instructions.find("ADD").unwrap();
        let bsr = preset.instructions.find("BSR").unwrap();
        let imul = preset.instructions.find("IMUL").unwrap();
        let ids = vec![add, bsr, imul];
        let campaign = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
        let sel = select_basic_instructions(&campaign, &ids, 3);
        let shape = shape_via_cliques(&measurer, &campaign, &sel);
        assert_eq!(shape.num_resources, 4);
        assert_eq!(shape.allowed_resources(bsr), BTreeSet::from([0, 2]));
        assert_eq!(shape.allowed_resources(imul), BTreeSet::from([1, 3]));
        assert_eq!(shape.allowed_resources(add), BTreeSet::from([2, 3]));
    }
}
