//! Basic-instruction selection (Algorithm 1, Sec. V-A).
//!
//! The core mapping is computed only for a small set `I_B` of *basic
//! instructions* — enough to expose every abstract resource, but few enough
//! that LP1's shape and LP2's weight problem stay small.  Selection proceeds
//! in four steps:
//!
//! 1. **Low-IPC filter** — instructions with IPC below `1 − ε` use some
//!    resource more than once per instance and are deferred to the final
//!    LPAUX phase.
//! 2. **Equivalence classes** — instructions whose pair-benchmark behaviour
//!    is indistinguishable (`∀p. aapp ≈ bbpp`) are clustered (hierarchical
//!    clustering) and only one representative per class is kept.
//! 3. **Very basic instructions** — a maximal clique of pairwise *disjoint*
//!    instructions (pair IPC = sum of individual IPCs), scanned in the
//!    `<VB` order of the paper (larger disjoint-set first).  These are the
//!    instructions most likely to map to a single resource.
//! 4. **Greediest instructions** — the remaining slots (up to `n`) are
//!    filled with the instructions that dominate the `≼greedier` pre-order
//!    (`∀p. aapp ≥ bbpp`), i.e. those whose pair benchmarks are never slower
//!    than anybody else's — they touch many resources and enrich LP1.

use crate::quadratic::QuadraticCampaign;
use palmed_isa::InstId;
use palmed_stats::hierarchical_clusters;

/// `ε` of the low-IPC filter: instructions with IPC `< 1 − ε` are excluded
/// from the core mapping.
pub const LOW_IPC_EPSILON: f64 = 0.05;

/// Distance threshold of the equivalence-class clustering (in IPC units).
pub const CLUSTER_EPSILON: f64 = 0.08;

/// Result of the selection, keeping the intermediate sets that the later
/// phases (LP1 constraints) need.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Selection {
    /// The selected basic instructions `I_B = I_VB ∪ I_MF` (ordered).
    pub basic: Vec<InstId>,
    /// The "very basic" clique `I_VB`.
    pub very_basic: Vec<InstId>,
    /// The "most greedy" completion `I_MF`.
    pub most_greedy: Vec<InstId>,
    /// One representative per equivalence class (after the low-IPC filter).
    pub representatives: Vec<InstId>,
    /// For every representative, the members of its equivalence class.
    pub classes: Vec<Vec<InstId>>,
    /// Instructions rejected by the low-IPC filter (mapped later by LPAUX).
    pub low_ipc: Vec<InstId>,
}

/// Runs Algorithm 1 on the results of a quadratic campaign restricted to
/// `candidates` (typically the instructions of one ISA extension), selecting
/// up to `target_count` basic instructions (`n` of Algorithm 1).
pub fn select_basic_instructions(
    campaign: &QuadraticCampaign,
    candidates: &[InstId],
    target_count: usize,
) -> Selection {
    let mut selection = Selection::default();

    // Step 1: low-IPC filter.
    let mut filtered: Vec<InstId> = Vec::new();
    for &a in candidates {
        match campaign.single_ipc(a) {
            Some(ipc) if ipc > 1.0 - LOW_IPC_EPSILON => filtered.push(a),
            Some(_) => selection.low_ipc.push(a),
            None => selection.low_ipc.push(a),
        }
    }
    if filtered.is_empty() {
        return selection;
    }

    // Step 2: equivalence classes via hierarchical clustering on the
    // pair-benchmark feature vectors.
    let features: Vec<Vec<f64>> =
        filtered.iter().map(|&a| campaign.feature_vector(a, &filtered)).collect();
    let assignment = hierarchical_clusters(&features, CLUSTER_EPSILON);
    let num_classes = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut classes: Vec<Vec<InstId>> = vec![Vec::new(); num_classes];
    for (idx, &inst) in filtered.iter().enumerate() {
        classes[assignment[idx]].push(inst);
    }
    // Representative: highest-IPC member (ties broken by id) — a stable,
    // deterministic stand-in for the paper's centroid-based choice.
    let mut representatives: Vec<InstId> = Vec::with_capacity(num_classes);
    for members in &classes {
        let rep = *members
            .iter()
            .max_by(|&&a, &&b| {
                let ia = campaign.single_ipc(a).unwrap_or(0.0);
                let ib = campaign.single_ipc(b).unwrap_or(0.0);
                ia.partial_cmp(&ib).expect("finite IPC").then(b.cmp(&a))
            })
            .expect("non-empty class");
        representatives.push(rep);
    }
    selection.classes = classes;
    selection.representatives = representatives.clone();

    // Step 3: very basic instructions — maximal clique of disjoint
    // instructions, scanned in <VB order.  The disjoint set Dj of every
    // representative is a bitset over representative positions.
    let r = representatives.len();
    let words = r.div_ceil(64);
    let mut dj = vec![0u64; r * words];
    for x in 0..r {
        for y in (x + 1)..r {
            // Disjointness is symmetric: `ia + ib == ib + ia` exactly.
            let (a, b) = (representatives[x], representatives[y]);
            if campaign.are_disjoint(a, b) {
                dj[x * words + y / 64] |= 1 << (y % 64);
                dj[y * words + x / 64] |= 1 << (x % 64);
            }
        }
    }
    let in_dj = |x: usize, y: usize| dj[x * words + y / 64] >> (y % 64) & 1 == 1;
    let dj_len: Vec<u32> =
        dj.chunks(words).map(|row| row.iter().map(|w| w.count_ones()).sum()).collect();
    let mut vb_order: Vec<usize> = (0..r).collect();
    vb_order.sort_by(|&x, &y| {
        // |Dj| descending, then higher individual IPC, then id for stability.
        dj_len[y]
            .cmp(&dj_len[x])
            .then_with(|| {
                let ix = campaign.single_ipc(representatives[x]).unwrap_or(0.0);
                let iy = campaign.single_ipc(representatives[y]).unwrap_or(0.0);
                iy.partial_cmp(&ix).expect("finite IPC")
            })
            .then_with(|| representatives[x].cmp(&representatives[y]))
    });
    let mut clique: Vec<usize> = Vec::new();
    for &x in &vb_order {
        if clique.iter().all(|&vb| in_dj(x, vb)) {
            clique.push(x);
        }
        if clique.len() == target_count {
            break;
        }
    }
    let very_basic: Vec<InstId> = clique.iter().map(|&x| representatives[x]).collect();
    selection.very_basic = very_basic.clone();

    // Step 4: complete with the greediest instructions.
    let mut most_greedy: Vec<InstId> = Vec::new();
    if very_basic.len() < target_count {
        // Linearise the ≼greedier pre-order by the average pair IPC: an
        // instruction that dominates another point-wise also has a larger
        // average, so sorting by the average respects the pre-order.  Each
        // score is computed once, outside the comparator.
        let score = |a: InstId| -> f64 {
            let v = campaign.feature_vector(a, &representatives);
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let mut rest: Vec<(f64, InstId)> = representatives
            .iter()
            .copied()
            .filter(|r| !very_basic.contains(r))
            .map(|a| (score(a), a))
            .collect();
        rest.sort_by(|&(sa, a), &(sb, b)| {
            sb.partial_cmp(&sa).expect("finite scores").then(a.cmp(&b))
        });
        for (_, a) in rest {
            if very_basic.len() + most_greedy.len() >= target_count {
                break;
            }
            most_greedy.push(a);
        }
    }
    selection.most_greedy = most_greedy;

    selection.basic =
        selection.very_basic.iter().chain(selection.most_greedy.iter()).copied().collect();
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_isa::InstId;
    use palmed_machine::{presets, AnalyticMeasurer};
    use std::collections::BTreeSet;

    /// The base-ISA instructions of an inventory, in id order.
    fn base_isa(insts: &palmed_isa::InstructionSet) -> Vec<InstId> {
        insts
            .iter()
            .filter(|(_, d)| d.extension == palmed_isa::Extension::BaseIsa)
            .map(|(i, _)| i)
            .collect()
    }

    fn paper_selection(target: usize) -> (Selection, std::sync::Arc<palmed_isa::InstructionSet>) {
        let preset = presets::paper_ports016();
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let ids: Vec<InstId> = preset.instructions.ids().collect();
        let campaign = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
        (select_basic_instructions(&campaign, &ids, target), preset.instructions)
    }

    #[test]
    fn paper_example_selects_the_expected_basic_instructions() {
        // Sec. III-D: the heuristics pick DIVPS, BSR, JMP, JNLE and ADDSS.
        let (sel, insts) = paper_selection(5);
        let names: BTreeSet<&str> = sel.basic.iter().map(|&i| insts.name(i)).collect();
        for expected in ["DIVPS", "BSR", "JMP", "ADDSS", "JNLE"] {
            assert!(names.contains(expected), "missing {expected}; selected {names:?}");
        }
        assert_eq!(sel.basic.len(), 5);
    }

    #[test]
    fn very_basic_instructions_are_pairwise_disjoint() {
        let (sel, insts) = paper_selection(5);
        // DIVPS (p0), BSR (p1) and JMP (p6) are mutually disjoint; the clique
        // must contain at least these three single-port instructions.
        let names: BTreeSet<&str> = sel.very_basic.iter().map(|&i| insts.name(i)).collect();
        assert!(names.contains("DIVPS"));
        assert!(names.contains("BSR"));
        assert!(names.contains("JMP"));
    }

    #[test]
    fn no_low_ipc_instruction_on_the_pedagogical_machine() {
        let (sel, _) = paper_selection(5);
        assert!(sel.low_ipc.is_empty());
    }

    #[test]
    fn low_ipc_instructions_are_deferred() {
        let preset = presets::skl_sp(&palmed_isa::InventoryConfig::small());
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let ids = base_isa(&preset.instructions);
        let campaign = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
        let sel = select_basic_instructions(&campaign, &ids, 8);
        let idiv = preset.instructions.find("IDIV").unwrap();
        assert!(sel.low_ipc.contains(&idiv), "the divider (IPC 1/6) must be deferred");
        assert!(!sel.basic.contains(&idiv));
    }

    #[test]
    fn equivalent_instructions_collapse_to_one_representative() {
        // On the SKL-like machine every IntAlu mnemonic behaves identically;
        // the equivalence classes must merge them.
        let preset = presets::skl_sp(&palmed_isa::InventoryConfig::small());
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let add = preset.instructions.find("ADD").unwrap();
        let sub = preset.instructions.find("SUB").unwrap();
        let xor = preset.instructions.find("XOR").unwrap();
        let bsr = preset.instructions.find("BSR").unwrap();
        let jmp = preset.instructions.find("JMP").unwrap();
        let ids = vec![add, sub, xor, bsr, jmp];
        let campaign = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
        let sel = select_basic_instructions(&campaign, &ids, 8);
        // ADD/SUB/XOR form one class; BSR and JMP their own.
        assert_eq!(sel.representatives.len(), 3, "classes: {:?}", sel.classes);
        let alu_class =
            sel.classes.iter().find(|c| c.contains(&add)).expect("ADD belongs to a class");
        assert!(alu_class.contains(&sub) && alu_class.contains(&xor));
    }

    #[test]
    fn target_count_is_respected() {
        let (sel, _) = paper_selection(3);
        assert!(sel.basic.len() <= 3);
        let (sel5, _) = paper_selection(5);
        assert!(sel5.basic.len() <= 5);
        assert!(sel5.basic.len() >= sel.basic.len());
    }

    #[test]
    fn empty_candidate_list_gives_empty_selection() {
        let preset = presets::paper_ports016();
        let measurer = AnalyticMeasurer::new(preset.mapping_arc());
        let campaign = QuadraticCampaign::run(&measurer, &[], |_, _| true);
        let sel = select_basic_instructions(&campaign, &[], 8);
        assert!(sel.basic.is_empty());
        assert!(sel.low_ipc.is_empty());
    }

    /// Step 3 as it was before the bitsets: a `BTreeSet` disjoint set per
    /// representative, scanned in the same <VB order.
    fn reference_very_basic(
        campaign: &QuadraticCampaign,
        representatives: &[InstId],
        target_count: usize,
    ) -> Vec<InstId> {
        let disjoint_set = |a: InstId| -> BTreeSet<InstId> {
            representatives
                .iter()
                .copied()
                .filter(|&b| b != a && campaign.are_disjoint(a, b))
                .collect()
        };
        let dj: Vec<(InstId, BTreeSet<InstId>)> =
            representatives.iter().map(|&a| (a, disjoint_set(a))).collect();
        let mut vb_order: Vec<usize> = (0..dj.len()).collect();
        vb_order.sort_by(|&x, &y| {
            dj[y]
                .1
                .len()
                .cmp(&dj[x].1.len())
                .then_with(|| {
                    let ix = campaign.single_ipc(dj[x].0).unwrap_or(0.0);
                    let iy = campaign.single_ipc(dj[y].0).unwrap_or(0.0);
                    iy.partial_cmp(&ix).expect("finite IPC")
                })
                .then_with(|| dj[x].0.cmp(&dj[y].0))
        });
        let mut very_basic: Vec<InstId> = Vec::new();
        for &idx in &vb_order {
            let (a, ref dj_a) = dj[idx];
            if very_basic.iter().all(|vb| dj_a.contains(vb)) {
                very_basic.push(a);
            }
            if very_basic.len() == target_count {
                break;
            }
        }
        very_basic
    }

    #[test]
    fn bitset_clique_matches_the_btreeset_reference_past_one_word() {
        // Under realistic noise no class merges, so every fifth base-ISA
        // instruction of the large inventory gives well over 64
        // representatives, disjoint-set rows of several words and a clique
        // of several members.  Noise seeds and subset offsets vary the
        // disjoint sets; the clique must span words in some run.
        let preset = presets::skl_sp(&palmed_isa::InventoryConfig::large());
        let base = base_isa(&preset.instructions);
        let mut spans_words = false;
        for (seed, offset) in [(3, 0), (11, 2), (29, 4)] {
            let measurer = AnalyticMeasurer::with_noise(
                preset.mapping_arc(),
                palmed_machine::MeasurementNoise::realistic(seed),
            );
            let ids: Vec<InstId> = base.iter().copied().skip(offset).step_by(5).collect();
            let campaign = QuadraticCampaign::run(&measurer, &ids, |_, _| true);
            for target_count in [2, 3, 8] {
                let sel = select_basic_instructions(&campaign, &ids, target_count);
                assert!(sel.representatives.len() > 128, "{}", sel.representatives.len());
                let want = reference_very_basic(&campaign, &sel.representatives, target_count);
                assert_eq!(
                    sel.very_basic, want,
                    "seed {seed}, offset {offset}, target {target_count}"
                );
                assert!(sel.very_basic.len() >= target_count.min(4));
                let word =
                    |a: &InstId| sel.representatives.iter().position(|r| r == a).unwrap() / 64;
                let words: BTreeSet<usize> = sel.very_basic.iter().map(word).collect();
                spans_words |= words.len() > 1;
            }
        }
        assert!(spans_words, "no clique spans more than one bitset word");
    }
}
