//! PMEvo reimplementation: evolutionary inference of a disjunctive port
//! mapping from pair benchmarks (Ritter & Hack, PLDI 2020).
//!
//! PMEvo shares Palmed's premise — no hardware counters, only end-to-end
//! throughput measurements — but differs in every other respect:
//!
//! * the learned model is a *disjunctive* bipartite mapping (every
//!   instruction is a small multiset of µOPs, each choosing one port among a
//!   set), so predicting a throughput requires solving the port-assignment
//!   problem rather than evaluating a closed form;
//! * the search is a genetic algorithm over candidate mappings, scored by
//!   how well they reproduce the measured IPC of the pair benchmarks;
//! * only instructions present in the training set are supported, which is
//!   why PMEvo's coverage in the paper's evaluation is the lowest of all
//!   tools.
//!
//! The implementation below keeps those characteristics: genomes assign each
//! trained instruction a port mask and a µOP multiplicity over a small number
//! of abstract ports, fitness is the mean squared relative error over the
//! benchmark set, and evolution uses tournament selection, uniform
//! crossover and bit-flip mutation.

use palmed_core::ThroughputPredictor;
use palmed_isa::{InstId, Microkernel};
use palmed_machine::{throughput, Measurer, PortSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Number of abstract ports candidate mappings may use.
pub const NUM_PORTS: usize = 6;
/// Per-gene mutation probability.
pub const MUTATION_RATE: f64 = 0.08;
/// Tournament size for parent selection.
pub const TOURNAMENT: usize = 3;
/// Maximum µOP multiplicity per instruction.
pub const MAX_UOPS: u8 = 2;
/// RNG seed (the search is deterministic).
pub const SEED: u64 = 0xC0FFEE;

/// Size of the evolutionary search: the two settings that differ between a
/// quick run ([`PmEvoConfig::fast`]) and the full reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmEvoConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
}

impl Default for PmEvoConfig {
    fn default() -> Self {
        PmEvoConfig { population: 40, generations: 60 }
    }
}

impl PmEvoConfig {
    /// A faster configuration, for the Quick campaign and unit tests.
    pub fn fast() -> Self {
        PmEvoConfig { population: 20, generations: 25 }
    }
}

/// One gene: the port behaviour hypothesised for an instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gene {
    /// Bit mask over the abstract ports the instruction's µOP may use.
    port_mask: u32,
    /// Number of identical µOPs the instruction decomposes into.
    uops: u8,
}

/// A candidate mapping: one gene per trained instruction.
#[derive(Debug, Clone, PartialEq)]
struct Genome {
    genes: Vec<Gene>,
}

impl Genome {
    fn random(rng: &mut StdRng, n: usize) -> Self {
        let genes = (0..n)
            .map(|_| Gene {
                port_mask: random_nonempty_mask(rng, NUM_PORTS),
                uops: rng.gen_range(1..=MAX_UOPS),
            })
            .collect();
        Genome { genes }
    }

    fn mutate(&mut self, rng: &mut StdRng) {
        for gene in &mut self.genes {
            if rng.gen::<f64>() < MUTATION_RATE {
                let bit = rng.gen_range(0..NUM_PORTS);
                gene.port_mask ^= 1 << bit;
                if gene.port_mask == 0 {
                    gene.port_mask = 1 << bit;
                }
            }
            if rng.gen::<f64>() < MUTATION_RATE / 2.0 {
                gene.uops = rng.gen_range(1..=MAX_UOPS);
            }
        }
    }

    fn crossover(a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
        let genes = a
            .genes
            .iter()
            .zip(&b.genes)
            .map(|(&ga, &gb)| if rng.gen::<bool>() { ga } else { gb })
            .collect();
        Genome { genes }
    }
}

fn random_nonempty_mask(rng: &mut StdRng, num_ports: usize) -> u32 {
    loop {
        let mask = rng.gen_range(1u32..(1 << num_ports));
        if mask != 0 {
            return mask;
        }
    }
}

/// Predicted execution time of a kernel under a genome: the optimal
/// fractional port assignment over the abstract ports
/// ([`throughput::port_bound`]).  Every instruction of `kernel` must be in
/// `index_of`.
fn genome_execution_time(
    genome: &Genome,
    index_of: &BTreeMap<InstId, usize>,
    kernel: &Microkernel,
) -> f64 {
    let mut loads: Vec<(PortSet, f64)> = Vec::new();
    for (inst, count) in kernel.iter() {
        let gene = genome.genes[index_of[&inst]];
        let ports = PortSet::from_mask(gene.port_mask);
        let load = count as f64 * gene.uops as f64;
        match loads.iter_mut().find(|(p, _)| *p == ports) {
            Some((_, l)) => *l += load,
            None => loads.push((ports, load)),
        }
    }
    throughput::port_bound(&loads)
}

/// The PMEvo trainer.
#[derive(Debug, Clone, Default)]
pub struct PmEvo {
    config: PmEvoConfig,
}

impl PmEvo {
    /// Creates a trainer with the given configuration.
    pub fn new(config: PmEvoConfig) -> Self {
        PmEvo { config }
    }

    /// Trains a predictor on the given instructions, measuring singleton and
    /// pair benchmarks through `measurer`.
    ///
    /// Only the `trained` instructions will be supported by the resulting
    /// predictor — anything else is treated as unsupported, reproducing
    /// PMEvo's coverage behaviour.
    pub fn train<M: Measurer>(&self, measurer: &M, trained: &[InstId]) -> PmEvoPredictor {
        let config = &self.config;
        let index_of: BTreeMap<InstId, usize> =
            trained.iter().enumerate().map(|(idx, &i)| (i, idx)).collect();

        // Benchmark set: singles and unweighted pairs (PMEvo uses benchmarks
        // with at most two distinct instructions).
        let mut benchmarks: Vec<(Microkernel, f64)> = Vec::new();
        for &a in trained {
            let k = Microkernel::single(a).scaled(2);
            let ipc = measurer.ipc(&k);
            if ipc > 0.0 {
                benchmarks.push((k, ipc));
            }
        }
        for (i, &a) in trained.iter().enumerate() {
            for &b in &trained[i + 1..] {
                let k = Microkernel::pair(a, 1, b, 1);
                let ipc = measurer.ipc(&k);
                if ipc > 0.0 {
                    benchmarks.push((k, ipc));
                }
            }
        }

        let fitness = |genome: &Genome| -> f64 {
            let mut error = 0.0;
            for (kernel, measured) in &benchmarks {
                let t = genome_execution_time(genome, &index_of, kernel);
                let predicted = if t > 0.0 { kernel.total_instructions() as f64 / t } else { 0.0 };
                let rel = (predicted - measured) / measured;
                error += rel * rel;
            }
            error / benchmarks.len().max(1) as f64
        };

        let mut rng = StdRng::seed_from_u64(SEED);
        let mut population: Vec<(Genome, f64)> = (0..config.population)
            .map(|_| {
                let g = Genome::random(&mut rng, trained.len());
                let f = fitness(&g);
                (g, f)
            })
            .collect();

        for _ in 0..config.generations {
            let mut next = Vec::with_capacity(config.population);
            // Elitism: keep the best candidate.
            let best = population
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fitness"))
                .expect("non-empty population")
                .clone();
            next.push(best);
            while next.len() < config.population {
                let parent_a = tournament(&population, TOURNAMENT, &mut rng);
                let parent_b = tournament(&population, TOURNAMENT, &mut rng);
                let mut child = Genome::crossover(parent_a, parent_b, &mut rng);
                child.mutate(&mut rng);
                let f = fitness(&child);
                next.push((child, f));
            }
            population = next;
        }

        let (best, best_fitness) = population
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fitness"))
            .expect("non-empty population");
        PmEvoPredictor { index_of, genome: best, training_error: best_fitness }
    }
}

fn tournament<'a>(population: &'a [(Genome, f64)], size: usize, rng: &mut StdRng) -> &'a Genome {
    let mut best: Option<&(Genome, f64)> = None;
    for _ in 0..size.max(1) {
        let candidate = &population[rng.gen_range(0..population.len())];
        if best.is_none_or(|b| candidate.1 < b.1) {
            best = Some(candidate);
        }
    }
    &best.expect("tournament ran").0
}

/// The trained PMEvo model.
#[derive(Debug, Clone)]
pub struct PmEvoPredictor {
    index_of: BTreeMap<InstId, usize>,
    genome: Genome,
    training_error: f64,
}

impl PmEvoPredictor {
    /// Mean squared relative error over the training benchmarks.
    pub fn training_error(&self) -> f64 {
        self.training_error
    }
}

impl ThroughputPredictor for PmEvoPredictor {
    fn name(&self) -> &str {
        "pmevo"
    }

    fn supports(&self, inst: InstId) -> bool {
        self.index_of.contains_key(&inst)
    }

    /// Answers only for kernels whose every instruction was trained: the
    /// learned mapping says nothing about the others, and skipping them
    /// would predict them as free while they still count in the IPC.
    fn predict_ipc(&self, kernel: &Microkernel) -> Option<f64> {
        if !kernel.instructions().all(|i| self.supports(i)) {
            return None;
        }
        let t = genome_execution_time(&self.genome, &self.index_of, kernel);
        if t <= 0.0 {
            None
        } else {
            Some(kernel.total_instructions() as f64 / t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_machine::{presets, AnalyticMeasurer, MemoizingMeasurer};

    #[test]
    fn pmevo_learns_the_pedagogical_machine_reasonably() {
        let preset = presets::paper_ports016();
        let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
        let trained: Vec<InstId> = preset.instructions.ids().collect();
        let predictor = PmEvo::new(PmEvoConfig::fast()).train(&measurer, &trained);
        assert!(predictor.training_error() < 0.1, "error {}", predictor.training_error());
        // Predictions on the training distribution are in the right range.
        let addss = preset.instructions.find("ADDSS").unwrap();
        let bsr = preset.instructions.find("BSR").unwrap();
        let k = Microkernel::pair(addss, 2, bsr, 1);
        let native = palmed_machine::Measurer::ipc(&measurer, &k);
        let predicted = predictor.predict_ipc(&k).unwrap();
        assert!((predicted - native).abs() / native < 0.5, "pred {predicted} native {native}");
    }

    #[test]
    fn untrained_instructions_are_unsupported() {
        let preset = presets::paper_ports016();
        let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
        let addss = preset.instructions.find("ADDSS").unwrap();
        let bsr = preset.instructions.find("BSR").unwrap();
        let jmp = preset.instructions.find("JMP").unwrap();
        let predictor = PmEvo::new(PmEvoConfig::fast()).train(&measurer, &[addss, bsr]);
        assert!(predictor.supports(addss));
        assert!(!predictor.supports(jmp));
        assert!(predictor.predict_ipc(&Microkernel::single(jmp)).is_none());
    }

    #[test]
    fn half_trained_blocks_get_no_prediction() {
        let preset = presets::paper_ports016();
        let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
        let find = |name| preset.instructions.find(name).unwrap();
        let (addss, bsr, jmp) = (find("ADDSS"), find("BSR"), find("JMP"));
        let predictor = PmEvo::new(PmEvoConfig::fast()).train(&measurer, &[addss, bsr]);
        assert!(predictor.predict_ipc(&Microkernel::pair(addss, 2, bsr, 1)).is_some());
        // One trained and one untrained instruction: the untrained JMP would
        // count in the IPC while costing nothing, so there is no answer.
        assert!(predictor.predict_ipc(&Microkernel::pair(addss, 1, jmp, 1)).is_none());
        assert!(predictor.predict_ipc(&Microkernel::pair(bsr, 3, jmp, 1)).is_none());
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let preset = presets::toy_two_port();
        let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
        let trained: Vec<InstId> = preset.instructions.ids().collect();
        let a = PmEvo::new(PmEvoConfig::fast()).train(&measurer, &trained);
        let b = PmEvo::new(PmEvoConfig::fast()).train(&measurer, &trained);
        assert_eq!(a.training_error(), b.training_error());
    }
}
