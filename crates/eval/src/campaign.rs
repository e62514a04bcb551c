//! The evaluation campaign: everything needed to regenerate Fig. 4 and
//! Table II.
//!
//! For every target machine (SKL-SP-like, Zen1-like) the campaign:
//!
//! 1. infers a Palmed mapping from cycle measurements only;
//! 2. instantiates the baselines (uops.info-style, PMEvo, IACA-like,
//!    llvm-mca-like), honouring their real-world availability: IACA and
//!    uops.info port mappings are unavailable on the AMD target, PMEvo only
//!    supports the instructions of its training binaries;
//! 3. generates the SPEC-like and PolyBench-like block suites;
//! 4. measures the native IPC of every block and collects, per tool,
//!    coverage / RMS error / Kendall τ (Fig. 4b) and the prediction-profile
//!    heatmap (Fig. 4a).

use crate::blocks::BasicBlock;
use crate::heatmap::Heatmap;
use crate::metrics::{evaluate_tool, ToolMetrics};
use crate::suite::{generate_suite, SuiteConfig, SuiteKind};
use palmed_baselines::{
    IacaLikePredictor, McaLikePredictor, PmEvo, PmEvoConfig, PmEvoPredictor, UopsStylePredictor,
};
use palmed_core::{MappingReport, Palmed, PalmedConfig, ThroughputPredictor};
use palmed_isa::{ExecClass, InstId, InstructionSet, InventoryConfig};
use palmed_machine::{
    presets::PresetMachine, BackendKind, BackendMeasurer, MeasurementNoise, Measurer,
    MemoizingMeasurer, SimulationConfig,
};
use palmed_par::par_map;
use palmed_serve::{CompiledModel, DisjArtifact, ModelRegistry, RegistryEntry};
use std::sync::Arc;

/// Configuration of a full evaluation campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Size of the synthetic instruction inventory.
    pub inventory: InventoryConfig,
    /// Suite generation parameters.
    pub suite: SuiteConfig,
    /// Which measurement back-end plays the role of the real hardware.  The
    /// cycle-level simulation is the faithful choice (its greedy dispatch,
    /// finite scheduler window and non-pipelined units are exactly the
    /// non-port bottlenecks the port-only baselines ignore); the analytic
    /// bound is available for fast smoke tests and for ablations.
    pub backend: BackendKind,
    /// Measurement noise applied to native executions and to the
    /// measurements the inference tools see.
    pub noise: MeasurementNoise,
    /// PMEvo training configuration.
    pub pmevo: PmEvoConfig,
    /// Heatmap resolution (x bins, y bins).
    pub heatmap_bins: (usize, usize),
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            inventory: InventoryConfig::default(),
            suite: SuiteConfig::default(),
            backend: BackendKind::Simulation(SimulationConfig::default()),
            noise: MeasurementNoise::realistic(2022),
            pmevo: PmEvoConfig::default(),
            heatmap_bins: (24, 16),
        }
    }
}

impl CampaignConfig {
    /// A reduced campaign (small inventory, few blocks, analytic back-end)
    /// for tests and smoke runs.
    pub fn small() -> Self {
        CampaignConfig {
            inventory: InventoryConfig::small(),
            suite: SuiteConfig::small(99),
            backend: BackendKind::Analytic,
            noise: MeasurementNoise::none(),
            pmevo: PmEvoConfig::fast(),
            heatmap_bins: (12, 8),
        }
    }

    /// A quick but representative campaign: small inventory, but the same
    /// cycle-level simulation back-end and noise model as the full run, so
    /// the qualitative shape of Fig. 4 already shows up in seconds.
    pub fn quick() -> Self {
        CampaignConfig {
            backend: BackendKind::Simulation(SimulationConfig {
                warmup_cycles: 100,
                measured_cycles: 1_000,
            }),
            noise: MeasurementNoise::realistic(2022),
            ..CampaignConfig::small()
        }
    }
}

/// Result of one tool on one suite of one machine.
#[derive(Debug, Clone)]
pub struct ToolResult {
    /// Tool display name.
    pub tool: String,
    /// Coverage / error / τ metrics (Fig. 4b row).
    pub metrics: ToolMetrics,
    /// Prediction-profile heatmap (Fig. 4a panel).
    pub heatmap: Heatmap,
}

/// Results of one machine of the campaign.
#[derive(Debug, Clone)]
pub struct MachineResult {
    /// Machine display name.
    pub machine: String,
    /// The Table II report of the Palmed inference run.
    pub report: MappingReport,
    /// Per (suite, tool) results.
    pub suites: Vec<(SuiteKind, Vec<ToolResult>)>,
}

/// Full campaign output.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One entry per machine.
    pub machines: Vec<MachineResult>,
}

/// The campaign driver.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    config: CampaignConfig,
    /// Pre-loaded baseline models, looked up by `"<machine>/<tool>"`.
    baselines: Option<Arc<ModelRegistry>>,
}

impl Campaign {
    /// Creates a campaign driver.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign { config, baselines: None }
    }

    /// Serves baseline models out of a registry instead of re-training them
    /// per campaign.  Currently the PMEvo baseline is looked up as a
    /// disjunctive entry named `"<machine>/pmevo"` (the key
    /// [`pmevo_artifact_for`] writes); when present, its compiled port
    /// mapping is evaluated directly — the evolutionary search and its pair
    /// benchmarks are skipped entirely, the way the real tools load
    /// published mappings.  Missing or non-disjunctive entries fall back to
    /// training.
    #[must_use]
    pub fn with_baselines(mut self, registry: Arc<ModelRegistry>) -> Self {
        self.baselines = Some(registry);
        self
    }

    /// The configuration of this campaign.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign for one machine.
    pub fn run_machine(&self, preset: &PresetMachine, is_intel_like: bool) -> MachineResult {
        let _span = palmed_obs::span("eval.machine");
        palmed_obs::counter!("eval.machines").inc();
        let config = &self.config;
        let ground_truth = preset.mapping_arc();
        let insts = Arc::clone(&preset.instructions);

        // Native back-end and the measurer handed to the inference tools.
        // Both are the same device, as on real hardware: Palmed and PMEvo
        // train on exactly the kind of measurements the evaluation uses.
        let native = BackendMeasurer::new(config.backend, Arc::clone(&ground_truth), config.noise);
        let inference_measurer = MemoizingMeasurer::new(BackendMeasurer::new(
            config.backend,
            Arc::clone(&ground_truth),
            config.noise,
        ));

        // ---- Palmed inference. ----
        let palmed_result = Palmed::new(PalmedConfig::evaluation()).infer(&inference_measurer);
        let mut report = palmed_result.report.clone();
        report.machine = preset.name().to_string();
        report.benchmarks_generated = inference_measurer.distinct_kernels();
        // The campaign serves heavy prediction traffic (every tool × suite ×
        // block), so Palmed is evaluated through its compiled serving form —
        // bit-identical to `PalmedResult::predictor()`, without the per-call
        // BTreeMap walks.
        let palmed_predictor = CompiledModel::compile("palmed", &palmed_result.mapping);

        // ---- Baselines. ----
        // PMEvo's mapping comes from the baseline registry when a campaign
        // pre-loaded one (a persisted `PALMED-DISJ v1` artifact — the way
        // the real tools ship published port mappings); otherwise it is
        // re-evolved on one representative per execution class plus the
        // Palmed basic instructions — its published mapping only covers the
        // instructions occurring in its training binaries, which is what
        // limits its coverage.
        // The entry must carry this campaign's exact instruction inventory:
        // `InstId`s are indices, so an artifact persisted under a different
        // inventory would silently score the wrong instructions.  Mismatches
        // fall back to training.
        let preloaded_pmevo: Option<Arc<RegistryEntry>> = self
            .baselines
            .as_ref()
            .and_then(|registry| registry.get(&format!("{}/pmevo", preset.name())))
            .filter(|entry| {
                entry.disjunctive().is_some_and(|model| model.artifact.instructions == *insts)
            });
        let trained_pmevo: Option<PmEvoPredictor> = if preloaded_pmevo.is_none() {
            let mut pmevo_trained: Vec<InstId> = ExecClass::ALL
                .iter()
                .filter_map(|&class| insts.ids_with_class(class).into_iter().next())
                .collect();
            for inst in palmed_result.basic_instructions() {
                if !pmevo_trained.contains(&inst) {
                    pmevo_trained.push(inst);
                }
            }
            Some(PmEvo::new(config.pmevo).train(&inference_measurer, &pmevo_trained))
        } else {
            None
        };
        let pmevo: &dyn ThroughputPredictor = preloaded_pmevo
            .as_deref()
            .and_then(|entry| entry.disjunctive())
            .map(|model| &model.compiled as &dyn ThroughputPredictor)
            .or(trained_pmevo.as_ref().map(|p| p as &dyn ThroughputPredictor))
            .expect("pmevo is preloaded or freshly trained");

        let uops = UopsStylePredictor::new(Arc::clone(&ground_truth));
        let iaca = if is_intel_like {
            IacaLikePredictor::new(Arc::clone(&ground_truth))
        } else {
            IacaLikePredictor::new(Arc::clone(&ground_truth)).unavailable()
        };
        let mca = McaLikePredictor::new(Arc::clone(&ground_truth));

        // ---- Suites and evaluation. ----
        let mut suites = Vec::new();
        for kind in SuiteKind::ALL {
            let blocks = generate_suite(kind, &insts, &config.suite);
            palmed_obs::counter!("eval.suites").inc();
            palmed_obs::counter!("eval.blocks").add(blocks.len() as u64);
            // Per-block native measurements are independent; fan out across
            // cores (results keep the block order).
            let native_ipcs: Vec<f64> = par_map(&blocks, |b| native.ipc(&b.kernel));

            let tools: Vec<(&str, &dyn ThroughputPredictor, bool)> = vec![
                ("palmed", &palmed_predictor as &dyn ThroughputPredictor, true),
                ("uops-style", &uops, is_intel_like),
                ("pmevo", pmevo, true),
                ("iaca-like", &iaca, is_intel_like),
                ("llvm-mca-like", &mca, true),
            ];

            let mut results = Vec::new();
            for (name, tool, available) in tools {
                let result = if available {
                    evaluate_with_heatmap(tool, &blocks, &native_ipcs, config.heatmap_bins)
                } else {
                    ToolResult {
                        tool: name.to_string(),
                        metrics: ToolMetrics::unavailable(),
                        heatmap: Heatmap::new(config.heatmap_bins.0, config.heatmap_bins.1),
                    }
                };
                results.push(ToolResult { tool: name.to_string(), ..result });
            }
            suites.push((kind, results));
        }

        MachineResult { machine: preset.name().to_string(), report, suites }
    }

    /// Runs the campaign for the two evaluation targets of the paper.
    pub fn run(&self) -> CampaignResult {
        let skl = palmed_machine::presets::skl_sp(&self.config.inventory);
        let zen = palmed_machine::presets::zen1(&self.config.inventory);
        CampaignResult {
            machines: vec![self.run_machine(&skl, true), self.run_machine(&zen, false)],
        }
    }
}

fn evaluate_with_heatmap(
    tool: &dyn ThroughputPredictor,
    blocks: &[BasicBlock],
    native: &[f64],
    bins: (usize, usize),
) -> ToolResult {
    let metrics = evaluate_tool(tool, blocks, native);
    let mut heatmap = Heatmap::new(bins.0, bins.1);
    for (block, &native_ipc) in blocks.iter().zip(native) {
        if let Some(predicted) = tool.predict_ipc(&block.kernel) {
            heatmap.add(native_ipc, predicted, block.weight);
        }
    }
    heatmap.normalise();
    ToolResult { tool: tool.name().to_string(), metrics, heatmap }
}

/// Flattens a trained PMEvo predictor into a persistable `PALMED-DISJ v1`
/// artifact, keyed the way [`Campaign::with_baselines`] looks it up
/// (machine name `"<preset>/pmevo"`).  Save it once, and later campaigns
/// load the pre-built table instead of re-evolving the mapping; the loaded
/// model predicts bit-identically to `predictor`.
///
/// `instructions` must be the inventory the predictor was trained against —
/// it is what the campaign's inventory check compares.
///
/// # Panics
///
/// Panics if the predictor uses more abstract ports than the artifact
/// format's cap ([`palmed_serve::disj::MAX_DISJ_PORTS`], 16); PMEvo
/// configurations use far fewer (6 by default) — the subset enumeration is
/// exponential in the port count.
pub fn pmevo_artifact_for(
    preset_name: &str,
    predictor: &PmEvoPredictor,
    instructions: &InstructionSet,
) -> DisjArtifact {
    DisjArtifact::new(
        format!("{preset_name}/pmevo"),
        "pmevo-evolved",
        instructions.clone(),
        predictor.num_ports() as u32,
        predictor.to_rows(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_machine::{presets, AnalyticMeasurer};

    #[test]
    fn small_campaign_on_skl_produces_sensible_results() {
        let config = CampaignConfig::small();
        let campaign = Campaign::new(config);
        let preset = presets::skl_sp(&config.inventory);
        let result = campaign.run_machine(&preset, true);

        assert_eq!(result.machine, "skl-sp-like");
        assert!(result.report.instructions_mapped > 0);
        assert_eq!(result.suites.len(), 2);
        for (_, tools) in &result.suites {
            assert_eq!(tools.len(), 5);
            let palmed = tools.iter().find(|t| t.tool == "palmed").unwrap();
            assert!(palmed.metrics.coverage > 0.95, "palmed coverage {}", palmed.metrics.coverage);
            assert!(
                palmed.metrics.rms_error < 0.45,
                "palmed error too high: {}",
                palmed.metrics.rms_error
            );
            let pmevo = tools.iter().find(|t| t.tool == "pmevo").unwrap();
            assert!(pmevo.metrics.coverage <= palmed.metrics.coverage + 1e-9);
            let uops = tools.iter().find(|t| t.tool == "uops-style").unwrap();
            assert!(!uops.metrics.is_unavailable());
        }
    }

    #[test]
    fn preloaded_pmevo_baseline_is_served_instead_of_retrained() {
        let config = CampaignConfig::small();
        let preset = presets::skl_sp(&config.inventory);
        let baseline = Campaign::new(config).run_machine(&preset, true);

        // Train a deliberately tiny PMEvo (two instructions) out of band,
        // persist it through the disjunctive codec, and hand it to the
        // campaign via the registry.
        let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
        let trained: Vec<InstId> = preset.instructions.ids().take(2).collect();
        let predictor = PmEvo::new(config.pmevo).train(&measurer, &trained);
        let artifact = pmevo_artifact_for(preset.name(), &predictor, &preset.instructions);
        let bytes = artifact.render();
        let registry = Arc::new(ModelRegistry::new());
        registry
            .swap_bytes(format!("{}/pmevo", preset.name()), bytes)
            .expect("disjunctive artifact round trips through the registry");

        let run =
            Campaign::new(config).with_baselines(Arc::clone(&registry)).run_machine(&preset, true);
        for (kind, tools) in &run.suites {
            let pmevo = tools.iter().find(|t| t.tool == "pmevo").unwrap();
            let full = baseline
                .suites
                .iter()
                .find(|(k, _)| k == kind)
                .and_then(|(_, tools)| tools.iter().find(|t| t.tool == "pmevo"))
                .unwrap();
            assert!(!pmevo.metrics.is_unavailable());
            // The served two-instruction model covers far less than the
            // campaign-trained one would — proof the campaign used the
            // registry entry rather than re-training.
            assert!(
                pmevo.metrics.coverage < full.metrics.coverage,
                "preloaded coverage {} should undercut trained coverage {}",
                pmevo.metrics.coverage,
                full.metrics.coverage
            );
        }
    }

    #[test]
    fn zen_like_campaign_marks_intel_only_tools_unavailable() {
        let config = CampaignConfig::small();
        let campaign = Campaign::new(config);
        let preset = presets::zen1(&config.inventory);
        let result = campaign.run_machine(&preset, false);
        for (_, tools) in &result.suites {
            let iaca = tools.iter().find(|t| t.tool == "iaca-like").unwrap();
            assert!(iaca.metrics.is_unavailable());
            let uops = tools.iter().find(|t| t.tool == "uops-style").unwrap();
            assert!(uops.metrics.is_unavailable());
            let palmed = tools.iter().find(|t| t.tool == "palmed").unwrap();
            assert!(!palmed.metrics.is_unavailable());
        }
    }
}
