//! Comparing Palmed against the baseline predictors on realistic basic
//! blocks — a miniature version of the paper's Fig. 4 evaluation, on one
//! machine and one suite, with per-block detail.
//!
//! Run with: `cargo run --release -p palmed-examples --bin compare_tools`

use palmed_baselines::{
    IacaLikePredictor, McaLikePredictor, PmEvo, PmEvoConfig, UopsStylePredictor,
};
use palmed_core::{Palmed, PalmedConfig, ThroughputPredictor};
use palmed_eval::metrics::evaluate_tool;
use palmed_eval::suite::{generate_suite, SuiteConfig, SuiteKind};
use palmed_isa::{ExecClass, InstId, InventoryConfig};
use palmed_machine::{presets, AnalyticMeasurer, Measurer, MemoizingMeasurer};

fn main() {
    let machine = presets::skl_sp(&InventoryConfig::small());
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(machine.mapping_arc()));
    println!("machine: {} — inferring the Palmed mapping...", machine.name());

    let palmed = Palmed::new(PalmedConfig::evaluation()).infer(&measurer).mapping;
    let uops = UopsStylePredictor::new(machine.mapping_arc());
    let iaca = IacaLikePredictor::new(machine.mapping_arc());
    let mca = McaLikePredictor::new(machine.mapping_arc());
    let pmevo_trained: Vec<InstId> = ExecClass::ALL
        .iter()
        .filter_map(|&class| machine.instructions.ids_with_class(class).into_iter().next())
        .collect();
    println!("training the PMEvo baseline on {} instructions...", pmevo_trained.len());
    let pmevo = PmEvo::new(PmEvoConfig::fast()).train(&measurer, &pmevo_trained);

    let blocks =
        generate_suite(SuiteKind::PolybenchLike, &machine.instructions, &SuiteConfig::small(5));
    let native = AnalyticMeasurer::new(machine.mapping_arc());
    let native_ipcs: Vec<f64> = blocks.iter().map(|b| native.ipc(&b.kernel)).collect();

    let tools: Vec<&dyn ThroughputPredictor> = vec![&palmed, &uops, &pmevo, &iaca, &mca];

    println!("\nper-block predictions on {} Polybench-like blocks (first 10 shown):", blocks.len());
    print!("{:<34}{:>8}", "block", "native");
    for tool in &tools {
        print!("{:>15}", tool.name());
    }
    println!();
    for (block, &native_ipc) in blocks.iter().zip(&native_ipcs).take(10) {
        print!("{:<34}{:>8.2}", block.name, native_ipc);
        for tool in &tools {
            match tool.predict_ipc(&block.kernel) {
                Some(ipc) => print!("{ipc:>15.2}"),
                None => print!("{:>15}", "-"),
            }
        }
        println!();
    }

    println!("\naggregate metrics over the whole suite:");
    println!("{:<15}{:>10}{:>12}{:>12}", "tool", "cov. %", "RMS err %", "Kendall tau");
    for tool in &tools {
        let m = evaluate_tool(*tool, &blocks, &native_ipcs);
        println!(
            "{:<15}{:>10.1}{:>12.1}{:>12.2}",
            tool.name(),
            m.coverage * 100.0,
            m.rms_error * 100.0,
            m.kendall_tau
        );
    }
}
