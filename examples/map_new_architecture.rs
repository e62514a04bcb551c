//! Mapping a "new" architecture end to end.
//!
//! This example plays the role of the paper's main use case: you have a
//! machine nobody has characterised (here: the Zen1-like simulator with its
//! split integer / floating-point clusters), you can only time microkernels
//! on it, and you want a full per-instruction resource mapping plus the
//! Table II statistics of the run.
//!
//! Run with: `cargo run --release -p palmed-examples --bin map_new_architecture`

use palmed_core::{Palmed, PalmedConfig, ThroughputPredictor};
use palmed_isa::{InventoryConfig, Microkernel};
use palmed_machine::{presets, AnalyticMeasurer, MeasurementNoise, Measurer, MemoizingMeasurer};

fn main() {
    let machine = presets::zen1(&InventoryConfig::small());
    println!("target machine: {} ({} instructions)", machine.name(), machine.instructions.len());

    // Noisy measurements, as on real silicon.
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::with_noise(
        machine.mapping_arc(),
        MeasurementNoise::realistic(7),
    ));

    let result = Palmed::new(PalmedConfig::evaluation()).infer(&measurer);
    println!("\n== Table II style report");
    println!("{}", result.report);

    println!("== basic instructions selected per extension");
    for (extension, selection) in &result.selections {
        let names: Vec<&str> =
            selection.basic.iter().map(|&i| machine.instructions.name(i)).collect();
        println!("  {extension}: {}", names.join(", "));
    }

    println!("\n== skipped instructions");
    if result.skipped.is_empty() {
        println!("  (none)");
    } else {
        for (inst, reason) in &result.skipped {
            println!("  {:<16} {reason}", machine.instructions.name(*inst));
        }
    }

    // Spot-check the accuracy of the inferred model against native runs.
    let predictor = &result.mapping;
    let native = AnalyticMeasurer::new(machine.mapping_arc());
    let find = |name: &str| machine.instructions.find(name).expect("known instruction");
    println!("\n== spot checks (predicted vs native IPC)");
    let mixes = [
        ("integer ALU + branch", Microkernel::from_counts([(find("ADD"), 3), (find("JNLE"), 1)])),
        ("FP add + FP mul (SSE)", Microkernel::pair(find("ADDSS"), 2, find("MULSS"), 2)),
        ("int + FP (split pipes)", Microkernel::pair(find("ADD"), 2, find("MULPS"), 2)),
        ("AVX FMA + loads", Microkernel::pair(find("VFMADD132PS"), 2, find("VMOVAPS_LD"), 1)),
        ("store pressure", Microkernel::pair(find("MOV_ST"), 2, find("ADD"), 2)),
    ];
    for (label, kernel) in mixes {
        let predicted = predictor.predict_ipc(&kernel).unwrap_or(0.0);
        let reference = native.ipc(&kernel);
        let error = (predicted - reference).abs() / reference * 100.0;
        println!("  {label:<24} predicted {predicted:>5.2}  native {reference:>5.2}  error {error:>5.1}%");
    }
}
