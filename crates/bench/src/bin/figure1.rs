//! Regenerates the Sec. III walkthrough (Fig. 1 and Fig. 2 of the paper):
//! the disjunctive port mapping of the six pedagogical instructions, the
//! equivalent conjunctive resource mapping, the throughput of the two
//! example multisets ADDSS²·BSR and ADDSS·BSR², and the mapping Palmed
//! infers for the same machine from measurements alone.

use palmed_core::dual::{dual_of, DualOptions};
use palmed_core::{Palmed, PalmedConfig, ThroughputPredictor};
use palmed_isa::Microkernel;
use palmed_machine::{presets, AnalyticMeasurer, Measurer, MemoizingMeasurer};

fn main() {
    let preset = presets::paper_ports016();
    let insts = &preset.instructions;
    let mapping = preset.mapping();

    println!("== Figure 1a: disjunctive port mapping (ground truth)");
    for (id, desc) in insts.iter() {
        let uops: Vec<String> = mapping.uops(id).iter().map(|u| u.to_string()).collect();
        println!("  {:<8} -> {}", desc.name, uops.join(" + "));
    }

    println!("\n== Figure 1b/1c: conjunctive resource mapping (normalised dual)");
    let dual = dual_of(&mapping, &DualOptions { include_front_end: false, full_power_set: false });
    print!("{}", dual.render(insts));

    println!("\n== Figure 2: throughput of the example multisets");
    let addss = insts.find("ADDSS").unwrap();
    let bsr = insts.find("BSR").unwrap();
    let measurer = AnalyticMeasurer::new(preset.mapping_arc());
    for (label, kernel) in [
        ("ADDSS^2 BSR", Microkernel::pair(addss, 2, bsr, 1)),
        ("ADDSS BSR^2", Microkernel::pair(addss, 1, bsr, 2)),
    ] {
        println!(
            "  {:<12} native IPC {:.2}   conjunctive-model IPC {:.2}",
            label,
            measurer.ipc(&kernel),
            dual.ipc(&kernel).unwrap()
        );
    }

    println!("\n== Palmed-inferred mapping for the same machine (measurements only)");
    let inference = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
    let result = Palmed::new(PalmedConfig::small()).infer(&inference);
    print!("{}", result.mapping.render(insts));
    let predictor = &result.mapping;
    for (label, kernel) in [
        ("ADDSS^2 BSR", Microkernel::pair(addss, 2, bsr, 1)),
        ("ADDSS BSR^2", Microkernel::pair(addss, 1, bsr, 2)),
    ] {
        println!(
            "  {:<12} native IPC {:.2}   palmed-predicted IPC {:.2}",
            label,
            measurer.ipc(&kernel),
            predictor.predict_ipc(&kernel).unwrap()
        );
    }
}
