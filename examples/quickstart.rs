//! Quickstart: infer a resource mapping for a simulated CPU and use it to
//! predict the throughput of instruction mixes.
//!
//! Run with: `cargo run -p palmed-examples --bin quickstart`

use palmed_core::{Palmed, PalmedConfig, ThroughputPredictor};
use palmed_isa::Microkernel;
use palmed_machine::{presets, AnalyticMeasurer, Measurer, MemoizingMeasurer};

fn main() {
    // 1. The machine under test.  On real hardware this would be the CPU you
    //    are running on; here it is the paper's 3-port pedagogical core.
    let machine = presets::paper_ports016();
    println!("machine: {}", machine.name());

    // 2. The measurement back-end: Palmed only ever sees IPC numbers of the
    //    microkernels it asks for (no hardware counters).
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(machine.mapping_arc()));

    // 3. Infer the conjunctive resource mapping.
    let result = Palmed::new(PalmedConfig::small()).infer(&measurer);
    println!("\ninferred mapping ({} benchmarks measured):", result.report.benchmarks_generated);
    print!("{}", result.mapping.render(&machine.instructions));
    println!("{}", result.report);

    // 4. Use the mapping as a throughput predictor on unseen mixes.
    let predictor = &result.mapping;
    let native = AnalyticMeasurer::new(machine.mapping_arc());
    let find = |name: &str| machine.instructions.find(name).expect("known instruction");
    let examples = [
        ("ADDSS^2 BSR", Microkernel::pair(find("ADDSS"), 2, find("BSR"), 1)),
        ("ADDSS BSR^2", Microkernel::pair(find("ADDSS"), 1, find("BSR"), 2)),
        (
            "DIVPS ADDSS^2 JNLE",
            Microkernel::from_counts([(find("DIVPS"), 1), (find("ADDSS"), 2), (find("JNLE"), 1)]),
        ),
        (
            "VCVTT^2 JMP BSR",
            Microkernel::from_counts([(find("VCVTT"), 2), (find("JMP"), 1), (find("BSR"), 1)]),
        ),
    ];
    println!("kernel               predicted IPC   native IPC");
    for (label, kernel) in examples {
        let predicted = predictor.predict_ipc(&kernel).unwrap_or(0.0);
        let reference = native.ipc(&kernel);
        println!("{label:<20} {predicted:>13.2} {reference:>12.2}");
    }
}
