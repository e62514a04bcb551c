//! A tour of the two representations at the heart of the paper: the
//! disjunctive port mapping (instructions → µOPs → ports) and its
//! conjunctive dual (instructions → abstract resources), including the
//! equivalence on the paper's running example and the role of non-port
//! resources (the front-end).
//!
//! Run with: `cargo run -p palmed-examples --bin resource_mapping_tour`

use palmed_core::dual::{dual_of, nabla_closure, resource_name_for, DualOptions};
use palmed_isa::Microkernel;
use palmed_machine::{presets, throughput};

fn main() {
    let machine = presets::paper_ports016();
    let insts = &machine.instructions;
    let mapping = machine.mapping();

    println!("== the disjunctive view (what the silicon does)");
    for (id, desc) in insts.iter() {
        let uops: Vec<String> = mapping.uops(id).iter().map(|u| u.to_string()).collect();
        println!("  {:<8} -> {}", desc.name, uops.join(" + "));
    }

    println!("\n== ∇: the union closure of the µOP port sets");
    let base =
        insts.ids().flat_map(|i| mapping.uops(i).iter().map(|u| u.ports).collect::<Vec<_>>());
    let nabla = nabla_closure(base);
    let names: Vec<String> = nabla.iter().map(|&s| resource_name_for(s)).collect();
    println!("  {} abstract resources: {}", nabla.len(), names.join(", "));

    println!("\n== the conjunctive dual (what Palmed reconstructs)");
    let dual = dual_of(&mapping, &DualOptions { include_front_end: true, full_power_set: false });
    print!("{}", dual.render(insts));

    println!("== throughput computations agree (Theorem A.2)");
    let find = |n: &str| insts.find(n).unwrap();
    let kernels = [
        ("ADDSS^2 BSR", Microkernel::pair(find("ADDSS"), 2, find("BSR"), 1)),
        ("ADDSS BSR^2", Microkernel::pair(find("ADDSS"), 1, find("BSR"), 2)),
        (
            "DIVPS VCVTT JNLE^2",
            Microkernel::from_counts([(find("DIVPS"), 1), (find("VCVTT"), 1), (find("JNLE"), 2)]),
        ),
        (
            "JMP BSR DIVPS (3 disjoint ports)",
            Microkernel::from_counts([(find("JMP"), 1), (find("BSR"), 1), (find("DIVPS"), 1)]),
        ),
    ];
    println!("  {:<34}{:>12}{:>14}", "kernel", "flow-based", "closed-form");
    for (label, kernel) in kernels {
        let disjunctive = throughput::ipc(&mapping, &kernel);
        let conjunctive = dual.ipc(&kernel).unwrap();
        println!("  {label:<34}{disjunctive:>12.3}{conjunctive:>14.3}");
    }

    println!("\n== non-port bottlenecks are first-class resources");
    let wide = Microkernel::from_counts([
        (find("JMP"), 2),
        (find("BSR"), 2),
        (find("DIVPS"), 2),
        (find("ADDSS"), 2),
    ]);
    let no_fe = dual_of(&mapping, &DualOptions { include_front_end: false, full_power_set: false });
    println!("  8-instruction wide mix:");
    println!("    ports-only model   : IPC {:.2}", no_fe.ipc(&wide).unwrap());
    println!("    with front-end     : IPC {:.2}", dual.ipc(&wide).unwrap());
    println!("    native (optimal)   : IPC {:.2}", throughput::ipc(&mapping, &wide));
}
