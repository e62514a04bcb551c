//! Ready-made machine models.
//!
//! Two "real" targets mirror the evaluation platforms of the paper:
//!
//! * [`skl_sp`] — a Skylake-SP-like core: 8 unified execution ports, a
//!   4-wide front-end, non-pipelined dividers.  FP/vector operations share
//!   ports 0/1/5 with scalar ALU work, which is what makes Palmed's
//!   resource-minimising model a good fit (the paper's best results are on
//!   this machine).
//! * [`zen1`] — a Zen1-like core: *split* integer (4 ALU + 2 AGU + 1 store)
//!   and floating-point (4 pipes) clusters and a 5-wide front-end.  The
//!   paper observes that Palmed's resource minimisation struggles to
//!   separate the two clusters, degrading accuracy — a behaviour the
//!   evaluation harness reproduces.
//!
//! The pedagogical [`paper_ports016`] machine restricts Skylake to ports
//! {0, 1, 6} and to the six instructions of Fig. 1, so examples and tests
//! can check the exact numbers printed in the paper.

use crate::disjunctive::{DisjunctiveMapping, FrontEnd, MachineDescription};
use crate::port::{MicroOp, PortSet};
use palmed_isa::{ExecClass, InstructionSet, InventoryConfig};
use std::sync::Arc;

/// A machine description bound to the instruction set it is meant to run.
#[derive(Debug, Clone)]
pub struct PresetMachine {
    /// The ground-truth machine description.
    pub description: Arc<MachineDescription>,
    /// The instruction inventory of the target.
    pub instructions: Arc<InstructionSet>,
}

impl PresetMachine {
    /// Resolves the disjunctive mapping of the preset.
    pub fn mapping(&self) -> DisjunctiveMapping {
        self.description.bind(Arc::clone(&self.instructions))
    }

    /// Shared resolved mapping, convenient for measurers.
    pub fn mapping_arc(&self) -> Arc<DisjunctiveMapping> {
        Arc::new(self.mapping())
    }

    /// Name of the machine.
    pub fn name(&self) -> &str {
        &self.description.name
    }
}

fn ports(list: &[u8]) -> PortSet {
    PortSet::from_ports(list.iter().copied())
}

/// Skylake-SP-like machine description (ports only, no instruction set).
///
/// Port roles (a faithful simplification of the documented SKL-SP core):
///
/// | port | units |
/// |------|-------|
/// | p0   | ALU, FP add/mul/FMA, divider, branch (2nd unit) |
/// | p1   | ALU, FP add/mul/FMA, integer multiply, LEA, slow int |
/// | p2   | load / AGU |
/// | p3   | load / AGU |
/// | p4   | store data |
/// | p5   | ALU, vector ALU, vector shuffle, LEA |
/// | p6   | ALU, branch |
/// | p7   | store AGU |
pub fn skl_sp_description() -> Arc<MachineDescription> {
    let mut m = MachineDescription::new("skl-sp-like", 8, FrontEnd::instructions_only(4.0));
    m.scheduler_window = 97;
    m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(ports(&[0, 1, 5, 6]))]);
    m.define_class(ExecClass::IntAluRestricted, vec![MicroOp::pipelined(ports(&[1]))]);
    m.define_class(ExecClass::IntMul, vec![MicroOp::pipelined(ports(&[1]))]);
    m.define_class(ExecClass::IntDiv, vec![MicroOp::non_pipelined(ports(&[0]), 6.0)]);
    m.define_class(ExecClass::Lea, vec![MicroOp::pipelined(ports(&[1, 5]))]);
    m.define_class(ExecClass::Branch, vec![MicroOp::pipelined(ports(&[0, 6]))]);
    m.define_class(ExecClass::Jump, vec![MicroOp::pipelined(ports(&[6]))]);
    m.define_class(ExecClass::Load, vec![MicroOp::pipelined(ports(&[2, 3]))]);
    m.define_class(
        ExecClass::Store,
        vec![MicroOp::pipelined(ports(&[4])), MicroOp::pipelined(ports(&[2, 3, 7]))],
    );
    m.define_class(ExecClass::FpAddSse, vec![MicroOp::pipelined(ports(&[0, 1]))]);
    m.define_class(ExecClass::FpMulSse, vec![MicroOp::pipelined(ports(&[0, 1]))]);
    m.define_class(ExecClass::FpDivSse, vec![MicroOp::non_pipelined(ports(&[0]), 3.0)]);
    m.define_class(ExecClass::VecAluSse, vec![MicroOp::pipelined(ports(&[0, 1, 5]))]);
    m.define_class(ExecClass::VecShuffleSse, vec![MicroOp::pipelined(ports(&[5]))]);
    m.define_class(
        ExecClass::VecCvtSse,
        vec![MicroOp::pipelined(ports(&[0, 1])), MicroOp::pipelined(ports(&[0, 1]))],
    );
    m.define_class(ExecClass::FpAddAvx, vec![MicroOp::pipelined(ports(&[0, 1]))]);
    m.define_class(ExecClass::FpMulAvx, vec![MicroOp::pipelined(ports(&[0, 1]))]);
    m.define_class(ExecClass::FpDivAvx, vec![MicroOp::non_pipelined(ports(&[0]), 5.0)]);
    m.define_class(ExecClass::VecAluAvx, vec![MicroOp::pipelined(ports(&[0, 1, 5]))]);
    m.define_class(ExecClass::VecShuffleAvx, vec![MicroOp::pipelined(ports(&[5]))]);
    m.define_class(
        ExecClass::VecStore,
        vec![MicroOp::pipelined(ports(&[4])), MicroOp::pipelined(ports(&[2, 3, 7]))],
    );
    m.define_class(ExecClass::VecLoad, vec![MicroOp::pipelined(ports(&[2, 3]))]);
    Arc::new(m)
}

/// Zen1-like machine description with split integer / FP clusters.
///
/// Port roles: i0–i3 are the four integer ALU pipes (i0/i3 also take
/// branches), a0/a1 the address-generation units, s0 the store-data port,
/// f0–f3 the four floating-point pipes (f0/f1 multiply, f2/f3 add, f3 also
/// divides).  AVX (256-bit) operations split into two 128-bit µOPs.
pub fn zen1_description() -> Arc<MachineDescription> {
    // port numbering: 0..3 = i0..i3, 4..5 = a0..a1, 6 = s0, 7..10 = f0..f3
    let mut m = MachineDescription::new("zen1-like", 11, FrontEnd::instructions_only(5.0));
    m.scheduler_window = 84;
    m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(ports(&[0, 1, 2, 3]))]);
    m.define_class(ExecClass::IntAluRestricted, vec![MicroOp::pipelined(ports(&[3]))]);
    m.define_class(ExecClass::IntMul, vec![MicroOp::pipelined(ports(&[1]))]);
    m.define_class(ExecClass::IntDiv, vec![MicroOp::non_pipelined(ports(&[2]), 8.0)]);
    m.define_class(ExecClass::Lea, vec![MicroOp::pipelined(ports(&[0, 1, 2, 3]))]);
    m.define_class(ExecClass::Branch, vec![MicroOp::pipelined(ports(&[0, 3]))]);
    m.define_class(ExecClass::Jump, vec![MicroOp::pipelined(ports(&[3]))]);
    m.define_class(ExecClass::Load, vec![MicroOp::pipelined(ports(&[4, 5]))]);
    m.define_class(
        ExecClass::Store,
        vec![MicroOp::pipelined(ports(&[6])), MicroOp::pipelined(ports(&[4, 5]))],
    );
    m.define_class(ExecClass::FpAddSse, vec![MicroOp::pipelined(ports(&[9, 10]))]);
    m.define_class(ExecClass::FpMulSse, vec![MicroOp::pipelined(ports(&[7, 8]))]);
    m.define_class(ExecClass::FpDivSse, vec![MicroOp::non_pipelined(ports(&[10]), 4.0)]);
    m.define_class(ExecClass::VecAluSse, vec![MicroOp::pipelined(ports(&[7, 8, 9, 10]))]);
    m.define_class(ExecClass::VecShuffleSse, vec![MicroOp::pipelined(ports(&[8, 9]))]);
    m.define_class(
        ExecClass::VecCvtSse,
        vec![MicroOp::pipelined(ports(&[9, 10])), MicroOp::pipelined(ports(&[9, 10]))],
    );
    // 256-bit AVX: two 128-bit halves.
    m.define_class(
        ExecClass::FpAddAvx,
        vec![MicroOp::pipelined(ports(&[9, 10])), MicroOp::pipelined(ports(&[9, 10]))],
    );
    m.define_class(
        ExecClass::FpMulAvx,
        vec![MicroOp::pipelined(ports(&[7, 8])), MicroOp::pipelined(ports(&[7, 8]))],
    );
    m.define_class(
        ExecClass::FpDivAvx,
        vec![MicroOp::non_pipelined(ports(&[10]), 4.0), MicroOp::non_pipelined(ports(&[10]), 4.0)],
    );
    m.define_class(
        ExecClass::VecAluAvx,
        vec![MicroOp::pipelined(ports(&[7, 8, 9, 10])), MicroOp::pipelined(ports(&[7, 8, 9, 10]))],
    );
    m.define_class(
        ExecClass::VecShuffleAvx,
        vec![MicroOp::pipelined(ports(&[8, 9])), MicroOp::pipelined(ports(&[8, 9]))],
    );
    m.define_class(
        ExecClass::VecStore,
        vec![
            MicroOp::pipelined(ports(&[6])),
            MicroOp::pipelined(ports(&[4, 5])),
            MicroOp::pipelined(ports(&[6])),
            MicroOp::pipelined(ports(&[4, 5])),
        ],
    );
    m.define_class(
        ExecClass::VecLoad,
        vec![MicroOp::pipelined(ports(&[4, 5])), MicroOp::pipelined(ports(&[4, 5]))],
    );
    Arc::new(m)
}

/// The Skylake-SP-like preset with a synthetic instruction inventory.
pub fn skl_sp(config: &InventoryConfig) -> PresetMachine {
    PresetMachine {
        description: skl_sp_description(),
        instructions: Arc::new(InstructionSet::synthetic(config)),
    }
}

/// The Zen1-like preset with a synthetic instruction inventory.
pub fn zen1(config: &InventoryConfig) -> PresetMachine {
    PresetMachine {
        description: zen1_description(),
        instructions: Arc::new(InstructionSet::synthetic(config)),
    }
}

/// The three-port pedagogical machine of the paper's Sec. III: ports
/// {0, 1, 6} (renumbered 0, 1, 2) and the instructions DIVPS, VCVTT, ADDSS,
/// BSR, JNLE, JMP of Fig. 1.
pub fn paper_ports016() -> PresetMachine {
    let mut m = MachineDescription::new("skl-ports016", 3, FrontEnd::instructions_only(4.0));
    // p0 -> 0, p1 -> 1, p6 -> 2.
    m.define_class(ExecClass::FpDivSse, vec![MicroOp::pipelined(ports(&[0]))]);
    m.define_class(
        ExecClass::VecCvtSse,
        vec![MicroOp::pipelined(ports(&[0, 1])), MicroOp::pipelined(ports(&[0, 1]))],
    );
    m.define_class(ExecClass::FpAddSse, vec![MicroOp::pipelined(ports(&[0, 1]))]);
    m.define_class(ExecClass::IntAluRestricted, vec![MicroOp::pipelined(ports(&[1]))]);
    m.define_class(ExecClass::Branch, vec![MicroOp::pipelined(ports(&[0, 2]))]);
    m.define_class(ExecClass::Jump, vec![MicroOp::pipelined(ports(&[2]))]);
    PresetMachine {
        description: Arc::new(m),
        instructions: Arc::new(InstructionSet::paper_example()),
    }
}

/// A deliberately tiny two-port machine used by fast unit tests: one ALU
/// class on both ports, one restricted class on port 1, one two-µOP store.
pub fn toy_two_port() -> PresetMachine {
    use palmed_isa::InstDesc;
    let mut m = MachineDescription::new("toy2", 2, FrontEnd::instructions_only(4.0));
    m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(ports(&[0, 1]))]);
    m.define_class(ExecClass::IntAluRestricted, vec![MicroOp::pipelined(ports(&[1]))]);
    m.define_class(ExecClass::IntMul, vec![MicroOp::pipelined(ports(&[0]))]);
    m.define_class(
        ExecClass::Store,
        vec![MicroOp::pipelined(ports(&[0])), MicroOp::pipelined(ports(&[1]))],
    );
    let insts = InstructionSet::from_descs([
        InstDesc::new("ADD", ExecClass::IntAlu),
        InstDesc::new("BSR", ExecClass::IntAluRestricted),
        InstDesc::new("IMUL", ExecClass::IntMul),
        InstDesc::new("STORE", ExecClass::Store),
    ]);
    PresetMachine { description: Arc::new(m), instructions: Arc::new(insts) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{AnalyticMeasurer, Measurer};
    use crate::throughput::ipc;
    use palmed_isa::Microkernel;

    #[test]
    fn skl_description_covers_full_synthetic_inventory() {
        let preset = skl_sp(&InventoryConfig::default());
        assert!(preset.description.covers(&preset.instructions));
        // Binding must not panic.
        let _ = preset.mapping();
    }

    #[test]
    fn zen_description_covers_full_synthetic_inventory() {
        let preset = zen1(&InventoryConfig::default());
        assert!(preset.description.covers(&preset.instructions));
        let _ = preset.mapping();
    }

    #[test]
    fn skl_alu_throughput_is_four() {
        let preset = skl_sp(&InventoryConfig::small());
        let map = preset.mapping();
        let add = preset.instructions.find("ADD").unwrap();
        let k = Microkernel::single(add).scaled(8);
        assert!((ipc(&map, &k) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn skl_front_end_limits_wide_mixes() {
        // ALU + loads + stores could use 7 ports, but the front-end allows 4.
        let preset = skl_sp(&InventoryConfig::small());
        let map = preset.mapping();
        let add = preset.instructions.find("ADD").unwrap();
        let load = preset.instructions.find("MOV_LD").unwrap();
        let k = Microkernel::from_counts([(add, 4), (load, 2)]);
        let measured = ipc(&map, &k);
        assert!(measured <= 4.0 + 1e-9);
        assert!(measured > 3.5, "expected front-end-bound mix, got {measured}");
    }

    #[test]
    fn zen_int_and_fp_do_not_compete_for_ports() {
        let preset = zen1(&InventoryConfig::small());
        let map = preset.mapping();
        let add = preset.instructions.find("ADD").unwrap();
        let fadd = preset.instructions.find("ADDSS").unwrap();
        let int_only = ipc(&map, &Microkernel::single(add).scaled(4));
        let fp_only = ipc(&map, &Microkernel::single(fadd).scaled(4));
        let mixed = ipc(&map, &Microkernel::pair(add, 2, fadd, 2));
        // Ports do not conflict; the mix is front-end-bound at 5.
        assert!((int_only - 4.0).abs() < 1e-9);
        assert!((fp_only - 2.0).abs() < 1e-9);
        assert!(mixed > 3.9, "mixed = {mixed}");
    }

    #[test]
    fn paper_example_machine_reproduces_figure_1_throughputs() {
        let preset = paper_ports016();
        let map = preset.mapping();
        let measurer = AnalyticMeasurer::new(Arc::new(map));
        let find = |n: &str| preset.instructions.find(n).unwrap();
        let single_ipc = |n: &str| measurer.ipc(&Microkernel::single(find(n)).scaled(6));
        assert!((single_ipc("DIVPS") - 1.0).abs() < 1e-9);
        assert!((single_ipc("BSR") - 1.0).abs() < 1e-9);
        assert!((single_ipc("JMP") - 1.0).abs() < 1e-9);
        assert!((single_ipc("ADDSS") - 2.0).abs() < 1e-9);
        assert!((single_ipc("JNLE") - 2.0).abs() < 1e-9);
        assert!((single_ipc("VCVTT") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn toy_machine_is_consistent() {
        let preset = toy_two_port();
        let map = preset.mapping();
        let add = preset.instructions.find("ADD").unwrap();
        let bsr = preset.instructions.find("BSR").unwrap();
        assert!((ipc(&map, &Microkernel::single(add).scaled(2)) - 2.0).abs() < 1e-9);
        assert!((ipc(&map, &Microkernel::single(bsr).scaled(2)) - 1.0).abs() < 1e-9);
    }
}
