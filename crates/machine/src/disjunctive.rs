//! Machine descriptions and disjunctive (ground-truth) port mappings.
//!
//! A [`MachineDescription`] is the hidden truth about a CPU: how many ports
//! it has, how wide its front-end is, and how every execution class
//! decomposes into µOPs.  Binding a description to a concrete
//! [`InstructionSet`] yields a [`DisjunctiveMapping`], the tripartite
//! "instruction → µOPs → ports" graph of Fig. 1a, which the simulator
//! executes and which Palmed tries to re-discover from the outside.

use crate::port::{MicroOp, PortSet};
use palmed_isa::{ExecClass, InstId, InstructionSet, Microkernel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Front-end model: a cap on how many instructions (and µOPs) can be decoded
/// and issued per cycle, independently of the execution ports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrontEnd {
    /// Maximum instructions decoded per cycle (4 on SKL-SP, 5 on Zen1).
    pub instructions_per_cycle: f64,
    /// Maximum µOPs issued per cycle (slightly above the decode width on
    /// real cores; `f64::INFINITY` disables the cap).
    pub uops_per_cycle: f64,
}

impl FrontEnd {
    /// A front-end bound on instructions only.
    pub fn instructions_only(width: f64) -> Self {
        FrontEnd { instructions_per_cycle: width, uops_per_cycle: f64::INFINITY }
    }
}

/// Ground-truth description of a machine, keyed by execution class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineDescription {
    /// Human-readable machine name ("skl-sp-like", ...).
    pub name: String,
    /// Number of execution ports.
    pub num_ports: usize,
    /// Front-end model.
    pub front_end: FrontEnd,
    /// Out-of-order scheduler window (number of µOPs in flight) used by the
    /// cycle-level simulator; irrelevant to the analytic bound.
    pub scheduler_window: usize,
    /// µOP decomposition of every execution class.
    pub class_map: BTreeMap<ExecClass, Vec<MicroOp>>,
}

impl MachineDescription {
    /// Creates a description with an empty class map.
    pub fn new(name: impl Into<String>, num_ports: usize, front_end: FrontEnd) -> Self {
        MachineDescription {
            name: name.into(),
            num_ports,
            front_end,
            scheduler_window: 97,
            class_map: BTreeMap::new(),
        }
    }

    /// Registers the µOP decomposition of an execution class.
    ///
    /// # Panics
    ///
    /// Panics if a µOP references a port outside `0..num_ports`.
    pub fn define_class(&mut self, class: ExecClass, uops: Vec<MicroOp>) -> &mut Self {
        for u in &uops {
            for p in u.ports.iter() {
                assert!(
                    p.index() < self.num_ports,
                    "µOP for {class} references port {p} but machine `{}` has {} ports",
                    self.name,
                    self.num_ports
                );
            }
            assert!(!u.ports.is_empty(), "µOP for {class} has an empty port set");
        }
        self.class_map.insert(class, uops);
        self
    }

    /// µOP decomposition of a class, if defined.
    pub fn class_uops(&self, class: ExecClass) -> Option<&[MicroOp]> {
        self.class_map.get(&class).map(Vec::as_slice)
    }

    /// Whether every execution class present in `insts` is defined.
    pub fn covers(&self, insts: &InstructionSet) -> bool {
        insts.iter().all(|(_, d)| self.class_map.contains_key(&d.class))
    }

    /// Binds this description to an instruction set, producing the resolved
    /// per-instruction mapping.
    ///
    /// # Panics
    ///
    /// Panics if an instruction's class has no µOP decomposition.
    pub fn bind(self: &Arc<Self>, insts: Arc<InstructionSet>) -> DisjunctiveMapping {
        let uops = insts
            .iter()
            .map(|(_, d)| {
                self.class_uops(d.class)
                    .unwrap_or_else(|| {
                        panic!("machine `{}` does not define class {}", self.name, d.class)
                    })
                    .to_vec()
            })
            .collect();
        DisjunctiveMapping { machine: Arc::clone(self), insts, uops }
    }
}

/// A disjunctive tripartite port mapping resolved for a specific instruction
/// set: for every instruction, the list of µOPs it decomposes into.
#[derive(Debug, Clone)]
pub struct DisjunctiveMapping {
    machine: Arc<MachineDescription>,
    insts: Arc<InstructionSet>,
    /// µOPs of every instruction, indexed by [`InstId::index`].
    uops: Vec<Vec<MicroOp>>,
}

impl DisjunctiveMapping {
    /// The underlying machine description.
    pub fn machine(&self) -> &MachineDescription {
        &self.machine
    }

    /// The instruction set this mapping was resolved for.
    pub fn instructions(&self) -> &InstructionSet {
        &self.insts
    }

    /// Shared handle on the instruction set.
    pub fn instructions_arc(&self) -> Arc<InstructionSet> {
        Arc::clone(&self.insts)
    }

    /// µOPs of one instruction.
    pub fn uops(&self, inst: InstId) -> &[MicroOp] {
        &self.uops[inst.index()]
    }

    /// Number of µOPs an instruction decomposes into.
    pub fn uop_count(&self, inst: InstId) -> usize {
        self.uops[inst.index()].len()
    }

    /// Aggregated µOP load of a microkernel: for every distinct µOP port-set
    /// and inverse throughput, the total occupancy (count × multiplicity ×
    /// inverse throughput) generated by one loop iteration.
    ///
    /// The result is sorted by port set.  It is accumulated in place, in a
    /// vector kept in that order: a kernel touches a handful of port sets,
    /// so a binary search over a few entries beats a tree map, and each port
    /// set still sums its occupancies in kernel order, starting from 0.0.
    pub fn kernel_load(&self, kernel: &Microkernel) -> Vec<(PortSet, f64)> {
        let mut load: Vec<(PortSet, f64)> = Vec::new();
        for (inst, count) in kernel.iter() {
            for u in self.uops(inst) {
                let at = match load.binary_search_by_key(&u.ports, |&(ports, _)| ports) {
                    Ok(at) => at,
                    Err(at) => {
                        load.insert(at, (u.ports, 0.0));
                        at
                    }
                };
                load[at].1 += count as f64 * u.inverse_throughput;
            }
        }
        load
    }

    /// Total number of µOPs of one kernel iteration (front-end pressure).
    pub fn kernel_uop_count(&self, kernel: &Microkernel) -> f64 {
        kernel.iter().map(|(inst, count)| count as f64 * self.uop_count(inst) as f64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_isa::{InstDesc, InventoryConfig};

    fn tiny_machine() -> Arc<MachineDescription> {
        let mut m = MachineDescription::new("tiny", 2, FrontEnd::instructions_only(4.0));
        m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(PortSet::from_ports([0, 1]))]);
        m.define_class(ExecClass::IntMul, vec![MicroOp::pipelined(PortSet::from_ports([1]))]);
        m.define_class(
            ExecClass::Store,
            vec![
                MicroOp::pipelined(PortSet::from_ports([0])),
                MicroOp::pipelined(PortSet::from_ports([1])),
            ],
        );
        Arc::new(m)
    }

    fn tiny_insts() -> Arc<InstructionSet> {
        Arc::new(InstructionSet::from_descs([
            InstDesc::new("ADD", ExecClass::IntAlu),
            InstDesc::new("IMUL", ExecClass::IntMul),
            InstDesc::new("STORE", ExecClass::Store),
        ]))
    }

    #[test]
    fn binding_resolves_uops() {
        let m = tiny_machine();
        let insts = tiny_insts();
        let map = m.bind(Arc::clone(&insts));
        let add = insts.find("ADD").unwrap();
        let store = insts.find("STORE").unwrap();
        assert_eq!(map.uop_count(add), 1);
        assert_eq!(map.uop_count(store), 2);
    }

    #[test]
    fn kernel_load_accumulates_per_port_set() {
        let m = tiny_machine();
        let insts = tiny_insts();
        let map = m.bind(Arc::clone(&insts));
        let add = insts.find("ADD").unwrap();
        let mul = insts.find("IMUL").unwrap();
        let k = Microkernel::pair(add, 2, mul, 1);
        let load = map.kernel_load(&k);
        // {0,1} -> 2.0 from ADD, {1} -> 1.0 from IMUL
        assert_eq!(load.len(), 2);
        let total: f64 = load.iter().map(|&(_, l)| l).sum();
        assert!((total - 3.0).abs() < 1e-12);
        assert!((map.kernel_uop_count(&k) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not define class")]
    fn binding_requires_full_coverage() {
        let m = tiny_machine();
        let insts =
            Arc::new(InstructionSet::from_descs([InstDesc::new("DIVSS", ExecClass::FpDivSse)]));
        let _ = m.bind(insts);
    }

    #[test]
    #[should_panic(expected = "references port")]
    fn defining_class_checks_port_range() {
        let mut m = MachineDescription::new("bad", 2, FrontEnd::instructions_only(4.0));
        m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(PortSet::from_ports([5]))]);
    }

    #[test]
    fn covers_reports_missing_classes() {
        let m = tiny_machine();
        assert!(m.covers(&tiny_insts()));
        let extra = InstructionSet::synthetic(&InventoryConfig::small());
        assert!(!m.covers(&extra));
    }
}
