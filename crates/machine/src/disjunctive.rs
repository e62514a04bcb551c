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

    /// No front-end limitation at all (useful for unit tests).
    pub fn unlimited() -> Self {
        FrontEnd { instructions_per_cycle: f64::INFINITY, uops_per_cycle: f64::INFINITY }
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

    /// Rebuilds a description from per-instruction µOP rows (`(port mask,
    /// inverse throughput)` pairs) — the inverse of
    /// [`DisjunctiveMapping::uop_rows`], and the path a persisted
    /// disjunctive artifact takes back into a bindable machine description.
    ///
    /// The class map is keyed by execution class, so every instruction of a
    /// class present in `rows` must carry the same µOPs; instructions (and
    /// classes) without a row are simply left undefined, exactly like a
    /// hand-built description that does not cover them.
    ///
    /// # Errors
    ///
    /// Rejects rows referencing instructions outside `insts`, empty rows or
    /// masks, masks using ports at or beyond `num_ports`, non-finite or
    /// non-positive inverse throughputs, and two instructions of one class
    /// with differing µOPs.
    pub fn from_uop_rows(
        name: impl Into<String>,
        num_ports: usize,
        front_end: FrontEnd,
        insts: &InstructionSet,
        rows: &[(InstId, Vec<(u32, f64)>)],
    ) -> Result<MachineDescription, String> {
        let mut description = MachineDescription::new(name, num_ports, front_end);
        for (inst, row) in rows {
            if inst.index() >= insts.len() {
                return Err(format!(
                    "row references {inst} but the instruction set has {} entries",
                    insts.len()
                ));
            }
            if row.is_empty() {
                return Err(format!("row for {inst} has no µOPs"));
            }
            let mut uops = Vec::with_capacity(row.len());
            for &(mask, inverse_throughput) in row {
                if mask == 0 || (num_ports < 32 && mask >= (1u32 << num_ports)) {
                    return Err(format!(
                        "µOP mask {mask:#b} of {inst} is empty or exceeds {num_ports} ports"
                    ));
                }
                if !inverse_throughput.is_finite() || inverse_throughput <= 0.0 {
                    return Err(format!(
                        "µOP inverse throughput {inverse_throughput} of {inst} is not finite \
                         and positive"
                    ));
                }
                uops.push(MicroOp { ports: PortSet::from_mask(mask), inverse_throughput });
            }
            let class = insts.desc(*inst).class;
            match description.class_map.get(&class) {
                Some(existing) if *existing != uops => {
                    return Err(format!(
                        "instructions of class {class} disagree on their µOPs \
                         (the class map is keyed by class)"
                    ));
                }
                Some(_) => {}
                None => {
                    description.class_map.insert(class, uops);
                }
            }
        }
        Ok(description)
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

    /// Union of the ports used by an instruction's µOPs.
    pub fn port_footprint(&self, inst: InstId) -> PortSet {
        self.uops(inst).iter().fold(PortSet::EMPTY, |acc, u| acc.union(u.ports))
    }

    /// Aggregated µOP load of a microkernel: for every distinct µOP port-set
    /// and inverse throughput, the total occupancy (count × multiplicity ×
    /// inverse throughput) generated by one loop iteration.
    pub fn kernel_load(&self, kernel: &Microkernel) -> Vec<(PortSet, f64)> {
        let mut by_ports: BTreeMap<PortSet, f64> = BTreeMap::new();
        for (inst, count) in kernel.iter() {
            for u in self.uops(inst) {
                *by_ports.entry(u.ports).or_insert(0.0) += count as f64 * u.inverse_throughput;
            }
        }
        by_ports.into_iter().collect()
    }

    /// Total number of µOPs of one kernel iteration (front-end pressure).
    pub fn kernel_uop_count(&self, kernel: &Microkernel) -> f64 {
        kernel.iter().map(|(inst, count)| count as f64 * self.uop_count(inst) as f64).sum()
    }

    /// Flattens the resolved mapping into per-instruction µOP rows —
    /// `(port mask, inverse throughput)` pairs per instruction, the
    /// interchange form disjunctive artifacts persist.  One row per
    /// instruction of the set, in instruction order; the inverse of
    /// [`MachineDescription::from_uop_rows`] up to class-level sharing.
    pub fn uop_rows(&self) -> Vec<(InstId, Vec<(u32, f64)>)> {
        self.insts
            .ids()
            .map(|inst| {
                let row = self
                    .uops(inst)
                    .iter()
                    .map(|u| (u.ports.mask(), u.inverse_throughput))
                    .collect();
                (inst, row)
            })
            .collect()
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
        assert_eq!(map.port_footprint(add), PortSet::from_ports([0, 1]));
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
        let mut m = MachineDescription::new("bad", 2, FrontEnd::unlimited());
        m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(PortSet::from_ports([5]))]);
    }

    #[test]
    fn uop_rows_round_trip_through_from_uop_rows() {
        let m = tiny_machine();
        let insts = tiny_insts();
        let map = m.bind(Arc::clone(&insts));
        let rows = map.uop_rows();
        assert_eq!(rows.len(), insts.len());
        let rebuilt = MachineDescription::from_uop_rows(
            "tiny-rebuilt",
            m.num_ports,
            m.front_end,
            &insts,
            &rows,
        )
        .unwrap();
        assert_eq!(rebuilt.class_map, m.class_map);
        let rebound = Arc::new(rebuilt).bind(Arc::clone(&insts));
        for id in insts.ids() {
            assert_eq!(rebound.uops(id), map.uops(id), "{id}");
        }
        assert_eq!(rebound.uop_rows(), rows);
    }

    #[test]
    fn from_uop_rows_rejects_inconsistent_and_invalid_rows() {
        let insts = tiny_insts();
        let fe = FrontEnd::unlimited();
        let ok = |rows: &[(InstId, Vec<(u32, f64)>)]| {
            MachineDescription::from_uop_rows("t", 2, fe, &insts, rows)
        };
        assert!(ok(&[(InstId(0), vec![(0b01, 1.0)])]).is_ok());
        assert!(ok(&[(InstId(9), vec![(0b01, 1.0)])]).is_err(), "unknown instruction");
        assert!(ok(&[(InstId(0), vec![])]).is_err(), "empty row");
        assert!(ok(&[(InstId(0), vec![(0, 1.0)])]).is_err(), "empty mask");
        assert!(ok(&[(InstId(0), vec![(0b100, 1.0)])]).is_err(), "mask beyond ports");
        assert!(ok(&[(InstId(0), vec![(0b01, 0.0)])]).is_err(), "zero throughput");
        assert!(ok(&[(InstId(0), vec![(0b01, f64::INFINITY)])]).is_err(), "infinite");
        // Two IntAlu-class instructions disagreeing on µOPs: the class map
        // cannot represent that.
        let more = Arc::new(InstructionSet::from_descs([
            InstDesc::new("ADD", ExecClass::IntAlu),
            InstDesc::new("SUB", ExecClass::IntAlu),
        ]));
        assert!(MachineDescription::from_uop_rows(
            "t",
            2,
            fe,
            &more,
            &[(InstId(0), vec![(0b01, 1.0)]), (InstId(1), vec![(0b10, 1.0)])],
        )
        .is_err());
        // Agreement is fine.
        assert!(MachineDescription::from_uop_rows(
            "t",
            2,
            fe,
            &more,
            &[(InstId(0), vec![(0b01, 1.0)]), (InstId(1), vec![(0b01, 1.0)])],
        )
        .is_ok());
    }

    #[test]
    fn covers_reports_missing_classes() {
        let m = tiny_machine();
        assert!(m.covers(&tiny_insts()));
        let extra = InstructionSet::synthetic(&InventoryConfig::small());
        assert!(!m.covers(&extra));
    }
}
