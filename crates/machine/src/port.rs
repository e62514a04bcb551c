//! Ports, port sets, and µOPs.
//!
//! An execution *port* is a dispatch slot that can start at most one µOP per
//! cycle (throughput 1).  A µOP carries the set of ports it may execute on
//! and an *inverse throughput*: 1 for fully pipelined units, greater than 1
//! for non-pipelined units such as dividers, which occupy their port for
//! several cycles per operation (Sec. II / VI of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an execution port within a machine description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortId(pub u8);

impl PortId {
    /// Raw index of the port.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A set of execution ports, stored as a bit mask (at most 32 ports).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct PortSet(u32);

impl PortSet {
    /// Maximum number of ports representable.
    pub const MAX_PORTS: usize = 32;

    /// The empty port set.
    pub const EMPTY: PortSet = PortSet(0);

    /// Creates a set from an iterator of port indices.
    ///
    /// # Panics
    ///
    /// Panics if a port index is 32 or larger.
    pub fn from_ports(ports: impl IntoIterator<Item = u8>) -> Self {
        let mut set = PortSet::EMPTY;
        for p in ports {
            set.insert(PortId(p));
        }
        set
    }

    /// Creates a set directly from a bit mask.
    pub fn from_mask(mask: u32) -> Self {
        PortSet(mask)
    }

    /// Bit mask of the set.
    pub fn mask(self) -> u32 {
        self.0
    }

    /// Inserts a port.
    ///
    /// # Panics
    ///
    /// Panics if the port index is 32 or larger.
    pub fn insert(&mut self, port: PortId) {
        assert!(
            (port.0 as usize) < Self::MAX_PORTS,
            "port index {} exceeds the {}-port limit",
            port.0,
            Self::MAX_PORTS
        );
        self.0 |= 1 << port.0;
    }

    /// Whether the set contains a port.
    pub fn contains(self, port: PortId) -> bool {
        self.0 & (1 << port.0) != 0
    }

    /// Number of ports in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when `self` is a subset of `other`.
    pub fn is_subset_of(self, other: PortSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: PortSet) -> PortSet {
        PortSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: PortSet) -> PortSet {
        PortSet(self.0 & other.0)
    }

    /// Iterates over the ports in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = PortId> {
        (0..Self::MAX_PORTS as u8).filter(move |&p| self.0 & (1 << p) != 0).map(PortId)
    }
}

impl FromIterator<PortId> for PortSet {
    fn from_iter<T: IntoIterator<Item = PortId>>(iter: T) -> Self {
        let mut s = PortSet::EMPTY;
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl fmt::Display for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{}", p.0)?;
        }
        write!(f, "}}")
    }
}

/// A micro-operation: the unit of work dispatched to a port.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroOp {
    /// Ports this µOP may execute on (disjunctive choice).
    pub ports: PortSet,
    /// Number of cycles the chosen port is busy with this µOP.
    ///
    /// 1.0 for fully pipelined execution units; larger values model
    /// non-pipelined units (dividers), which are exactly the "low-IPC"
    /// instructions the paper treats specially.
    pub inverse_throughput: f64,
}

impl MicroOp {
    /// A fully pipelined µOP on the given ports.
    pub fn pipelined(ports: PortSet) -> Self {
        MicroOp { ports, inverse_throughput: 1.0 }
    }

    /// A non-pipelined µOP occupying its port for `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is not at least 1.
    pub fn non_pipelined(ports: PortSet, cycles: f64) -> Self {
        assert!(cycles >= 1.0, "inverse throughput must be >= 1, got {cycles}");
        MicroOp { ports, inverse_throughput: cycles }
    }
}

impl fmt::Display for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inverse_throughput == 1.0 {
            write!(f, "uop{}", self.ports)
        } else {
            write!(f, "uop{}x{}", self.ports, self.inverse_throughput)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portset_basic_operations() {
        let a = PortSet::from_ports([0, 1, 6]);
        assert_eq!(a.len(), 3);
        assert!(a.contains(PortId(0)));
        assert!(a.contains(PortId(6)));
        assert!(!a.contains(PortId(2)));
        assert!(!a.is_empty());
        assert!(PortSet::EMPTY.is_empty());
    }

    #[test]
    fn subset_union_intersection() {
        let a = PortSet::from_ports([0, 1]);
        let b = PortSet::from_ports([0, 1, 6]);
        assert!(a.is_subset_of(b));
        assert!(!b.is_subset_of(a));
        assert_eq!(a.union(b), b);
        assert_eq!(a.intersection(b), a);
        assert!(PortSet::EMPTY.is_subset_of(a));
    }

    #[test]
    fn iteration_is_ordered() {
        let a = PortSet::from_ports([6, 0, 3]);
        let ports: Vec<u8> = a.iter().map(|p| p.0).collect();
        assert_eq!(ports, vec![0, 3, 6]);
    }

    #[test]
    fn collect_from_iterator() {
        let a: PortSet = [PortId(2), PortId(5)].into_iter().collect();
        assert_eq!(a, PortSet::from_ports([2, 5]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PortSet::from_ports([0, 1, 6]).to_string(), "{0,1,6}");
        assert_eq!(PortId(4).to_string(), "p4");
        assert_eq!(MicroOp::pipelined(PortSet::from_ports([2])).to_string(), "uop{2}");
        assert!(MicroOp::non_pipelined(PortSet::from_ports([0]), 4.0).to_string().contains("x4"));
    }

    #[test]
    #[should_panic(expected = "port index")]
    fn oversized_port_panics() {
        PortSet::from_ports([32]);
    }

    #[test]
    #[should_panic(expected = "inverse throughput")]
    fn invalid_inverse_throughput_panics() {
        MicroOp::non_pipelined(PortSet::from_ports([0]), 0.5);
    }

    #[test]
    fn mask_roundtrip() {
        let a = PortSet::from_ports([1, 3]);
        assert_eq!(PortSet::from_mask(a.mask()), a);
    }
}
