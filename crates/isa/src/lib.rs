//! Instruction-set substrate for the Palmed reproduction.
//!
//! Palmed treats instructions as opaque identifiers: everything it learns
//! about them comes from measuring the IPC of *microkernels* — infinite loops
//! repeating a dependency-free multiset of instructions (Def. IV.1 of the
//! paper).  This crate provides:
//!
//! * [`inst`] — instruction descriptors: a symbolic name, the ISA
//!   *extension* it belongs to (base / SSE / AVX, which Palmed refuses to mix
//!   inside one benchmark), and the *execution class* that the machine model
//!   uses to decide which µOPs it decomposes into.
//! * [`kernel`] — the [`Microkernel`] multiset type and
//!   helpers to build the benchmark shapes the paper uses (`a`, `aabb`,
//!   `aMb`, `i i sat^L sat`, ...).
//! * [`inventory`] — an [`InstructionSet`]
//!   container plus generators for a synthetic, x86-flavoured instruction
//!   inventory that mirrors the statistical structure of the real ISA
//!   (thousands of mnemonics collapsing onto a handful of behaviours).
//! * [`intern`] — [`KernelSet`], an insert-only interner giving every
//!   distinct microkernel a dense [`KernelId`], so serving-layer dedup is
//!   index bookkeeping instead of repeated hashing.  Its crate-private
//!   `HashIndex` holds the one rule that keeps every 64-bit-hash table of
//!   the workspace exact under a collision (the first id keeps the slot,
//!   later distinct keys overflow to a list scanned by equality): the
//!   instruction-name index, the interner and the measurement memo all
//!   use it.

pub mod inst;
pub mod intern;
pub mod inventory;
pub mod kernel;

pub use inst::{ExecClass, Extension, InstDesc, InstId};
pub use intern::{FxBuildHasher, FxLikeHasher, KernelId, KernelSet};
pub use inventory::{InstructionSet, InventoryConfig};
pub use kernel::Microkernel;
