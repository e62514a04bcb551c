//! The dense `ConjunctiveMapping` against the layout it replaced.
//!
//! [`MapMapping`] keeps the old representation alive here, and nowhere
//! else: a `BTreeMap` from instruction to usage row, with its own load loop,
//! pruning, rendering and codec writers.  Random mappings are built the same
//! way into both, and every output of the dense table is checked against
//! the reference bit for bit: predictions, `supports`, equality, `render`,
//! the v1 text and v2b bytes of an artifact, and the fingerprint.

use palmed_core::ConjunctiveMapping;
use palmed_integration_tests::artifact_prop::inventory;
use palmed_isa::{ExecClass, Extension, InstId, InstructionSet, Microkernel};
use palmed_serve::checksum::fnv1a64;
use palmed_serve::codec::{finish_trailer, push_f64, push_str, push_u32};
use palmed_serve::fingerprint::{model_fingerprint, probe_corpus};
use palmed_serve::ModelArtifact;
use std::collections::BTreeMap;

/// The `BTreeMap` conjunctive mapping: one row per mapped instruction.
#[derive(Debug, Clone, PartialEq)]
struct MapMapping {
    resource_names: Vec<String>,
    usage: BTreeMap<InstId, Vec<f64>>,
}

impl MapMapping {
    fn with_resources(n: usize) -> Self {
        MapMapping {
            resource_names: (0..n).map(|i| format!("R{i}")).collect(),
            usage: BTreeMap::new(),
        }
    }

    fn set_usage(&mut self, inst: InstId, usage: Vec<f64>) {
        assert_eq!(usage.len(), self.resource_names.len());
        self.usage.insert(inst, usage);
    }

    fn kernel_load(&self, kernel: &Microkernel) -> Vec<f64> {
        let mut load = vec![0.0; self.resource_names.len()];
        for &(inst, count) in kernel.as_slice() {
            if let Some(usage) = self.usage.get(&inst) {
                for (l, u) in load.iter_mut().zip(usage) {
                    *l += count as f64 * u;
                }
            }
        }
        load
    }

    fn execution_time(&self, kernel: &Microkernel) -> f64 {
        self.kernel_load(kernel).into_iter().fold(0.0, f64::max)
    }

    fn ipc(&self, kernel: &Microkernel) -> Option<f64> {
        let t = self.execution_time(kernel);
        (t > 0.0).then(|| kernel.total_instructions() as f64 / t)
    }

    fn prune_unused_resources(&mut self) -> usize {
        let n = self.resource_names.len();
        let used = |r: usize| self.usage.values().any(|row| row[r] > 1e-9);
        let keep: Vec<usize> = (0..n).filter(|&r| used(r)).collect();
        if keep.len() == n {
            return 0;
        }
        self.resource_names = keep.iter().map(|&r| self.resource_names[r].clone()).collect();
        for usage in self.usage.values_mut() {
            *usage = keep.iter().map(|&r| usage[r]).collect();
        }
        n - keep.len()
    }

    fn render(&self, insts: &InstructionSet) -> String {
        let mut out = format!(
            "conjunctive mapping: {} instructions, {} resources\n",
            self.usage.len(),
            self.resource_names.len()
        );
        out.push_str("instruction                  ");
        for name in &self.resource_names {
            out.push_str(&format!("{name:>10}"));
        }
        out.push('\n');
        for (&inst, usage) in &self.usage {
            out.push_str(&format!("{:<29}", insts.name(inst)));
            for &u in usage {
                if u.abs() < 1e-9 {
                    out.push_str(&format!("{:>10}", "."));
                } else {
                    out.push_str(&format!("{u:>10.3}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Non-zero `(column, value)` entries of a row (`-0.0` dropped too).
    fn sparse(row: &[f64]) -> impl Iterator<Item = (usize, f64)> + '_ {
        row.iter().copied().enumerate().filter(|&(_, value)| value != 0.0)
    }

    /// The `PALMED-MODEL v1` text of an artifact holding this mapping.
    fn render_v1(&self, machine: &str, source: &str, insts: &InstructionSet) -> String {
        let mut out = format!("PALMED-MODEL v1\nmachine {machine}\nsource {source}\n");
        out.push_str(&format!("instructions {}\n", insts.len()));
        for (id, desc) in insts.iter() {
            let (name, class, ext) = (&desc.name, desc.class, desc.extension);
            out.push_str(&format!("I {} {name} {class} {ext}\n", id.index()));
        }
        out.push_str(&format!("resources {}\n", self.resource_names.len()));
        for (r, name) in self.resource_names.iter().enumerate() {
            out.push_str(&format!("R {r} {name}\n"));
        }
        out.push_str(&format!("rows {}\n", self.usage.len()));
        for (inst, row) in &self.usage {
            out.push_str(&format!("M {}", inst.index()));
            for (r, value) in Self::sparse(row) {
                out.push_str(&format!(" {r}:{value}"));
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out.push_str(&format!("checksum {:016x}\n", fnv1a64(out.as_bytes())));
        out
    }

    /// The `PALMED-MODEL v2b` bytes of an artifact holding this mapping.
    fn render_v2b(&self, machine: &str, source: &str, insts: &InstructionSet) -> Vec<u8> {
        let mut out = b"PALMED-MODEL v2b\n".to_vec();
        push_str(&mut out, machine);
        push_str(&mut out, source);
        push_u32(&mut out, insts.len() as u32);
        for (_, desc) in insts.iter() {
            push_str(&mut out, &desc.name);
            out.push(ExecClass::ALL.iter().position(|&c| c == desc.class).unwrap() as u8);
            out.push(Extension::ALL.iter().position(|&e| e == desc.extension).unwrap() as u8);
        }
        push_u32(&mut out, self.resource_names.len() as u32);
        for name in &self.resource_names {
            push_str(&mut out, name);
        }
        let slots = self.usage.keys().last().map_or(0, |i| i.index() + 1);
        let rows: Vec<Vec<(usize, f64)>> = (0..slots as u32)
            .map(|i| self.usage.get(&InstId(i)).map_or(vec![], |row| Self::sparse(row).collect()))
            .collect();
        push_u32(&mut out, slots as u32);
        out.extend((0..slots as u32).map(|i| u8::from(self.usage.contains_key(&InstId(i)))));
        let mut nnz = 0;
        push_u32(&mut out, nnz);
        for row in &rows {
            nnz += row.len() as u32;
            push_u32(&mut out, nnz);
        }
        push_u32(&mut out, nnz);
        for &(col, _) in rows.iter().flatten() {
            push_u32(&mut out, col as u32);
        }
        for &(_, value) in rows.iter().flatten() {
            push_f64(&mut out, value);
        }
        finish_trailer(out)
    }

    /// The determinism fingerprint over the reference's predictions.
    fn fingerprint(&self, num_slots: usize) -> u64 {
        let mut buffer = (num_slots as u64).to_le_bytes().to_vec();
        for kernel in probe_corpus(num_slots) {
            let bits = self.ipc(&kernel).map_or(u64::MAX, f64::to_bits);
            buffer.extend_from_slice(&bits.to_le_bytes());
        }
        fnv1a64(&buffer)
    }
}

/// splitmix64: a tiny deterministic generator for the random cases.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random usage row: `-0.0`, `+0.0`, small integers and fractions, and
/// now and then an all-zero row.
fn random_row(state: &mut u64, width: usize) -> Vec<f64> {
    if next(state).is_multiple_of(10) {
        return vec![0.0; width];
    }
    (0..width)
        .map(|_| match next(state) % 8 {
            0 => -0.0,
            1..=3 => 0.0,
            4 => (next(state) % 4) as f64,
            _ => (next(state) >> 11) as f64 / (1u64 << 50) as f64,
        })
        .collect()
}

/// A random kernel over `slots + 4` ids (so some lie past the table), with
/// counts up to `u32::MAX`.
fn random_kernel(state: &mut u64, slots: u32) -> Microkernel {
    let inst = |state: &mut u64| InstId((next(state) % (slots as u64 + 4)) as u32);
    if next(state).is_multiple_of(5) {
        let inst = inst(state);
        let count = u32::MAX - (next(state) % 3) as u32;
        return Microkernel::from_counts([(inst, count)]);
    }
    let distinct = 1 + next(state) % 6;
    Microkernel::from_counts(
        (0..distinct)
            .map(|_| (inst(state), 1 + (next(state) % (1 << 20)) as u32))
            .collect::<Vec<_>>(),
    )
}

/// Random mappings, built by `set_usage` in random id order (with unmapped
/// gaps, replaced rows and, in a third of the cases, pruning), predict,
/// compare, render and encode exactly like the `BTreeMap` reference.
#[test]
fn random_mappings_predict_bit_identically() {
    let insts = inventory();
    let mut state = 0x5eed_u64;
    for case in 0..200 {
        let num_resources = (next(&mut state) % 24) as usize;
        let slots = 1 + (next(&mut state) % 40) as u32;
        let mut dense = ConjunctiveMapping::with_resources(num_resources);
        let mut reference = MapMapping::with_resources(num_resources);
        // A random permutation of the slots; a quarter stay unmapped gaps
        // and a few get their row replaced later.
        let mut order: Vec<u32> = (0..slots).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
        }
        for &inst in &order {
            for _ in 0..1 + u32::from(next(&mut state).is_multiple_of(8)) {
                if next(&mut state).is_multiple_of(4) {
                    continue;
                }
                let row = random_row(&mut state, num_resources);
                dense.set_usage(InstId(inst), row.clone());
                reference.set_usage(InstId(inst), row);
            }
        }
        if case % 3 == 0 {
            assert_eq!(
                dense.prune_unused_resources(),
                reference.prune_unused_resources(),
                "case {case}: pruned resources"
            );
        }

        // The table itself.
        assert_eq!(dense.num_resources(), reference.resource_names.len(), "case {case}");
        assert_eq!(dense.num_instructions(), reference.usage.len(), "case {case}");
        assert!(dense.instructions().eq(reference.usage.keys().copied()), "case {case}");
        for inst in (0..slots + 4).map(InstId) {
            let want = reference.usage.get(&inst);
            assert_eq!(dense.supports(inst), want.is_some(), "case {case}: supports {inst}");
            let bits = |row: &[f64]| row.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                dense.usage_vector(inst).map(bits),
                want.map(|row| bits(row)),
                "case {case}: row {inst}"
            );
            for r in dense.resources() {
                let usage = want.map_or(0.0, |row| row[r.index()]);
                assert_eq!(dense.usage(inst, r).to_bits(), usage.to_bits());
            }
        }
        let names: Vec<&str> = dense.resources().map(|r| dense.resource_name(r)).collect();
        assert_eq!(names, reference.resource_names, "case {case}: resource names");

        // Equality agrees with the reference's: the same rows inserted in
        // ascending order compare equal, and a changed row compares unequal.
        let mut ascending = ConjunctiveMapping::with_resources(dense.num_resources());
        for r in dense.resources() {
            ascending.set_resource_name(r, dense.resource_name(r));
        }
        for (&inst, row) in &reference.usage {
            ascending.set_usage(inst, row.clone());
        }
        assert_eq!(ascending, dense, "case {case}: insertion order");
        if let Some((&inst, row)) = reference.usage.iter().next().filter(|_| num_resources > 0) {
            let mut changed_row = row.clone();
            changed_row[0] += 1.0;
            let mut changed = dense.clone();
            changed.set_usage(inst, changed_row.clone());
            let mut changed_reference = reference.clone();
            changed_reference.set_usage(inst, changed_row);
            assert_eq!(changed == dense, changed_reference == reference, "case {case}: ==");
        }

        // Rendering, the codecs and the fingerprint.
        assert_eq!(dense.render(&insts), reference.render(&insts), "case {case}: render");
        let artifact =
            ModelArtifact::new("ref-machine", "ref-source", insts.clone(), dense.clone());
        assert_eq!(
            artifact.render(),
            reference.render_v1("ref-machine", "ref-source", &insts),
            "case {case}: v1 text"
        );
        assert_eq!(
            artifact.render_v2(),
            reference.render_v2b("ref-machine", "ref-source", &insts),
            "case {case}: v2b bytes"
        );
        let n = insts.len();
        assert_eq!(artifact.fingerprint(), reference.fingerprint(n), "case {case}: fingerprint");
        assert_eq!(model_fingerprint(&dense, n), reference.fingerprint(n), "case {case}");

        // Predictions, through the scratch path and the per-call path.
        let mut scratch = Vec::new();
        for _ in 0..50 {
            let kernel = random_kernel(&mut state, slots);
            let want = reference.ipc(&kernel).map(f64::to_bits);
            assert_eq!(dense.ipc(&kernel).map(f64::to_bits), want, "case {case}: ipc of {kernel}");
            assert_eq!(dense.ipc_with(&kernel, &mut scratch).map(f64::to_bits), want);
            assert_eq!(
                dense.execution_time(&kernel).to_bits(),
                reference.execution_time(&kernel).to_bits(),
                "case {case}: execution time of {kernel}"
            );
            let bits = |load: Vec<f64>| load.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(dense.kernel_load(&kernel)), bits(reference.kernel_load(&kernel)));
        }
    }
}
