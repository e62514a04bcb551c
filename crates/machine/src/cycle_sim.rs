//! Cycle-level greedy issue simulator.
//!
//! The analytic bound of [`crate::throughput`] assumes a perfect scheduler.
//! Real out-of-order cores come close to it on dependency-free code, but they
//! schedule greedily with a finite reservation-station window and an in-order
//! front-end.  This module simulates exactly that: it is the "native
//! execution" back-end of the reproduction, producing IPC numbers that are
//! realistic (slightly below the analytic optimum on some mixes) and
//! therefore give the inference pipeline the same kind of imperfect data the
//! paper's measurements did.
//!
//! The model per cycle:
//!
//! 1. **Fetch/decode**: up to `front_end.instructions_per_cycle` instructions
//!    are taken from the kernel body (repeated round-robin) and their µOPs
//!    are placed in the scheduler window, as long as there is room.
//! 2. **Dispatch**: every port that is not still busy with a previous
//!    non-pipelined µOP takes, among the waiting µOPs that list it, the one
//!    that entered the window first (oldest-first).
//!
//! The window is kept as one FIFO of sequence numbers per µOP *class*: a
//! distinct `(port mask, busy cycles)` pair of the kernel.  µOPs of one class
//! are interchangeable to every port, and fetch hands out sequence numbers in
//! increasing order, so each FIFO stays sorted and its head is the class's
//! oldest µOP.  The oldest µOP a port can take is therefore the smallest
//! head among the classes whose mask contains the port — the very µOP a scan
//! of the whole window would pick — at a cost of one comparison per class
//! instead of one per window entry.
//!
//! There are no dependencies and no memory system — microkernels are
//! dependency-free and L1-resident by construction (Sec. III-A of the paper).
//!
//! # Steady state
//!
//! The state at the start of a cycle, taken relative to that cycle, is: the
//! next body instruction to fetch, the bits of both front-end credits, the
//! number of waiting µOPs, every port's remaining busy cycles, and every
//! class FIFO as its length plus each entry's distance from the next
//! sequence number.  A cycle's fetch and dispatch read nothing else, and
//! they read the absolute cycle only to decide whether a fetch is counted
//! (warm-up or measurement).  So two cycles with equal states have equal
//! futures, and once a state repeats after `P` cycles that fetched `D`
//! instructions, the run is periodic from there on.
//!
//! The simulator finds the repeat with Brent's cycle-finding scheme (R. P.
//! Brent, "An improved Monte Carlo factorization algorithm", BIT 20, 1980):
//! it keeps one snapshot, re-taken whenever the cycles since it reach the
//! next power of two, and compares each cycle's state with it, a few scalars
//! first and the full state only when those match.  On a repeat it skips
//! whole periods, adding `P` per period to every port's busy time and `D`
//! to the fetch count, then steps the remaining cycles.  A skip never
//! crosses the end of the warm-up: inside the warm-up it stops there, and
//! the next repeat skips through the measurement, counting its fetches.
//! The skipped cycles are thus counted exactly as the full loop counts
//! them, in integers, and when no state repeats the loop runs to the end.

use crate::disjunctive::DisjunctiveMapping;
use palmed_isa::Microkernel;
use std::collections::VecDeque;

/// Configuration of the cycle-level simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Number of warm-up cycles excluded from the measurement.
    pub warmup_cycles: u64,
    /// Number of measured cycles.  Once the steady state repeats, whole
    /// periods are skipped (see the module docs), so a longer measurement
    /// no longer costs time linear in its length.
    pub measured_cycles: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig { warmup_cycles: 200, measured_cycles: 2_000 }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationResult {
    /// Measured instructions per cycle.
    pub ipc: f64,
    /// Instructions retired during the measured window.
    pub instructions_retired: u64,
    /// Cycles in the measured window.
    pub cycles: u64,
}

/// Simulates the steady-state execution of `kernel` and returns its IPC.
pub fn simulate_ipc(
    mapping: &DisjunctiveMapping,
    kernel: &Microkernel,
    config: &SimulationConfig,
) -> SimulationResult {
    simulate(mapping, kernel, config).0
}

/// The simulator's state at the start of a cycle, relative to that cycle
/// (see "Steady state" in the module docs), as saved by Brent's scheme.
struct Snapshot {
    /// The cycle the snapshot was taken at.
    cycle: u64,
    /// Instructions fetched before that cycle, warm-up included.
    fetched: u64,
    /// `(next_instruction, fetch_credit bits, uop_credit bits, pending)`:
    /// compared every cycle, before the full state.
    key: (usize, u64, u64, usize),
    /// `busy_until − cycle` per port, 0 for a free port.
    busy: Vec<u64>,
    /// Per class FIFO, its length and then each entry as `sequence − seq`.
    queues: Vec<u64>,
}

impl Snapshot {
    fn take(
        &mut self,
        cycle: u64,
        fetched: u64,
        key: (usize, u64, u64, usize),
        busy_until: &[u64],
        queues: &[VecDeque<u64>],
        sequence: u64,
    ) {
        self.cycle = cycle;
        self.fetched = fetched;
        self.key = key;
        self.busy.clear();
        self.busy.extend(busy_until.iter().map(|b| b.saturating_sub(cycle)));
        self.queues.clear();
        for queue in queues {
            self.queues.push(queue.len() as u64);
            self.queues.extend(queue.iter().map(|&seq| sequence - seq));
        }
    }

    fn matches(
        &self,
        cycle: u64,
        busy_until: &[u64],
        queues: &[VecDeque<u64>],
        sequence: u64,
    ) -> bool {
        let mut saved = self.queues.iter();
        self.busy.iter().zip(busy_until).all(|(&rel, b)| rel == b.saturating_sub(cycle))
            && queues.iter().all(|queue| {
                saved.next() == Some(&(queue.len() as u64))
                    && queue.iter().all(|&seq| saved.next() == Some(&(sequence - seq)))
            })
    }
}

/// [`simulate_ipc`], also returning the number of cycles actually stepped:
/// `warmup_cycles + measured_cycles` minus the cycles skipped as whole
/// periods of the steady state.
fn simulate(
    mapping: &DisjunctiveMapping,
    kernel: &Microkernel,
    config: &SimulationConfig,
) -> (SimulationResult, u64) {
    if kernel.is_empty() {
        return (SimulationResult { ipc: 0.0, instructions_retired: 0, cycles: 0 }, 0);
    }
    let machine = mapping.machine();
    let num_ports = machine.num_ports;
    let window = machine.scheduler_window.max(1);
    let fe_insts = machine.front_end.instructions_per_cycle;
    let fe_uops = machine.front_end.uops_per_cycle;

    // Flatten the kernel body.  `classes` holds the distinct (port mask,
    // busy cycles) pairs; `uop_classes` the class of every µOP of every
    // distinct instruction, back to back; `body` one range into it per
    // instruction instance.
    let mut classes: Vec<(u32, u64)> = Vec::new();
    let mut uop_classes: Vec<usize> = Vec::new();
    let mut body: Vec<(usize, usize)> = Vec::new();
    for (inst, count) in kernel.iter() {
        let start = uop_classes.len();
        for u in mapping.uops(inst) {
            let class = (u.ports.mask(), u.inverse_throughput.ceil() as u64);
            let index = match classes.iter().position(|&c| c == class) {
                Some(index) => index,
                None => {
                    classes.push(class);
                    classes.len() - 1
                }
            };
            uop_classes.push(index);
        }
        body.extend(std::iter::repeat_n((start, uop_classes.len()), count as usize));
    }
    // The classes each port can take µOPs from.
    let port_classes: Vec<Vec<usize>> = (0..num_ports)
        .map(|port| (0..classes.len()).filter(|&c| classes[c].0 & (1 << port) != 0).collect())
        .collect();

    // One FIFO of waiting µOPs' sequence numbers per class.
    let mut queues: Vec<VecDeque<u64>> =
        classes.iter().map(|_| VecDeque::with_capacity(window)).collect();
    let mut pending = 0usize;
    let mut port_busy_until = vec![0u64; num_ports];
    let mut next_instruction = 0usize; // index into body (wraps)
    let mut sequence = 0u64;
    // Fractional front-end credit accumulators support non-integer widths.
    let mut fetch_credit = 0.0f64;
    let mut uop_credit = 0.0f64;

    let mut measured_instructions = 0u64;
    // An instruction is "retired" for IPC purposes when fetched; since there
    // are no dependencies, every fetched instruction completes a bounded
    // number of cycles later, so in steady state fetch rate == retire rate.
    let total_cycles = config.warmup_cycles + config.measured_cycles;

    let mut fetched = 0u64;
    let mut saved = Snapshot {
        cycle: 0,
        fetched: 0,
        key: (0, 0, 0, 0),
        busy: Vec::with_capacity(num_ports),
        queues: Vec::with_capacity(classes.len() + window),
    };
    // Brent's scheme: the snapshot is taken at cycle 0 and re-taken whenever
    // the cycles since it reach `power`, which then doubles.
    let mut power = 0u64;
    let mut cycle = 0u64;
    let mut stepped = 0u64;

    while cycle < total_cycles {
        let since = cycle - saved.cycle;
        let key = (next_instruction, fetch_credit.to_bits(), uop_credit.to_bits(), pending);
        if since > 0
            && key == saved.key
            && saved.matches(cycle, &port_busy_until, &queues, sequence)
        {
            // The state repeats every `since` cycles, fetching `per_period`
            // instructions each time: skip whole periods up to the end of
            // the warm-up, or of the run, and step the rest.
            let per_period = fetched - saved.fetched;
            let limit =
                if cycle < config.warmup_cycles { config.warmup_cycles } else { total_cycles };
            let skip = (limit - cycle) / since;
            for busy_until in &mut port_busy_until {
                *busy_until += skip * since;
            }
            fetched += skip * per_period;
            if cycle >= config.warmup_cycles {
                measured_instructions += skip * per_period;
            }
            cycle += skip * since;
            // The state is still the snapshot's, now at `cycle`.
            saved.cycle = cycle;
            saved.fetched = fetched;
            continue;
        }
        if since == power {
            saved.take(cycle, fetched, key, &port_busy_until, &queues, sequence);
            power = (2 * power).max(1);
        }
        stepped += 1;

        // Fetch.
        fetch_credit = (fetch_credit + fe_insts).min(fe_insts.max(1.0) * 2.0);
        if fe_uops.is_finite() {
            uop_credit = (uop_credit + fe_uops).min(fe_uops * 2.0);
        }
        loop {
            let (start, end) = body[next_instruction];
            let uops = end - start;
            let uop_cost = uops as f64;
            if fetch_credit < 1.0 {
                break;
            }
            if fe_uops.is_finite() && uop_credit < uop_cost {
                break;
            }
            if pending + uops > window {
                break;
            }
            for &class in &uop_classes[start..end] {
                queues[class].push_back(sequence);
                sequence += 1;
            }
            pending += uops;
            fetch_credit -= 1.0;
            if fe_uops.is_finite() {
                uop_credit -= uop_cost;
            }
            next_instruction = (next_instruction + 1) % body.len();
            fetched += 1;
            if cycle >= config.warmup_cycles {
                measured_instructions += 1;
            }
        }

        // Dispatch: each free port takes the oldest µOP among the heads of
        // its classes' FIFOs.
        for (busy_until, port_classes) in port_busy_until.iter_mut().zip(&port_classes) {
            if *busy_until > cycle {
                continue;
            }
            let mut oldest: Option<(u64, usize)> = None;
            for &class in port_classes {
                if let Some(&seq) = queues[class].front() {
                    if oldest.is_none_or(|(s, _)| seq < s) {
                        oldest = Some((seq, class));
                    }
                }
            }
            if let Some((_, class)) = oldest {
                queues[class].pop_front();
                pending -= 1;
                *busy_until = cycle + classes[class].1;
            }
        }
        cycle += 1;
    }

    let cycles = config.measured_cycles.max(1);
    let result = SimulationResult {
        ipc: measured_instructions as f64 / cycles as f64,
        instructions_retired: measured_instructions,
        cycles,
    };
    (result, stepped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjunctive::{FrontEnd, MachineDescription};
    use crate::port::{MicroOp, PortSet};
    use crate::presets::{self, PresetMachine};
    use crate::throughput;
    use palmed_isa::{ExecClass, InstDesc, InstId, InstructionSet, InventoryConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// One µOP instance waiting in the scheduler window of
    /// [`simulate_ipc_window_scan`].
    #[derive(Debug, Clone, Copy)]
    struct PendingUop {
        /// Index of the µOP kind in the flattened kernel body.
        kind: usize,
        /// Sequence number used for oldest-first scheduling.
        sequence: u64,
    }

    /// The reference simulator: the same model as [`simulate_ipc`], with a
    /// scheduler window that every free port scans in full for the oldest
    /// compatible µOP.  The per-class FIFOs must reproduce it bit for bit.
    fn simulate_ipc_window_scan(
        mapping: &DisjunctiveMapping,
        kernel: &Microkernel,
        config: &SimulationConfig,
    ) -> SimulationResult {
        if kernel.is_empty() {
            return SimulationResult { ipc: 0.0, instructions_retired: 0, cycles: 0 };
        }
        let machine = mapping.machine();
        let num_ports = machine.num_ports;
        let window = machine.scheduler_window.max(1);
        let fe_insts = machine.front_end.instructions_per_cycle;
        let fe_uops = machine.front_end.uops_per_cycle;

        // Flatten the kernel body: one entry per instruction instance, each with
        // its µOP kinds.  µOP kinds are stored once in `uop_ports`.
        let mut body: Vec<Vec<usize>> = Vec::new(); // per instruction: µOP kind indices
        let mut uop_ports: Vec<(u32, f64)> = Vec::new(); // port mask, busy cycles
        for (inst, count) in kernel.iter() {
            let mut kinds = Vec::new();
            for u in mapping.uops(inst) {
                let kind = uop_ports.len();
                uop_ports.push((u.ports.mask(), u.inverse_throughput));
                kinds.push(kind);
            }
            for _ in 0..count {
                body.push(kinds.clone());
            }
        }

        let mut pending: Vec<PendingUop> = Vec::new();
        let mut port_busy_until = vec![0u64; num_ports];
        let mut next_instruction = 0usize; // index into body (wraps)
        let mut sequence = 0u64;
        // Fractional front-end credit accumulators support non-integer widths.
        let mut fetch_credit = 0.0f64;
        let mut uop_credit = 0.0f64;

        let mut measured_instructions = 0u64;
        // An instruction is "retired" for IPC purposes when fetched; since there
        // are no dependencies, every fetched instruction completes a bounded
        // number of cycles later, so in steady state fetch rate == retire rate.
        let total_cycles = config.warmup_cycles + config.measured_cycles;

        for cycle in 0..total_cycles {
            // Fetch.
            fetch_credit = (fetch_credit + fe_insts).min(fe_insts.max(1.0) * 2.0);
            if fe_uops.is_finite() {
                uop_credit = (uop_credit + fe_uops).min(fe_uops * 2.0);
            }
            loop {
                let kinds = &body[next_instruction];
                let uop_cost = kinds.len() as f64;
                if fetch_credit < 1.0 {
                    break;
                }
                if fe_uops.is_finite() && uop_credit < uop_cost {
                    break;
                }
                if pending.len() + kinds.len() > window {
                    break;
                }
                for &kind in kinds {
                    pending.push(PendingUop { kind, sequence });
                    sequence += 1;
                }
                fetch_credit -= 1.0;
                if fe_uops.is_finite() {
                    uop_credit -= uop_cost;
                }
                next_instruction = (next_instruction + 1) % body.len();
                if cycle >= config.warmup_cycles {
                    measured_instructions += 1;
                }
            }

            // Dispatch: each free port takes the oldest compatible pending µOP.
            for (port, busy_until) in port_busy_until.iter_mut().enumerate().take(num_ports) {
                if *busy_until > cycle {
                    continue;
                }
                let mut chosen: Option<usize> = None;
                for (idx, p) in pending.iter().enumerate() {
                    let (mask, _) = uop_ports[p.kind];
                    if mask & (1 << port) != 0 {
                        match chosen {
                            None => chosen = Some(idx),
                            Some(c) if pending[idx].sequence < pending[c].sequence => {
                                chosen = Some(idx)
                            }
                            _ => {}
                        }
                    }
                }
                if let Some(idx) = chosen {
                    let uop = pending.swap_remove(idx);
                    let (_, busy) = uop_ports[uop.kind];
                    *busy_until = cycle + busy.ceil() as u64;
                }
            }
        }

        let cycles = config.measured_cycles.max(1);
        SimulationResult {
            ipc: measured_instructions as f64 / cycles as f64,
            instructions_retired: measured_instructions,
            cycles,
        }
    }

    /// The differential configurations: the Quick campaign's, and an odd
    /// split that ends the warm-up and the measurement mid-pattern.
    const DIFF_CONFIGS: [SimulationConfig; 2] = [
        SimulationConfig { warmup_cycles: 100, measured_cycles: 1_000 },
        SimulationConfig { warmup_cycles: 7, measured_cycles: 313 },
    ];

    /// Asserts that the simulator, periods skipped and all, agrees bit for
    /// bit with the window-scan reference on `kernel` under `config`, and
    /// returns the number of cycles it stepped.
    fn stepped_matching_window_scan(
        mapping: &DisjunctiveMapping,
        kernel: &Microkernel,
        config: &SimulationConfig,
    ) -> u64 {
        let (fifo, stepped) = simulate(mapping, kernel, config);
        let scan = simulate_ipc_window_scan(mapping, kernel, config);
        assert_eq!(
            fifo.ipc.to_bits(),
            scan.ipc.to_bits(),
            "ipc {} vs {} on {kernel} under {config:?}",
            fifo.ipc,
            scan.ipc
        );
        assert_eq!(
            fifo.instructions_retired, scan.instructions_retired,
            "retired instructions differ on {kernel} under {config:?}"
        );
        assert_eq!(fifo.cycles, scan.cycles);
        assert!(stepped <= config.warmup_cycles + config.measured_cycles);
        stepped
    }

    /// Asserts that the simulator and the window-scan reference agree bit
    /// for bit on `kernel` under every differential configuration.
    fn assert_matches_window_scan(mapping: &DisjunctiveMapping, kernel: &Microkernel) {
        for config in &DIFF_CONFIGS {
            stepped_matching_window_scan(mapping, kernel, config);
        }
    }

    /// The first instruction of `class` in the preset's inventory.
    fn of_class(preset: &PresetMachine, class: ExecClass) -> InstId {
        preset.instructions.ids_with_class(class)[0]
    }

    fn machine_and_insts() -> (DisjunctiveMapping, Arc<InstructionSet>) {
        let insts = Arc::new(InstructionSet::from_descs([
            InstDesc::new("ADD", ExecClass::IntAlu),
            InstDesc::new("BSR", ExecClass::IntAluRestricted),
            InstDesc::new("IDIV", ExecClass::IntDiv),
            InstDesc::new("ST", ExecClass::Store),
        ]));
        let mut m = MachineDescription::new("sim-test", 4, FrontEnd::instructions_only(4.0));
        m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(PortSet::from_ports([0, 1]))]);
        m.define_class(
            ExecClass::IntAluRestricted,
            vec![MicroOp::pipelined(PortSet::from_ports([1]))],
        );
        m.define_class(
            ExecClass::IntDiv,
            vec![MicroOp::non_pipelined(PortSet::from_ports([0]), 6.0)],
        );
        m.define_class(
            ExecClass::Store,
            vec![
                MicroOp::pipelined(PortSet::from_ports([3])),
                MicroOp::pipelined(PortSet::from_ports([2])),
            ],
        );
        (Arc::new(m).bind(Arc::clone(&insts)), insts)
    }

    /// Random kernels per preset in the differential test.
    const RANDOM_KERNELS: usize = 250;

    #[test]
    fn empty_kernel_gives_zero() {
        let (map, _) = machine_and_insts();
        let r = simulate_ipc(&map, &Microkernel::new(), &SimulationConfig::default());
        assert_eq!(r.ipc, 0.0);
    }

    #[test]
    fn single_alu_instruction_reaches_port_bound() {
        let (map, insts) = machine_and_insts();
        let add = insts.find("ADD").unwrap();
        let k = Microkernel::single(add).scaled(8);
        let r = simulate_ipc(&map, &k, &SimulationConfig::default());
        assert!((r.ipc - 2.0).abs() < 0.05, "ipc = {}", r.ipc);
    }

    #[test]
    fn simulation_stays_close_to_analytic_bound() {
        let (map, insts) = machine_and_insts();
        let add = insts.find("ADD").unwrap();
        let bsr = insts.find("BSR").unwrap();
        let st = insts.find("ST").unwrap();
        let kernels = [
            Microkernel::pair(add, 2, bsr, 1),
            Microkernel::pair(add, 1, bsr, 2),
            Microkernel::from_counts([(add, 2), (st, 1), (bsr, 1)]),
        ];
        for k in kernels {
            let analytic = throughput::ipc(&map, &k);
            let simulated = simulate_ipc(&map, &k, &SimulationConfig::default()).ipc;
            assert!(simulated <= analytic + 0.05, "sim {simulated} > analytic {analytic} for {k}");
            assert!(
                simulated >= analytic * 0.85,
                "sim {simulated} way below analytic {analytic} for {k}"
            );
        }
    }

    #[test]
    fn non_pipelined_divider_is_respected() {
        let (map, insts) = machine_and_insts();
        let idiv = insts.find("IDIV").unwrap();
        let k = Microkernel::single(idiv).scaled(2);
        let r = simulate_ipc(&map, &k, &SimulationConfig::default());
        assert!((r.ipc - 1.0 / 6.0).abs() < 0.02, "ipc = {}", r.ipc);
    }

    #[test]
    fn front_end_width_caps_simulated_ipc() {
        let (map, insts) = machine_and_insts();
        let add = insts.find("ADD").unwrap();
        let st = insts.find("ST").unwrap();
        let bsr = insts.find("BSR").unwrap();
        // Plenty of port parallelism: ALU on {0,1}, store on {2},{3}, BSR on {1}.
        let k = Microkernel::from_counts([(add, 2), (st, 2), (bsr, 1)]);
        let r = simulate_ipc(&map, &k, &SimulationConfig::default());
        assert!(r.ipc <= 4.0 + 1e-9);
    }

    #[test]
    fn fifo_dispatch_matches_window_scan_on_random_kernels() {
        let inventory = InventoryConfig::small();
        for (preset, seed) in [(presets::skl_sp(&inventory), 1), (presets::zen1(&inventory), 2)] {
            let mapping = preset.mapping();
            let ids: Vec<InstId> = preset.instructions.ids().collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let quick = &DIFF_CONFIGS[0];
            let mut skipped = 0;
            for _ in 0..RANDOM_KERNELS {
                let distinct = rng.gen_range(1..=6usize);
                let kernel = Microkernel::from_counts(
                    (0..distinct)
                        .map(|_| (ids[rng.gen_range(0..ids.len())], rng.gen_range(1..=5u32))),
                );
                let stepped = stepped_matching_window_scan(&mapping, &kernel, quick);
                stepped_matching_window_scan(&mapping, &kernel, &DIFF_CONFIGS[1]);
                if stepped < quick.warmup_cycles + quick.measured_cycles {
                    skipped += 1;
                }
            }
            // The steady state repeats, and is skipped, for almost every
            // kernel of the Quick window.
            assert!(
                skipped * 10 >= RANDOM_KERNELS * 9,
                "periods skipped on only {skipped} of {RANDOM_KERNELS} kernels of {}",
                preset.name()
            );
        }
    }

    #[test]
    fn fifo_dispatch_matches_window_scan_on_hand_built_kernels() {
        let inventory = InventoryConfig::small();
        let skl = presets::skl_sp(&inventory);
        let zen = presets::zen1(&inventory);
        let skl_map = skl.mapping();
        let zen_map = zen.mapping();

        // One mask, two busy times: IntDiv holds p0 for 6 cycles, FpDivSse
        // for 3, so they are two classes competing for the same port.
        let idiv = of_class(&skl, ExecClass::IntDiv);
        let fdiv = of_class(&skl, ExecClass::FpDivSse);
        let alu = of_class(&skl, ExecClass::IntAlu);
        assert_eq!(skl_map.uops(idiv)[0].ports, skl_map.uops(fdiv)[0].ports);
        assert_ne!(
            skl_map.uops(idiv)[0].inverse_throughput,
            skl_map.uops(fdiv)[0].inverse_throughput
        );
        for kernel in [
            Microkernel::pair(idiv, 1, fdiv, 1),
            Microkernel::pair(idiv, 2, fdiv, 3),
            Microkernel::from_counts([(idiv, 1), (fdiv, 2), (alu, 4)]),
        ] {
            assert_matches_window_scan(&skl_map, &kernel);
        }

        // Single-port kernels: fetch outruns dispatch until the window is
        // full, and from then on fetch waits for every dispatched µOP.
        let restricted = of_class(&skl, ExecClass::IntAluRestricted);
        for kernel in [Microkernel::single(idiv).scaled(4), Microkernel::single(restricted)] {
            let scan = simulate_ipc_window_scan(&skl_map, &kernel, &DIFF_CONFIGS[0]);
            assert!(scan.ipc <= 1.0, "one port bounds the IPC of {kernel}");
            assert_matches_window_scan(&skl_map, &kernel);
        }

        // Multi-µOP instructions, alone and mixed with their ports' users.
        let store = of_class(&skl, ExecClass::Store);
        assert!(skl_map.uops(store).len() > 1);
        for kernel in [
            Microkernel::single(store),
            Microkernel::from_counts([(store, 2), (alu, 3), (idiv, 1)]),
        ] {
            assert_matches_window_scan(&skl_map, &kernel);
        }
        let vec_store = of_class(&zen, ExecClass::VecStore);
        let zen_store = of_class(&zen, ExecClass::Store);
        let zen_alu = of_class(&zen, ExecClass::IntAlu);
        assert!(zen_map.uops(vec_store).len() > 1);
        for kernel in [
            Microkernel::single(vec_store).scaled(3),
            Microkernel::from_counts([(vec_store, 2), (zen_store, 1), (zen_alu, 5)]),
        ] {
            assert_matches_window_scan(&zen_map, &kernel);
        }
    }

    #[test]
    fn steady_state_skip_matches_window_scan_at_the_boundaries() {
        let inventory = InventoryConfig::small();
        let skl = presets::skl_sp(&inventory);
        let skl_map = skl.mapping();
        let alu = of_class(&skl, ExecClass::IntAlu);
        let idiv = of_class(&skl, ExecClass::IntDiv);
        let fdiv = of_class(&skl, ExecClass::FpDivSse);

        // Pipelined ALU µOPs repeat within a few cycles, long before the
        // Quick warm-up ends: fewer than `warmup_cycles` stepped means a
        // skip happened inside the warm-up, which must stop at its end for
        // the measured count to match.
        let quick = &DIFF_CONFIGS[0];
        let kernel = Microkernel::single(alu).scaled(3);
        let stepped = stepped_matching_window_scan(&skl_map, &kernel, quick);
        assert!(stepped < quick.warmup_cycles, "stepped {stepped} cycles of {kernel}");

        // IntDiv and FpDivSse hold port 0 for 6 and 3 cycles.  Once the
        // window is full, the port alternates between them, so its busy time
        // repeats every 9 cycles, and any period of the state is a multiple
        // of 9: longer than the whole 7-cycle warm-up.
        let odd = &DIFF_CONFIGS[1];
        let kernel = Microkernel::pair(idiv, 1, fdiv, 1);
        let stepped = stepped_matching_window_scan(&skl_map, &kernel, odd);
        assert!(stepped < odd.warmup_cycles + odd.measured_cycles, "no period found for {kernel}");

        // While the window fills, `pending` grows every cycle, so no state
        // repeats in a 5-cycle run and every cycle is stepped.
        let short = SimulationConfig { warmup_cycles: 1, measured_cycles: 4 };
        let kernel = Microkernel::single(idiv).scaled(4);
        assert_eq!(stepped_matching_window_scan(&skl_map, &kernel, &short), 5);
    }
}
