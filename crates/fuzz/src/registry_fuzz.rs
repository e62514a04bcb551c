//! Whole-schedule fuzzing of the registry's hot-reload state machine.
//!
//! Where [`crate::run_many`] fuzzes *decoders* with corrupted buffers, this
//! harness fuzzes the [`ModelRegistry`] *refresh loop* with corrupted
//! **filesystems**: each case seeds a [`FaultyIo`]
//! with 1–3 artifact files, loads them into a registry (conjunctive and
//! disjunctive, in v1 text and v2b binary form, optionally under
//! a signing key), then scripts 8–30 steps of hostile filesystem history —
//! good rewrites, corrupt rewrites, torn replaces, mismatched and
//! wrong-key sidecars, deletions, mtime flaps, armed transient stat/read
//! faults, plus operator `readmit`/`reload_file` calls — running
//! [`ModelRegistry::refresh`] after every step and asserting the serving
//! invariants the registry documents:
//!
//! - **last good generation keeps serving**: every entry resolves after
//!   every step, its fingerprint is the last *verified* body's, and a v2b
//!   entry re-renders that body byte for byte
//!   ([`ServedModel::to_artifact`](palmed_serve::ServedModel::to_artifact));
//! - **no reload without verification**: a name appears in
//!   [`RefreshOutcome::reloaded`] only when the settled on-disk body is
//!   valid *and* its sidecar (if any) verifies under the registry's key;
//! - **health accounting identity**: every refresh accounts each watched
//!   entry exactly once ([`RefreshOutcome::accounted`]);
//! - **bounded failure handling**: quarantine only after
//!   [`QUARANTINE_AFTER`] consecutive failures, backoff never above
//!   [`MAX_BACKOFF_POLLS`], and no panic anywhere in the schedule.
//!
//! Schedules are pure functions of their case number, so any violation
//! replays bit-identically from `--seed`/`--schedules`.

use crate::fault::{Fault, FaultyIo};
use crate::inventory;
use palmed_serve::registry::{MAX_BACKOFF_POLLS, QUARANTINE_AFTER};
use palmed_serve::{sidecar_path, sign, ModelArtifact, ModelRegistry, RefreshOutcome};
use proptest::test_runner::TestRng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// Artifact family a simulated entry serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Conjunctive,
    Disjunctive,
}

/// On-disk wire format of a simulated entry's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    V1,
    V2b,
}

/// The fuzzer's mirror of one sidecar file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SidecarState {
    /// No sidecar file exists.
    None,
    /// Unkeyed `PALMED-FPRINT v1` sidecar recording this fingerprint.
    Unsigned(u64),
    /// `PALMED-FPRINT v2` sidecar whose tag was computed with the
    /// registry's key.
    SignedGood(u64),
    /// `PALMED-FPRINT v2` sidecar whose tag was computed with the wrong
    /// key.
    SignedBad(u64),
}

/// The fuzzer's mirror of one watched artifact: what is (or will be, once
/// a torn replace settles) on disk, and what the registry last verified.
#[derive(Debug)]
struct SimEntry {
    name: String,
    path: PathBuf,
    family: Family,
    wire: Wire,
    /// Settled on-disk body when it decodes: `(fingerprint, bytes)`.
    /// `None` after a corrupting write or a deletion.
    target: Option<(u64, Vec<u8>)>,
    sidecar: SidecarState,
    /// Fingerprint of the last body the registry verified and installed.
    good_fp: u64,
    /// Bytes of that body — the bit-identity reference for what a v2b
    /// entry re-renders.
    good_bytes: Vec<u8>,
}

impl SimEntry {
    /// Whether a reload of the current target is *allowed* to succeed:
    /// the body decodes and the sidecar (if any) verifies under the
    /// registry's key and matches the body's fingerprint.
    fn reload_admissible(&self, keyed: bool) -> bool {
        let Some((fp, _)) = &self.target else { return false };
        match self.sidecar {
            SidecarState::None => true,
            SidecarState::Unsigned(recorded) | SidecarState::SignedGood(recorded) => {
                recorded == *fp
            }
            // A wrong-key tag only bites when the registry holds a key;
            // unkeyed registries degrade to fingerprint-only checking.
            SidecarState::SignedBad(recorded) => !keyed && recorded == *fp,
        }
    }
}

/// One invariant violation, with enough context to replay the schedule.
#[derive(Debug, Clone)]
pub struct RegistryViolation {
    /// The schedule's case number (replay with the same seed math).
    pub case: u32,
    /// Step index within the schedule (`0` = initial load).
    pub step: u32,
    /// What was violated.
    pub detail: String,
}

impl fmt::Display for RegistryViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {} step {}: {}", self.case, self.step, self.detail)
    }
}

/// Aggregated result of a registry fuzz run.
#[derive(Debug, Default)]
pub struct RegistryFuzzSummary {
    /// Schedules executed.
    pub schedules: u32,
    /// Fault-injection steps executed across all schedules.
    pub steps: u64,
    /// Successful refresh reloads observed.
    pub reloads: u64,
    /// Failed reload attempts observed.
    pub reload_errors: u64,
    /// Entries newly quarantined.
    pub quarantines: u64,
    /// Faults injected by the simulated filesystems.
    pub injected_faults: u64,
    /// Invariant violations (empty on a healthy registry).
    pub violations: Vec<RegistryViolation>,
}

impl fmt::Display for RegistryFuzzSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schedules, {} steps, {} faults injected: {} reloads, {} reload errors, \
             {} quarantines, {} violations",
            self.schedules,
            self.steps,
            self.injected_faults,
            self.reloads,
            self.reload_errors,
            self.quarantines,
            self.violations.len()
        )
    }
}

/// Renders a fresh valid body for an entry and returns the *canonical*
/// fingerprint — the one computed from re-parsing the rendered bytes, so
/// it agrees bit-for-bit with what the registry will compute on load.
fn fresh_body(
    name: &str,
    family: Family,
    wire: Wire,
    insts: &palmed_isa::InstructionSet,
    rng: &mut TestRng,
) -> (u64, Vec<u8>) {
    match family {
        Family::Conjunctive => {
            let mut artifact = crate::seed_model(insts, rng);
            artifact.machine = name.to_string();
            let bytes = match wire {
                Wire::V1 => artifact.render().into_bytes(),
                Wire::V2b => artifact.render_v2(),
            };
            let fp = ModelArtifact::parse_bytes(&bytes)
                .expect("freshly rendered conjunctive body must parse")
                .fingerprint();
            (fp, bytes)
        }
        Family::Disjunctive => {
            let mut artifact = crate::seed_disj(insts, rng);
            artifact.machine = name.to_string();
            let bytes = artifact.render();
            let fp = palmed_serve::DisjArtifact::parse(&bytes)
                .expect("freshly rendered disjunctive body must parse")
                .fingerprint();
            (fp, bytes)
        }
    }
}

/// Renders sidecar file bytes for the given state; `None` means "delete
/// the sidecar file" (state [`SidecarState::None`]).
fn sidecar_bytes(state: SidecarState, key: Option<&[u8]>) -> Option<Vec<u8>> {
    match state {
        SidecarState::None => None,
        SidecarState::Unsigned(fp) => Some(format!("PALMED-FPRINT v1\n{fp:016x}\n").into_bytes()),
        SidecarState::SignedGood(fp) | SidecarState::SignedBad(fp) => {
            let body = format!("PALMED-FPRINT v2\n{fp:016x}\n");
            let mut signing_key = key.unwrap_or(b"unkeyed-registry").to_vec();
            if matches!(state, SidecarState::SignedBad(_)) {
                for byte in &mut signing_key {
                    *byte ^= 0x5a;
                }
                signing_key.push(b'!');
            }
            let tag = sign::hmac_sha256(&signing_key, body.as_bytes());
            Some(format!("{body}{}\n", sign::tag_to_hex(&tag)).into_bytes())
        }
    }
}

/// Installs `entry.sidecar` on the simulated filesystem.
fn write_sidecar_state(io: &FaultyIo, entry: &SimEntry, key: Option<&[u8]>) {
    let path = sidecar_path(&entry.path);
    match sidecar_bytes(entry.sidecar, key) {
        Some(bytes) => io.write(&path, bytes),
        None => io.remove(&path),
    }
}

/// Per-schedule tallies folded into the run summary.
#[derive(Debug, Default)]
struct ScheduleStats {
    steps: u64,
    reloads: u64,
    reload_errors: u64,
    quarantines: u64,
    injected: u64,
    violations: Vec<String>,
    /// Verbose per-step trace, populated only under `--replay`.
    trace: Option<Vec<String>>,
}

impl ScheduleStats {
    fn note(&mut self, line: impl FnOnce() -> String) {
        if let Some(trace) = &mut self.trace {
            trace.push(line());
        }
    }
}

/// Checks every post-refresh invariant; appends violations to `stats`.
fn check_step(
    registry: &ModelRegistry,
    entries: &mut [SimEntry],
    outcome: &RefreshOutcome,
    keyed: bool,
    stats: &mut ScheduleStats,
) {
    stats.reloads += outcome.reloaded.len() as u64;
    stats.reload_errors += outcome.errors.len() as u64;
    stats.quarantines += outcome.quarantined.len() as u64;
    if outcome.accounted() != entries.len() {
        stats.violations.push(format!(
            "accounting identity broken: {} accounted, {} watched (outcome {outcome:?})",
            outcome.accounted(),
            entries.len()
        ));
    }
    for sim in entries.iter_mut() {
        if outcome.reloaded.contains(&sim.name) {
            if !sim.reload_admissible(keyed) {
                stats.violations.push(format!(
                    "`{}` reloaded from an inadmissible source (target {:?}, sidecar {:?})",
                    sim.name,
                    sim.target.as_ref().map(|(fp, _)| fp),
                    sim.sidecar
                ));
            }
            if let Some((fp, bytes)) = &sim.target {
                sim.good_fp = *fp;
                sim.good_bytes = bytes.clone();
            }
        }
        let Some(entry) = registry.get(&sim.name) else {
            stats.violations.push(format!("`{}` vanished from the registry", sim.name));
            continue;
        };
        if entry.fingerprint() != sim.good_fp {
            stats.violations.push(format!(
                "`{}` serves fingerprint {:016x}, last good is {:016x}",
                sim.name,
                entry.fingerprint(),
                sim.good_fp
            ));
        }
        if sim.wire == Wire::V2b {
            match entry.served().map(|served| served.to_artifact().render_v2()) {
                Some(bytes) if bytes == sim.good_bytes => {}
                Some(_) => stats
                    .violations
                    .push(format!("`{}` re-renders differently from the last good body", sim.name)),
                None => stats
                    .violations
                    .push(format!("`{}` no longer serves a conjunctive model", sim.name)),
            }
        }
    }
    for health in registry.health() {
        if health.quarantined && health.consecutive_failures < QUARANTINE_AFTER {
            stats.violations.push(format!(
                "`{}` quarantined after only {} failures",
                health.name, health.consecutive_failures
            ));
        }
        if health.backoff_remaining > MAX_BACKOFF_POLLS {
            stats.violations.push(format!(
                "`{}` backoff {} exceeds the {} cap",
                health.name, health.backoff_remaining, MAX_BACKOFF_POLLS
            ));
        }
    }
}

/// Records an operator-forced reload (`readmit` / `reload_file`) result
/// against the mirror: success is only admissible from a verified source,
/// and advances the last-good state.
fn note_forced_reload(
    sim: &mut SimEntry,
    ok: bool,
    what: &str,
    keyed: bool,
    stats: &mut ScheduleStats,
) {
    if !ok {
        return;
    }
    if !sim.reload_admissible(keyed) {
        stats.violations.push(format!(
            "`{}` {what} succeeded from an inadmissible source (target {:?}, sidecar {:?})",
            sim.name,
            sim.target.as_ref().map(|(fp, _)| fp),
            sim.sidecar
        ));
        return;
    }
    if let Some((fp, bytes)) = &sim.target {
        sim.good_fp = *fp;
        sim.good_bytes = bytes.clone();
    }
}

/// Runs one scripted schedule.  Deterministic in `case`.
fn run_schedule(case: u32, stats: &mut ScheduleStats) {
    let insts = inventory();
    let mut rng = TestRng::for_case(case);
    let io = Arc::new(FaultyIo::new());
    let registry = ModelRegistry::with_io(Arc::clone(&io) as Arc<dyn palmed_serve::ArtifactIo>);

    // Half the schedules run under a signing key.
    let key: Option<Vec<u8>> = if rng.next_f64() < 0.5 {
        Some((0..16).map(|_| rng.next_u64() as u8).collect())
    } else {
        None
    };
    registry.set_signing_key(key.clone());
    let keyed = key.is_some();
    stats.note(|| {
        format!("schedule: {}", if keyed { "signing key armed" } else { "unkeyed registry" })
    });

    // Seed 1–3 watched entries across families and wire formats.
    let mut entries: Vec<SimEntry> = Vec::new();
    for i in 0..rng.usize_in(1, 3) {
        let name = format!("sim-{i}");
        let path = PathBuf::from(format!("/sim/{case}/model-{i}"));
        let family = if rng.next_f64() < 0.5 { Family::Conjunctive } else { Family::Disjunctive };
        // Three in four conjunctive entries are v2b: their re-rendered
        // bodies get the extra bit-identity check after every step.
        let wire = match family {
            Family::Disjunctive => Wire::V1,
            Family::Conjunctive => match rng.usize_in(0, 3) {
                0 => Wire::V1,
                _ => Wire::V2b,
            },
        };
        let (fp, bytes) = fresh_body(&name, family, wire, &insts, &mut rng);
        io.write(&path, bytes.clone());
        let sidecar = if rng.next_f64() < 0.5 {
            if keyed && rng.next_f64() < 0.5 {
                SidecarState::SignedGood(fp)
            } else {
                SidecarState::Unsigned(fp)
            }
        } else {
            SidecarState::None
        };
        let sim = SimEntry {
            name: name.clone(),
            path,
            family,
            wire,
            target: Some((fp, bytes.clone())),
            sidecar,
            good_fp: fp,
            good_bytes: bytes,
        };
        write_sidecar_state(&io, &sim, key.as_deref());
        match registry.load_file(&sim.path) {
            Ok(entry) if entry.fingerprint() == fp && entry.name() == name => {
                stats.note(|| {
                    format!(
                        "seed `{name}`: {:?}/{:?} sidecar {:?}, fingerprint {fp:016x}",
                        sim.family, sim.wire, sim.sidecar
                    )
                });
                entries.push(sim);
            }
            Ok(entry) => stats.violations.push(format!(
                "initial load of `{name}` installed {:016x} under `{}`, expected {fp:016x}",
                entry.fingerprint(),
                entry.name()
            )),
            Err(error) => stats
                .violations
                .push(format!("initial load of `{name}` failed on a pristine file: {error}")),
        }
    }

    if entries.is_empty() {
        // Every initial load failed — already recorded as violations.
        return;
    }
    for step in 0..rng.usize_in(8, 30) as u32 {
        let at = rng.usize_in(0, entries.len() - 1);
        // Split borrows: the op mutates one entry's mirror, the check pass
        // re-borrows them all.
        {
            let sim = &mut entries[at];
            match rng.usize_in(0, 9) {
                0 => {
                    let (fp, bytes) = fresh_body(&sim.name, sim.family, sim.wire, &insts, &mut rng);
                    io.write(&sim.path, bytes.clone());
                    sim.target = Some((fp, bytes));
                    stats.note(|| {
                        format!("step {step}: good rewrite of `{}` -> {fp:016x}", sim.name)
                    });
                }
                1 => {
                    let (fp, bytes) = fresh_body(&sim.name, sim.family, sim.wire, &insts, &mut rng);
                    io.write(&sim.path, bytes.clone());
                    sim.target = Some((fp, bytes));
                    sim.sidecar = if keyed && rng.next_f64() < 0.5 {
                        SidecarState::SignedGood(fp)
                    } else {
                        SidecarState::Unsigned(fp)
                    };
                    write_sidecar_state(&io, sim, key.as_deref());
                    stats.note(|| {
                        format!(
                            "step {step}: rewrite of `{}` -> {fp:016x} with sidecar {:?}",
                            sim.name, sim.sidecar
                        )
                    });
                }
                2 => {
                    // A sidecar that cannot verify: wrong fingerprint, or a
                    // wrong-key tag over the right fingerprint.  Re-write
                    // the body so the next poll actually attempts a reload.
                    if let Some((fp, bytes)) = sim.target.clone() {
                        io.write(&sim.path, bytes);
                        sim.sidecar = if keyed && rng.next_f64() < 0.5 {
                            SidecarState::SignedBad(fp)
                        } else {
                            SidecarState::Unsigned(fp ^ 0xbad_c0de)
                        };
                        write_sidecar_state(&io, sim, key.as_deref());
                        stats.note(|| {
                            format!(
                                "step {step}: inadmissible sidecar {:?} for `{}`",
                                sim.sidecar, sim.name
                            )
                        });
                    }
                }
                3 => {
                    // A torn replace of a removed file settles from empty
                    // bytes — nothing to truncate there.
                    match io.contents(&sim.path) {
                        Some(bytes) if !bytes.is_empty() => {
                            let torn = bytes[..(bytes.len() / 2).max(1)].to_vec();
                            io.write(&sim.path, torn);
                            sim.target = None;
                            stats.note(|| format!("step {step}: truncate `{}` mid-file", sim.name));
                        }
                        _ => {}
                    }
                }
                4 => {
                    let (fp, bytes) = fresh_body(&sim.name, sim.family, sim.wire, &insts, &mut rng);
                    let polls = rng.usize_in(1, 4) as u32;
                    io.write_torn(&sim.path, bytes.clone(), polls);
                    sim.target = Some((fp, bytes));
                    stats.note(|| {
                        format!(
                            "step {step}: torn rewrite of `{}` -> {fp:016x} ({polls} settle polls)",
                            sim.name
                        )
                    });
                }
                5 => {
                    io.remove(&sim.path);
                    sim.target = None;
                    stats.note(|| format!("step {step}: delete `{}`", sim.name));
                }
                6 => {
                    io.flap_mtime(&sim.path);
                    stats.note(|| format!("step {step}: mtime flap on `{}`", sim.name));
                }
                7 => {
                    let fault = match rng.usize_in(0, 3) {
                        0 => Fault::StatError,
                        1 => Fault::ReadError,
                        2 => Fault::ShortRead,
                        _ => Fault::MtimeFlap,
                    };
                    io.arm(&sim.path, fault);
                    stats.note(|| format!("step {step}: arm {fault:?} on `{}`", sim.name));
                }
                8 => {
                    let ok = registry.readmit(&sim.name).is_ok();
                    stats.note(|| {
                        format!(
                            "step {step}: readmit `{}` -> {}",
                            sim.name,
                            if ok { "ok" } else { "rejected" }
                        )
                    });
                    note_forced_reload(sim, ok, "readmit", keyed, stats);
                }
                _ => {
                    let ok = registry.reload_file(&sim.name).is_ok();
                    stats.note(|| {
                        format!(
                            "step {step}: reload_file `{}` -> {}",
                            sim.name,
                            if ok { "ok" } else { "rejected" }
                        )
                    });
                    note_forced_reload(sim, ok, "reload_file", keyed, stats);
                }
            }
        }
        stats.steps += 1;
        let outcome = registry.refresh();
        stats.note(|| {
            format!(
                "step {step}: refresh -> {} reloaded, {} errors, {} quarantined",
                outcome.reloaded.len(),
                outcome.errors.len(),
                outcome.quarantined.len()
            )
        });
        let before = stats.violations.len();
        check_step(&registry, &mut entries, &outcome, keyed, stats);
        for violation in &mut stats.violations[before..] {
            *violation = format!("step {step}: {violation}");
        }
    }
    stats.injected = io.injected();
}

/// Runs `n` seeded fault schedules starting at case `seed`.  Panics inside
/// a schedule are caught and reported as violations, so one bad schedule
/// never hides the rest.
pub fn run_schedules(n: u32, seed: u32) -> RegistryFuzzSummary {
    let mut summary = RegistryFuzzSummary::default();
    for i in 0..n {
        let case = seed.wrapping_add(i);
        let mut stats = ScheduleStats::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_schedule(case, &mut stats)));
        summary.schedules += 1;
        summary.steps += stats.steps;
        summary.reloads += stats.reloads;
        summary.reload_errors += stats.reload_errors;
        summary.quarantines += stats.quarantines;
        summary.injected_faults += stats.injected;
        for detail in stats.violations {
            summary.violations.push(RegistryViolation { case, step: 0, detail });
        }
        if let Err(panic) = outcome {
            let detail = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            summary.violations.push(RegistryViolation {
                case,
                step: 0,
                detail: format!("panic during schedule: {detail}"),
            });
        }
    }
    summary
}

/// Re-runs one deterministic fault schedule verbosely — the triage view
/// behind `fuzz_registry --replay <case>`: every seeded entry, every
/// scripted filesystem op and every refresh outcome is rendered in order,
/// followed by any invariant violations.
pub fn replay_schedule(case: u32) -> String {
    use std::fmt::Write;
    let mut stats = ScheduleStats { trace: Some(Vec::new()), ..ScheduleStats::default() };
    let outcome = catch_unwind(AssertUnwindSafe(|| run_schedule(case, &mut stats)));
    let mut out = String::new();
    let _ = writeln!(out, "replay registry schedule case {case}");
    for line in stats.trace.as_deref().unwrap_or_default() {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(
        out,
        "  {} steps, {} reloads, {} reload errors, {} quarantines, {} faults injected",
        stats.steps, stats.reloads, stats.reload_errors, stats.quarantines, stats.injected
    );
    for violation in &stats.violations {
        let _ = writeln!(out, "  VIOLATION {violation}");
    }
    if outcome.is_err() {
        let _ = writeln!(out, "  VIOLATION panic during schedule");
    }
    if stats.violations.is_empty() && outcome.is_ok() {
        let _ = writeln!(out, "  OK");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_hold_every_invariant() {
        let summary = run_schedules(40, 42);
        assert_eq!(summary.schedules, 40);
        assert!(summary.steps >= 40 * 8, "schedules must run their steps");
        for violation in &summary.violations {
            eprintln!("{violation}");
        }
        assert!(summary.violations.is_empty(), "{} violations", summary.violations.len());
        assert!(summary.reloads > 0, "schedules must exercise successful reloads");
        assert!(summary.reload_errors > 0, "schedules must exercise failing reloads");
        assert!(summary.injected_faults > 0, "schedules must inject faults");
    }

    #[test]
    fn schedules_are_deterministic() {
        let first = run_schedules(5, 9);
        let second = run_schedules(5, 9);
        assert_eq!(first.steps, second.steps);
        assert_eq!(first.reloads, second.reloads);
        assert_eq!(first.reload_errors, second.reload_errors);
        assert_eq!(first.quarantines, second.quarantines);
        assert_eq!(first.injected_faults, second.injected_faults);
    }

    #[test]
    fn replaying_a_schedule_traces_its_history() {
        let out = replay_schedule(42);
        assert!(out.contains("replay registry schedule case 42"), "{out}");
        assert!(out.contains("schedule:"), "the setup line must render: {out}");
        assert!(out.contains("refresh ->"), "refresh outcomes must render: {out}");
        assert!(out.contains("OK") || out.contains("VIOLATION"), "{out}");
    }

    #[test]
    fn sidecar_renderings_match_the_serve_formats() {
        assert_eq!(
            sidecar_bytes(SidecarState::Unsigned(0xabcd), None).unwrap(),
            b"PALMED-FPRINT v1\n000000000000abcd\n"
        );
        let signed = sidecar_bytes(SidecarState::SignedGood(1), Some(b"k")).unwrap();
        let text = String::from_utf8(signed).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("PALMED-FPRINT v2"));
        assert_eq!(lines.next(), Some("0000000000000001"));
        assert_eq!(lines.next().map(str::len), Some(64));
        // A bad-key tag differs from the good-key tag over the same body.
        let bad = sidecar_bytes(SidecarState::SignedBad(1), Some(b"k")).unwrap();
        assert_ne!(bad, text.into_bytes());
    }
}
