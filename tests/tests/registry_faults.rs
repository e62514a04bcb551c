//! Registry behaviour at the edges the happy-path suites never reach:
//! deterministic filesystem fault injection ([`palmed_fuzz::fault::FaultyIo`]
//! behind the registry's [`ArtifactIo`](palmed_serve::ArtifactIo) seam) and
//! the health-accounting corners — readmitting entries that were never
//! quarantined, health rows after removal, and a file restored while its
//! backoff is still draining.

use palmed_core::ConjunctiveMapping;
use palmed_fuzz::fault::{Fault, FaultyIo};
use palmed_integration_tests::incident::WatchedArtifact;
use palmed_isa::{InstId, InstructionSet};
use palmed_serve::{ArtifactIo, ModelArtifact, ModelRegistry, RefreshStatus};
use std::path::Path;
use std::sync::Arc;

fn artifact(name: &str, usage: f64) -> ModelArtifact {
    let mut mapping = ConjunctiveMapping::with_resources(2);
    mapping.set_usage(InstId(0), vec![0.25, 0.0]);
    mapping.set_usage(InstId(2), vec![usage, 1.0 / 3.0]);
    ModelArtifact::new(name, "integration-test", InstructionSet::paper_example(), mapping)
}

fn faulty_registry() -> (Arc<FaultyIo>, ModelRegistry) {
    let io = Arc::new(FaultyIo::new());
    let registry = ModelRegistry::with_io(Arc::clone(&io) as Arc<dyn ArtifactIo>);
    (io, registry)
}

#[test]
fn readmit_on_unknown_entry_errs_and_leaves_no_phantom_health_row() {
    let registry = ModelRegistry::new();
    assert!(registry.readmit("nope").is_err(), "readmitting an unknown entry must fail");
    assert!(
        registry.health().iter().all(|h| h.name != "nope"),
        "a failed readmit of an unknown name must not mint a health row"
    );
}

#[test]
fn readmit_on_a_memory_only_entry_errs_without_touching_its_health() {
    let registry = ModelRegistry::new();
    let bytes = artifact("memory-only", 0.5).render_v2();
    registry.swap_bytes("memory-only", bytes).unwrap();

    // No source file is watched, so there is nothing to readmit from.
    assert!(registry.readmit("memory-only").is_err());
    let health = registry.health().into_iter().find(|h| h.name == "memory-only").unwrap();
    assert_eq!(
        health.consecutive_failures, 0,
        "the failed readmit must not charge the entry with a reload failure"
    );
    assert!(!health.quarantined);
    assert!(registry.get("memory-only").is_some(), "the entry itself is untouched");
}

#[test]
fn removing_an_entry_removes_its_health_row() {
    let watched = WatchedArtifact::save("remove-health", "palmed-it-remove-health.palmed2", 0.5);
    let registry = ModelRegistry::new();
    registry.load_file(&watched.path).unwrap();
    assert!(registry.health().iter().any(|h| h.name == watched.name));

    registry.remove(&watched.name).unwrap();
    assert!(
        registry.health().iter().all(|h| h.name != watched.name),
        "health reports only entries that are actually registered"
    );
    assert!(registry.refresh().accounted() == 0, "nothing is left to poll");
}

#[test]
fn a_file_restored_mid_backoff_recovers_and_resets_the_failure_counter() {
    let watched = WatchedArtifact::save("mid-backoff", "palmed-it-mid-backoff.palmed2", 0.5);
    let registry = ModelRegistry::new();
    let first = registry.load_file(&watched.path).unwrap();

    watched.corrupt();
    let outcome = registry.refresh();
    assert_eq!(outcome.errors.len(), 1, "the corrupt rewrite fails exactly one reload");
    let health = registry.health().into_iter().find(|h| h.name == watched.name).unwrap();
    assert_eq!(health.consecutive_failures, 1);
    assert_eq!(health.backoff_remaining, 1, "first failure schedules a one-poll backoff");

    // Restore the good bytes while the backoff is still draining.  The
    // draining poll must not touch the file, and the next attempt must
    // recover and zero the failure counter.
    watched.restore();
    let outcome = registry.refresh();
    assert_eq!(outcome.backed_off, vec![watched.name.clone()], "backoff drains before retrying");
    let outcome = registry.refresh();
    assert_eq!(outcome.reloaded, vec![watched.name.clone()], "the restored file reloads");
    let entry = registry.get(&watched.name).unwrap();
    assert_eq!(entry.fingerprint(), watched.recorded_fp);
    assert!(entry.generation() > first.generation());
    let health = registry.health().into_iter().find(|h| h.name == watched.name).unwrap();
    assert_eq!(health.consecutive_failures, 0, "recovery resets the failure counter");
    assert_eq!(health.backoff_remaining, 0);
    assert_eq!(health.status, RefreshStatus::Reloaded);
}

#[test]
fn v2b_loads_through_the_io_seam_serve_the_exact_on_disk_bytes() {
    let (io, registry) = faulty_registry();
    let art = artifact("in-place", 0.5);
    let path = Path::new("/sim/in-place.palmed2");
    io.write(path, art.render_v2());

    // Every byte comes through `ArtifactIo::read`; the entry re-renders
    // exactly those bytes.
    let entry = registry.load_file(path).unwrap();
    assert_eq!(entry.name(), "in-place");
    assert_eq!(entry.fingerprint(), art.fingerprint());
    assert_eq!(
        entry.model().render_v2(),
        io.contents(path).unwrap(),
        "the entry serves the exact on-disk bytes"
    );
}

#[test]
fn transient_and_torn_faults_never_degrade_serving_and_always_recover() {
    let (io, registry) = faulty_registry();
    let first = artifact("faulted", 0.5);
    let path = Path::new("/sim/faulted.palmed2");
    io.write(path, first.render_v2());
    let entry = registry.load_file(path).unwrap();
    assert_eq!(entry.fingerprint(), first.fingerprint());

    // A good rewrite behind a transient read fault: the poll fails once,
    // keeps serving the old body, and recovers once the fault drains.
    let second = artifact("faulted", 0.75);
    io.write(path, second.render_v2());
    io.arm(path, Fault::ReadError);
    let outcome = registry.refresh();
    assert_eq!(outcome.errors.len(), 1, "the armed fault fails the first reload attempt");
    assert_eq!(
        registry.get("faulted").unwrap().fingerprint(),
        first.fingerprint(),
        "serving is pinned to the last good body while the fault is live"
    );
    let mut polls = 0;
    loop {
        polls += 1;
        assert!(polls < 16, "the transient fault must drain within bounded polls");
        let outcome = registry.refresh();
        assert!(outcome.quarantined.is_empty(), "one transient fault never quarantines");
        if !outcome.reloaded.is_empty() {
            break;
        }
    }
    assert_eq!(registry.get("faulted").unwrap().fingerprint(), second.fingerprint());

    // A torn replace: while the new body is only half-visible the stable
    // read must refuse to promote it, and once the writes settle the full
    // body installs bit-identically.
    let third = artifact("faulted", 1.0);
    io.write_torn(path, third.render_v2(), 2);
    let mut polls = 0;
    loop {
        polls += 1;
        assert!(polls < 32, "the torn replace must settle within bounded polls");
        let outcome = registry.refresh();
        assert!(outcome.quarantined.is_empty(), "a settling torn write never quarantines");
        let served = registry.get("faulted").unwrap();
        if !outcome.reloaded.is_empty() {
            assert_eq!(served.fingerprint(), third.fingerprint());
            break;
        }
        assert_eq!(
            served.fingerprint(),
            second.fingerprint(),
            "a half-visible body must never be promoted (poll {polls})"
        );
    }
    assert_eq!(
        registry.get("faulted").unwrap().model().render_v2(),
        io.contents(path).unwrap(),
        "the settled body serves bit-identically"
    );
    assert!(io.injected() > 0, "the schedule actually injected faults");

    // Health is clean again after the incidents.
    let health = registry.health().into_iter().find(|h| h.name == "faulted").unwrap();
    assert_eq!(health.consecutive_failures, 0);
    assert!(!health.quarantined);
}
