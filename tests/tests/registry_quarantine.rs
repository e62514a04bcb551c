//! Fault-tolerant refresh, end to end: a watched artifact file is
//! corrupted on disk and later restored.  Throughout the incident the
//! registry must keep serving the last good generation bit-identically,
//! back off its reload attempts exponentially, quarantine the entry after
//! repeated failures, and — once an operator readmits it — recover to a
//! model whose determinism fingerprint matches the sidecar recorded at
//! save time.
//!
//! The on-disk choreography (save, corrupt, poll, restore) lives in
//! `palmed_integration_tests::incident` and is shared with the obs audit
//! trail and fault-injection suites.

use palmed_integration_tests::incident::{poll_until_quarantined, WatchedArtifact};
use palmed_serve::registry::QUARANTINE_AFTER;
use palmed_serve::{read_sidecar, ModelRegistry, RefreshStatus};

#[test]
fn corruption_never_degrades_serving_and_readmit_restores_the_fingerprint() {
    let watched = WatchedArtifact::save("quarantine-e2e", "palmed-it-quarantine.palmed2", 0.5);
    assert_eq!(
        read_sidecar(&watched.path).unwrap(),
        Some(watched.recorded_fp),
        "sidecar records the fingerprint"
    );

    let registry = ModelRegistry::new();
    let entry = registry.load_file(&watched.path).unwrap();
    assert_eq!(
        entry.fingerprint(),
        watched.recorded_fp,
        "load verifies and adopts the sidecar value"
    );
    let first_generation = entry.generation();

    let kernel = WatchedArtifact::probe_kernel();
    let baseline = watched.served_bits(&registry, &kernel);

    watched.corrupt();

    // Poll until quarantine engages.  Exactly QUARANTINE_AFTER reload
    // attempts fail; exponential backoff makes the total poll count larger
    // than the failure count; and every single poll keeps serving the last
    // good generation bit-identically.
    let stats = poll_until_quarantined(&registry, &watched.name, |poll, outcome| {
        assert!(outcome.reloaded.is_empty(), "corrupt bytes must never be promoted");
        assert_eq!(
            watched.served_bits(&registry, &kernel),
            baseline,
            "serving degraded during poll {poll}"
        );
        assert_eq!(registry.get(&watched.name).unwrap().generation(), first_generation);
    });
    assert_eq!(
        stats.failures, QUARANTINE_AFTER,
        "every failure before quarantine is reported once"
    );
    assert!(stats.backoff_polls > 0, "exponential backoff must skip polls between attempts");
    assert_eq!(
        stats.polls,
        QUARANTINE_AFTER + stats.backoff_polls,
        "every poll either attempts or backs off"
    );

    // Quarantined: the registry stops hammering the file entirely.
    let outcome = registry.refresh();
    assert!(outcome.is_quiet() && outcome.backed_off.is_empty());
    let health = registry.health().into_iter().find(|h| h.name == watched.name).unwrap();
    assert!(health.quarantined);
    assert_eq!(health.status, RefreshStatus::Quarantined);
    assert_eq!(health.consecutive_failures, QUARANTINE_AFTER);
    assert!(health.last_error.is_some(), "health retains the terminal error for operators");

    // Restore the original bytes (and sidecar — still on disk).  Quarantine
    // sticks until an operator explicitly readmits.
    watched.restore();
    assert!(registry.refresh().is_quiet(), "restoration alone does not lift quarantine");
    assert_eq!(watched.served_bits(&registry, &kernel), baseline);

    let readmitted = registry.readmit(&watched.name).unwrap();
    assert!(readmitted.generation() > first_generation, "readmit promotes a fresh generation");
    assert_eq!(
        readmitted.fingerprint(),
        watched.recorded_fp,
        "the recovered model fingerprints identically to the one recorded at save time"
    );
    assert_eq!(
        watched.served_bits(&registry, &kernel),
        baseline,
        "recovered model predicts identically"
    );
    let health = registry.health().into_iter().find(|h| h.name == watched.name).unwrap();
    assert!(!health.quarantined);
    assert_eq!(health.status, RefreshStatus::Reloaded);
    assert_eq!(health.consecutive_failures, 0);

    // Normal polling resumes quietly.
    assert!(registry.refresh().is_quiet());
}
