//! The corrupt-then-restore incident of `registry_quarantine.rs`, replayed
//! with the obs layer armed: every health transition — reload failures, the
//! backoff ladder, quarantine, operator readmit, recovery reload — must
//! leave a structured event, in incident order, and the refresh counters
//! must account for every poll.  This is the "operational alerting" feed
//! the ROADMAP gated on: an alerting pipe that tails the event log sees the
//! whole incident without scraping logs.
//!
//! The on-disk choreography is `palmed_integration_tests::incident`, the
//! same scaffolding `registry_quarantine.rs` runs — this suite only layers
//! the obs assertions on top.
//!
//! Lives in its own test binary because it arms the global obs flag and
//! drains the global event rings.

use palmed_integration_tests::incident::{poll_until_quarantined, WatchedArtifact};
use palmed_obs::FieldValue;
use palmed_serve::registry::QUARANTINE_AFTER;
use palmed_serve::ModelRegistry;

const NAME: &str = "obs-audit-e2e";

/// The names of the drained events touching our registry key, in sequence
/// order.
fn incident_events(events: &[palmed_obs::Event]) -> Vec<&'static str> {
    events
        .iter()
        .filter(|e| matches!(e.field("key"), Some(FieldValue::Str(key)) if key == NAME))
        .map(|e| e.name)
        .collect()
}

#[test]
fn corrupt_then_restore_leaves_a_complete_structured_audit_trail() {
    palmed_obs::set_enabled(true);
    let watched = WatchedArtifact::save(NAME, "palmed-it-obs-audit.palmed2", 0.5);

    let before = palmed_obs::snapshot();
    let _ = palmed_obs::drain_events(); // discard anything buffered before the incident

    // Load, corrupt, poll to quarantine, restore, readmit.
    let registry = ModelRegistry::new();
    registry.load_file(&watched.path).unwrap();
    watched.corrupt();
    let polls = poll_until_quarantined(&registry, NAME, |_, _| {}).polls;
    let quiet_polls = 2u32;
    for _ in 0..quiet_polls {
        assert!(registry.refresh().is_quiet(), "quarantined entries are not polled");
    }
    watched.restore();
    registry.readmit(NAME).unwrap();

    // --- The event log tells the whole story, in order. ---
    let (events, dropped) = palmed_obs::drain_events();
    assert_eq!(dropped, 0, "a short incident never overflows the ring");
    let names = incident_events(&events);

    assert_eq!(names.first(), Some(&"registry.install"), "the initial load is recorded");
    assert_eq!(
        names.iter().filter(|n| **n == "registry.reload_failed").count() as u32,
        QUARANTINE_AFTER,
        "every failed reload attempt is recorded exactly once"
    );
    assert_eq!(
        names.iter().filter(|n| **n == "registry.backoff").count() as u32,
        QUARANTINE_AFTER - 1,
        "every pre-quarantine failure schedules backoff"
    );
    assert_eq!(names.iter().filter(|n| **n == "registry.quarantine").count(), 1);
    assert_eq!(names.iter().filter(|n| **n == "registry.readmit").count(), 1);
    let quarantine_at = names.iter().position(|n| *n == "registry.quarantine").unwrap();
    let readmit_at = names.iter().position(|n| *n == "registry.readmit").unwrap();
    let recovery_reload_at = names.iter().rposition(|n| *n == "registry.reload").unwrap();
    assert!(
        names[..quarantine_at].iter().all(|n| *n != "registry.readmit"),
        "readmit only appears after quarantine"
    );
    assert!(quarantine_at < readmit_at, "quarantine precedes the operator readmit");
    assert!(
        recovery_reload_at < readmit_at,
        "the recovery reload is part of the readmit (reload_file runs inside readmit)"
    );

    // The quarantine event carries the failure count an alert would page on.
    let quarantine =
        events.iter().find(|e| e.name == "registry.quarantine").expect("quarantine event present");
    assert_eq!(
        quarantine.field("failures"),
        Some(&FieldValue::U64(u64::from(QUARANTINE_AFTER))),
        "the quarantine event reports the consecutive-failure count"
    );
    // Every reload failure is classified for triage.
    for event in events.iter().filter(|e| e.name == "registry.reload_failed") {
        match event.field("class") {
            Some(FieldValue::Str(class)) => {
                assert!(!class.is_empty(), "rejection class must be non-empty")
            }
            other => panic!("reload_failed must carry a class field, got {other:?}"),
        }
    }
    // And the log renders as JSONL, one object per event.
    let jsonl = palmed_obs::events_to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len());
    assert!(jsonl.contains("\"event\":\"registry.quarantine\""));

    // --- The counters account for every poll. ---
    let after = palmed_obs::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(delta("serve.registry.installs"), 1, "one initial install");
    assert_eq!(delta("serve.registry.refresh.errors"), u64::from(QUARANTINE_AFTER));
    assert_eq!(delta("serve.registry.readmits"), 1);
    assert_eq!(delta("serve.registry.reloads"), 1, "the readmit's recovery reload");
    assert_eq!(delta("serve.registry.refresh.quarantined"), u64::from(quiet_polls));
    assert_eq!(
        delta("serve.registry.refresh.polls"),
        u64::from(polls + quiet_polls),
        "every refresh inspection is counted"
    );
    assert_eq!(
        delta("serve.registry.refresh.polls"),
        delta("serve.registry.refresh.errors")
            + delta("serve.registry.refresh.backed_off")
            + delta("serve.registry.refresh.quarantined"),
        "every poll either attempted (and failed), backed off, or was quarantined"
    );
}
