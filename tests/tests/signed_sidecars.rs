//! Signed fingerprint sidecars end to end, on the real filesystem: a
//! `PALMED-FPRINT v2` sidecar carries an HMAC-SHA256 tag over the recorded
//! fingerprint, and a registry configured with the signing key verifies
//! provenance — not just determinism — on every load and reload.  The
//! compatibility contract: keyed registries still accept unkeyed v1
//! sidecars (determinism-only, pre-signing artifacts keep working), and
//! unkeyed registries accept signed v2 sidecars (the tag is extra
//! evidence, not an obligation).  A wrong-key sidecar is a structured
//! `signature-mismatch` failure that feeds the same backoff-and-quarantine
//! ladder as any other poisoned reload.  The strict
//! [`ModelRegistry::require_signed`] policy flips the compatibility
//! contract: with keys configured, a missing or unkeyed sidecar becomes a
//! structured `unsigned-artifact` refusal on the same ladder.

use palmed_integration_tests::incident::{poll_until_quarantined, scratch_file, WatchedArtifact};
use palmed_serve::fingerprint::write_signed_sidecar;
use palmed_serve::registry::QUARANTINE_AFTER;
use palmed_serve::{ModelRegistry, RefreshStatus};

const KEY: &[u8] = b"palmed-integration-signing-key";
const WRONG_KEY: &[u8] = b"not-the-key-you-are-looking-for";

/// A watched artifact whose sidecar is re-signed under `key` (the helper
/// saves the unkeyed v1 sidecar; signing replaces it in place).
fn signed_watched(name: &str, file: &str, key: &[u8]) -> WatchedArtifact {
    let watched = WatchedArtifact::save(name, file, 0.5);
    write_signed_sidecar(&watched.path, watched.recorded_fp, key).unwrap();
    watched
}

#[test]
fn a_keyed_registry_round_trips_a_signed_sidecar() {
    let watched = signed_watched("signed-ok", "palmed-it-signed-ok.palmed2", KEY);

    let registry = ModelRegistry::new();
    registry.set_signing_key(Some(KEY.to_vec()));
    let entry = registry.load_file(&watched.path).unwrap();
    assert_eq!(
        entry.fingerprint(),
        watched.recorded_fp,
        "the keyed load verifies the tag and adopts the recorded fingerprint"
    );

    // A good re-deploy signed under the same key hot-reloads cleanly.
    watched.restore();
    write_signed_sidecar(&watched.path, watched.recorded_fp, KEY).unwrap();
    let outcome = registry.refresh();
    assert!(outcome.errors.is_empty(), "a correctly signed redeploy must not fail");
}

#[test]
fn a_wrong_key_sidecar_is_rejected_as_a_signature_mismatch() {
    let watched = signed_watched("signed-wrong", "palmed-it-signed-wrong.palmed2", WRONG_KEY);

    let registry = ModelRegistry::new();
    registry.set_signing_key(Some(KEY.to_vec()));
    let error = registry.load_file(&watched.path).unwrap_err();
    assert_eq!(error.class(), "signature-mismatch");
    assert!(registry.is_empty(), "a forged artifact never installs");
}

#[test]
fn a_forged_redeploy_feeds_the_backoff_and_quarantine_ladder() {
    let watched = signed_watched("signed-forge", "palmed-it-signed-forge.palmed2", KEY);
    let registry = ModelRegistry::new();
    registry.set_signing_key(Some(KEY.to_vec()));
    let entry = registry.load_file(&watched.path).unwrap();
    let pinned = entry.generation();

    // An attacker without the key replaces the body and signs the matching
    // fingerprint under their own key.  Determinism checks out; provenance
    // does not.
    watched.restore();
    write_signed_sidecar(&watched.path, watched.recorded_fp, WRONG_KEY).unwrap();

    let stats = poll_until_quarantined(&registry, &watched.name, |poll, outcome| {
        assert!(outcome.reloaded.is_empty(), "the forged body must never be promoted");
        for (_, error) in &outcome.errors {
            assert_eq!(
                error.class(),
                "signature-mismatch",
                "poll {poll} must fail on the signature, not a later check"
            );
        }
        assert_eq!(registry.get(&watched.name).unwrap().generation(), pinned);
    });
    assert_eq!(stats.failures, QUARANTINE_AFTER);
    let health = registry.health().into_iter().find(|h| h.name == watched.name).unwrap();
    assert!(health.quarantined);
    assert_eq!(health.status, RefreshStatus::Quarantined);
    assert!(
        health.last_error.as_deref().unwrap_or("").contains("signature"),
        "operators see the provenance failure in health"
    );

    // Re-signing under the real key and readmitting recovers the entry.
    write_signed_sidecar(&watched.path, watched.recorded_fp, KEY).unwrap();
    let readmitted = registry.readmit(&watched.name).unwrap();
    assert_eq!(readmitted.fingerprint(), watched.recorded_fp);
    assert!(readmitted.generation() > pinned);
}

#[test]
fn key_rotation_admits_old_key_sidecars_until_the_key_is_retired() {
    const NEW_KEY: &[u8] = b"palmed-integration-rotated-key";

    // An artifact signed under the *old* key, deployed before the roll.
    let watched = signed_watched("signed-rotate", "palmed-it-signed-rotate.palmed2", KEY);

    // During the rotation window the registry trusts both keys — new
    // primary first, the outgoing key kept for not-yet-re-signed
    // artifacts — so the old-key sidecar still admits.
    let registry = ModelRegistry::new();
    registry.set_signing_keys(vec![NEW_KEY.to_vec(), KEY.to_vec()]);
    let entry = registry.load_file(&watched.path).unwrap();
    assert_eq!(
        entry.fingerprint(),
        watched.recorded_fp,
        "an old-key sidecar admits while the old key is still in the rotation set"
    );

    // Once the old key is retired the same sidecar is a provenance
    // failure, classified exactly like a forged tag.
    let strict = ModelRegistry::new();
    strict.set_signing_keys(vec![NEW_KEY.to_vec()]);
    let error = strict.load_file(&watched.path).unwrap_err();
    assert_eq!(
        error.class(),
        "signature-mismatch",
        "a retired-key sidecar rejects as a signature mismatch"
    );
    assert!(strict.is_empty(), "nothing installs on a retired-key sidecar");

    // Re-signing under the new primary closes the rotation.
    write_signed_sidecar(&watched.path, watched.recorded_fp, NEW_KEY).unwrap();
    let entry = strict.load_file(&watched.path).unwrap();
    assert_eq!(entry.fingerprint(), watched.recorded_fp);
}

#[test]
fn a_keyed_registry_still_accepts_an_unkeyed_v1_sidecar() {
    // The helper writes the plain v1 sidecar — the pre-signing format.
    let watched = WatchedArtifact::save("signed-v1", "palmed-it-signed-v1.palmed2", 0.5);

    let registry = ModelRegistry::new();
    registry.set_signing_key(Some(KEY.to_vec()));
    let entry = registry.load_file(&watched.path).unwrap();
    assert_eq!(
        entry.fingerprint(),
        watched.recorded_fp,
        "v1 sidecars stay valid under a keyed registry (determinism-only)"
    );
}

#[test]
fn an_unkeyed_registry_accepts_a_signed_v2_sidecar() {
    let watched = signed_watched("signed-unkeyed", "palmed-it-signed-unkeyed.palmed2", KEY);

    let registry = ModelRegistry::new();
    let entry = registry.load_file(&watched.path).unwrap();
    assert_eq!(
        entry.fingerprint(),
        watched.recorded_fp,
        "without a key the tag is ignored but the fingerprint still binds"
    );
}

#[test]
fn a_strict_registry_refuses_missing_and_unkeyed_sidecars() {
    // Strict policy without keys is inert: there is nothing to verify a
    // signature against, so a plain v1 sidecar still admits.
    let unkeyed = WatchedArtifact::save("strict-inert", "palmed-it-strict-inert.palmed2", 0.5);
    let inert = ModelRegistry::new();
    inert.require_signed(true);
    let entry = inert.load_file(&unkeyed.path).unwrap();
    assert_eq!(
        entry.fingerprint(),
        unkeyed.recorded_fp,
        "require_signed without keys must not brick unkeyed loads"
    );

    // With keys configured the same v1 sidecar is a structured refusal.
    let strict = ModelRegistry::new();
    strict.set_signing_key(Some(KEY.to_vec()));
    strict.require_signed(true);
    let error = strict.load_file(&unkeyed.path).unwrap_err();
    assert_eq!(error.class(), "unsigned-artifact");
    assert!(strict.is_empty(), "an unsigned artifact never installs under strict policy");

    // A missing sidecar is refused identically — no sidecar proves even
    // less about provenance than an unkeyed one.
    let orphan = signed_watched("strict-orphan", "palmed-it-strict-orphan.palmed2", KEY);
    std::fs::remove_file(palmed_serve::sidecar_path(&orphan.path)).unwrap();
    let error = strict.load_file(&orphan.path).unwrap_err();
    assert_eq!(error.class(), "unsigned-artifact");
    assert!(strict.is_empty());

    // A correctly signed v2 sidecar satisfies the policy.
    let signed = signed_watched("strict-ok", "palmed-it-strict-ok.palmed2", KEY);
    let entry = strict.load_file(&signed.path).unwrap();
    assert_eq!(entry.fingerprint(), signed.recorded_fp);

    // Turning the policy back off restores the compatibility contract:
    // the unkeyed v1 sidecar admits again.
    strict.require_signed(false);
    let entry = strict.load_file(&unkeyed.path).unwrap();
    assert_eq!(entry.fingerprint(), unkeyed.recorded_fp);
}

#[test]
fn an_unsigned_redeploy_feeds_the_backoff_and_quarantine_ladder() {
    let watched = signed_watched("strict-forge", "palmed-it-strict-redeploy.palmed2", KEY);
    let registry = ModelRegistry::new();
    registry.set_signing_key(Some(KEY.to_vec()));
    registry.require_signed(true);
    let entry = registry.load_file(&watched.path).unwrap();
    let pinned = entry.generation();

    // A deployer without the signing pipeline pushes a new body with the
    // plain v1 fingerprint sidecar.  Determinism checks out; provenance is
    // absent — strict policy refuses the reload without decoding further.
    watched.artifact.save_v2_with_fingerprint(&watched.path).unwrap();

    let stats = poll_until_quarantined(&registry, &watched.name, |poll, outcome| {
        assert!(outcome.reloaded.is_empty(), "the unsigned body must never be promoted");
        for (_, error) in &outcome.errors {
            assert_eq!(
                error.class(),
                "unsigned-artifact",
                "poll {poll} must fail on the missing signature, not a later check"
            );
        }
        assert_eq!(registry.get(&watched.name).unwrap().generation(), pinned);
    });
    assert_eq!(stats.failures, QUARANTINE_AFTER);
    let health = registry.health().into_iter().find(|h| h.name == watched.name).unwrap();
    assert!(health.quarantined);
    assert_eq!(health.status, RefreshStatus::Quarantined);
    assert!(
        health.last_error.as_deref().unwrap_or("").contains("unsigned"),
        "operators see the provenance failure in health"
    );

    // Re-signing the deployed fingerprint under the real key and
    // readmitting recovers the entry.
    write_signed_sidecar(&watched.path, watched.recorded_fp, KEY).unwrap();
    let readmitted = registry.readmit(&watched.name).unwrap();
    assert_eq!(readmitted.fingerprint(), watched.recorded_fp);
    assert!(readmitted.generation() > pinned);
}

#[test]
fn signed_saves_round_trip_through_the_artifact_helper() {
    let path = scratch_file("palmed-it-signed-helper.palmed2");
    let watched = WatchedArtifact::save("signed-helper", "palmed-it-signed-helper2.palmed2", 0.5);
    let fp = watched.artifact.save_v2_with_signed_fingerprint(&path, KEY).unwrap();
    assert_eq!(fp, watched.recorded_fp, "signing does not change the recorded fingerprint");

    let registry = ModelRegistry::new();
    registry.set_signing_key(Some(KEY.to_vec()));
    let entry = registry.load_file(&path).unwrap();
    assert_eq!(entry.fingerprint(), fp);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(palmed_serve::sidecar_path(&path)).ok();
}
