//! One conjunctive model, installed through every way into the serving
//! plane, must be the same model everywhere: the same dense rows, equal
//! fingerprints, bit-identical `predict_prepared` rows, and the original
//! artifact held by the entry.

use palmed_integration_tests::artifact_prop::{build_artifact, inventory};
use palmed_isa::{InstId, Microkernel};
use palmed_serve::{migrate_v1_to_v2b, ModelArtifact, ModelRegistry, PreparedBatch, RegistryEntry};
use std::path::Path;
use std::sync::Arc;

/// What one way in produced: the served model, plus the registry's own
/// fingerprint when the way in goes through a registry.
struct Installed {
    served: ModelArtifact,
    entry_fingerprint: Option<u64>,
}

impl Installed {
    fn from_entry(entry: Arc<RegistryEntry>) -> Installed {
        let served = entry.model();
        Installed { served: served.clone(), entry_fingerprint: Some(entry.fingerprint()) }
    }
}

type WayIn = fn(&ModelArtifact, &Path) -> Installed;

/// `(name, install)` for every way in.
const WAYS_IN: [(&str, WayIn); 7] = [
    ("register", |a, _| Installed::from_entry(ModelRegistry::new().register(a.clone()))),
    ("load_file v1", |a, path| {
        a.save(path).unwrap();
        Installed::from_entry(ModelRegistry::new().load_file(path).unwrap())
    }),
    ("load_file v2b", |a, path| {
        a.save_v2(path).unwrap();
        Installed::from_entry(ModelRegistry::new().load_file(path).unwrap())
    }),
    ("swap_bytes v1", |a, _| {
        let bytes = a.render().into_bytes();
        Installed::from_entry(ModelRegistry::new().swap_bytes("m", bytes).unwrap())
    }),
    ("swap_bytes v2b", |a, _| {
        Installed::from_entry(ModelRegistry::new().swap_bytes("m", a.render_v2()).unwrap())
    }),
    ("parse_v2", |a, _| Installed {
        served: ModelArtifact::parse_v2(&a.render_v2()).unwrap(),
        entry_fingerprint: None,
    }),
    ("migrate_v1_to_v2b then load_file", |a, path| {
        std::fs::write(path, migrate_v1_to_v2b(a.render().as_bytes()).unwrap()).unwrap();
        Installed::from_entry(ModelRegistry::new().load_file(path).unwrap())
    }),
];

#[test]
fn every_way_in_serves_the_same_model() {
    let insts = inventory();
    let rows: Vec<(u32, Vec<f64>)> = (0..40u32)
        .map(|i| (i * 7, (0..5).map(|r| 1.0 + ((i * 5 + r) % 9) as f64 * 0.375).collect()))
        .collect();
    let artifact = build_artifact(5, &rows, &insts);
    let n = artifact.instructions.len();
    let reference_fp = artifact.fingerprint();
    let kernels: Vec<Microkernel> = (0..200u32)
        .map(|i| Microkernel::pair(InstId(i % n as u32), 1 + i % 3, InstId(i * 11 % n as u32), 2))
        .collect();
    let batch = PreparedBatch::from_kernels(&kernels);
    let reference = artifact.batch().predict_prepared(&batch);
    assert!(reference.ipcs.iter().any(Option::is_some), "the probe batch hits mapped rows");

    let path = std::env::temp_dir().join(format!("palmed-it-ways-in-{}", std::process::id()));
    for (name, install) in WAYS_IN {
        let Installed { served, entry_fingerprint } = install(&artifact, &path);
        std::fs::remove_file(&path).ok();
        assert_eq!(served.mapping(), artifact.mapping(), "{name}: dense rows");
        assert_eq!(served.fingerprint(), reference_fp, "{name}: model fingerprint");
        if let Some(fp) = entry_fingerprint {
            assert_eq!(fp, reference_fp, "{name}: registry fingerprint");
        }
        let rows = served.batch().predict_prepared(&batch);
        assert_eq!(rows.distinct, reference.distinct, "{name}: dedup");
        for (i, (got, want)) in rows.ipcs.iter().zip(&reference.ipcs).enumerate() {
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{name}: row {i}");
        }
        for r in artifact.mapping().resources() {
            let want = artifact.mapping().resource_name(r);
            assert_eq!(served.mapping().resource_name(r), want, "{name}: resource {r:?}");
        }
        // The served artifact is the original, bit for bit.
        assert_eq!(served, artifact, "{name}: artifact");
    }
}
