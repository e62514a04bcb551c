//! Walkthrough of the `palmed-serve` lifecycle: infer a model once, persist
//! it as a text artifact, reload it into a registry, and serve a basic-block
//! corpus through the batch path.
//!
//! Run with: `cargo run --release -p palmed-examples --example save_load_serve`

use palmed_core::{Palmed, PalmedConfig};
use palmed_isa::Microkernel;
use palmed_machine::{presets, AnalyticMeasurer, MemoizingMeasurer};
use palmed_serve::{Corpus, ModelArtifact, ModelRegistry, PreparedBatch};

fn main() {
    // 1. Infer a mapping for the paper's 3-port pedagogical machine — the
    //    expensive, one-time step that `palmed-serve` lets you pay only once.
    let machine = presets::paper_ports016();
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(machine.mapping_arc()));
    let result = Palmed::new(PalmedConfig::small()).infer(&measurer);
    println!(
        "inferred: {} instructions on {} resources",
        result.mapping.num_instructions(),
        result.mapping.num_resources()
    );

    // 2. Persist the model.  The artifact is self-describing text — the
    //    instruction set travels with the mapping — with a checksum trailer
    //    that rejects truncated or hand-corrupted files at load time.
    let artifact = ModelArtifact::new(
        machine.name(),
        machine.description.name.clone(),
        (*machine.instructions).clone(),
        result.mapping.clone(),
    );
    let dir = std::env::temp_dir().join("palmed-save-load-serve");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model_path = dir.join("model.palmed");
    artifact.save(&model_path).expect("artifact saves");
    println!("saved model to {}", model_path.display());

    // 3. Reload into a registry.  A serving process would hold one model per
    //    architecture and dispatch each request to the right one; entries
    //    are `Arc`-shared snapshots, so lookups cost a refcount bump and
    //    predictions never hold a lock.
    let registry = ModelRegistry::new();
    registry.load_file(&model_path).expect("checksum verifies, artifact parses");
    println!("registry serves: {:?}", registry.names());
    let entry = registry.get(machine.name()).expect("registered under its machine name");
    let served = entry.model();
    assert_eq!(*served, artifact, "round trip is lossless");

    // 4. A workload corpus: weighted basic blocks in a text file.  Names are
    //    resolved against the *artifact's own* instruction set — the serving
    //    side needs no access to the original machine.
    let insts = &served.instructions;
    let find = |n: &str| insts.find(n).expect("instruction exists in the artifact");
    let corpus: Corpus = [
        ("hot/0", 1e6, Microkernel::pair(find("ADDSS"), 2, find("BSR"), 1)),
        ("hot/1", 2e5, Microkernel::pair(find("JNLE"), 2, find("JMP"), 1)),
        ("cold/0", 3.0, Microkernel::single(find("DIVPS"))),
        // Identical mix to hot/0: interned onto the same kernel id.
        ("hot/0-clone", 9e5, Microkernel::pair(find("ADDSS"), 2, find("BSR"), 1)),
    ]
    .into_iter()
    .collect();
    let corpus_path = dir.join("corpus.txt");
    corpus.save(&corpus_path, insts).expect("corpus saves");
    let corpus = Corpus::load(&corpus_path, insts).expect("corpus reloads");

    // 5. Serve: ingest (dedupe) once, then predict through the mapping's
    //    dense rows — allocation-free, results in corpus order.  The prepared
    //    batch shares the corpus's interned kernel set by `Arc`, so
    //    re-preparing the same corpus costs a slot-table copy, not a clone.
    let prepared = PreparedBatch::from_corpus(&corpus);
    println!("ingested {} blocks, {} distinct", prepared.len(), prepared.distinct());
    let result = served.batch().predict_prepared(&prepared);
    println!("block         weight   predicted IPC");
    for (block, ipc) in corpus.blocks().iter().zip(&result.ipcs) {
        match ipc {
            Some(ipc) => println!("{:<13} {:>7.0} {:>12.2}", block.name, block.weight, ipc),
            None => println!("{:<13} {:>7.0} {:>12}", block.name, block.weight, "n/a"),
        }
    }

    // 6. The binary v2b artifact: the registry validates the bytes and
    //    scatters the stored CSR arrays into the same dense rows in one
    //    pass — no float parsing.
    let v2_path = dir.join("model.palmed2");
    artifact.save_v2(&v2_path).expect("v2b artifact saves");
    let binary = ModelRegistry::new();
    let v2_entry = binary.load_file(&v2_path).expect("v2b load validates");
    let v2_served = v2_entry.model();
    assert_eq!(v2_served.mapping(), served.mapping(), "both loads serve the same rows");
    let reloaded = v2_served.batch().predict_prepared(&prepared);
    for (a, b) in result.ipcs.iter().zip(&reloaded.ipcs) {
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "v2b == v1, bit for bit");
    }
    println!("v2b reload: {} blocks re-served bit-identically", reloaded.ipcs.len());
}
