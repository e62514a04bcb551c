//! End-to-end serving demo: infer once, persist, reload, predict at scale.
//!
//! The binary walks the full `palmed-serve` lifecycle on a preset machine:
//!
//! 1. infer a conjunctive mapping from cycle measurements only, and require
//!    that the training walk's LP solves were certified
//!    (`lp.certify.checked` > 0) and that no certificate failed
//!    (`lp.certify.failed` = 0);
//! 2. save it as a `PALMED-MODEL v1` artifact and reload it through a
//!    [`ModelRegistry`], verifying the round trip is bit-lossless — then the
//!    same through the binary v2b form, whose entry must re-render the file
//!    byte for byte;
//! 3. generate a basic-block corpus, save it as `PALMED-CORPUS v1` text and
//!    load it back;
//! 4. serve the corpus through the deduplicating
//!    [`BatchPredictor`](palmed_serve::BatchPredictor) and
//!    cross-check every prediction against the in-memory mapping, then
//!    re-serve it through the v2b entry and require bit-identity with the
//!    v1 entry;
//! 5. report accuracy against the native machine next to the uops-style
//!    baseline;
//! 6. exercise the hot-reload plane: hot-swap retrained bytes under a live
//!    reader (old generation keeps serving), and replace the artifact file
//!    atomically so `refresh()`'s mtime/length poll picks it up;
//! 7. prove determinism across every way in: the v1 text load, the v2b
//!    file load and the v1-to-v2b migration must all hash to the same
//!    prediction fingerprint, which the `.fp` sidecar records and the
//!    registry verifies on load;
//! 8. assert the `palmed-obs` snapshot (the walk runs with observability
//!    enabled) covers all three subsystems: trainer counters, serving
//!    dedup hits and latency histogram, registry install/swap/refresh
//!    counters plus exactly one `registry.swap` event;
//! 9. round-trip the same corpus over the wire (Linux): spawn a
//!    [`palmed_wire::WireServer`] on a UNIX socket, serve the probe corpus
//!    through a `PALMED-WIRE v1` request frame, and require bit-identity
//!    with the in-process predictions plus fingerprint equality through
//!    the admin health frame — then the same again over a loopback TCP
//!    listener, so both transports of the one serve path are smoke-proven
//!    bit-identical.
//!
//! Usage: `cargo run --release -p palmed-bench --bin predict -- \
//!     [--full] [--blocks N] [--out DIR]`
//!
//! The default (quick) mode runs the paper's 3-port pedagogical machine and a
//! small corpus in well under a second — it doubles as the CI smoke test.
//! `--full` infers on the SKL-SP-like machine and serves 10 000 blocks.

use palmed_core::{Palmed, PalmedConfig};
use palmed_eval::blocks::{blocks_to_corpus, corpus_to_blocks};
use palmed_eval::metrics::evaluate_tool;
use palmed_eval::suite::{generate_suite, SuiteConfig, SuiteKind};
use palmed_isa::InventoryConfig;
use palmed_machine::{presets, AnalyticMeasurer, Measurer, MemoizingMeasurer};
use palmed_serve::{
    migrate_v1_to_v2b, read_sidecar, Corpus, ModelArtifact, ModelRegistry, PreparedBatch,
};
use std::path::PathBuf;
use std::time::Instant;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let blocks = flag_value(&args, "--blocks")
        .map(|v| v.parse::<usize>().expect("--blocks takes a number"))
        .unwrap_or(if full { 10_000 } else { 400 });
    let out: PathBuf = flag_value(&args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("palmed-serve-demo"));
    std::fs::create_dir_all(&out).expect("output directory is creatable");

    // The whole walk runs with observability armed; step 8 asserts the
    // snapshot covers the trainer, serving and registry subsystems.
    palmed_obs::set_enabled(true);

    let preset =
        if full { presets::skl_sp(&InventoryConfig::small()) } else { presets::paper_ports016() };
    let config = if full { PalmedConfig::evaluation() } else { PalmedConfig::small() };

    // ---- 1. One-time inference. ----
    println!("[1/9] inferring a mapping for `{}`...", preset.name());
    let measurer = MemoizingMeasurer::new(AnalyticMeasurer::new(preset.mapping_arc()));
    let start = Instant::now();
    let inferred = Palmed::new(config).infer(&measurer);
    println!(
        "      {} instructions mapped onto {} resources in {:.2?}",
        inferred.mapping.num_instructions(),
        inferred.mapping.num_resources(),
        start.elapsed()
    );
    let trained = palmed_obs::snapshot();
    let lp_counter = |name: &str| trained.counter(name).unwrap_or(0);
    let (certified, uncertified) =
        (lp_counter("lp.certify.checked"), lp_counter("lp.certify.failed"));
    if certified == 0 || uncertified != 0 {
        eprintln!(
            "FATAL: LP certificates after training: {certified} checked, {uncertified} failed \
             (want > 0 checked, 0 failed)"
        );
        std::process::exit(1);
    }
    println!("      {certified} LP solves certified by their duals, none failed");

    // ---- 2. Persist and reload through the registry. ----
    let model_path = out.join("model.palmed");
    let artifact = ModelArtifact::new(
        preset.name(),
        preset.description.name.clone(),
        (*preset.instructions).clone(),
        inferred.mapping.clone(),
    );
    artifact.save(&model_path).expect("artifact saves");
    let bytes = std::fs::metadata(&model_path).map(|m| m.len()).unwrap_or(0);
    println!("[2/9] saved model artifact to {} ({bytes} bytes)", model_path.display());
    let registry = ModelRegistry::new();
    let entry = registry.load_file(&model_path).expect("artifact reloads with a valid checksum");
    let served = entry.model();
    if *served != artifact {
        eprintln!("FATAL: reloaded artifact differs from the saved one");
        std::process::exit(1);
    }
    println!("      reloaded through the registry: checksum ok, round trip lossless");

    // The binary v2b artifact must carry the same model: save, sniff-load,
    // and hand back the exact file bytes when re-rendered.
    let v2_path = out.join("model.palmed2");
    artifact.save_v2(&v2_path).expect("v2 artifact saves");
    let v2_bytes = std::fs::metadata(&v2_path).map(|m| m.len()).unwrap_or(0);
    let v2_loaded = ModelArtifact::load(&v2_path).expect("v2 artifact reloads");
    if v2_loaded != artifact {
        eprintln!("FATAL: v2 round trip differs from the saved artifact");
        std::process::exit(1);
    }
    let v2_registry = ModelRegistry::new();
    let v2_entry = v2_registry.load_file(&v2_path).expect("registry sniffs the v2 format");
    let v2_served = v2_entry.model();
    if v2_served.render_v2() != std::fs::read(&v2_path).expect("v2 file reads") {
        eprintln!("FATAL: the v2b entry does not re-render the exact file bytes");
        std::process::exit(1);
    }
    println!(
        "      v2b binary artifact round trip lossless ({v2_bytes} bytes, \
         {:.0}% of the text form), re-rendered byte for byte from the served entry",
        100.0 * v2_bytes as f64 / bytes.max(1) as f64
    );

    // ---- 3. Corpus to and from disk. ----
    let corpus_path = out.join("corpus.txt");
    let suite = generate_suite(
        SuiteKind::SpecLike,
        &preset.instructions,
        &SuiteConfig { num_blocks: blocks, ..SuiteConfig::default() },
    );
    blocks_to_corpus(&suite).save(&corpus_path, &preset.instructions).expect("corpus saves");
    let entry = registry.get(preset.name()).expect("model is registered");
    let served = entry.model();
    let corpus = Corpus::load(&corpus_path, &served.instructions)
        .expect("corpus reloads against the artifact's own instruction set");
    println!(
        "[3/9] corpus of {} blocks written and reloaded from {}",
        corpus.len(),
        corpus_path.display()
    );

    // ---- 4. Serve the corpus: ingest once, serve repeatedly. ----
    let batch = served.batch();
    let start = Instant::now();
    let prepared = PreparedBatch::from_corpus(&corpus);
    let ingested_in = start.elapsed();
    let start = Instant::now();
    let result = batch.predict_prepared(&prepared);
    let served_in = start.elapsed();
    let covered = result.ipcs.iter().flatten().count();
    println!(
        "[4/9] ingested {} blocks ({} distinct) in {:.2?}; served in {:.2?} — \
         {:.0} blocks/s steady state, {covered} covered",
        corpus.len(),
        prepared.distinct(),
        ingested_in,
        served_in,
        corpus.len() as f64 / served_in.as_secs_f64()
    );
    let mismatches = corpus
        .iter()
        .zip(&result.ipcs)
        .filter(|((_, kernel), served_ipc)| {
            inferred.mapping.ipc(kernel).map(f64::to_bits) != served_ipc.map(f64::to_bits)
        })
        .count();
    if mismatches > 0 {
        eprintln!("FATAL: {mismatches} served predictions differ from the in-memory mapping");
        std::process::exit(1);
    }
    println!("      every prediction bit-identical to the in-memory mapping");

    // Same corpus through the v2b entry: every prediction must be
    // bit-identical to the v1 entry.
    let start = Instant::now();
    let v2_result = v2_served.batch().predict_prepared(&prepared);
    let v2_in = start.elapsed();
    let v2_mismatches = result
        .ipcs
        .iter()
        .zip(&v2_result.ipcs)
        .filter(|(v1, v2)| v1.map(f64::to_bits) != v2.map(f64::to_bits))
        .count();
    if v2_mismatches > 0 {
        eprintln!("FATAL: {v2_mismatches} v2b entry predictions differ from the v1 entry");
        std::process::exit(1);
    }
    println!(
        "      v2b entry bit-identical to the v1 entry ({} blocks in {:.2?})",
        v2_result.ipcs.len(),
        v2_in
    );

    // ---- 5. Accuracy against the native machine. ----
    let native = AnalyticMeasurer::new(preset.mapping_arc());
    let eval_blocks = corpus_to_blocks(&corpus);
    let native_ipcs: Vec<f64> = eval_blocks.iter().map(|b| native.ipc(&b.kernel)).collect();
    let palmed = evaluate_tool(served.mapping(), &eval_blocks, &native_ipcs);
    let uops = palmed_baselines::UopsStylePredictor::new(preset.mapping_arc());
    let uops_metrics = evaluate_tool(&uops, &eval_blocks, &native_ipcs);
    println!("[5/9] accuracy vs the native machine:");
    println!("      tool            coverage   RMS err   Kendall tau");
    for (name, m) in [("palmed (served)", palmed), ("uops-style", uops_metrics)] {
        println!(
            "      {name:<15} {:>8.1}% {:>9.3} {:>13.3}",
            m.coverage * 100.0,
            m.rms_error,
            m.kendall_tau
        );
    }

    // ---- 6. Hot reload. ----
    // (a) Hot swap under a live reader: install retrained bytes under the
    // same name; the held entry keeps serving the old generation.
    let swap_registry = ModelRegistry::new();
    let old_entry = swap_registry.register(artifact.clone());
    let mut retrained = artifact.clone();
    retrained.source = format!("{}-retrained", retrained.source);
    let swapped = swap_registry
        .swap_bytes(preset.name(), retrained.render_v2())
        .expect("hot swap installs a new generation");
    assert!(swapped.generation() > old_entry.generation(), "swap must bump the generation");
    assert_eq!(*swapped.model(), retrained, "a v2b swap serves the retrained model");
    let old_still_serves = old_entry.model().batch().predict_prepared(&prepared);
    let stale_mismatches = result
        .ipcs
        .iter()
        .zip(&old_still_serves.ipcs)
        .filter(|(a, b)| a.map(f64::to_bits) != b.map(f64::to_bits))
        .count();
    if stale_mismatches > 0 {
        eprintln!("FATAL: {stale_mismatches} predictions changed on the held old generation");
        std::process::exit(1);
    }
    println!(
        "[6/9] hot swap: generation {} -> {}; held entry re-served {} blocks bit-identically",
        old_entry.generation(),
        swapped.generation(),
        old_still_serves.ipcs.len()
    );

    // (b) File-watch refresh: atomically replace the artifact file (write +
    // rename, so live mappings keep their inode) and let the polling
    // registry pick it up.
    let tmp = out.join("model.palmed2.tmp");
    retrained.save_v2(&tmp).expect("replacement artifact saves");
    std::fs::rename(&tmp, &v2_path).expect("atomic replace");
    let outcome = v2_registry.refresh();
    if outcome.reloaded != vec![preset.name().to_string()] || !outcome.errors.is_empty() {
        eprintln!("FATAL: refresh did not reload the replaced artifact: {outcome:?}");
        std::process::exit(1);
    }
    let refreshed = v2_registry.get(preset.name()).expect("still registered");
    assert_eq!(refreshed.model().source, retrained.source, "refresh must serve the replaced file");
    println!(
        "      refresh: mtime/len poll reloaded `{}` (generation {}), source now `{}`",
        preset.name(),
        refreshed.generation(),
        retrained.source
    );

    // ---- 7. Determinism fingerprints across every way in. ----
    // The same model must hash to the same prediction fingerprint no matter
    // how it was loaded: parsed from v1 text, decoded from a v2b file, or
    // migrated from v1 to v2b.  The `.fp` sidecar pins that value on disk
    // and the registry re-verifies it on every load.
    let reference = artifact.fingerprint();
    let migrated = migrate_v1_to_v2b(artifact.render().as_bytes()).expect("v1 render migrates");
    let migrated = ModelArtifact::parse_v2(&migrated).expect("migrated bytes validate");
    let modes = [
        ("v1 text load", served.fingerprint()),
        ("v2b file load", v2_served.fingerprint()),
        ("v1->v2b migration", migrated.fingerprint()),
    ];
    for (mode, fingerprint) in modes {
        if fingerprint != reference {
            eprintln!(
                "FATAL: {mode} load fingerprints as {fingerprint:016x}, \
                 expected {reference:016x}"
            );
            std::process::exit(1);
        }
    }
    let fp_path = out.join("model-fp.palmed2");
    let recorded =
        artifact.save_v2_with_fingerprint(&fp_path).expect("artifact saves with a sidecar");
    let sidecar = read_sidecar(&fp_path).expect("sidecar reads back");
    let verified_registry = ModelRegistry::new();
    let verified = verified_registry
        .load_file(&fp_path)
        .expect("sidecar-verified load admits the matching model");
    if recorded != reference || sidecar != Some(reference) || verified.fingerprint() != reference {
        eprintln!(
            "FATAL: sidecar chain broke: recorded {recorded:016x}, sidecar {sidecar:?}, \
             registry {:016x}, expected {reference:016x}",
            verified.fingerprint()
        );
        std::process::exit(1);
    }
    println!(
        "[7/9] determinism fingerprint {reference:016x} identical across {} ways in; \
         sidecar recorded and registry-verified at {}",
        modes.len(),
        fp_path.display()
    );

    // ---- 8. The observability snapshot must cover the whole walk. ----
    // Serve a deliberately duplicated batch first so the dedup counter is
    // provably non-zero even when every corpus block is distinct.
    let (_, first_kernel) = corpus.iter().next().expect("corpus is non-empty");
    let duplicated: Vec<_> = std::iter::repeat_n(first_kernel.clone(), 8).collect();
    let _ = batch.predict(&duplicated);

    let snapshot = palmed_obs::snapshot();
    let check = |name: &str| {
        let value = snapshot.counter(name).unwrap_or(0);
        if value == 0 {
            eprintln!("FATAL: obs counter `{name}` is empty after the full walk");
            std::process::exit(1);
        }
        value
    };
    // Trainer: the inference in step 1 ran campaigns and LP solves, and
    // counted each distinct kernel its memo measured, once.
    let benchmarks = check("trainer.benchmarks");
    let measured = measurer.distinct_kernels() as u64;
    if benchmarks != measured {
        eprintln!(
            "FATAL: trainer.benchmarks counts {benchmarks} benchmarks, but the memo measured \
             {measured} distinct kernels"
        );
        std::process::exit(1);
    }
    let pivots = check("lp.simplex.iterations");
    // Serving: batches were served, the duplicated batch deduped.
    let serves = check("serve.batch.requests");
    let dedup_hits = check("serve.batch.dedup_hits");
    let serve_hist = snapshot.histogram("serve.batch.serve_ns").map(|h| h.count).unwrap_or(0);
    if serve_hist == 0 {
        eprintln!("FATAL: serve.batch.serve_ns histogram is empty after the full walk");
        std::process::exit(1);
    }
    // Registry: models installed, the hot swap swapped, the refresh reloaded.
    check("serve.registry.installs");
    check("serve.registry.swaps");
    check("serve.registry.refresh.reloaded");
    let (events, _dropped) = palmed_obs::drain_events();
    let swap_events = events.iter().filter(|e| e.name == "registry.swap").count();
    if swap_events != 1 {
        eprintln!("FATAL: expected exactly one registry.swap event, saw {swap_events}");
        std::process::exit(1);
    }
    let prometheus = snapshot.render_prometheus();
    if snapshot.is_empty() || prometheus.is_empty() || snapshot.render_json().len() < 2 {
        eprintln!("FATAL: obs snapshot renders empty");
        std::process::exit(1);
    }
    println!(
        "[8/9] obs snapshot: {} metrics across trainer ({benchmarks} benchmarks, \
         {pivots} simplex pivots), serving ({serves} batch serves, {dedup_hits} dedup hits) \
         and registry; {} events drained, exactly one registry.swap",
        snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len(),
        events.len()
    );

    // ---- 9. The wire front-end: the same corpus over UNIX and TCP sockets. ----
    wire_round_trip(&model_path, preset.name(), &corpus_path, &result.ipcs, reference, &out);
}

/// Serves the probe corpus over real `PALMED-WIRE v1` sockets — a UNIX
/// socket, then loopback TCP — and requires on each bit-identity with the
/// in-process predictions plus fingerprint equality through the admin
/// health frame; the UNIX server must unlink its socket on exit.
#[cfg(target_os = "linux")]
fn wire_round_trip(
    model_path: &std::path::Path,
    model: &str,
    corpus_path: &std::path::Path,
    in_process: &[Option<f64>],
    reference: u64,
    out: &std::path::Path,
) {
    use palmed_wire::{Engine, Limits, WireClient, WireServer};
    use std::sync::Arc;

    let registry = Arc::new(ModelRegistry::new());
    registry.load_file(model_path).expect("wire registry reloads the saved artifact");
    let limits = Limits { max_payload: 16 << 20, ..Limits::default() };
    let corpus_text = std::fs::read_to_string(corpus_path).expect("corpus rereads");
    let probe = WireProbe { model, corpus_text: &corpus_text, in_process, reference };

    let socket = out.join("wire.sock");
    let server = WireServer::bind(&socket, Engine::new(Arc::clone(&registry)), limits)
        .expect("wire server binds");
    let unix_in = probe.run("UNIX", server, || WireClient::connect(&socket));
    if socket.exists() {
        eprintln!("FATAL: wire server left its socket file behind");
        std::process::exit(1);
    }

    let server = WireServer::bind_tcp(
        std::net::SocketAddrV4::new(std::net::Ipv4Addr::LOCALHOST, 0),
        Engine::new(Arc::clone(&registry)),
        limits,
    )
    .expect("wire server binds a loopback TCP listener");
    let tcp_addr = server.tcp_addr().expect("TCP transport reports its bound address");
    let tcp_in = probe.run("TCP", server, || WireClient::connect_tcp(tcp_addr));

    println!(
        "[9/9] wire round trip: {} blocks served bit-identically to the in-process \
         predictions over {} in {unix_in:.2?} and over TCP {tcp_addr} in {tcp_in:.2?}; admin \
         health fingerprint {reference:016x} on both; servers drained, the UNIX socket unlinked",
        in_process.len(),
        socket.display()
    );
}

/// The step-9 checks one wire server must pass.
#[cfg(target_os = "linux")]
struct WireProbe<'a> {
    model: &'a str,
    corpus_text: &'a str,
    in_process: &'a [Option<f64>],
    reference: u64,
}

#[cfg(target_os = "linux")]
impl WireProbe<'_> {
    /// Runs `server`, round-trips the probe corpus and an admin health
    /// query through a client from `connect`, then stops the server and
    /// waits for its drain.  Returns the corpus round-trip time.
    fn run(
        &self,
        transport: &str,
        server: palmed_wire::WireServer,
        connect: impl Fn() -> std::io::Result<palmed_wire::WireClient>,
    ) -> std::time::Duration {
        use palmed_wire::Frame;

        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || server.run());
        // The socket is bound before the thread spawns; retry only rides
        // out accept-queue startup.
        let mut client = loop {
            match connect() {
                Ok(client) => break client,
                Err(_) => std::thread::yield_now(),
            }
        };

        let start = Instant::now();
        let reply = client
            .call(&Frame::Request {
                req_id: 1,
                model: self.model.to_string(),
                corpus: self.corpus_text.to_string(),
            })
            .expect("wire round trip");
        let elapsed = start.elapsed();
        let rows = match reply {
            Frame::Response { req_id: 1, rows } => rows,
            other => {
                eprintln!(
                    "FATAL: {transport} wire reply was not the response to request 1: {other:?}"
                );
                std::process::exit(1);
            }
        };
        let mismatches = self
            .in_process
            .iter()
            .zip(&rows)
            .filter(|(a, b)| a.map(f64::to_bits) != b.map(f64::to_bits))
            .count();
        if rows.len() != self.in_process.len() || mismatches > 0 {
            eprintln!(
                "FATAL: {transport} wire served {} rows with {mismatches} mismatches against \
                 {} in-process predictions",
                rows.len(),
                self.in_process.len()
            );
            std::process::exit(1);
        }

        let health = client
            .call(&Frame::AdminRequest { req_id: 2, what: "health".to_string() })
            .expect("admin health round trip");
        let reference = self.reference;
        match health {
            Frame::AdminResponse { req_id: 2, body } => {
                if !body.contains(&format!("\"fingerprint\":\"{reference:016x}\"")) {
                    eprintln!(
                        "FATAL: {transport} admin health does not carry fingerprint \
                         {reference:016x}: {body}"
                    );
                    std::process::exit(1);
                }
            }
            other => {
                eprintln!(
                    "FATAL: {transport} admin health reply was not an admin response: {other:?}"
                );
                std::process::exit(1);
            }
        }

        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        handle.join().expect("wire server thread").expect("wire serve loop");
        elapsed
    }
}

#[cfg(not(target_os = "linux"))]
fn wire_round_trip(
    _model_path: &std::path::Path,
    _model: &str,
    _corpus_path: &std::path::Path,
    _in_process: &[Option<f64>],
    _reference: u64,
    _out: &std::path::Path,
) {
    println!("[9/9] wire round trip skipped (the UNIX-socket front-end is Linux-only)");
}
