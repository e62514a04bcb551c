//! Wire-plane throughput bench: req/sec and server round-time quantile
//! bounds at several concurrency points, recorded as `BENCH_wire.json`.
//!
//! The matrix is concurrency only — {1, 4, 16} clients over a loopback
//! UNIX socket against the one serve path (epoll readiness loop plus the
//! shared batcher), each client synchronously round-tripping the same
//! `PALMED-CORPUS v1` request.  Two in-process rows pin the floor the wire
//! numbers are judged against: `parse_and_predict` (a parse plus a
//! predict per request, the cost of serving without the batcher's corpus
//! cache) and `predict_prepared` (the steady-state predictor alone).  A
//! final scenario holds 32 *idle* connections open next to one active
//! client and reports connection pumps per wakeup — the readiness loop
//! must pump only the ready connections, not re-walk the idle ones.
//!
//! Every scenario's first reply is checked bit-identical to the in-process
//! predictions, so the numbers can never come from serving wrong rows.
//!
//! Output rows (`{"bench", "ns_per_iter"}`, flat like the other
//! `BENCH_*.json` files):
//!
//! * `wire_throughput/c<N>` — aggregate wall time per request at N
//!   concurrent clients;
//! * `wire_round_bound/c<N>/p50|p99` — log2-bucket upper bounds of the
//!   server round time (`wire.request_ns`: round start to reply queued),
//!   *not* client-observed latency;
//! * `wire_throughput/inprocess/...` — the no-socket floors;
//! * `wire_frontend/pumps_per_wakeup` — idle-connection scan cost (a
//!   ratio, not nanoseconds: connections pumped per wakeup).
//!
//! Usage: `cargo run --release -p palmed-bench --bin wire_throughput -- \
//!     [--smoke] [--out FILE]`
//!
//! `--smoke` runs a reduced matrix in well under a second and writes no
//! file — it is the CI gate.  It asserts, within the one run, that the
//! median wall time per request at 4 clients stays below the median
//! in-process `parse_and_predict` floor, both sampled in alternating blocks
//! so a transient load spike lands on both sides of the comparison, and
//! that the readiness loop pumps fewer than a quarter of the idle
//! connections per wakeup.  The default (full) run
//! writes `BENCH_wire.json` to the working directory (or `--out`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_wire.json".to_string());
    run(smoke, &out)
}

#[cfg(target_os = "linux")]
fn run(smoke: bool, out: &str) -> ExitCode {
    use linux::Params;
    let params = if smoke { Params::smoke() } else { Params::full() };
    linux::run(params, smoke, out)
}

#[cfg(not(target_os = "linux"))]
fn run(_smoke: bool, _out: &str) -> ExitCode {
    println!("wire_throughput: skipped (the UNIX-socket wire plane is Linux-only)");
    ExitCode::SUCCESS
}

#[cfg(target_os = "linux")]
mod linux {
    use palmed_core::ConjunctiveMapping;
    use palmed_isa::{InstId, InstructionSet};
    use palmed_serve::{Corpus, ModelArtifact, ModelRegistry, PreparedBatch};
    use palmed_wire::{Engine, Frame, Limits, WireClient, WireServer};
    use std::process::ExitCode;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Instant;

    /// Workload sizes for one run.
    pub struct Params {
        /// Corpus blocks per request (parse cost scales with this).
        blocks: usize,
        /// Synchronous round trips per client.
        iters: usize,
        /// Concurrency points of the wire matrix.
        clients: &'static [usize],
        /// Idle connections held open in the front-end scan scenarios.
        idle_conns: usize,
        /// Round trips the active client makes in the scan scenarios.
        idle_iters: usize,
    }

    impl Params {
        pub fn full() -> Params {
            Params { blocks: 2000, iters: 30, clients: &[1, 4, 16], idle_conns: 32, idle_iters: 50 }
        }

        pub fn smoke() -> Params {
            Params { blocks: 300, iters: 5, clients: &[1, 4], idle_conns: 32, idle_iters: 10 }
        }
    }

    const MODEL: &str = "wire-bench";

    /// Alternating floor / 4-client sample blocks the smoke gate compares
    /// by their medians.
    const SMOKE_BLOCKS: usize = 9;

    /// The median of a non-empty sample.
    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    /// A mapping covering all six paper-inventory mnemonics, so every
    /// served row is `Some`.
    fn bench_artifact() -> ModelArtifact {
        let mut mapping = ConjunctiveMapping::with_resources(2);
        for (id, usage) in [(0, 0.5), (1, 0.2), (2, 0.25), (3, 0.4), (4, 0.1), (5, 0.125)] {
            mapping.set_usage(InstId(id), vec![usage, usage / 2.0]);
        }
        ModelArtifact::new(MODEL, "wire-bench", InstructionSet::paper_example(), mapping)
    }

    /// A redundant corpus: `blocks` token-heavy lines cycling through ~96
    /// distinct kernels, so request cost is parse-dominated — exactly the
    /// regime the shared batcher's corpus cache and single-predict round
    /// target.
    fn corpus_text(blocks: usize) -> String {
        let mut text = String::from("PALMED-CORPUS v1\n");
        for i in 0..blocks {
            let a = i % 4 + 1;
            let d = (i / 4) % 4 + 1;
            let j = (i / 16) % 3 + 2;
            let v = (i / 48) % 2 + 1;
            text.push_str(&format!(
                "b{i} 1 ADDSS×{a} DIVPS×{d} JNLE×{j} VCVTT×{v} BSR×{a} JMP×{d}\n"
            ));
        }
        text
    }

    /// One recorded row of the flat `BENCH_*.json` format.
    struct Row {
        bench: String,
        ns_per_iter: f64,
    }

    fn render_rows(rows: &[Row]) -> String {
        let mut json = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            json.push_str(&format!(
                "  {{\"bench\": \"{}\", \"ns_per_iter\": {:.1}}}{sep}\n",
                row.bench, row.ns_per_iter
            ));
        }
        json.push(']');
        json.push('\n');
        json
    }

    struct Measured {
        ns_per_request: f64,
        p50_ns: u64,
        p99_ns: u64,
    }

    /// The `wire.request_ns` delta between two snapshots, as a quantile
    /// source (bucket-wise subtraction; the quantile walk only reads
    /// `count` and `buckets`).
    fn histogram_delta(
        before: &palmed_obs::HistogramSnapshot,
        after: &palmed_obs::HistogramSnapshot,
    ) -> palmed_obs::HistogramSnapshot {
        palmed_obs::HistogramSnapshot {
            count: after.count - before.count,
            sum: after.sum - before.sum,
            max: after.max,
            buckets: after
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &b)| b - before.buckets.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }

    fn request_histogram() -> palmed_obs::HistogramSnapshot {
        palmed_obs::snapshot().histogram("wire.request_ns").cloned().unwrap_or(
            palmed_obs::HistogramSnapshot { count: 0, sum: 0, max: 0, buckets: Vec::new() },
        )
    }

    /// Runs one wire scenario: a fresh server on a fresh socket, `clients`
    /// synchronous clients each round-tripping `iters` requests.
    fn run_scenario(
        clients: usize,
        registry: &Arc<ModelRegistry>,
        corpus: &str,
        iters: usize,
        reference: &Arc<Vec<Option<f64>>>,
    ) -> Measured {
        let socket = std::env::temp_dir().join(format!("palmed-wire-bench-c{clients}.sock"));
        std::fs::remove_file(&socket).ok();
        let limits = Limits { max_payload: 16 << 20, ..Limits::default() };
        let server = WireServer::bind(&socket, Engine::new(Arc::clone(registry)), limits)
            .expect("bench server binds");
        let stop = server.stop_handle();
        let server_thread = std::thread::spawn(move || server.run());

        let before = request_histogram();
        let start = Instant::now();
        let mut workers = Vec::new();
        for worker in 0..clients {
            let socket = socket.clone();
            let corpus = corpus.to_string();
            let reference = Arc::clone(reference);
            workers.push(std::thread::spawn(move || {
                let mut client = loop {
                    match WireClient::connect(&socket) {
                        Ok(client) => break client,
                        Err(_) => std::thread::yield_now(),
                    }
                };
                for i in 0..iters {
                    let req_id = (worker * iters + i) as u32 + 1;
                    let reply = client
                        .call(&Frame::Request {
                            req_id,
                            model: MODEL.to_string(),
                            corpus: corpus.clone(),
                        })
                        .expect("bench round trip");
                    match reply {
                        Frame::Response { req_id: got, rows } => {
                            assert_eq!(got, req_id, "replies stay in request order");
                            if i == 0 {
                                let mismatches = reference
                                    .iter()
                                    .zip(&rows)
                                    .filter(|(a, b)| a.map(f64::to_bits) != b.map(f64::to_bits))
                                    .count();
                                assert!(
                                    rows.len() == reference.len() && mismatches == 0,
                                    "wire rows must be bit-identical to the in-process floor"
                                );
                            }
                        }
                        other => panic!("bench reply was not a response: {other:?}"),
                    }
                }
            }));
        }
        for worker in workers {
            worker.join().expect("bench client thread");
        }
        let elapsed = start.elapsed();
        let after = request_histogram();

        stop.store(true, Ordering::SeqCst);
        server_thread.join().expect("bench server thread").expect("bench serve loop");

        let total = (clients * iters) as f64;
        let delta = histogram_delta(&before, &after);
        assert_eq!(delta.count, total as u64, "every request lands in wire.request_ns");
        Measured {
            ns_per_request: elapsed.as_nanos() as f64 / total,
            p50_ns: delta.quantile_bound(0.50),
            p99_ns: delta.quantile_bound(0.99),
        }
    }

    /// Front-end scan cost: `idle_conns` silent connections plus one
    /// active client; returns connections pumped per wakeup.
    fn run_idle_scan(
        registry: &Arc<ModelRegistry>,
        corpus: &str,
        idle_conns: usize,
        iters: usize,
    ) -> f64 {
        let socket = std::env::temp_dir().join("palmed-wire-bench-idle.sock");
        std::fs::remove_file(&socket).ok();
        let limits = Limits { max_payload: 16 << 20, ..Limits::default() };
        let server = WireServer::bind(&socket, Engine::new(Arc::clone(registry)), limits)
            .expect("bench server binds");
        let stop = server.stop_handle();
        let server_thread = std::thread::spawn(move || server.run());

        let mut client = loop {
            match WireClient::connect(&socket) {
                Ok(client) => break client,
                Err(_) => std::thread::yield_now(),
            }
        };
        let idle: Vec<WireClient> = (0..idle_conns)
            .map(|_| loop {
                match WireClient::connect(&socket) {
                    Ok(client) => break client,
                    Err(_) => std::thread::yield_now(),
                }
            })
            .collect();
        // One round trip makes sure every idle connection is accepted and
        // registered before the measured window opens.
        let _ = client
            .call(&Frame::AdminRequest { req_id: 1, what: "health".to_string() })
            .expect("warm-up round trip");

        let snapshot = palmed_obs::snapshot();
        let pumps_before = snapshot.counter("wire.frontend.pumps").unwrap_or(0);
        let wakeups_before = snapshot.counter("wire.frontend.wakeups").unwrap_or(0);
        for i in 0..iters {
            let reply = client
                .call(&Frame::Request {
                    req_id: i as u32 + 2,
                    model: MODEL.to_string(),
                    corpus: corpus.to_string(),
                })
                .expect("idle-scan round trip");
            assert!(matches!(reply, Frame::Response { .. }));
        }
        let snapshot = palmed_obs::snapshot();
        let pumps = snapshot.counter("wire.frontend.pumps").unwrap_or(0) - pumps_before;
        let wakeups = snapshot.counter("wire.frontend.wakeups").unwrap_or(0) - wakeups_before;

        drop(idle);
        drop(client);
        stop.store(true, Ordering::SeqCst);
        server_thread.join().expect("bench server thread").expect("bench serve loop");
        pumps as f64 / wakeups.max(1) as f64
    }

    pub fn run(params: Params, smoke: bool, out: &str) -> ExitCode {
        palmed_obs::set_enabled(true);
        let registry = Arc::new(ModelRegistry::new());
        registry.register(bench_artifact());
        let corpus = corpus_text(params.blocks);

        // The in-process floors — and the reference rows every wire reply
        // is checked against.
        let entry = registry.get(MODEL).expect("bench model registered");
        let served = entry.model();
        let instructions = &served.instructions;
        let batch = served.batch();
        let parsed = Corpus::parse(&corpus, instructions).expect("bench corpus parses");
        let prepared = PreparedBatch::from_corpus(&parsed);
        let reference = Arc::new(batch.predict_prepared(&prepared).ipcs);

        let floor_iters = if smoke { 5 } else { 50 };
        let parse_and_predict = || {
            let start = Instant::now();
            for _ in 0..floor_iters {
                let parsed = Corpus::parse(&corpus, instructions).expect("bench corpus parses");
                let prepared = PreparedBatch::from_corpus(&parsed);
                let _ = batch.predict_prepared(&prepared);
            }
            start.elapsed().as_nanos() as f64 / floor_iters as f64
        };
        let parse_and_predict_ns = parse_and_predict();
        let start = Instant::now();
        for _ in 0..floor_iters {
            let _ = batch.predict_prepared(&prepared);
        }
        let predict_prepared_ns = start.elapsed().as_nanos() as f64 / floor_iters as f64;

        let mut rows = vec![
            Row {
                bench: "wire_throughput/inprocess/parse_and_predict".to_string(),
                ns_per_iter: parse_and_predict_ns,
            },
            Row {
                bench: "wire_throughput/inprocess/predict_prepared".to_string(),
                ns_per_iter: predict_prepared_ns,
            },
        ];
        println!(
            "wire_throughput: in-process floor {:.0}µs parse+predict, {:.1}µs predict_prepared \
             ({} blocks)",
            parse_and_predict_ns / 1e3,
            predict_prepared_ns / 1e3,
            params.blocks
        );

        // The wire matrix.
        for &clients in params.clients {
            let measured = run_scenario(clients, &registry, &corpus, params.iters, &reference);
            println!(
                "wire_throughput: c{clients}: {:.0} req/s, round bound p50 {:.0}µs, p99 {:.0}µs",
                1e9 / measured.ns_per_request,
                measured.p50_ns as f64 / 1e3,
                measured.p99_ns as f64 / 1e3
            );
            rows.push(Row {
                bench: format!("wire_throughput/c{clients}"),
                ns_per_iter: measured.ns_per_request,
            });
            rows.push(Row {
                bench: format!("wire_round_bound/c{clients}/p50"),
                ns_per_iter: measured.p50_ns as f64,
            });
            rows.push(Row {
                bench: format!("wire_round_bound/c{clients}/p99"),
                ns_per_iter: measured.p99_ns as f64,
            });
        }

        // Idle-connection scan cost of the readiness loop.
        let scan = run_idle_scan(&registry, &corpus, params.idle_conns, params.idle_iters);
        println!(
            "wire_throughput: idle scan ({} idle conns): {scan:.1} conns pumped per wakeup",
            params.idle_conns
        );
        rows.push(Row { bench: "wire_frontend/pumps_per_wakeup".to_string(), ns_per_iter: scan });

        if smoke {
            // Floor and 4-client samples alternate, so a load spike slows
            // both sides of the comparison instead of one.
            let (mut floors, mut wires) = (Vec::new(), Vec::new());
            for _ in 0..SMOKE_BLOCKS {
                floors.push(parse_and_predict());
                wires.push(
                    run_scenario(4, &registry, &corpus, params.iters, &reference).ns_per_request,
                );
            }
            let (floor, at_4) = (median(floors), median(wires));
            if at_4 >= floor {
                eprintln!(
                    "wire_throughput: FAIL: the median {at_4:.0} ns/req over the wire at 4 \
                     clients is not below the median in-process parse_and_predict floor \
                     ({floor:.0} ns) — the shared batcher must not pay a parse per request"
                );
                return ExitCode::FAILURE;
            }
            let scan_cap = params.idle_conns as f64 / 4.0;
            if scan >= scan_cap {
                eprintln!(
                    "wire_throughput: FAIL: the readiness loop pumped {scan:.1} conns/wakeup \
                     with {} idle connections (cap {scan_cap:.1}) — it must pump only ready \
                     connections",
                    params.idle_conns
                );
                return ExitCode::FAILURE;
            }
            println!(
                "wire_throughput: OK (smoke): c4 wire {:.2}x the parse_and_predict floor \
                 (medians of {SMOKE_BLOCKS} alternating blocks); {scan:.1} conns/wakeup with {} \
                 idle (cap {scan_cap:.0})",
                at_4 / floor,
                params.idle_conns
            );
        } else {
            std::fs::write(out, render_rows(&rows)).expect("bench output writes");
            println!("wire_throughput: wrote {} rows to {out}", rows.len());
        }
        ExitCode::SUCCESS
    }
}
