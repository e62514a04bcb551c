//! `palmed-obs`: a zero-dependency observability layer for the PALMED
//! stack — lock-free metrics (counters, gauges, log2 histograms) behind a
//! global named registry, plus a lightweight span/event layer draining
//! per-thread ring buffers into a structured JSONL log.
//!
//! Hand-rolled under the same offline discipline as `palmed-par`: no
//! external crates, `std` atomics and locks only.
//!
//! # Gating
//!
//! Everything is off by default.  [`set_enabled`]`(true)` arms the layer
//! process-wide; until then every instrumentation site is a single relaxed
//! atomic load — the call-site cells created by [`counter!`], [`gauge!`]
//! and [`histogram!`] do not even *register* their metric (no allocation,
//! no lock) while disabled, [`event!`] does not build its field list, and
//! [`span`] does not read the clock.  `PALMED_OBS=1` in the environment
//! also enables it at first use, so binaries need no plumbing.
//!
//! # Usage
//!
//! ```
//! palmed_obs::set_enabled(true);
//! palmed_obs::counter!("demo.requests").inc();
//! let timer = palmed_obs::start_timer();
//! // ... the work being timed ...
//! palmed_obs::histogram!("demo.latency_ns").record_elapsed(timer);
//! palmed_obs::event!("demo.done", ok = true, n = 3u64);
//!
//! let snapshot = palmed_obs::snapshot();
//! assert_eq!(snapshot.counter("demo.requests"), Some(1));
//! let (events, _dropped) = palmed_obs::drain_events();
//! assert!(events.iter().any(|e| e.name == "demo.done"));
//! # palmed_obs::set_enabled(false);
//! ```
//!
//! # Metric reference
//!
//! Names recorded by the instrumented crates (`lp`, `core`, `serve`,
//! `eval`, `fuzz`).  C = counter, G = gauge, H = histogram (nanoseconds
//! unless noted).
//!
//! | Name | Kind | Meaning |
//! |------|------|---------|
//! | `lp.simplex.solves` | C | revised-simplex solves completed |
//! | `lp.simplex.failures` | C | solves that returned an error |
//! | `lp.simplex.iterations` | C | simplex pivots across all solves |
//! | `lp.simplex.refactorizations` | C | basis refactorizations |
//! | `lp.certify.checked` | C | simplex outcomes (optimal, infeasible, unbounded) checked against their duality certificate |
//! | `lp.certify.failed` | C | outcomes whose certificate failed (a solver defect; debug builds panic instead) |
//! | `trainer.benchmarks` | C | distinct kernels measured |
//! | `trainer.lp2.rounds` | C | LP2 alternation rounds executed |
//! | `span.trainer.select` | H | Phase 1 campaign/selection duration |
//! | `span.trainer.lp1` | H | LP1 shape-discovery duration |
//! | `span.trainer.lp2` | H | LP2 bipartite-weight solve duration |
//! | `span.trainer.lpaux` | H | LPAUX mapping-completion duration |
//! | `serve.batch.requests` | C | `BatchPredictor::serve` calls |
//! | `serve.batch.inputs` | C | input slots served (pre-dedup) |
//! | `serve.batch.distinct` | C | distinct kernels actually predicted |
//! | `serve.batch.dedup_hits` | C | inputs answered by dedup (`inputs − distinct`) |
//! | `serve.batch.serve_ns` | H | wall time of each serve call |
//! | `serve.ingest.prepared_batches` | C | `PreparedBatch` constructions |
//! | `serve.registry.installs` | C | models installed into a registry |
//! | `serve.registry.swaps` | C | generation-bumping snapshot swaps |
//! | `serve.registry.reloads` | C | successful file reloads |
//! | `serve.registry.readmits` | C | quarantined entries readmitted |
//! | `serve.registry.removes` | C | entries removed |
//! | `serve.registry.torn_read_retries` | C | stable-read retries after torn reads |
//! | `serve.registry.refresh.polls` | C | per-entry refresh inspections |
//! | `serve.registry.refresh.reloaded` | C | refreshes that picked up a new file |
//! | `serve.registry.refresh.errors` | C | refreshes that failed to reload |
//! | `serve.registry.refresh.backed_off` | C | polls skipped inside backoff |
//! | `serve.registry.refresh.quarantined` | C | polls skipped while quarantined |
//! | `serve.registry.entries` | G | entries in the current snapshot |
//! | `wire.connections` | C | wire connections opened |
//! | `wire.requests` | C | request/admin frames accepted in-flight |
//! | `wire.responses` | C | response/admin-response frames written |
//! | `wire.errors` | C | structured error frames written |
//! | `wire.shed.busy` | C | frames shed with `server-busy` at the in-flight cap |
//! | `wire.poisoned` | C | connections poisoned by a malformed frame |
//! | `wire.decode.corpus_memo_hits` | C | requests whose corpus equalled their connection's last one, so decode skipped its UTF-8 check |
//! | `wire.timeouts.deadline` | C | partial frames that hit the receive deadline |
//! | `wire.timeouts.idle` | C | connections closed by the idle timeout |
//! | `wire.timeouts.write_stall` | C | connections closed because their write backlog made no progress |
//! | `wire.request_ns` | H | wall time from the start of the serve round that answered the request to its reply being queued |
//! | `wire.batch.coalesced_requests` | C | prediction requests answered by a shared-batcher round |
//! | `wire.batch.distinct_kernels` | C | distinct kernels evaluated across batch serves |
//! | `wire.batch.snapshot_pins` | C | registry entries pinned (one resolve per model per round) |
//! | `wire.batch.corpus_cache_hits` | C | request corpora answered from the parse cache |
//! | `wire.batch.row_cache_hits` | C | prediction requests answered from rows their corpus-cache slot already held (no predict) |
//! | `wire.batch.batch_ns` | H | wall time of each entry group's batch serve |
//! | `wire.frontend.wakeups` | C | readiness-loop wakeups (`epoll_wait` returns) |
//! | `wire.frontend.pumps` | C | connection pumps run — the ready ones per wakeup, every one per timeout sweep |
//! | `eval.machines` | C | campaign machines evaluated |
//! | `eval.suites` | C | benchmark suites scored |
//! | `eval.blocks` | C | basic blocks scored across suites |
//! | `span.eval.machine` | H | one machine's full campaign duration |
//! | `fuzz.cases` | C | fuzz cases executed |
//! | `fuzz.accepted` | C | cases every decoder accepted |
//! | `fuzz.rejected` | C | cases rejected with a structured error |
//! | `fuzz.reject.<class>` | C | rejections by [`class`] (e.g. `checksum-mismatch`) |
//! | `fuzz.case_ns.<format>` | H | per-case duration by format (e.g. `model-v2b`) |
//!
//! [`class`]: https://docs.rs/palmed-serve (ArtifactError::class / CorpusError::class)
//!
//! # Event reference
//!
//! | Event | Fields | Emitted when |
//! |-------|--------|--------------|
//! | `span` | `span`, `ns` | a scoped span closes |
//! | `trainer.mapping_inferred` | `benchmarks`, `kernels` | `infer_subset` completes |
//! | `registry.install` | `key`, `generation` | a model is installed |
//! | `registry.swap` | `key`, `generation` | bytes hot-swapped over an entry |
//! | `registry.reload` | `key`, `generation` | a file reload succeeds |
//! | `registry.reload_failed` | `key`, `class`, `error` | a reload attempt fails |
//! | `registry.backoff` | `key`, `failures`, `backoff_polls` | failure schedules backoff |
//! | `registry.quarantine` | `key`, `failures` | an entry crosses the quarantine threshold |
//! | `registry.readmit` | `key` | `readmit` clears quarantine |
//! | `registry.torn_read_retry` | `path`, `attempt` | a stable read observes a torn file |
//! | `registry.remove` | `key` | an entry is removed |
//!
//! Snapshots render via [`Snapshot::render_prometheus`] /
//! [`Snapshot::render_json`]; events via [`events_to_jsonl`].  Both are
//! deterministic for fixed values (name-sorted maps, sequence-ordered
//! events).

mod metrics;
mod span;

pub use metrics::{
    counter, gauge, global, histogram, snapshot, start_timer, Counter, CounterCell, Gauge,
    GaugeCell, Histogram, HistogramCell, HistogramSnapshot, Metric, Registry, Snapshot,
    HISTOGRAM_BUCKETS,
};
pub use span::{drain_events, emit, events_to_jsonl, span, Event, FieldValue, Span, RING_CAPACITY};

use std::sync::atomic::{AtomicU8, Ordering};

// 0 = unresolved (consult PALMED_OBS on first read), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when the observability layer is armed.  This is the single gate
/// every instrumentation site checks; it is one relaxed atomic load on
/// every call after the first.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => resolve_from_env(),
    }
}

#[cold]
fn resolve_from_env() -> bool {
    let on = matches!(std::env::var("PALMED_OBS").as_deref(), Ok("1") | Ok("true") | Ok("on"));
    // Keep the first resolution even if another thread raced us; both read
    // the same environment, so the answer is identical.
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Arms (`true`) or disarms (`false`) the layer process-wide, overriding
/// `PALMED_OBS`.  Metrics registered while enabled keep their values when
/// disarmed; they just stop updating.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Declares a call-site [`CounterCell`] for a `&'static str` name and
/// returns `&'static CounterCell`.  The underlying metric is registered on
/// first *enabled* use; while disabled the cell is a single flag check.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: $crate::CounterCell = $crate::CounterCell::new($name);
        &CELL
    }};
}

/// Declares a call-site [`GaugeCell`] (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: $crate::GaugeCell = $crate::GaugeCell::new($name);
        &CELL
    }};
}

/// Declares a call-site [`HistogramCell`] (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: $crate::HistogramCell = $crate::HistogramCell::new($name);
        &CELL
    }};
}

/// Emits a structured [`Event`] with `key = value` fields, e.g.
/// `event!("registry.swap", key = key, generation = generation)`.  Values
/// go through [`FieldValue::from`]; nothing (including the field vector)
/// is built while observability is disabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Serialises unit tests that flip the global enabled flag; the harness
/// runs tests in parallel threads within one process.
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn cells_register_lazily_and_macros_expand() {
        let _guard = crate::test_flag_lock();
        // Run with the flag off first: nothing registers.
        crate::set_enabled(false);
        counter!("lib.test.counter").inc();
        gauge!("lib.test.gauge").set(1.0);
        histogram!("lib.test.histogram").record(9);
        let snapshot = crate::snapshot();
        assert_eq!(snapshot.counter("lib.test.counter"), None);
        assert_eq!(snapshot.gauge("lib.test.gauge"), None);
        assert!(snapshot.histogram("lib.test.histogram").is_none());

        // Flag on: same cells now register and record.
        crate::set_enabled(true);
        let c = counter!("lib.test.counter");
        c.inc();
        c.add(2);
        gauge!("lib.test.gauge").set(1.5);
        histogram!("lib.test.histogram").record(9);
        let timer = crate::start_timer();
        histogram!("lib.test.histogram").record_elapsed(timer);
        let snapshot = crate::snapshot();
        assert_eq!(snapshot.counter("lib.test.counter"), Some(3));
        assert_eq!(snapshot.gauge("lib.test.gauge"), Some(1.5));
        assert_eq!(snapshot.histogram("lib.test.histogram").map(|h| h.count), Some(2));
        crate::set_enabled(false);
    }
}
