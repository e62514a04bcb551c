//! The obs metrics core under fire: concurrent hammering from `palmed-par`
//! worker threads must lose no update (atomics, not sampled estimates), and
//! snapshots must render deterministically for fixed values.
//!
//! These tests arm the global obs flag, so they live in their own
//! integration-test binary — the disabled-path guard runs as a separate
//! process (`obs_disabled.rs`).

use palmed_obs::{Histogram, HISTOGRAM_BUCKETS};

const WORKERS: usize = 8;
const PER_WORKER: u64 = 10_000;

#[test]
fn concurrent_hammering_loses_no_update() {
    palmed_obs::set_enabled(true);
    let counter = palmed_obs::counter("it.hammer.total");
    let histogram = palmed_obs::histogram("it.hammer.values");

    let workers: Vec<usize> = (0..WORKERS).collect();
    palmed_par::par_map(&workers, |_| {
        // Each worker resolves the same named metrics independently — the
        // registry must hand every thread the same underlying atomics.
        let counter = palmed_obs::counter("it.hammer.total");
        let histogram = palmed_obs::histogram("it.hammer.values");
        for v in 0..PER_WORKER {
            counter.inc();
            histogram.record(v);
        }
    });

    let total = WORKERS as u64 * PER_WORKER;
    assert_eq!(counter.get(), total, "every increment must land");
    let h = histogram.snapshot();
    assert_eq!(h.count, total, "every sample must land");
    assert_eq!(h.sum, WORKERS as u64 * (PER_WORKER * (PER_WORKER - 1) / 2));
    assert_eq!(h.max, PER_WORKER - 1);
    // Per-bucket counts are exact too: bucket i (i > 0) covers
    // 2^(i-1) ..= 2^i - 1, and every worker recorded 0..PER_WORKER once.
    assert_eq!(h.buckets[0], WORKERS as u64, "value 0 once per worker");
    for i in 1..HISTOGRAM_BUCKETS {
        let lo = Histogram::bucket_bound(i - 1) + 1;
        let hi = Histogram::bucket_bound(i);
        let in_range = hi.min(PER_WORKER - 1).saturating_sub(lo).wrapping_add(1);
        let expected = if lo >= PER_WORKER { 0 } else { WORKERS as u64 * in_range };
        assert_eq!(h.buckets[i], expected, "bucket {i} ({lo}..={hi})");
    }
}

#[test]
fn concurrent_cell_macros_count_exactly() {
    palmed_obs::set_enabled(true);
    let workers: Vec<usize> = (0..WORKERS).collect();
    palmed_par::par_map(&workers, |_| {
        for _ in 0..PER_WORKER {
            palmed_obs::counter!("it.hammer.cell").inc();
        }
    });
    let snapshot = palmed_obs::snapshot();
    assert_eq!(snapshot.counter("it.hammer.cell"), Some(WORKERS as u64 * PER_WORKER));
}

/// This test's own rows of `snapshot`: sibling tests in this binary write
/// other metrics to the global registry concurrently, so only the
/// `it.render.*` rows are stable between two snapshots.
fn own_rows(snapshot: &palmed_obs::Snapshot) -> palmed_obs::Snapshot {
    let mut own = snapshot.clone();
    own.counters.retain(|name, _| name.starts_with("it.render."));
    own.gauges.retain(|name, _| name.starts_with("it.render."));
    own.histograms.retain(|name, _| name.starts_with("it.render."));
    own
}

#[test]
fn snapshots_render_deterministically() {
    palmed_obs::set_enabled(true);
    palmed_obs::counter("it.render.b").add(2);
    palmed_obs::counter("it.render.a").add(1);
    palmed_obs::gauge("it.render.g").set(0.75);
    palmed_obs::histogram("it.render.h").record(1000);

    // One snapshot renders identically every time.
    let one = palmed_obs::snapshot();
    assert_eq!(one.render_prometheus(), one.render_prometheus());
    assert_eq!(one.render_json(), one.render_json());
    // A second snapshot agrees with the first on this test's rows.
    let (mine, again) = (own_rows(&one), own_rows(&palmed_obs::snapshot()));
    assert_eq!(mine.render_prometheus(), again.render_prometheus());
    assert_eq!(mine.render_json(), again.render_json());

    let prom = mine.render_prometheus();
    let a = prom.find("it_render_a 1").expect("counter a renders");
    let b = prom.find("it_render_b 2").expect("counter b renders");
    assert!(a < b, "metrics render in name order, independent of registration order");
    assert!(prom.contains("# TYPE it_render_h histogram"));
    assert!(prom.contains("it_render_h_count 1"));
    let json = mine.render_json();
    assert!(json.contains("\"it.render.g\":0.75"));
    assert!(json.contains("\"it.render.h\":{\"count\":1,\"sum\":1000,\"max\":1000"));
}

#[test]
fn spans_and_events_drain_in_sequence_order() {
    palmed_obs::set_enabled(true);
    {
        let _span = palmed_obs::span("it.section");
        palmed_obs::event!("it.inner", step = 1u64);
    }
    palmed_obs::event!("it.after", step = 2u64);

    let (events, _dropped) = palmed_obs::drain_events();
    // Other tests in this binary may have emitted events concurrently;
    // filter down to ours, which still must appear in emission order.
    let ours: Vec<&palmed_obs::Event> =
        events.iter().filter(|e| e.name.starts_with("it.") || e.name == "span").collect();
    let inner = ours.iter().position(|e| e.name == "it.inner").expect("inner event drained");
    let span_end = ours
        .iter()
        .position(|e| {
            e.name == "span"
                && matches!(e.field("span"), Some(palmed_obs::FieldValue::Str(s)) if s == "it.section")
        })
        .expect("span completion event drained");
    let after = ours.iter().position(|e| e.name == "it.after").expect("after event drained");
    assert!(inner < span_end, "the inner event precedes the span close");
    assert!(span_end < after, "the span close precedes later events");

    let h = palmed_obs::snapshot();
    let span_hist = h.histogram("span.it.section").expect("span records its histogram");
    assert!(span_hist.count >= 1);

    let jsonl = palmed_obs::events_to_jsonl(&events);
    assert!(jsonl.contains("\"event\":\"it.inner\""));
    assert!(jsonl.contains("\"step\":1"));
}
