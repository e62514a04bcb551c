//! Coverage-guided scheduling for the codec fuzzer.
//!
//! The uniform scheduler ([`run_many`](crate::run_many)) spends every case
//! on a fresh valid seed plus 1–3 mutations — it re-discovers the same
//! shallow rejections forever.  This module keeps a **seed queue** of
//! mutants that proved *interesting* — they produced a first-seen rejection
//! class or a first-seen `(class, offset bucket)` coverage pair
//! ([`crate::offset_bucket`]), or every decoder accepted them — and spends
//! most of its budget stacking further mutations onto queued entries
//! instead of starting over.  Selection is **energy-biased**: a queued
//! entry whose rejection class is rare (per the `fuzz.reject.<class>`
//! counters when the obs layer is armed, the scheduler's own mirror of them
//! otherwise) is picked proportionally more often, so the scheduler digs
//! where the codecs have been probed least.
//!
//! Everything stays deterministic for a given `(iters, seed)`: admission
//! never looks at case times, which only feed the `--stats` report.  Any
//! queued entry replays exactly — it records its origin case and full
//! mutation trail, and carries the literal bytes.
//! Violating cases are automatically **minimized** ([`minimize_with`])
//! before they are reported, so a finding arrives as the smallest byte
//! string that still trips the invariant.

use crate::{
    check_all, coverage_key, generate_case, inventory, rehash_binary, walk_disj, walk_v2b,
    CaseOutcome, Format, FuzzSummary, Violation,
};
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Queue capacity; beyond it the oldest entry is evicted (first-seen
/// coverage is monotone, so old entries have had their chance).
const MAX_QUEUE: usize = 256;

/// Queued mutant byte cap — repeated growth mutations stay bounded.
const MAX_ENTRY_BYTES: usize = 1 << 20;

/// XOR stream selector separating guided-phase RNG draws from the corpus
/// case numbering, so scheduling decisions never perturb case bytes.
const GUIDED_STREAM: u32 = 0x06d0_5eed;

/// Budget of predicate probes one minimization may spend.
const MINIMIZE_PROBES: u32 = 2048;

/// One queued interesting mutant.
#[derive(Debug, Clone)]
pub struct QueueEntry {
    /// Format of the seed lineage (drives which mutator applies).
    pub format: Format,
    /// The corpus case this lineage started from (deterministic replay
    /// anchor: `generate_case(format, origin_case)` is the root).
    pub origin_case: u32,
    /// The literal mutant bytes.
    pub bytes: Vec<u8>,
    /// Full mutation trail from the valid seed to these bytes.
    pub mutations: Vec<String>,
    /// Why the entry was admitted (`new-class:…`, `new-pair:…`, `accepted`).
    pub why: String,
    /// Rejection class that admitted it, when coverage-admitted — the
    /// energy-bias key.
    pub class: Option<&'static str>,
}

/// A violating case after automatic minimization.
#[derive(Debug, Clone)]
pub struct MinimizedCase {
    /// The violation, as found (pre-minimization mutation trail).
    pub violation: Violation,
    /// Byte length of the violating buffer as found.
    pub original_len: usize,
    /// Byte length after [`minimize_with`].
    pub minimized_len: usize,
    /// The minimized violating bytes.
    pub bytes: Vec<u8>,
}

/// Result of a guided run: the usual summary plus queue telemetry.
#[derive(Debug, Default)]
pub struct GuidedSummary {
    /// Aggregate case results, including the coverage set.
    pub summary: FuzzSummary,
    /// Queue size when the uniform warmup phase ended.
    pub initial_queue: usize,
    /// Queue size at exit (bounded by the eviction cap).
    pub final_queue: usize,
    /// Admissions during warmup (the initial corpus).
    pub admitted_warmup: usize,
    /// Total admissions over the whole run.  Strictly exceeding
    /// [`GuidedSummary::admitted_warmup`] means the guided phase kept
    /// finding novelty past the initial corpus — the CI smoke asserts it.
    pub admitted_total: usize,
    /// Cases spent on fresh corpus seeds.
    pub corpus_cases: u32,
    /// Cases spent mutating queued entries.
    pub mutated_cases: u32,
    /// Minimized violating cases (empty on a healthy codec).
    pub minimized: Vec<MinimizedCase>,
}

/// Greedy ddmin-style minimizer: repeatedly deletes chunks (halving the
/// chunk size down to single bytes) while `still_fails` keeps returning
/// `true`, bounded by an internal probe budget.  Returns the smallest
/// failing buffer found (the input itself if it does not fail).
pub fn minimize_with(bytes: &[u8], mut still_fails: impl FnMut(&[u8]) -> bool) -> Vec<u8> {
    let mut current = bytes.to_vec();
    if current.is_empty() || !still_fails(&current) {
        return current;
    }
    let mut probes = 0u32;
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut at = 0;
        while at < current.len() && probes < MINIMIZE_PROBES {
            let end = (at + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - at));
            candidate.extend_from_slice(&current[..at]);
            candidate.extend_from_slice(&current[end..]);
            probes += 1;
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
            } else {
                at = end;
            }
        }
        if chunk == 1 || probes >= MINIMIZE_PROBES {
            return current;
        }
        chunk = (chunk / 2).max(1);
    }
}

/// How often a rejection class has been seen: the armed obs counter when
/// available (`fuzz.reject.<class>`), the scheduler's own tally otherwise.
fn class_count(class: &'static str, local: &BTreeMap<&'static str, u64>) -> u64 {
    if palmed_obs::enabled() {
        palmed_obs::counter(&format!("fuzz.reject.{class}")).get()
    } else {
        local.get(class).copied().unwrap_or(0)
    }
}

/// Picks a queue index, weighted toward entries whose admitting rejection
/// class is rare: weight `1 + min(total/(count+1), 64)`.
fn pick_base(
    queue: &[QueueEntry],
    local_counts: &BTreeMap<&'static str, u64>,
    rng: &mut TestRng,
) -> usize {
    let total: u64 =
        queue.iter().filter_map(|e| e.class).map(|c| class_count(c, local_counts)).sum();
    let weights: Vec<u64> = queue
        .iter()
        .map(|e| match e.class {
            Some(class) => 1 + (total / (class_count(class, local_counts) + 1)).min(64),
            None => 1,
        })
        .collect();
    let sum: u64 = weights.iter().sum();
    let mut pick = rng.next_u64() % sum.max(1);
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    queue.len() - 1
}

/// Blind byte-level mutations for lineages whose bytes no longer walk as
/// their format: truncate, grow (up to 256 bytes — the offset-depth
/// explorer), flip, splice, and an optional trailer re-hash so grown
/// buffers still reach the structural validators.
fn mutate_blind(bytes: &[u8], rng: &mut TestRng) -> (Vec<u8>, Vec<String>) {
    let mut out = bytes.to_vec();
    let mut log = Vec::new();
    for _ in 0..rng.usize_in(1, 3) {
        match rng.usize_in(0, 3) {
            0 if out.len() > 1 => {
                let at = rng.usize_in(0, out.len() - 1);
                out.truncate(at);
                log.push(format!("truncate@{at}"));
            }
            1 if !out.is_empty() => {
                let at = rng.usize_in(0, out.len() - 1);
                out[at] ^= 1 << rng.usize_in(0, 7);
                log.push(format!("flip@{at}"));
            }
            2 if out.len() >= 2 => {
                let len = rng.usize_in(1, out.len().min(16));
                let src = rng.usize_in(0, out.len() - len);
                let dst = rng.usize_in(0, out.len() - len);
                let chunk = out[src..src + len].to_vec();
                out[dst..dst + len].copy_from_slice(&chunk);
                log.push(format!("splice@{src}->{dst}+{len}"));
            }
            _ => {
                let n = rng.usize_in(1, 256);
                for _ in 0..n {
                    out.push(rng.next_u64() as u8);
                }
                log.push(format!("grow+{n}"));
            }
        }
    }
    if out.len() > 24 && rng.next_f64() < 0.5 {
        rehash_binary(&mut out);
        log.push("rehash".to_string());
    }
    (out, log)
}

/// Coverage-**directed** mutation: truncate the buffer at an offset inside
/// an offset bucket ([`crate::offset_bucket`]) no rejection has landed in
/// yet, re-hashing the trailer so the structural validators (not the
/// checksum) see the damage.  A truncation at offset `at` produces a
/// rejection at ≈`at`, so sweeping uncovered buckets this way reaches
/// `(class, bucket)` pairs a uniform scheduler only ever samples by luck —
/// the mechanism behind the guided scheduler's strictly-greater coverage.
/// Returns `None` when every bucket reachable within this buffer is
/// already covered.
fn mutate_directed(
    bytes: &[u8],
    covered: &std::collections::BTreeSet<(&'static str, u32)>,
    rng: &mut TestRng,
) -> Option<(Vec<u8>, Vec<String>)> {
    let len = bytes.len();
    if len < 16 {
        return None;
    }
    let bucket_covered = |bucket: u32| covered.iter().any(|(_, b)| *b == bucket);
    let mut targets: Vec<usize> = Vec::new();
    for bucket in 0..16u32 {
        let lo = 4 * bucket as usize;
        if lo >= len {
            break;
        }
        if !bucket_covered(bucket) {
            targets.push(lo + rng.usize_in(0, 3.min(len - lo - 1)));
        }
    }
    let mut k = 6u32; // offsets >= 64 land in bucket 16 + log2(offset)
    while (1usize << k) < len {
        let lo = 1usize << k;
        let hi = ((1usize << (k + 1)) - 1).min(len - 1);
        if !bucket_covered(16 + k) {
            targets.push(rng.usize_in(lo, hi));
        }
        k += 1;
    }
    if targets.is_empty() {
        return None;
    }
    let at = targets[rng.usize_in(0, targets.len() - 1)];
    // Two ways to plant an error near `at`: cut the buffer there (the
    // rejection lands at the start of the field the cut falls in), or
    // corrupt the byte in place (the rejection lands at the field itself
    // when `at` starts one).  Both matter: field starts shift with each
    // buffer's string lengths and counts, so the two probes cover
    // different bucket/shape combinations.
    let (mut out, mut ops) = if rng.next_f64() < 0.5 {
        (bytes[..at].to_vec(), vec![format!("truncate@{at}(directed)")])
    } else {
        let mut out = bytes.to_vec();
        out[at] ^= 0x80 | (rng.next_u64() as u8 & 0x7f);
        (out, vec![format!("corrupt@{at}(directed)")])
    };
    // Re-hashing writes the trailer over the last 8 bytes; on a short
    // truncation that clobbers the very prefix being aimed at, so leave
    // short buffers alone (their parse fails before any checksum check).
    if out.len() >= 24 {
        rehash_binary(&mut out);
        ops.push("rehash".to_string());
    }
    Some((out, ops))
}

/// Stacks further mutations onto a queued entry: structure-aware while the
/// bytes still walk as their format, blind otherwise.
fn mutate_queued(entry: &QueueEntry, rng: &mut TestRng) -> (Vec<u8>, Vec<String>) {
    // Even a structurally-walkable buffer takes the blind path sometimes:
    // structure-aware mutation keeps edits inside the layout the walker
    // sees, while offset-depth novelty often lives past it.
    if rng.next_f64() < 0.3 {
        return mutate_blind(&entry.bytes, rng);
    }
    match entry.format {
        Format::ModelV2b => {
            if let Some(layout) = walk_v2b(&entry.bytes) {
                return crate::mutate_binary(&entry.bytes, &layout, rng);
            }
        }
        Format::Disj => {
            if let Some(layout) = walk_disj(&entry.bytes) {
                return crate::mutate_binary(&entry.bytes, &layout, rng);
            }
        }
        Format::ModelV1 => {
            if let Ok(text) = std::str::from_utf8(&entry.bytes) {
                return crate::mutate_text(text, true, rng);
            }
        }
        Format::Corpus => {
            if let Ok(text) = std::str::from_utf8(&entry.bytes) {
                return crate::mutate_text(text, false, rng);
            }
        }
    }
    mutate_blind(&entry.bytes, rng)
}

/// Runs `iters` coverage-guided cases starting at corpus case `seed`.
///
/// The first `iters/8` cases are a uniform warmup identical to
/// [`run_many`](crate::run_many)'s schedule; interesting mutants seed the
/// queue (the initial corpus).  After warmup ~75 % of cases stack
/// mutations onto energy-weighted queue picks and ~25 % keep drawing fresh
/// corpus cases so the valid-seed neighborhood stays covered.  Compare
/// `result.summary.coverage` against the uniform scheduler's at the same
/// `(iters, seed)` — the guided run reaches strictly more distinct
/// `(class, offset bucket)` pairs (asserted by the CI smoke).
pub fn run_guided(iters: u32, seed: u32) -> GuidedSummary {
    let insts = inventory();
    let mut result = GuidedSummary::default();
    let mut queue: Vec<QueueEntry> = Vec::new();
    let mut local_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let warmup = (iters / 8).max(1);

    for i in 0..iters {
        let case = seed.wrapping_add(i);
        let mut sched_rng = TestRng::for_case(case ^ GUIDED_STREAM);
        let warm = i < warmup;
        let fresh = warm || queue.is_empty() || sched_rng.next_f64() < 0.25;

        let started = Instant::now();
        let (format, origin_case, bytes, trail, outcome) = if fresh {
            result.corpus_cases += 1;
            let format = Format::ALL[(i % 4) as usize];
            let (seed_buf, mut mutant, mut mutations) = generate_case(format, case, &insts);
            // Half the fresh cases aim their mutation at an uncovered
            // offset bucket instead of mutating blind: every fresh seed is
            // a new field layout, and layout diversity is what lets a
            // truncation actually land a rejection in the targeted bucket.
            if !warm && sched_rng.next_f64() < 0.5 {
                if let Some((directed, ops)) =
                    mutate_directed(&seed_buf, &result.summary.coverage, &mut sched_rng)
                {
                    mutant = directed;
                    mutations = ops;
                }
            }
            let mut outcome = CaseOutcome::default();
            let mut details = Vec::new();
            check_all(&seed_buf, &insts, &mut outcome, |d| details.push(("<unmutated seed>", d)));
            check_all(&mutant, &insts, &mut outcome, |d| details.push(("mutant", d)));
            for (stage, detail) in details {
                let mutations =
                    if stage == "mutant" { mutations.clone() } else { vec![stage.to_string()] };
                outcome.violations.push(Violation { format, case, mutations, detail });
            }
            (format, case, mutant, mutations, outcome)
        } else {
            result.mutated_cases += 1;
            // A queued case spends its budget on two probes (the budget a
            // fresh case spends re-checking its known-valid seed): one
            // aimed at an uncovered offset bucket from a uniformly-drawn
            // base (shape diversity is what moves field boundaries into
            // the targeted bucket), one stacked onto the rarity-weighted
            // energy pick.
            let aimed = {
                let at = sched_rng.usize_in(0, queue.len() - 1);
                mutate_directed(&queue[at].bytes, &result.summary.coverage, &mut sched_rng)
                    .map(|probe| (at, probe))
            };
            let base = pick_base(&queue, &local_counts, &mut sched_rng);
            let stacked = (base, mutate_queued(&queue[base], &mut sched_rng));
            let mut outcome = CaseOutcome::default();
            let mut kept = None;
            for (at, (mutant, new_ops)) in aimed.into_iter().chain([stacked]) {
                let entry = &queue[at];
                let mut trail = entry.mutations.clone();
                trail.extend(new_ops);
                let mut details = Vec::new();
                check_all(&mutant, &insts, &mut outcome, |d| details.push(d));
                for detail in details {
                    outcome.violations.push(Violation {
                        format: entry.format,
                        case: entry.origin_case,
                        mutations: trail.clone(),
                        detail,
                    });
                }
                kept = Some((entry.format, entry.origin_case, mutant, trail));
            }
            let (format, origin_case, mutant, trail) = kept.expect("at least the stacked probe");
            (format, origin_case, mutant, trail, outcome)
        };
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        palmed_obs::counter!("fuzz.cases").inc();
        palmed_obs::counter!("fuzz.accepted").add(u64::from(outcome.accepted));
        palmed_obs::counter!("fuzz.rejected").add(u64::from(outcome.rejected));
        if palmed_obs::enabled() {
            palmed_obs::histogram(&format!("fuzz.case_ns.{format}")).record(ns);
        }

        // Minimize any violating buffer before it is reported.
        for violation in outcome.violations.clone() {
            let minimized = minimize_with(&bytes, |candidate| {
                let mut probe = CaseOutcome::default();
                let mut failed = false;
                check_all(candidate, &insts, &mut probe, |_| failed = true);
                failed
            });
            result.minimized.push(MinimizedCase {
                violation,
                original_len: bytes.len(),
                minimized_len: minimized.len(),
                bytes: minimized,
            });
        }

        // Admission: first-seen class, first-seen coverage pair, or a
        // mutant every decoder accepted.
        let mut why: Option<(String, Option<&'static str>)> = None;
        for record in &outcome.rejections {
            let pair = coverage_key(record);
            if why.is_none() {
                if !local_counts.contains_key(record.class) {
                    why = Some((format!("new-class:{}", record.class), Some(record.class)));
                } else if !result.summary.coverage.contains(&pair) {
                    why = Some((format!("new-pair:{}@{}", pair.0, pair.1), Some(record.class)));
                }
            }
            *local_counts.entry(record.class).or_insert(0) += 1;
        }
        if why.is_none()
            && outcome.rejected == 0
            && outcome.accepted > 0
            && sched_rng.next_f64() < 0.25
        {
            // A mutant every decoder accepted: the most productive base a
            // lineage can have — the next mutation lands a *fresh* first
            // error instead of re-tripping an existing one.
            why = Some(("accepted".to_string(), None));
        }

        result.summary.note_case_time(format, origin_case, ns);
        result.summary.absorb(outcome);

        if let Some((why, class)) = why {
            result.admitted_total += 1;
            if warm {
                result.admitted_warmup += 1;
            }
            if queue.len() >= MAX_QUEUE {
                queue.remove(0);
            }
            let mut bytes = bytes;
            bytes.truncate(MAX_ENTRY_BYTES);
            queue.push(QueueEntry { format, origin_case, bytes, mutations: trail, why, class });
        }
        if i + 1 == warmup {
            result.initial_queue = queue.len();
        }
    }
    result.final_queue = queue.len();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizer_shrinks_to_the_failing_core() {
        // "Fails" iff the buffer still contains the 0x7f marker byte.
        let mut bytes = vec![0u8; 500];
        bytes[250] = 0x7f;
        let minimized = minimize_with(&bytes, |b| b.contains(&0x7f));
        assert_eq!(minimized, vec![0x7f], "exactly the failing byte survives");
        // A healthy buffer comes back untouched.
        let healthy = vec![1u8, 2, 3];
        assert_eq!(minimize_with(&healthy, |b| b.contains(&0x7f)), healthy);
    }

    #[test]
    fn guided_run_is_clean_and_grows_its_queue() {
        let result = run_guided(400, 700_000);
        assert!(result.minimized.is_empty(), "violations: {:?}", result.minimized);
        assert!(result.summary.violations.is_empty());
        assert_eq!(result.summary.cases, 400);
        assert_eq!(result.corpus_cases + result.mutated_cases, 400);
        assert!(result.mutated_cases > 0, "guided phase must mutate queued entries");
        assert!(result.final_queue > 0, "interesting mutants must be admitted");
        assert!(result.admitted_total >= result.admitted_warmup);
        assert!(!result.summary.coverage.is_empty());
    }

    #[test]
    fn guided_beats_uniform_coverage_at_the_ci_seed() {
        // The acceptance bar the CI smoke holds the scheduler to, scaled
        // down: strictly more distinct (class, offset-bucket) pairs than
        // the uniform scheduler at the same seed.
        let uniform = crate::run_many(600, 1);
        let guided = run_guided(600, 1);
        assert!(
            guided.summary.coverage.len() > uniform.coverage.len(),
            "guided {} pairs <= uniform {} pairs",
            guided.summary.coverage.len(),
            uniform.coverage.len()
        );
    }
}
