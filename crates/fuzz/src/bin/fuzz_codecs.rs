//! Fixed-seed fuzz smoke for the artifact codecs.
//!
//! Runs `--iters` deterministic structure-aware mutation cases (default
//! 10 000) round-robin across the three input formats — the model's v1 text
//! and v2b binary forms and the corpus text — starting from case number
//! `--seed` (default 0).  Every case feeds every decoder entry point.
//! Exits non-zero if any codec invariant is violated — a panic, an
//! unstructured rejection, or an accepted buffer that does not re-encode
//! canonically.  CI runs this on every push.
//!
//! `--stats` enables the obs layer for the run and prints per-format case
//! counts and timing, the rejection-class histogram, and the slowest-case
//! report at exit; it changes no case and no scheduling decision.
//!
//! `--guided` additionally runs the coverage-guided scheduler
//! ([`palmed_fuzz::guided`]) at the same `(iters, seed)` and prints the
//! `(rejection class, offset bucket)` coverage comparison; the run fails
//! unless the guided scheduler's seed queue grew past its initial corpus
//! *and* it covered strictly more distinct pairs than the uniform
//! scheduler — the bar CI holds it to.
//!
//! `--replay <format>:<case>` re-executes one deterministic case verbosely
//! (mutation trail, then per-buffer accept/reject/violation detail) and
//! exits — the one-liner for digging into a `--stats` slowest-case entry
//! or a reported violation.

use palmed_fuzz::Format;
use std::process::ExitCode;

fn parse_flag(args: &[String], flag: &str, default: u32) -> Result<u32, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}")),
    }
}

/// Parses `--replay <format>:<case>`, e.g. `model-v2b:12345`.
fn parse_replay(args: &[String]) -> Result<Option<(Format, u32)>, String> {
    let Some(i) = args.iter().position(|a| a == "--replay") else { return Ok(None) };
    let spec = args.get(i + 1).ok_or("--replay needs a <format>:<case> value")?;
    let (name, case) = spec
        .split_once(':')
        .ok_or_else(|| format!("--replay `{spec}`: expected <format>:<case>"))?;
    let format = Format::from_name(name).ok_or_else(|| {
        let known: Vec<String> = Format::ALL.iter().map(ToString::to_string).collect();
        format!("--replay `{name}`: unknown format (one of {})", known.join(", "))
    })?;
    let case = case.parse().map_err(|e| format!("--replay case `{case}`: {e}"))?;
    Ok(Some((format, case)))
}

/// Renders the `--stats` report from the obs snapshot + summary.
fn print_stats(summary: &palmed_fuzz::FuzzSummary) {
    let snapshot = palmed_obs::snapshot();

    println!("fuzz_codecs: --- per-format timing ---");
    for format in Format::ALL {
        let Some(h) = snapshot.histogram(&format!("fuzz.case_ns.{format}")) else { continue };
        println!(
            "fuzz_codecs:   {:<9} {:>6} cases  mean {:>9.0} ns  p90 <= {:>9} ns  max {:>9} ns",
            format.to_string(),
            h.count,
            h.mean(),
            h.quantile_bound(0.9),
            h.max,
        );
    }

    println!("fuzz_codecs: --- rejection classes ---");
    let rejects: Vec<_> = snapshot.counters_with_prefix("fuzz.reject.").collect();
    if rejects.is_empty() {
        println!("fuzz_codecs:   (none)");
    }
    for (name, count) in rejects {
        let class = name.strip_prefix("fuzz.reject.").unwrap_or(name);
        println!("fuzz_codecs:   {class:<21} {count:>8}");
    }

    println!("fuzz_codecs: --- slowest cases ---");
    for slow in &summary.slowest {
        println!(
            "fuzz_codecs:   {:<9} case {:>9}  {:>9} ns  (replay: --replay {}:{})",
            slow.format.to_string(),
            slow.case,
            slow.ns,
            slow.format,
            slow.case
        );
    }
}

/// Runs the guided scheduler against the uniform baseline; returns success.
fn run_guided(iters: u32, seed: u32, uniform: &palmed_fuzz::FuzzSummary) -> bool {
    let guided = palmed_fuzz::guided::run_guided(iters, seed);
    println!("fuzz_codecs: guided   {}", guided.summary);
    println!(
        "fuzz_codecs: guided   queue {} -> {} entries ({} admitted in warmup, {} total), \
         {} corpus + {} mutated cases",
        guided.initial_queue,
        guided.final_queue,
        guided.admitted_warmup,
        guided.admitted_total,
        guided.corpus_cases,
        guided.mutated_cases,
    );
    println!(
        "fuzz_codecs: coverage guided {} pairs vs uniform {} pairs at seed {seed} ({} iters)",
        guided.summary.coverage.len(),
        uniform.coverage.len(),
        iters
    );
    let mut ok = true;
    for min in &guided.minimized {
        eprintln!(
            "fuzz_codecs: VIOLATION (guided, minimized {} -> {} bytes) {}",
            min.original_len, min.minimized_len, min.violation
        );
        ok = false;
    }
    if guided.admitted_total <= guided.admitted_warmup {
        eprintln!(
            "fuzz_codecs: FAIL guided queue stalled at its initial corpus \
             ({} warmup admissions, {} total)",
            guided.admitted_warmup, guided.admitted_total
        );
        ok = false;
    }
    if guided.summary.coverage.len() <= uniform.coverage.len() {
        eprintln!(
            "fuzz_codecs: FAIL guided coverage ({} pairs) did not beat uniform ({} pairs)",
            guided.summary.coverage.len(),
            uniform.coverage.len()
        );
        ok = false;
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: fuzz_codecs [--iters N] [--seed S] [--stats] [--guided]");
        println!("                   [--replay <format>:<case>]");
        println!("  --iters N   mutation cases to run (default 10000)");
        println!("  --seed S    first deterministic case number (default 0)");
        println!("  --stats     print per-format timing, rejection classes and");
        println!("              the slowest-case report at exit (enables obs)");
        println!("  --guided    also run the coverage-guided scheduler and compare");
        println!("              (class, offset-bucket) coverage against uniform");
        println!("  --replay F:C  verbosely re-run one deterministic case and exit,");
        println!("              e.g. --replay model-v2b:12345");
        return ExitCode::SUCCESS;
    }
    let (iters, seed) = match (parse_flag(&args, "--iters", 10_000), parse_flag(&args, "--seed", 0))
    {
        (Ok(iters), Ok(seed)) => (iters, seed),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("fuzz_codecs: {e}");
            return ExitCode::FAILURE;
        }
    };
    match parse_replay(&args) {
        Ok(None) => {}
        Ok(Some((format, case))) => {
            print!("{}", palmed_fuzz::replay_case(format, case));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("fuzz_codecs: {e}");
            return ExitCode::FAILURE;
        }
    }
    let stats = args.iter().any(|a| a == "--stats");
    let guided = args.iter().any(|a| a == "--guided");
    if stats {
        palmed_obs::set_enabled(true);
    }

    // The harness catches decoder panics and reports them as violations;
    // silence the default panic backtraces so the summary stays readable.
    std::panic::set_hook(Box::new(|_| {}));
    let summary = palmed_fuzz::run_many(iters, seed);
    let guided_ok = if guided {
        println!("fuzz_codecs: uniform  {summary}");
        run_guided(iters, seed, &summary)
    } else {
        println!("fuzz_codecs: {summary}");
        true
    };
    let _ = std::panic::take_hook();

    if stats {
        print_stats(&summary);
    }
    if summary.violations.is_empty() && guided_ok {
        println!("fuzz_codecs: OK");
        ExitCode::SUCCESS
    } else {
        for violation in &summary.violations {
            eprintln!("fuzz_codecs: VIOLATION {violation}");
        }
        ExitCode::FAILURE
    }
}
