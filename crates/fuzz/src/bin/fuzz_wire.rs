//! Fixed-seed connection-schedule fuzz smoke for the wire plane.
//!
//! Runs `--schedules` deterministic single-connection schedules (default
//! 500) and then `--multi` interleaved schedules of 2–4 connections
//! (default 200), starting from case number `--seed` (default 1).  Every
//! connection sits behind the scripted
//! [`palmed_fuzz::conn_fault::FaultyConn`] transport and is served by one
//! [`palmed_wire::SharedBatcher`], round for round as the socket server
//! serves it.  Each schedule registers 1–2 models and scripts hostile peer
//! behaviour — split and coalesced frames, stalls, short reads and writes,
//! bursts past the in-flight cap, malformed frames, registry swaps between
//! rounds, resends of an earlier corpus (answered from the batcher's
//! cached rows unless a swap came in between), slow-loris partials and idle
//! gaps (single-connection only), half-closes and mid-frame disconnects —
//! asserting after every round that no panic escapes, every rejection is a
//! structured error frame, shedding is exact, a poisoned or shed connection
//! never disturbs another, accepted requests serve bit-identically to the
//! in-process predictor, and every connection drains.  The summary counts
//! the requests answered from cached rows.  Finally `--decoder-iters`
//! (default 2000) coverage-guided mutation cases run against
//! [`palmed_wire::decode_frame`] itself.  Exits non-zero on any violation.
//! CI runs this on every push.
//!
//! `--replay <case>` re-executes one deterministic single-connection
//! schedule verbosely and exits — the one-liner printed alongside any
//! single-connection violation.

use palmed_fuzz::wire_fuzz::{run_schedules, Fleet};
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: fuzz_wire [--schedules N] [--multi K] [--seed S] [--decoder-iters M] \
             [--replay C]"
        );
        println!("  --schedules N      single-connection schedules to run (default 500)");
        println!("  --multi K          multi-connection schedules to run (default 200)");
        println!("  --seed S           first deterministic case number (default 1)");
        println!("  --decoder-iters M  guided frame-decoder mutation cases (default 2000)");
        println!("  --replay C         verbosely re-run one deterministic schedule and exit");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--replay") {
        return match parse_flag(&args, "--replay", 0) {
            Ok(case) => {
                std::panic::set_hook(Box::new(|_| {}));
                print!("{}", palmed_fuzz::wire_fuzz::replay_schedule(case));
                let _ = std::panic::take_hook();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fuzz_wire: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = (
        parse_flag(&args, "--schedules", 500),
        parse_flag(&args, "--multi", 200),
        parse_flag(&args, "--seed", 1),
        parse_flag(&args, "--decoder-iters", 2000),
    );
    let (schedules, multi, seed, decoder_iters) = match parsed {
        (Ok(schedules), Ok(multi), Ok(seed), Ok(decoder_iters)) => {
            (schedules, multi, seed, decoder_iters)
        }
        (Err(e), _, _, _) | (_, Err(e), _, _) | (_, _, Err(e), _) | (_, _, _, Err(e)) => {
            eprintln!("fuzz_wire: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Schedule panics are caught and reported as violations; keep the
    // output readable.
    std::panic::set_hook(Box::new(|_| {}));
    let summary = run_schedules(schedules, seed, Fleet::Single);
    let multi_summary = run_schedules(multi, seed, Fleet::Multi);
    let decoder = palmed_fuzz::wire_fuzz::run_decoder_guided(decoder_iters, seed);
    let _ = std::panic::take_hook();

    println!("fuzz_wire: {summary}");
    println!("fuzz_wire (multi): {multi_summary}");
    println!("fuzz_wire: {decoder}");
    if summary.violations.is_empty()
        && multi_summary.violations.is_empty()
        && decoder.violations.is_empty()
    {
        println!("fuzz_wire: OK");
        ExitCode::SUCCESS
    } else {
        for violation in &summary.violations {
            eprintln!("fuzz_wire: VIOLATION {violation}");
            eprintln!(
                "fuzz_wire:   replay with: cargo run --release -p palmed-fuzz \
                 --bin fuzz_wire -- --replay {}",
                violation.case
            );
        }
        for violation in &multi_summary.violations {
            eprintln!("fuzz_wire: VIOLATION (multi) {violation}");
        }
        for violation in &decoder.violations {
            eprintln!("fuzz_wire: VIOLATION (decoder) {violation}");
        }
        ExitCode::FAILURE
    }
}
