//! The repository benchmark: one command, four workloads, every metric
//! printed as `name value unit` and, last, as one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fuzz-24h --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs half the
//! rounds untimed-by-layer and the same rounds again through the timing
//! wrappers, reports the per-layer metrics and writes the spans to
//! `perfbench/traces/`. See `perfbench/README.md` for what each workload
//! and metric is for.

mod metrics;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Round, Workload};

const USAGE: &str = "usage: perfbench --workload <fuzz-24h|table-grid|scale-1k|heavy-10k> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", metrics::host_stamp());
    let w = args.workload;
    let rounds = w.rounds(args.seconds);
    println!(
        "# workload={} seed={} seconds={} planned_rounds={rounds} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let run = |r: u64, traced: bool| {
        metrics::reset_peak_rss();
        let mut round = w.round(args.seed, r, traced);
        round.peak_rss_mb = metrics::peak_rss_mb();
        round
    };

    // Round 0 once before timing: the first round of a process pays for
    // page faults and allocator growth that later rounds do not. Its
    // reports are the reference the measured round 0 must repeat.
    let warm_up = run(0, false);
    // The round count is a function of the arguments, so a run normally
    // repeats exactly. On a host slow enough that the rounds outlast
    // `--seconds`, the run stops starting rounds instead of overrunning.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let in_time = |r: &u64, min: u64| *r < min || Instant::now() < deadline;
    let (measured, repeats): (Vec<Round>, Vec<Round>) = if args.trace {
        // Each round twice, plain then through the wrappers, so drift on
        // the host lands on both sides of `trace.overhead_s`. The wrapped
        // run must reproduce every report byte for byte.
        (0..(rounds / 2).max(1))
            .take_while(|r| in_time(r, 1))
            .map(|r| (run(r, false), run(r, true)))
            .unzip()
    } else {
        let all: Vec<Round> = (0..rounds)
            .take_while(|r| in_time(r, 2))
            .map(|r| run(r, false))
            .collect();
        (all, vec![warm_up])
    };
    for (r, round) in measured.iter().enumerate() {
        println!("{}", metrics::round_line(r, round));
    }
    println!("# report_digest={:016x}", metrics::run_digest(&measured));
    let check = metrics::check_cells(&measured, &repeats);
    for e in &check.errors {
        eprintln!("perfbench: cell failed: {e}");
    }

    let lines = if args.trace {
        let path = metrics::write_spans(w.name(), args.seed, &repeats);
        println!("# spans written to {path}");
        metrics::per_layer(&measured, &repeats)
    } else {
        metrics::end_to_end(w, &measured, &check)
    };
    for m in &lines {
        println!("{}", m.line());
    }
    let json_metrics: Vec<&metrics::Metric> = lines.iter().filter(|m| m.gated).collect();
    println!(
        "{}",
        metrics::result_json(
            check.failed == 0,
            check.attempted,
            check.failed,
            &json_metrics
        )
    );
    ExitCode::SUCCESS
}
