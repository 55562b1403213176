//! Regenerates every table and figure of the paper into `results/`.
//!
//! Usage: `repro [--workers N] [artifact...]` where artifact is one of
//! `table1..table8`, `figure2`, `figure12`, `perf`, `faults`, `scale`,
//! `scaling`, `crash`, `scale100k`, or `all` (default; excludes `perf`,
//! `faults`, `scale`, `scaling`, `crash`, and `scale100k`). The comparison tables share one
//! matrix run (Table 3 /
//! Table 5 / Figure 12). `perf` times the cached-vs-baseline campaign hot
//! path, the snapshot-fork engine against full replay and the redeploy
//! fallback, and grid-executor scaling, and dumps `results/BENCH_1.json`
//! plus `results/BENCH_2.json`. `faults` sweeps the fault-injection
//! matrix at a reduced budget and writes `results/faults.txt`. `scale`
//! measures variance-sampling cost from 10 to 10k storage nodes plus
//! heavy-traffic campaigns at scale and writes `results/BENCH_3.json`.
//! `scaling` runs the heavy-cell grid through the work-stealing executor
//! at 1/2/4/8 workers and writes `results/BENCH_4.json`. `crash` runs
//! bounded crash-point exploration of the migration pipeline (plus the
//! equal-budget random baseline) on every flavor and writes
//! `results/BENCH_5.json`. `scale100k` measures 100k-node topologies —
//! variance-probe flatness to 100k nodes, sampled-vs-full placement
//! quality, batch amortization, and a batched 100k campaign with a
//! same-seed identity check — and writes `results/BENCH_6.json`.
//!
//! `--workers N` pins the grid executor's worker count for every matrix
//! run whose spec does not set one explicitly (0 restores the default of
//! one worker per core), so scaling behavior is reproducible from the CLI
//! without editing code.
//!
//! An unknown artifact name, or `--workers` without a number, prints a
//! usage line and exits with status 2 before anything runs.

use bench::tables;
use std::fs;
use std::path::Path;

const HOURS: u64 = 24;
const SEED: u64 = 0x7e15;

fn write(name: &str, content: &str) {
    fs::create_dir_all("results").expect("create results dir");
    let path = Path::new("results").join(name);
    fs::write(&path, content).expect("write artifact");
    println!("--- {name} ---\n{content}");
}

/// Every artifact name `repro` accepts.
const ARTIFACTS: &[&str] = &[
    "all",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "figure2",
    "figure12",
    "perf",
    "faults",
    "scale",
    "scaling",
    "crash",
    "scale100k",
];

const USAGE: &str = "usage: repro [--workers N] [all|table1..table8|figure2|figure12|perf|\
                     faults|scale|scaling|crash|scale100k]...";

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// `--workers N`, if given.
    workers: Option<usize>,
    /// Artifact names, in command-line order (empty means `all`).
    artifacts: Vec<String>,
}

/// Parses the arguments after the program name. An unknown artifact name
/// or a `--workers` without a number is an error, so a typo cannot pass
/// for a run that regenerated nothing.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workers: None,
        artifacts: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workers" {
            let n = it.next().and_then(|v| v.parse().ok());
            parsed.workers = Some(n.ok_or("--workers needs a number")?);
        } else if ARTIFACTS.contains(&a.as_str()) {
            parsed.artifacts.push(a.clone());
        } else {
            return Err(format!("unknown artifact {a:?}"));
        }
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        workers,
        artifacts: args,
    } = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(n) = workers {
        bench::grid::set_default_workers(n);
    }
    let want = |n: &str| args.is_empty() || args.iter().any(|a| a == n || a == "all");

    if want("table1") {
        write("table1.txt", &tables::table1());
    }
    if want("figure2") {
        write("figure2.txt", &tables::figure2());
    }
    if want("table2") {
        write("table2.txt", &tables::table2(HOURS, SEED));
    }
    if want("table3") || want("table5") || want("figure12") {
        let (t3, matrix) = tables::table3(HOURS, SEED);
        write("table3.txt", &t3);
        write("table5.txt", &tables::table5(&matrix));
        write("figure12.txt", &tables::figure12(&matrix));
    }
    if want("table4") {
        write("table4.txt", &tables::table4(HOURS, SEED));
    }
    if want("table6") {
        write("table6.txt", &tables::table6(HOURS, SEED));
    }
    if want("table7") {
        write("table7.txt", &tables::table7(HOURS, SEED));
    }
    if want("table8") {
        write("table8.txt", &tables::table8(HOURS, SEED));
    }
    // Faults is opt-in like perf: a reduced-budget fault-injection sweep
    // (CI smoke), not a paper table.
    if args.iter().any(|a| a == "faults") {
        write("faults.txt", &tables::fault_matrix(2, SEED));
    }
    // Perf is opt-in: it is a timing artifact, not a paper table.
    if args.iter().any(|a| a == "perf") {
        let campaign = bench::perf::measure_campaign(simdfs::Flavor::GlusterFs, 1, 0xbe, 3);
        let spec = bench::perf::scaling_spec(1);
        let grid = bench::perf::measure_grid_scaling(&spec, &[2, 4, 8]);
        write(
            "BENCH_1.json",
            &bench::perf::bench_json(&[], &campaign, &grid),
        );

        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let micro = bench::perf::measure_fork_restore();
        // One fork-vs-replay triple per flavor, clean and under an active
        // crash fault profile (the bit-identity claim must survive faults,
        // and a faulted redeploy is what a real clean-slate campaign on
        // flaky hardware pays).
        let mut modes = Vec::new();
        for profile in ["none", "crash"] {
            for flavor in simdfs::Flavor::all() {
                modes.push(bench::perf::measure_campaign_modes(
                    flavor, 1, 0xbe, 3, profile,
                ));
            }
        }
        write(
            "BENCH_2.json",
            &bench::perf::bench2_json(cores, &micro, &modes, &grid),
        );
    }
    // Scaling is opt-in: the heavy-cell grid through the work-stealing
    // executor at 1/2/4/8 workers, with per-worker counters, the reuse
    // redeploy count, fresh-deploy identity at every worker count, and
    // the 0.7x-per-worker CI gate (recorded as skipped on single-core
    // hosts). Writes `results/BENCH_4.json`.
    if args.iter().any(|a| a == "scaling") {
        let spec = bench::scaling::heavy_spec(4);
        let bench4 = bench::scaling::measure_scaling(&spec, &[2, 4, 8]);
        write("BENCH_4.json", &bench::scaling::bench4_json(&bench4));
    }
    // Crash is opt-in: bounded crash-point exploration of the migration
    // pipeline — one campaign per flavor (bounded arm plus the
    // equal-budget random-time baseline) through the work-stealing
    // executor, with a from-scratch byte-identity check. Writes
    // `results/BENCH_5.json`.
    if args.iter().any(|a| a == "crash") {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4);
        let bench5 =
            bench::crashbench::measure_crashbench(&themis::CrashExplorerConfig::default(), workers);
        write("BENCH_5.json", &bench::crashbench::bench5_json(&bench5));
    }
    // Scale is opt-in: large-topology scaling measurements (10 to 10k
    // storage nodes), heavy-traffic campaigns with the mean-field
    // cross-check, a same-seed determinism check at 10k nodes, and
    // worker scaling over heavy cells. Writes `results/BENCH_3.json`.
    if args.iter().any(|a| a == "scale") {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let variance = bench::scale::measure_variance_scaling(&[10, 100, 1_000, 10_000]);
        let mut campaigns = vec![
            bench::scale::run_heavy_campaign(simdfs::Flavor::Hdfs, 1_000, 0xbe, 12),
            bench::scale::run_heavy_campaign(simdfs::Flavor::CephFs, 1_000, 0xbe, 12),
        ];
        // The determinism check doubles as the flagship 10k-node campaign:
        // it runs the same campaign twice from scratch and compares the
        // canonical reports byte for byte.
        let det = bench::scale::check_campaign_determinism(simdfs::Flavor::Hdfs, 10_000, 0xbe, 12);
        campaigns.push(det.campaign.clone());
        let grid = bench::scale::measure_heavy_grid_scaling(
            simdfs::Flavor::Hdfs,
            500,
            &[0xbe, 7, 21, 42, 5, 11, 17, 99],
            24,
            &[2, 4],
        );
        write(
            "BENCH_3.json",
            &bench::scale::bench3_json(cores, &variance, &campaigns, &det, &grid),
        );
    }
    // Scale100k is opt-in: 100k-node topology measurements — variance-probe
    // flatness at 10/10k/100k (with preload wall time per point),
    // sampled-vs-full placement quality differentials, the serial-vs-batched
    // request-loop amortization, and a batched 100k-node campaign run twice
    // for a same-seed byte-identity check. Writes `results/BENCH_6.json`.
    if args.iter().any(|a| a == "scale100k") {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let probe = bench::scale100k::measure_probe_scaling(&[10, 10_000, 100_000]);
        let diffs = vec![
            bench::scale100k::run_sampled_vs_full(simdfs::Flavor::Hdfs, 10_000, 0xbe, 2_000),
            bench::scale100k::run_sampled_vs_full(simdfs::Flavor::GlusterFs, 10_000, 0xbe, 2_000),
            bench::scale100k::run_sampled_vs_full(simdfs::Flavor::Hdfs, 100_000, 0xbe, 800),
        ];
        let amort =
            bench::scale100k::measure_batch_amortization(simdfs::Flavor::Hdfs, 10_000, 20_000, 64);
        let det = bench::scale100k::check_batched_determinism(
            simdfs::Flavor::Hdfs,
            100_000,
            0xbe,
            64,
            128,
        );
        write(
            "BENCH_6.json",
            &bench::scale100k::bench6_json(cores, &probe, &diffs, &amort, &det),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_known_artifacts_and_workers() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                workers: None,
                artifacts: vec![]
            })
        );
        assert_eq!(
            parse(&["table2", "--workers", "4", "scale"]),
            Ok(Args {
                workers: Some(4),
                artifacts: vec!["table2".into(), "scale".into()]
            })
        );
        for name in ARTIFACTS {
            assert!(parse(&[name]).is_ok(), "{name}");
        }
    }

    #[test]
    fn rejects_unknown_names_and_bad_workers() {
        assert!(parse(&["bogus"]).is_err());
        assert!(parse(&["table1", "tabel2"]).is_err());
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--workers", "many"]).is_err());
    }
}
