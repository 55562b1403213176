//! Turning rounds into metrics, output checks and the result line.

use crate::trace::{self, Layer, ROOT};
use crate::workloads::{Round, Workload};
use simdfs::Flavor;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or median.
    pub samples: Option<usize>,
    /// Part of the JSON result (and of `BENCHMARK.json`).
    pub gated: bool,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
            gated: true,
        }
    }

    fn from_samples(name: &str, samples: &[f64], q: f64, unit: &'static str) -> Metric {
        Metric {
            samples: Some(samples.len()),
            ..Metric::new(name, percentile(samples, q), unit)
        }
    }

    fn ungated(self) -> Metric {
        Metric {
            gated: false,
            ..self
        }
    }

    /// `name value unit`, with `n=<samples>` after a percentile.
    pub fn line(&self) -> String {
        match self.samples {
            Some(n) => format!("{} {} {} n={n}", self.name, self.value, self.unit),
            None => format!("{} {} {}", self.name, self.value, self.unit),
        }
    }
}

/// The `q`-quantile (0..=1) by linear interpolation; 0 without samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A comment line summarising one round.
pub fn round_line(r: usize, round: &Round) -> String {
    let cells = &round.cells;
    // detlint:allow(float-accum): host timings summed in cell order, never fed back into a campaign
    let setup_s = cells.iter().map(|c| c.setup_s).sum::<f64>();
    format!(
        "# round {r} wall_s={} setup_s={setup_s} execs={} ops={} cells={}",
        round.wall_s,
        cells.iter().map(|c| c.execs).sum::<u64>(),
        cells.iter().map(|c| c.sim.ops).sum::<u64>(),
        cells.len()
    )
}

/// FNV-1a over every cell's digest, in run order: one value that repeats
/// exactly for the same arguments.
pub fn run_digest(rounds: &[Round]) -> u64 {
    let bytes: Vec<u8> = rounds
        .iter()
        .flat_map(|r| &r.cells)
        .flat_map(|c| c.digest.to_le_bytes())
        .collect();
    crate::workloads::fnv1a(&bytes)
}

/// Cells attempted and failed, with the reason for each failure.
pub struct CellCheck {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Fails every cell that reported an error, and every measured cell whose
/// digest differs from its same-seed repeat.
pub fn check_cells(measured: &[Round], repeats: &[Round]) -> CellCheck {
    let mut check = CellCheck {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    for round in measured.iter().chain(repeats) {
        for c in &round.cells {
            check.attempted += 1;
            if let Some(e) = &c.error {
                check.failed += 1;
                check.errors.push(format!("{}: {e}", c.label));
            }
        }
    }
    for (m, r) in measured.iter().zip(repeats) {
        if m.cells.len() != r.cells.len() {
            check.failed += 1;
            check
                .errors
                .push("a repeated round ran a different number of cells".into());
            continue;
        }
        for (a, b) in m.cells.iter().zip(&r.cells) {
            if a.digest != b.digest || a.sim != b.sim {
                check.failed += 1;
                check.errors.push(format!(
                    "{}: report differs between same-seed runs",
                    a.label
                ));
            }
        }
    }
    check
}

/// The end-to-end metrics of an untraced run. `wall_s` is the mean round
/// and the rates are run totals over the run's work time: every round has
/// other seeds, so a round's time and rate depend on its campaigns, and a
/// total over all of them varies less from seed to seed than a median of
/// rounds. `setup_s` is the median round. `branches_covered` is the mean
/// round, so a run cut short by its deadline still compares; the other
/// counts are summed over all rounds.
pub fn end_to_end(w: Workload, rounds: &[Round], check: &CellCheck) -> Vec<Metric> {
    let cells = || rounds.iter().flat_map(|r| &r.cells);
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    // detlint:allow(float-accum): host timings summed in round order, never fed back into a campaign
    let work_s = rounds.iter().map(|r| r.wall_s).sum::<f64>();
    let n = rounds.len();
    let over_rounds = |name: &str, value: f64, unit| Metric {
        samples: Some(n),
        ..Metric::new(name, value, unit)
    };
    let total = |count: fn(&crate::workloads::Cell) -> u64| cells().map(count).sum::<u64>() as f64;
    let campaign_s: Vec<f64> = cells().map(|c| c.work_s).collect();
    let confirm_ms: Vec<f64> = cells().flat_map(|c| c.confirm_ms.iter().copied()).collect();
    let mut out = vec![
        over_rounds("wall_s", work_s / n as f64, "s"),
        over_rounds("execs_per_s", total(|c| c.execs) / work_s, "iter/s"),
        over_rounds("ops_per_s", total(|c| c.sim.ops) / work_s, "op/s"),
        Metric::from_samples("campaign_s_p50", &campaign_s, 0.5, "s").ungated(),
    ];
    if w.has_campaigns() {
        out.push(Metric::from_samples("time_to_confirm_ms_p50", &confirm_ms, 0.5, "ms").ungated());
        out.push(Metric::from_samples("time_to_confirm_ms_p90", &confirm_ms, 0.9, "ms").ungated());
    }
    let setup_s = per_round(&|r| r.cells.iter().map(|c| c.setup_s).sum());
    out.push(Metric::from_samples("setup_s", &setup_s, 0.5, "s"));
    let peak_rss_mb = per_round(&|r| r.peak_rss_mb);
    out.push(Metric::from_samples("peak_rss_mb", &peak_rss_mb, 0.5, "MiB").ungated());
    if w.has_campaigns() {
        let bugs: u64 = cells().map(|c| c.bugs_found).sum();
        let fps: u64 = cells().map(|c| c.false_positives).sum();
        out.push(Metric::new("bugs_found", bugs as f64, "count").ungated());
        out.push(Metric::new("false_positives", fps as f64, "count").ungated());
    }
    out.push(over_rounds(
        "branches_covered",
        total(|c| c.coverage) / n as f64,
        "count",
    ));
    out.push(
        Metric::new(
            "cell_error_rate",
            check.failed as f64 / check.attempted.max(1) as f64,
            "ratio",
        )
        .ungated(),
    );
    out
}

fn flavor_suffix(f: Flavor) -> &'static str {
    match f {
        Flavor::Hdfs => "hdfs",
        Flavor::CephFs => "cephfs",
        Flavor::GlusterFs => "glusterfs",
        Flavor::LeoFs => "leofs",
    }
}

/// Layer time metrics that are also reported per flavor.
const PER_FLAVOR: [&str; 8] = [
    "themis.detector.double_check.busy_s",
    "adaptors.send.busy_s",
    "adaptors.inventory.busy_s",
    "adaptors.load_report.busy_s",
    "adaptors.reset.busy_s",
    "themis.campaign.self_s",
    "themis.strategies.next_case_busy_s",
    "themis.strategies.feedback_busy_s",
];

/// Every per-layer metric, in output order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let base: [(&str, &'static str); 33] = [
        ("themis.detector.double_check.busy_s", "s"),
        ("themis.detector.double_check.calls", "count"),
        ("themis.detector.double_check.confirm_ratio", "ratio"),
        ("themis.detector.double_check.send_s", "s"),
        ("themis.detector.double_check.wait_s", "s"),
        ("adaptors.send.busy_s", "s"),
        ("adaptors.send.calls", "count"),
        ("adaptors.send.rejected", "count"),
        ("adaptors.send.ns_p50", "ns"),
        ("adaptors.send.ns_p99", "ns"),
        ("themis.campaign.self_s", "s"),
        ("adaptors.inventory.busy_s", "s"),
        ("adaptors.inventory.calls", "count"),
        ("adaptors.load_report.busy_s", "s"),
        ("adaptors.load_report.calls", "count"),
        ("adaptors.reset.busy_s", "s"),
        ("adaptors.reset.calls", "count"),
        ("themis.strategies.next_case_busy_s", "s"),
        ("themis.strategies.next_case_calls", "count"),
        ("themis.strategies.feedback_busy_s", "s"),
        ("bench.grid.busy_s", "s"),
        ("bench.grid.idle_s", "s"),
        ("bench.grid.busy_skew", "ratio"),
        ("bench.grid.cells_stolen", "count"),
        ("bench.grid.redeploys", "count"),
        ("workload.next_block.busy_s", "s"),
        ("workload.next_block.calls", "count"),
        ("simdfs.deploy_s", "s"),
        ("simdfs.ops", "count"),
        ("simdfs.failed_ops", "count"),
        ("simdfs.rebalance_rounds", "count"),
        ("simdfs.migrations", "count"),
        ("simdfs.bytes_migrated", "bytes"),
    ];
    let mut names: Vec<(String, &'static str)> =
        base.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for name in PER_FLAVOR {
        for f in Flavor::all() {
            names.push((format!("{name}.{}", flavor_suffix(f)), "s"));
        }
    }
    names.push(("trace.overhead_s".to_string(), "s"));
    names
}

/// The per-layer metrics of the traced rounds, per round.
pub fn per_layer(plain: &[Round], traced: &[Round]) -> Vec<Metric> {
    let mut sum: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |name: &str, flavor: Option<Flavor>, v: f64| {
        *sum.entry(name.to_string()).or_default() += v;
        if let Some(f) = flavor {
            *sum.entry(format!("{name}.{}", flavor_suffix(f)))
                .or_default() += v;
        }
    };
    let mut send_ns: Vec<f64> = Vec::new();
    let (mut dc_calls, mut resets) = (0u64, 0u64);
    for round in traced {
        add("bench.grid.busy_s", None, round.grid.busy_s);
        add("bench.grid.idle_s", None, round.grid.idle_s);
        add("bench.grid.busy_skew", None, round.grid.busy_skew);
        add(
            "bench.grid.cells_stolen",
            None,
            round.grid.cells_stolen as f64,
        );
        for cell in &round.cells {
            let f = Some(cell.flavor);
            add("bench.grid.redeploys", None, cell.deploys as f64);
            add("simdfs.ops", None, cell.sim.ops as f64);
            add("simdfs.failed_ops", None, cell.sim.failed_ops as f64);
            add(
                "simdfs.rebalance_rounds",
                None,
                cell.sim.rebalance_rounds as f64,
            );
            add("simdfs.migrations", None, cell.sim.migrations as f64);
            add(
                "simdfs.bytes_migrated",
                None,
                cell.sim.bytes_migrated as f64,
            );
            resets += cell.resets;
            let spans = &cell.trace.spans;
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans.iter().filter(|s| s.parent != ROOT) {
                child_ns[s.parent as usize] += s.ns();
            }
            for (i, s) in spans.iter().enumerate() {
                let secs = s.ns() as f64 / 1e9;
                match s.layer {
                    Layer::Campaign => add(
                        "themis.campaign.self_s",
                        f,
                        (s.ns() - child_ns[i]) as f64 / 1e9,
                    ),
                    Layer::DoubleCheck => {
                        add("themis.detector.double_check.busy_s", f, secs);
                        add("themis.detector.double_check.calls", None, 1.0);
                        dc_calls += 1;
                    }
                    Layer::Send => {
                        add("adaptors.send.busy_s", f, secs);
                        add("adaptors.send.calls", None, 1.0);
                        add(
                            "adaptors.send.rejected",
                            None,
                            f64::from(u8::from(s.failed)),
                        );
                        send_ns.push(s.ns() as f64);
                    }
                    Layer::Inventory | Layer::LoadReport | Layer::Reset => {
                        add(&format!("{}.busy_s", s.layer.name()), f, secs);
                        add(&format!("{}.calls", s.layer.name()), None, 1.0);
                    }
                    Layer::NextCase => {
                        add("themis.strategies.next_case_busy_s", f, secs);
                        add("themis.strategies.next_case_calls", None, 1.0);
                    }
                    Layer::Feedback => add("themis.strategies.feedback_busy_s", f, secs),
                    Layer::NextBlock => {
                        add("workload.next_block.busy_s", None, secs);
                        add("workload.next_block.calls", None, 1.0);
                    }
                    Layer::Deploy => add("simdfs.deploy_s", None, secs),
                    // Roots; rebalance and wait, which the campaign loop
                    // calls only inside a double-check; and `on_reset`,
                    // which no metric names (it still counts as a child of
                    // the campaign).
                    Layer::Traffic | Layer::Rebalance | Layer::Wait | Layer::OnReset => {}
                }
            }
            for d in &cell.trace.double_checks {
                add(
                    "themis.detector.double_check.send_s",
                    None,
                    d.send_ns as f64 / 1e9,
                );
                add(
                    "themis.detector.double_check.wait_s",
                    None,
                    d.wait_ns as f64 / 1e9,
                );
            }
        }
    }
    let n = traced.len().max(1) as f64;
    // detlint:allow(float-accum): host timings summed in round order, never fed back into a campaign
    let wall = |rs: &[Round]| rs.iter().map(|r| r.wall_s).sum::<f64>();
    let mut out: Vec<Metric> = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = sum.get(&name).copied().unwrap_or(0.0) / n;
            Metric::new(name, value, unit)
        })
        .collect();
    for m in &mut out {
        match m.name.as_str() {
            "themis.detector.double_check.confirm_ratio" => {
                m.value = if dc_calls == 0 {
                    0.0
                } else {
                    resets as f64 / dc_calls as f64
                };
            }
            "adaptors.send.ns_p50" => *m = Metric::from_samples(&m.name, &send_ns, 0.5, "ns"),
            "adaptors.send.ns_p99" => *m = Metric::from_samples(&m.name, &send_ns, 0.99, "ns"),
            "trace.overhead_s" => m.value = (wall(traced) - wall(plain)) / n,
            _ => {}
        }
    }
    out
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`] (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak-RSS high-water mark at the current resident size, so
/// each round reports its own peak. Where the kernel refuses, peaks stay
/// cumulative over the run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and build every result was measured on.
pub fn host_stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "# host nproc={} available_parallelism={} cpu_model=\"{cpu}\" rustc=\"{}\" profile={}",
        command_line("nproc", &[]),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        command_line("rustc", &["--version"]),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}

/// Writes the spans of the first traced round under `perfbench/traces/`
/// and returns the path (or why it could not). One round is tens of
/// thousands of spans; every round would be tens of megabytes.
pub fn write_spans(workload: &str, seed: u64, rounds: &[Round]) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.spans"));
    let cells: Vec<_> = rounds
        .first()
        .map(|r| r.cells.iter().map(|c| c.trace.clone()).collect())
        .unwrap_or_default();
    let text = trace::render(&cells);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("nowhere ({e})"),
    }
}

/// The last line of the output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}
