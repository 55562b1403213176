//! The four benchmark workloads and the cells they run.
//!
//! A run is a fixed number of rounds (see [`Workload::rounds`]); round `r`
//! draws fresh campaign seeds from `(--seed, r)`, so a run covers many
//! seeds and two builds measured with the same arguments run exactly the
//! same campaigns. Every cell is checked: a panic, a failed
//! `DfsSim::audit_state()` or (for heavy traffic) a mean-field deviation
//! beyond tolerance fails it, and [`Cell::digest`] lets the caller compare
//! same-seed repeats.

use crate::trace::{timed, CellTrace, Layer, TraceHandle, Tracer};
use adaptors::{SimAdaptor, SimHandle};
use simdfs::{BugSet, DfsSim, FaultPlan, Flavor, FlavorConfig, MeanFieldModel, SimStats};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;
use themis::{
    by_name, run_campaign, CampaignConfig, CampaignObserver, ConfirmedFailure, DfsAdaptor, Operand,
    Operation, Operator, COMPARISON_STRATEGIES,
};
use workload::{DiurnalCycle, FlashCrowd, ZipfianHotspot};

/// Virtual budget of a fuzz-24h campaign: the paper's 24 hours.
const FUZZ_MINUTES: u64 = 24 * 60;
/// Virtual budget of a table-grid cell: the reduced-budget paper-table
/// suite (the matrix shape of Tables 3 and 5 and Figure 12).
pub const GRID_HOURS: u64 = 6;
const SCALE_NODES: u32 = 1_000;
/// Virtual budget of a scale-1k campaign. Short campaigns put many seeds
/// into one run, so a run's total varies less with the seeds it drew.
const SCALE_MINUTES: u64 = 20;
const HEAVY_NODES: u32 = 10_000;
/// Blocks drawn from each heavy generator per flavor.
const HEAVY_BLOCKS: u64 = 6;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fuzz24h,
    TableGrid,
    Scale1k,
    Heavy10k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fuzz24h,
        Workload::TableGrid,
        Workload::Scale1k,
        Workload::Heavy10k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fuzz24h => "fuzz-24h",
            Workload::TableGrid => "table-grid",
            Workload::Scale1k => "scale-1k",
            Workload::Heavy10k => "heavy-10k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs Themis campaigns (heavy-10k only sends
    /// client traffic).
    pub fn has_campaigns(self) -> bool {
        self != Workload::Heavy10k
    }

    /// Rounds planned for a run of `seconds`: the count is a pure function
    /// of the arguments, so the same arguments run the same campaigns. The
    /// divisor is the host time of one round on a 2-core x86-64 host at its
    /// slower speeds, so the planned rounds normally fit in `seconds`.
    pub fn rounds(self, seconds: u64) -> u64 {
        let round_s = match self {
            Workload::Fuzz24h => 1.25,
            Workload::TableGrid => 2.0,
            Workload::Scale1k => 1.6,
            Workload::Heavy10k => 2.6,
        };
        ((seconds as f64 / round_s).ceil() as u64).max(2)
    }

    /// Runs round `round` of the run seeded with `seed`.
    pub fn round(self, seed: u64, round: u64, traced: bool) -> Round {
        let base = mix(seed, round);
        match self {
            Workload::Fuzz24h => serial_round(traced, |k, trace| {
                let flavor = *Flavor::all().get(k)?;
                Some(fresh_campaign(
                    flavor.config(),
                    FUZZ_MINUTES,
                    mix(base, k as u64),
                    trace,
                ))
            }),
            Workload::Scale1k => serial_round(traced, |k, trace| {
                let flavor = *Flavor::all().get(k)?;
                Some(fresh_campaign(
                    FlavorConfig::scaled(flavor, SCALE_NODES),
                    SCALE_MINUTES,
                    mix(base, k as u64),
                    trace,
                ))
            }),
            Workload::Heavy10k => serial_round(traced, |k, trace| {
                let flavor = *Flavor::all().get(k)?;
                Some(heavy_cell(flavor, mix(base, k as u64), trace))
            }),
            Workload::TableGrid => grid_round(base, traced),
        }
    }
}

/// A seed for stream position `i` under `seed` (SplitMix64 finaliser).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One campaign or traffic run.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub flavor: Flavor,
    /// Host seconds of the campaign or traffic, set-up excluded.
    pub work_s: f64,
    /// Host seconds of the simulator deploy this cell paid for (0 when it
    /// reused one).
    pub setup_s: f64,
    pub deploys: u64,
    /// Fuzzing iterations; for heavy traffic, generator blocks.
    pub execs: u64,
    /// Host milliseconds from campaign start or the previous confirmation
    /// to each confirmation batch.
    pub confirm_ms: Vec<f64>,
    /// Distinct ground-truth bugs credited with a confirmation.
    pub bugs_found: u64,
    /// Confirmations with no triggered bug behind them.
    pub false_positives: u64,
    /// Confirmation batches, each preceded by exactly one double-check.
    pub resets: u64,
    pub coverage: u64,
    /// `DfsSim::stats()` accumulated by this cell.
    pub sim: SimCounts,
    /// FNV-1a of the cell's canonical report: `CampaignResult::to_json`
    /// plus the oracle attribution, or the heavy-traffic summary.
    pub digest: u64,
    pub error: Option<String>,
    pub trace: CellTrace,
}

/// The `DfsSim::stats()` counters the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub ops: u64,
    pub failed_ops: u64,
    pub rebalance_rounds: u64,
    pub migrations: u64,
    pub bytes_migrated: u64,
}

impl SimCounts {
    fn between(before: SimStats, after: SimStats) -> SimCounts {
        SimCounts {
            ops: after.ops - before.ops,
            failed_ops: after.failed_ops - before.failed_ops,
            rebalance_rounds: after.rebalance_rounds - before.rebalance_rounds,
            migrations: after.migrations - before.migrations,
            bytes_migrated: after.bytes_migrated - before.bytes_migrated,
        }
    }
}

/// The executor's view of one round. Serial workloads are a one-worker
/// grid whose idle time is everything outside the cells' work (deploys,
/// audits, digests).
#[derive(Debug, Clone, Copy, Default)]
pub struct GridNumbers {
    pub busy_s: f64,
    pub idle_s: f64,
    pub busy_skew: f64,
    pub cells_stolen: u64,
}

#[derive(Debug, Clone)]
pub struct Round {
    /// Host seconds to finish the round's campaigns or traffic.
    pub wall_s: f64,
    /// Peak resident memory while the round ran (set by the caller).
    pub peak_rss_mb: f64,
    pub cells: Vec<Cell>,
    pub grid: GridNumbers,
}

fn serial_round(
    traced: bool,
    mut cell: impl FnMut(usize, Option<&TraceHandle>) -> Option<Cell>,
) -> Round {
    let epoch = Instant::now();
    let tracer = traced.then(|| Tracer::new(epoch));
    let mut cells = Vec::new();
    loop {
        let k = cells.len();
        if let Some(t) = &tracer {
            t.borrow_mut().start_cell(k as u32);
        }
        let Some(mut c) = guarded(|| cell(k, tracer.as_ref())) else {
            break;
        };
        if let Some(t) = &tracer {
            c.trace = t.borrow_mut().take();
        }
        cells.push(c);
    }
    let elapsed = epoch.elapsed().as_secs_f64();
    let busy_s: f64 = cells.iter().map(|c| c.work_s).sum();
    Round {
        wall_s: busy_s,
        peak_rss_mb: 0.0,
        grid: GridNumbers {
            busy_s,
            idle_s: elapsed - busy_s,
            busy_skew: 1.0,
            cells_stolen: 0,
        },
        cells,
    }
}

/// Runs `f`, turning a panic into a failed cell.
fn guarded(f: impl FnOnce() -> Option<Cell>) -> Option<Cell> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(c) => c,
        Err(payload) => Some(failed_cell(panic_message(&*payload))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic".to_string()
    }
}

fn failed_cell(error: String) -> Cell {
    Cell {
        label: "panicked cell".to_string(),
        flavor: Flavor::Hdfs,
        work_s: 0.0,
        setup_s: 0.0,
        deploys: 0,
        execs: 0,
        confirm_ms: Vec::new(),
        bugs_found: 0,
        false_positives: 0,
        resets: 0,
        coverage: 0,
        sim: SimCounts::default(),
        digest: 0,
        error: Some(error),
        trace: CellTrace::default(),
    }
}

/// Deploys a simulator, timing the deploy as set-up.
fn deploy(cfg: FlavorConfig, bugs: BugSet, trace: Option<&TraceHandle>) -> (SimAdaptor, f64) {
    let t0 = Instant::now();
    let sim = match trace {
        Some(t) => timed(t, Layer::Deploy, || DfsSim::with_config(cfg, bugs)),
        None => DfsSim::with_config(cfg, bugs),
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let mut adaptor = SimAdaptor::from_handle(Rc::new(RefCell::new(sim)));
    // Nothing reads the rendered command log; the evaluation harness
    // switches it off the same way.
    adaptor.command_log_cap = 0;
    (adaptor, setup_s)
}

/// Attributes confirmations through the simulator oracle and times them.
struct Attribution {
    handle: SimHandle,
    found: BTreeSet<&'static str>,
    false_positives: u64,
    last: Instant,
    last_batch_ms: Option<u64>,
    confirm_ms: Vec<f64>,
}

impl CampaignObserver for Attribution {
    fn on_confirmed(&mut self, f: &ConfirmedFailure) {
        // Failures confirmed on one iteration share its virtual time; the
        // batch is one confirmation event.
        if self.last_batch_ms != Some(f.time_ms) {
            let now = Instant::now();
            self.confirm_ms
                .push(now.duration_since(self.last).as_secs_f64() * 1e3);
            self.last = now;
            self.last_batch_ms = Some(f.time_ms);
        }
        let triggered = self.handle.borrow().oracle_triggered();
        if triggered.is_empty() {
            self.false_positives += 1;
        } else {
            self.found.extend(triggered);
        }
    }
}

/// Runs one attributed campaign on `adaptor` from its current state.
pub fn campaign_cell(
    adaptor: &mut SimAdaptor,
    strategy: &str,
    cfg: &CampaignConfig,
    trace: Option<&TraceHandle>,
) -> Cell {
    let handle = adaptor.handle();
    let flavor = handle.borrow().flavor();
    let before = handle.borrow().stats();
    let mut strat = by_name(strategy).expect("known strategy");
    let mut obs = Attribution {
        handle: handle.clone(),
        found: BTreeSet::new(),
        false_positives: 0,
        last: Instant::now(),
        last_batch_ms: None,
        confirm_ms: Vec::new(),
    };
    let t0 = Instant::now();
    obs.last = t0;
    let result = match trace {
        None => run_campaign(strat.as_mut(), adaptor, cfg, &mut obs),
        Some(t) => {
            let mut a = crate::trace::Timed::new(adaptor, t);
            let mut s = crate::trace::TimedStrategy::new(strat.as_mut(), t);
            timed(t, Layer::Campaign, || {
                run_campaign(&mut s, &mut a, cfg, &mut obs)
            })
        }
    };
    let work_s = t0.elapsed().as_secs_f64();
    let sim = handle.borrow();
    let counts = SimCounts::between(before, sim.stats());
    let canonical = canonical_report(&result.to_json(), &obs.found, obs.false_positives);
    Cell {
        label: format!("{} {} seed={}", flavor.name(), strategy, cfg.seed),
        flavor,
        work_s,
        setup_s: 0.0,
        deploys: 0,
        execs: result.iterations,
        confirm_ms: obs.confirm_ms,
        bugs_found: obs.found.len() as u64,
        false_positives: obs.false_positives,
        resets: result.resets,
        coverage: result.final_coverage,
        sim: counts,
        digest: fnv1a(canonical.as_bytes()),
        error: sim.audit_state().err().map(|e| format!("audit_state: {e}")),
        trace: CellTrace::default(),
    }
}

/// The campaign report a cell's digest covers.
pub fn canonical_report<S: std::fmt::Debug>(json: &str, found: &BTreeSet<S>, fps: u64) -> String {
    format!("{json}|found={found:?}|false_positives={fps}")
}

fn campaign_config(minutes: u64, seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        budget_ms: minutes * 60_000,
        ..CampaignConfig::default()
    }
}

/// A Themis campaign (`BugSet::New`) on a fresh deploy of `cfg`.
fn fresh_campaign(cfg: FlavorConfig, minutes: u64, seed: u64, trace: Option<&TraceHandle>) -> Cell {
    let (mut adaptor, setup_s) = deploy(cfg, BugSet::New, trace);
    let mut cell = campaign_cell(
        &mut adaptor,
        "Themis",
        &campaign_config(minutes, seed),
        trace,
    );
    cell.setup_s = setup_s;
    cell.deploys = 1;
    cell
}

/// Workers of the table-grid executor. One, not one per core: the shared
/// host behind the benchmark gives it two vCPUs but not always two CPUs'
/// worth of time. For minutes at a stretch a two-worker grid ran at half
/// its usual speed while single-threaded workloads lost about a tenth, so
/// a parallel grid measured the host's scheduling, not the program.
const GRID_WORKERS: usize = 1;

/// The five-strategy x four-flavor matrix on `bench::grid`'s work-stealing
/// executor with [`GRID_WORKERS`] workers. Like `bench::grid::run_grid`,
/// each worker deploys one simulator per flavor on first contact, marks it
/// as base and rewinds it with `restore_to_base` before every later cell;
/// unlike `run_grid` it hands each cell the benchmark's own observer and
/// (when traced) timing wrappers.
pub fn grid_round(seed: u64, traced: bool) -> Round {
    let flavors = Flavor::all();
    let n = flavors.len() * COMPARISON_STRATEGIES.len();
    let workers = GRID_WORKERS;
    let epoch = Instant::now();
    let (cells, stats) = bench::steal_execute(n, workers, |_worker| {
        let mut pool: Vec<Option<SimAdaptor>> = flavors.iter().map(|_| None).collect();
        let tracer = traced.then(|| Tracer::new(epoch));
        move |i| {
            let slot = i / COMPARISON_STRATEGIES.len();
            let strategy = COMPARISON_STRATEGIES[i % COMPARISON_STRATEGIES.len()];
            if let Some(t) = &tracer {
                t.borrow_mut().start_cell(i as u32);
            }
            let pool = &mut pool;
            let tracer = tracer.as_ref();
            let mut cell = guarded(|| {
                let mut setup_s = 0.0;
                let adaptor = match &mut pool[slot] {
                    Some(a) => a,
                    empty => {
                        let (mut a, s) = deploy(flavors[slot].config(), BugSet::New, tracer);
                        a.mark_base();
                        setup_s = s;
                        empty.insert(a)
                    }
                };
                assert!(adaptor.restore_to_base(), "grid adaptors carry a base mark");
                let plan = FaultPlan::named("none", seed).expect("the fault-free profile");
                adaptor.handle().borrow_mut().set_fault_plan(plan);
                let mut c = campaign_cell(
                    adaptor,
                    strategy,
                    &campaign_config(GRID_HOURS * 60, seed),
                    tracer,
                );
                c.setup_s = setup_s;
                c.deploys = u64::from(setup_s > 0.0);
                Some(c)
            })
            .expect("a grid cell always yields a result");
            if cell.error.is_some() {
                // The simulator may be left mid-operation; redeploy.
                pool[slot] = None;
            }
            if let Some(t) = tracer {
                cell.trace = t.borrow_mut().take();
            }
            cell
        }
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let busy: Vec<f64> = stats.iter().map(|s| s.busy_ns as f64 / 1e9).collect();
    let busy_s: f64 = busy.iter().sum();
    let mean = busy_s / workers as f64;
    Round {
        wall_s,
        peak_rss_mb: 0.0,
        grid: GridNumbers {
            busy_s,
            idle_s: wall_s * workers as f64 - busy_s,
            busy_skew: busy.iter().copied().fold(0.0, f64::max) / mean,
            cells_stolen: stats.iter().map(|s| s.cells_stolen).sum(),
        },
        cells,
    }
}

/// The three heavy generators through `SimAdaptor::send` on a 10k-node
/// deploy with no seeded bugs. The mean-field model is fed the exact
/// logical byte flow and checked against the cluster's mean utilisation
/// after every block, as `bench::scale::run_heavy_campaign` does; unlike
/// that function, the deploy is timed apart from the traffic.
fn heavy_cell(flavor: Flavor, seed: u64, trace: Option<&TraceHandle>) -> Cell {
    let cfg = FlavorConfig::scaled(flavor, HEAVY_NODES);
    let replicas = cfg.replicas as u32;
    let (mut adaptor, setup_s) = deploy(cfg, BugSet::None, trace);
    let handle = adaptor.handle();
    let (mut model, before) = {
        let sim = handle.borrow();
        let c = sim.cluster();
        let used = c.total_capacity() - c.total_free();
        (
            MeanFieldModel::new(used, c.total_capacity(), replicas),
            sim.stats(),
        )
    };
    let mut generators: Vec<Box<dyn workload::Workload>> = vec![
        Box::new(ZipfianHotspot::new(seed, 4096, 96)),
        Box::new(DiurnalCycle::new(seed ^ 1, 4)),
        Box::new(FlashCrowd::new(seed ^ 2, 6, 64, 8)),
    ];
    let mut sizes = std::collections::BTreeMap::new();
    let mut blocks = 0u64;
    let mut max_dev = 0.0f64;
    let t0 = Instant::now();
    let root = trace.map(|t| t.borrow_mut().begin(Layer::Traffic));
    {
        let mut wrapped;
        let a: &mut dyn DfsAdaptor = match trace {
            Some(t) => {
                wrapped = crate::trace::Timed::new(&mut adaptor, t);
                &mut wrapped
            }
            None => &mut adaptor,
        };
        for _ in 0..HEAVY_BLOCKS {
            for g in &mut generators {
                let block = match trace {
                    Some(t) => timed(t, Layer::NextBlock, || g.next_block()),
                    None => g.next_block(),
                };
                blocks += 1;
                for op in &block {
                    if a.send(op).is_ok() {
                        track_logical_flow(op, &mut sizes, &mut model);
                    }
                }
                let observed = handle.borrow().cluster().util_stats().mean();
                max_dev = max_dev.max(model.observe(observed).abs());
            }
        }
    }
    if let (Some(t), Some(r)) = (trace, root) {
        t.borrow_mut().end(r, false);
    }
    let work_s = t0.elapsed().as_secs_f64();
    let sim = handle.borrow();
    let counts = SimCounts::between(before, sim.stats());
    let imbalance = sim.cluster().util_stats().imbalance_ratio();
    let canonical = format!(
        "{} nodes={HEAVY_NODES} seed={seed} blocks={blocks} live_files={} \
         imbalance={imbalance:?} max_mean_field_dev={max_dev:?} sim={counts:?}",
        flavor.name(),
        sizes.len()
    );
    let error = match sim.audit_state() {
        Err(e) => Some(format!("audit_state: {e}")),
        Ok(()) if max_dev > bench::scale::MEAN_FIELD_TOLERANCE => {
            Some(format!("mean-field deviation {max_dev:e} beyond tolerance"))
        }
        Ok(()) => None,
    };
    Cell {
        label: format!("{} heavy seed={seed}", flavor.name()),
        flavor,
        work_s,
        setup_s,
        deploys: 1,
        execs: blocks,
        confirm_ms: Vec::new(),
        bugs_found: 0,
        false_positives: 0,
        resets: 0,
        coverage: sim.coverage_count(),
        sim: counts,
        digest: fnv1a(canonical.as_bytes()),
        error,
        trace: CellTrace::default(),
    }
}

/// Applies one accepted operation's logical byte flow to the mean-field
/// model; `sizes` recovers overwrite deltas.
fn track_logical_flow(
    op: &Operation,
    sizes: &mut std::collections::BTreeMap<String, u64>,
    model: &mut MeanFieldModel,
) {
    let (path, size) = match (op.opds.first(), op.opds.get(1)) {
        (Some(Operand::FileName(p)), Some(Operand::Size(s))) => (p, *s),
        _ => return,
    };
    match op.opt {
        Operator::Create => {
            model.ingest(size);
            sizes.insert(path.clone(), size);
        }
        Operator::Append => {
            model.ingest(size);
            *sizes.entry(path.clone()).or_insert(0) += size;
        }
        Operator::Overwrite | Operator::TruncateOverwrite => {
            let old = sizes.insert(path.clone(), size).unwrap_or(0);
            if size >= old {
                model.ingest(size - old);
            } else {
                model.remove(old - size);
            }
        }
        _ => {}
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
