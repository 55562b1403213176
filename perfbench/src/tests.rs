//! The timing wrappers must not change what the program computes.

use crate::trace::{Layer, Timed, TimedStrategy, Tracer, ROOT};
use crate::workloads::{campaign_cell, canonical_report, fnv1a, grid_round, Workload, GRID_HOURS};
use adaptors::SimAdaptor;
use simdfs::{BugSet, Flavor};
use std::time::Instant;
use themis::{by_name, run_campaign, CampaignConfig, NullObserver};

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        ..CampaignConfig::hours(6)
    }
}

fn plain_report(flavor: Flavor, seed: u64) -> String {
    let mut adaptor = SimAdaptor::new(flavor, BugSet::New);
    let mut strategy = by_name("Themis").expect("known strategy");
    run_campaign(
        strategy.as_mut(),
        &mut adaptor,
        &config(seed),
        &mut NullObserver,
    )
    .to_json()
}

#[test]
fn wrapped_campaigns_render_byte_identical_reports_on_every_flavor() {
    for flavor in Flavor::all() {
        let seed = 0x5eed;
        let trace = Tracer::new(Instant::now());
        let mut adaptor = SimAdaptor::new(flavor, BugSet::New);
        let mut strategy = by_name("Themis").expect("known strategy");
        let wrapped = {
            let mut a = Timed::new(&mut adaptor, &trace);
            let mut s = TimedStrategy::new(strategy.as_mut(), &trace);
            run_campaign(&mut s, &mut a, &config(seed), &mut NullObserver)
        };
        assert_eq!(wrapped.to_json(), plain_report(flavor, seed), "{flavor:?}");

        let recorded = trace.borrow_mut().take();
        let calls = |layer| recorded.spans.iter().filter(|s| s.layer == layer).count();
        assert_eq!(
            calls(Layer::NextCase) as u64,
            wrapped.iterations,
            "{flavor:?}"
        );
        assert_eq!(calls(Layer::Reset) as u64, wrapped.resets, "{flavor:?}");
        assert_eq!(recorded.double_checks.len(), calls(Layer::DoubleCheck));
        assert!(wrapped.resets == 0 || !recorded.double_checks.is_empty());
        for s in &recorded.spans {
            assert_eq!(s.parent, ROOT, "no span was open around the campaign");
            assert!(s.end_ns >= s.start_ns);
        }
    }
}

#[test]
fn traced_cells_reproduce_plain_cells() {
    for flavor in Flavor::all() {
        let cfg = config(7);
        let plain = campaign_cell(
            &mut SimAdaptor::new(flavor, BugSet::New),
            "Themis",
            &cfg,
            None,
        );
        let trace = Tracer::new(Instant::now());
        let traced = campaign_cell(
            &mut SimAdaptor::new(flavor, BugSet::New),
            "Themis",
            &cfg,
            Some(&trace),
        );
        assert_eq!(plain.digest, traced.digest, "{flavor:?}");
        assert_eq!(plain.sim, traced.sim, "{flavor:?}");
        let spans = trace.borrow_mut().take().spans;
        assert_eq!(spans[0].layer, Layer::Campaign);
        assert!(spans[1..].iter().all(|s| s.parent == 0));
    }
}

#[test]
fn grid_round_matches_run_grid() {
    let seed = 11;
    let ours = grid_round(seed, false);
    let spec = bench::GridSpec::new(
        Flavor::all().to_vec(),
        themis::COMPARISON_STRATEGIES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        vec![seed],
        BugSet::New,
        GRID_HOURS,
    );
    let reference = bench::run_grid(&spec);
    assert_eq!(ours.cells.len(), reference.cells.len());
    for (a, b) in ours.cells.iter().zip(&reference.cells) {
        let e = &b.eval;
        let expected = canonical_report(&e.campaign.to_json(), &e.found, e.false_positive_confirms);
        assert_eq!(a.digest, fnv1a(expected.as_bytes()), "{}", a.label);
    }
}

#[test]
fn workload_names_round_trip_and_unknown_names_are_rejected() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("fuzz-25h"), None);
    let args = |v: &[&str]| crate::parse_args(v.iter().map(|s| s.to_string()));
    assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
    assert!(args(&["--workload", "fuzz-24h", "--seed", "x", "--seconds", "1"]).is_err());
    assert!(args(&[
        "--workload",
        "fuzz-24h",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "2"
    ])
    .is_err());
    assert!(args(&["--workload", "fuzz-24h", "--seed", "1", "--seconds", "1"]).is_ok());
}

/// Records which trait method each call reached.
#[derive(Default)]
struct Recorder {
    calls: Vec<&'static str>,
}

impl themis::SnapshotCapable for Recorder {
    fn snapshot(&mut self) -> u64 {
        self.calls.push("snapshot");
        0
    }
    fn restore(&mut self, _id: u64) -> bool {
        true
    }
    fn release(&mut self, _id: u64) {}
}

impl themis::DfsAdaptor for Recorder {
    fn name(&self) -> String {
        "recorder".into()
    }
    fn send(&mut self, _op: &themis::Operation) -> Result<(), themis::AdaptorError> {
        self.calls.push("send");
        Ok(())
    }
    fn load_report(&mut self) -> themis::LoadReport {
        self.calls.push("load_report");
        themis::LoadReport::default()
    }
    fn load_report_into(&mut self, _out: &mut themis::LoadReport) {
        self.calls.push("load_report_into");
    }
    fn rebalance(&mut self) {
        self.calls.push("rebalance");
    }
    fn rebalance_done(&mut self) -> bool {
        self.calls.push("rebalance_done");
        true
    }
    fn wait(&mut self, _ms: u64) {
        self.calls.push("wait");
    }
    fn reset(&mut self) {
        self.calls.push("reset");
    }
    fn coverage(&mut self) -> u64 {
        self.calls.push("coverage");
        0
    }
    fn now_ms(&mut self) -> u64 {
        self.calls.push("now_ms");
        0
    }
    fn inventory(&mut self) -> themis::NodeInventory {
        self.calls.push("inventory");
        themis::NodeInventory::default()
    }
    fn free_space(&mut self) -> u64 {
        self.calls.push("free_space");
        0
    }
    fn topology(&mut self) -> themis::NodeInventory {
        self.calls.push("topology");
        themis::NodeInventory::default()
    }
    fn snapshots(&mut self) -> Option<&mut dyn themis::SnapshotCapable> {
        self.calls.push("snapshots");
        Some(self)
    }
    fn crash_points(&mut self) -> Option<&mut dyn themis::CrashExplorable> {
        self.calls.push("crash_points");
        None
    }
}

#[test]
fn the_adaptor_wrapper_forwards_every_method_including_defaulted_ones() {
    use themis::DfsAdaptor as _;
    let mut inner = Recorder::default();
    let trace = Tracer::new(Instant::now());
    {
        let mut a = Timed::new(&mut inner, &trace);
        let path = themis::Operand::FileName("/f".into());
        let op = themis::Operation::new(themis::Operator::Open, vec![path]);
        let _ = a.send(&op);
        a.load_report_into(&mut themis::LoadReport::default());
        a.rebalance();
        a.rebalance_done();
        a.wait(1);
        a.load_report();
        a.reset();
        a.coverage();
        a.now_ms();
        a.inventory();
        a.free_space();
        a.topology();
        a.snapshots().expect("forwarded").snapshot();
        assert!(a.crash_points().is_none());
    }
    assert_eq!(
        inner.calls,
        [
            "send",
            "load_report_into",
            "rebalance",
            "rebalance_done",
            "wait",
            "load_report",
            "reset",
            "coverage",
            "now_ms",
            "inventory",
            "free_space",
            "topology",
            "snapshots",
            "snapshot",
            "crash_points"
        ]
    );
    let recorded = trace.borrow_mut().take();
    assert_eq!(
        recorded.double_checks.len(),
        1,
        "rebalance .. load_report is one double-check"
    );
}
