//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! Nothing inside the program is instrumented: [`Timed`] wraps a
//! `DfsAdaptor` and [`TimedStrategy`] wraps a `Strategy`, and the workload
//! code opens the root spans (campaign, traffic, deploy, generator block)
//! itself. Every span carries its layer, start, end, parent span and
//! cell (campaign) id; spans stay in memory until the run ends.
//!
//! Calls made from inside a double-check are not recorded as spans of
//! their own: the double-check issues tens of thousands of probe sends per
//! campaign, so their time is summed into the double-check's
//! [`DoubleCheck`] record instead. That keeps the layers a partition of a
//! campaign's wall time: self time plus the direct child spans.
//!
//! Cheap getters (`name`, `now_ms`, `coverage`, `rebalance_done`,
//! `free_space`) are not layer boundaries and are forwarded untimed; their
//! cost stays in the caller's self time.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;
use themis::{
    AdaptorError, CrashExplorable, DfsAdaptor, ExecFeedback, GenCtx, LoadReport, NodeInventory,
    Operation, SnapshotCapable, Strategy, TestCase,
};

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `run_campaign` call.
    Campaign,
    /// One heavy-traffic run (no campaign loop).
    Traffic,
    /// From the double-check's first `rebalance()` to its final
    /// `load_report()`.
    DoubleCheck,
    Send,
    /// `inventory()` and `topology()`.
    Inventory,
    /// `load_report()` and `load_report_into()`.
    LoadReport,
    Reset,
    Rebalance,
    Wait,
    NextCase,
    Feedback,
    OnReset,
    NextBlock,
    /// `DfsSim::new` / `DfsSim::with_config`, preload included.
    Deploy,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Campaign => "themis.campaign",
            Layer::Traffic => "workload.traffic",
            Layer::DoubleCheck => "themis.detector.double_check",
            Layer::Send => "adaptors.send",
            Layer::Inventory => "adaptors.inventory",
            Layer::LoadReport => "adaptors.load_report",
            Layer::Reset => "adaptors.reset",
            Layer::Rebalance => "adaptors.rebalance",
            Layer::Wait => "adaptors.wait",
            Layer::NextCase => "themis.strategies.next_case",
            Layer::Feedback => "themis.strategies.feedback",
            Layer::OnReset => "themis.strategies.on_reset",
            Layer::NextBlock => "workload.next_block",
            Layer::Deploy => "simdfs.deploy",
        }
    }
}

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// The call returned an error (only `send` can).
    pub failed: bool,
    /// Index of the enclosing span within the same cell's span list, or
    /// [`ROOT`].
    pub parent: u32,
    pub cell: u32,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time a double-check spent in the calls it made, which are not spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleCheck {
    /// Index of the double-check's span.
    pub span: u32,
    pub send_ns: u64,
    pub sends: u64,
    pub wait_ns: u64,
    /// Every other timed call inside the double-check (rebalance,
    /// inventory, load report).
    pub other_ns: u64,
}

/// The spans of one cell, in the order they were opened.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    pub spans: Vec<Span>,
    pub double_checks: Vec<DoubleCheck>,
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    cell: u32,
    trace: CellTrace,
    open: Vec<u32>,
    dc: Option<DoubleCheck>,
}

/// A tracer shared by the wrappers of one cell.
pub type TraceHandle = Rc<RefCell<Tracer>>;

/// What [`Tracer::enter`] opened.
enum Entered {
    Span(u32),
    /// Inside a double-check: timed, summed, not recorded.
    InDoubleCheck(Layer, Instant),
}

impl Tracer {
    pub fn new(epoch: Instant) -> TraceHandle {
        Rc::new(RefCell::new(Tracer {
            epoch,
            cell: 0,
            trace: CellTrace::default(),
            open: Vec::new(),
            dc: None,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts recording cell `cell`, dropping anything a cell that
    /// panicked left behind.
    pub fn start_cell(&mut self, cell: u32) {
        self.cell = cell;
        self.trace = CellTrace::default();
        self.open.clear();
        self.dc = None;
    }

    /// What was recorded since [`Tracer::start_cell`].
    pub fn take(&mut self) -> CellTrace {
        std::mem::take(&mut self.trace)
    }

    pub fn begin(&mut self, layer: Layer) -> u32 {
        let idx = self.trace.spans.len() as u32;
        let start_ns = self.now_ns();
        self.trace.spans.push(Span {
            layer,
            failed: false,
            parent: self.open.last().copied().unwrap_or(ROOT),
            cell: self.cell,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: u32, failed: bool) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        let span = &mut self.trace.spans[idx as usize];
        span.end_ns = end_ns;
        span.failed = failed;
    }

    fn enter(&mut self, layer: Layer) -> Entered {
        if self.dc.is_some() {
            Entered::InDoubleCheck(layer, Instant::now())
        } else {
            Entered::Span(self.begin(layer))
        }
    }

    fn exit(&mut self, entered: Entered, failed: bool) {
        match entered {
            Entered::Span(idx) => self.end(idx, failed),
            Entered::InDoubleCheck(layer, t0) => {
                let ns = t0.elapsed().as_nanos() as u64;
                let dc = self.dc.as_mut().expect("entered inside a double-check");
                match layer {
                    Layer::Send => {
                        dc.send_ns += ns;
                        dc.sends += 1;
                    }
                    Layer::Wait => dc.wait_ns += ns,
                    _ => dc.other_ns += ns,
                }
            }
        }
    }

    fn begin_double_check(&mut self) {
        if self.dc.is_none() {
            let span = self.begin(Layer::DoubleCheck);
            self.dc = Some(DoubleCheck {
                span,
                ..Default::default()
            });
        }
    }

    fn end_double_check(&mut self) {
        if let Some(dc) = self.dc.take() {
            self.end(dc.span, false);
            self.trace.double_checks.push(dc);
        }
    }
}

/// Runs `f` inside a span of `layer`.
pub fn timed<R>(trace: &TraceHandle, layer: Layer, f: impl FnOnce() -> R) -> R {
    let entered = trace.borrow_mut().enter(layer);
    let r = f();
    trace.borrow_mut().exit(entered, false);
    r
}

/// A `DfsAdaptor` that times every layer call into the adaptor it wraps.
///
/// It forwards every trait method, the defaulted ones included: a wrapper
/// that fell back to a default (say, `topology()` built from a full
/// `inventory()`) would measure a slower program than the one it wraps.
pub struct Timed<'a> {
    inner: &'a mut dyn DfsAdaptor,
    trace: TraceHandle,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn DfsAdaptor, trace: &TraceHandle) -> Self {
        Timed {
            inner,
            trace: Rc::clone(trace),
        }
    }

    fn call<R>(&mut self, layer: Layer, f: impl FnOnce(&mut dyn DfsAdaptor) -> R) -> R {
        let entered = self.trace.borrow_mut().enter(layer);
        let r = f(&mut *self.inner);
        self.trace.borrow_mut().exit(entered, false);
        r
    }
}

impl DfsAdaptor for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn send(&mut self, op: &Operation) -> Result<(), AdaptorError> {
        let entered = self.trace.borrow_mut().enter(Layer::Send);
        let r = self.inner.send(op);
        self.trace.borrow_mut().exit(entered, r.is_err());
        r
    }

    fn load_report(&mut self) -> LoadReport {
        let r = self.call(Layer::LoadReport, |a| a.load_report());
        // The double-check's verdict is read from this report; the campaign
        // loop itself uses `load_report_into`.
        self.trace.borrow_mut().end_double_check();
        r
    }

    fn load_report_into(&mut self, out: &mut LoadReport) {
        self.call(Layer::LoadReport, |a| a.load_report_into(out))
    }

    fn rebalance(&mut self) {
        // Only the double-check drives the rebalance API, and it starts
        // with this call.
        self.trace.borrow_mut().begin_double_check();
        self.call(Layer::Rebalance, |a| a.rebalance())
    }

    fn rebalance_done(&mut self) -> bool {
        self.inner.rebalance_done()
    }

    fn wait(&mut self, ms: u64) {
        self.call(Layer::Wait, |a| a.wait(ms))
    }

    fn reset(&mut self) {
        self.call(Layer::Reset, |a| a.reset())
    }

    fn coverage(&mut self) -> u64 {
        self.inner.coverage()
    }

    fn now_ms(&mut self) -> u64 {
        self.inner.now_ms()
    }

    fn inventory(&mut self) -> NodeInventory {
        self.call(Layer::Inventory, |a| a.inventory())
    }

    fn free_space(&mut self) -> u64 {
        self.inner.free_space()
    }

    fn topology(&mut self) -> NodeInventory {
        self.call(Layer::Inventory, |a| a.topology())
    }

    fn snapshots(&mut self) -> Option<&mut dyn SnapshotCapable> {
        self.inner.snapshots()
    }

    fn crash_points(&mut self) -> Option<&mut dyn CrashExplorable> {
        self.inner.crash_points()
    }
}

/// A `Strategy` that times every call into the strategy it wraps.
pub struct TimedStrategy<'a> {
    inner: &'a mut dyn Strategy,
    trace: TraceHandle,
}

impl<'a> TimedStrategy<'a> {
    pub fn new(inner: &'a mut dyn Strategy, trace: &TraceHandle) -> Self {
        TimedStrategy {
            inner,
            trace: Rc::clone(trace),
        }
    }
}

impl Strategy for TimedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_case(&mut self, ctx: &mut GenCtx<'_>) -> TestCase {
        timed(&self.trace, Layer::NextCase, || self.inner.next_case(ctx))
    }

    fn feedback(&mut self, case: &TestCase, fb: &ExecFeedback) {
        timed(&self.trace, Layer::Feedback, || {
            self.inner.feedback(case, fb)
        })
    }

    fn on_reset(&mut self) {
        timed(&self.trace, Layer::OnReset, || self.inner.on_reset())
    }
}

/// Renders spans one per line: `cell span parent layer start_ns end_ns
/// failed`, with a trailing `dc` line per double-check record.
pub fn render(traces: &[CellTrace]) -> String {
    let mut out = String::from("# cell span parent layer start_ns end_ns failed\n");
    for t in traces {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{} {i} {parent} {} {} {} {}",
                s.cell,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                u8::from(s.failed)
            );
        }
        for d in &t.double_checks {
            let cell = t.spans.first().map_or(0, |s| s.cell);
            let _ = writeln!(
                out,
                "dc {cell} {} send_ns={} sends={} wait_ns={} other_ns={}",
                d.span, d.send_ns, d.sends, d.wait_ns, d.other_ns
            );
        }
    }
    out
}
