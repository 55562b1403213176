//! The Imbalance Detector (Section 4.3, Figure 9).
//!
//! Three anomaly detectors assess computation, network and storage load by
//! comparing the maximum node load against the cluster mean times the
//! variance threshold `t`. Candidates then pass a *double check*: Themis
//! invokes the DFS's rebalance API, waits for `rebalance done`, re-executes
//! the test case, and re-checks the load state. Candidates that survive —
//! the system could not return to its Load Balance State — are confirmed
//! imbalance failures. Crashed nodes are detected directly (rebalancing
//! cannot revive them).

use crate::adaptor::DfsAdaptor;
use crate::lvm;
use crate::spec::{Operand, Operation, Operator, TestCase};
use serde::{Deserialize, Serialize};

/// Which anomaly detector raised a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ImbalanceKind {
    /// Storage load imbalance across storage nodes.
    Storage,
    /// Computation load imbalance across management nodes.
    Cpu,
    /// Network load imbalance across management nodes.
    Network,
    /// One or more nodes crashed and stay down.
    Crash,
}

impl std::fmt::Display for ImbalanceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImbalanceKind::Storage => write!(f, "storage"),
            ImbalanceKind::Cpu => write!(f, "cpu"),
            ImbalanceKind::Network => write!(f, "network"),
            ImbalanceKind::Crash => write!(f, "crash"),
        }
    }
}

/// A candidate imbalance raised by one anomaly detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The detector that raised it.
    pub kind: ImbalanceKind,
    /// Max-over-mean ratio observed (for Crash: number of crashed nodes).
    pub ratio: f64,
}

/// Detector configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// The variance threshold `t`: a metric is imbalanced when
    /// `max > mean * (1 + t)`. The paper finds `t = 0.25` optimal
    /// (Table 7).
    pub threshold_t: f64,
    /// Poll period while waiting on the `rebalance state` API (ms).
    pub rebalance_poll_ms: u64,
    /// Give up waiting for rebalance completion after this long (ms).
    pub rebalance_timeout_ms: u64,
    /// Settle time after rebalance before re-checking (ms).
    pub settle_ms: u64,
    /// Minimum mean storage utilization (fraction of capacity) before the
    /// storage detector engages — a near-empty cluster is trivially
    /// "imbalanced" by noise.
    pub min_storage_mean: f64,
    /// Minimum mean CPU load before the computation detector engages.
    pub min_cpu_mean: f64,
    /// Minimum mean network load before the network detector engages.
    pub min_network_mean: f64,
    /// Management nodes younger than this are excluded from the CPU and
    /// network detectors: a node that just joined has no load history yet,
    /// and flagging the cluster as "imbalanced" against it would be noise.
    pub warmup_ms: u64,
    /// Probe requests *per management node* issued during the double-check
    /// so the rate-based detectors observe freshly routed traffic rather
    /// than decayed history. Scaling with the node count keeps the
    /// max-of-n order statistic of routing noise well under the detection
    /// threshold.
    pub probe_requests: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            threshold_t: 0.25,
            rebalance_poll_ms: 2_000,
            rebalance_timeout_ms: 600_000,
            settle_ms: 360_000,
            min_storage_mean: 0.04,
            min_cpu_mean: 3.0,
            min_network_mean: 12.0,
            warmup_ms: 480_000,
            probe_requests: 80,
        }
    }
}

/// The imbalance detector.
#[derive(Debug, Clone, Default)]
pub struct Detector {
    /// Configuration.
    pub cfg: DetectorConfig,
}

impl Detector {
    /// Creates a detector with threshold `t` and default timings.
    pub fn with_threshold(t: f64) -> Self {
        Detector {
            cfg: DetectorConfig {
                threshold_t: t,
                ..Default::default()
            },
        }
    }

    /// Runs the three anomaly detectors (plus crash detection) over a load
    /// report, returning all candidates.
    pub fn check(&self, report: &crate::adaptor::LoadReport) -> Vec<Candidate> {
        let mut out = Vec::new();
        let crashed = report.crashed().count();
        if crashed > 0 {
            out.push(Candidate {
                kind: ImbalanceKind::Crash,
                ratio: crashed as f64,
            });
        }
        // Exclude warming-up management nodes from the rate-based
        // detectors (their decayed load counters are meaningless). Only
        // the O(n) ratios and means are needed, not the pairwise sums.
        let s = lvm::ratios_warmed(report, self.cfg.warmup_ms);
        let limit = 1.0 + self.cfg.threshold_t;
        if s.storage_ratio > limit && s.storage_mean >= self.cfg.min_storage_mean {
            out.push(Candidate {
                kind: ImbalanceKind::Storage,
                ratio: s.storage_ratio,
            });
        }
        if s.cpu_ratio > limit && s.cpu_mean >= self.cfg.min_cpu_mean {
            out.push(Candidate {
                kind: ImbalanceKind::Cpu,
                ratio: s.cpu_ratio,
            });
        }
        if s.network_ratio > limit && s.network_mean >= self.cfg.min_network_mean {
            out.push(Candidate {
                kind: ImbalanceKind::Network,
                ratio: s.network_ratio,
            });
        }
        out
    }

    /// The double-check: rebalance, wait for completion, re-execute the
    /// case, drive fresh probe traffic, re-check. Returns the candidates
    /// that *survived* (confirmed failures); transient imbalances that the
    /// rebalance fixed disappear.
    ///
    /// The settle period lets stale rate counters drain; the probe reads
    /// afterwards verify that the system "provides functional services as
    /// usual" (Section 2.2) and give the rate detectors a fresh, evenly
    /// issued load sample — a healthy cluster spreads the probes, while a
    /// funnel/spin failure concentrates them on its victim.
    pub fn double_check(&self, adaptor: &mut dyn DfsAdaptor, case: &TestCase) -> Vec<Candidate> {
        adaptor.rebalance();
        let mut waited = 0;
        while !adaptor.rebalance_done() && waited < self.cfg.rebalance_timeout_ms {
            adaptor.wait(self.cfg.rebalance_poll_ms);
            waited += self.cfg.rebalance_poll_ms;
        }
        adaptor.wait(self.cfg.settle_ms);
        for op in &case.ops {
            // Re-executed operations may legitimately fail (files deleted
            // meanwhile); that does not invalidate the check.
            let _ = adaptor.send(op);
        }
        self.send_probes(adaptor);
        // Give the system every chance to self-balance after the replay.
        // A single round can race with rounds the target's own balancer
        // started against mid-replay state, so rebalance-and-wait is
        // repeated until the state is quiescent.
        for _ in 0..3 {
            adaptor.rebalance();
            let mut waited = 0;
            while !adaptor.rebalance_done() && waited < self.cfg.rebalance_timeout_ms {
                adaptor.wait(self.cfg.rebalance_poll_ms);
                waited += self.cfg.rebalance_poll_ms;
            }
        }
        // Settle and probe again before the final verdict: the replay just
        // concentrated rate load by design, and reading the report straight
        // after the last rebalance would score those decayed-but-stale
        // counters — confirming a transient CPU/network candidate the
        // system had actually recovered from.
        adaptor.wait(self.cfg.settle_ms);
        self.send_probes(adaptor);
        let report = adaptor.load_report();
        self.check(&report)
    }

    /// Issues the probe workload: reads over *distinct* paths so that
    /// hash-routed gateways spread the probes evenly (cycling a handful of
    /// paths would concentrate them and defeat the check). Existing files
    /// are used when the namespace is rich enough; otherwise synthetic
    /// paths are probed — a failed open still exercises request routing.
    fn send_probes(&self, adaptor: &mut dyn DfsAdaptor) {
        let inv = adaptor.inventory();
        let files = inv.files;
        let total = self.cfg.probe_requests * inv.mgmt.len().max(1) as u32;
        // Every probe path is distinct: repeating a path collapses all its
        // probes onto one hash-routed gateway and shrinks the effective
        // sample, making routing noise look like systematic imbalance.
        // Real files are each read at most once; synthetic paths fill the
        // rest (a failed open still exercises request routing).
        let mut real = files.into_iter();
        for i in 0..total {
            let path = if i % 2 == 0 {
                real.next().unwrap_or_else(|| format!("/.themis_probe_{i}"))
            } else {
                format!("/.themis_probe_{i}")
            };
            let op = Operation::new(Operator::Open, vec![Operand::FileName(path)]);
            let _ = adaptor.send(&op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::{LoadReport, NodeLoad, Role};

    /// Storage node holding `mib` MiB (comfortably above the detector's
    /// minimum-load gate when a few hundred MiB are stored).
    fn storage(id: u64, mib: u64) -> NodeLoad {
        NodeLoad {
            node: id,
            role: Role::Storage,
            online: true,
            crashed: false,
            cpu: 0.0,
            rps: 0.0,
            read_io: 0.0,
            write_io: 0.0,
            storage: mib * 1024 * 1024,
            capacity: 1 << 30,
            uptime_ms: 1 << 40,
        }
    }

    fn mgmt(id: u64, cpu: f64, rps: f64) -> NodeLoad {
        NodeLoad {
            node: id,
            role: Role::Management,
            online: true,
            crashed: false,
            cpu,
            rps,
            read_io: 0.0,
            write_io: 0.0,
            storage: 0,
            capacity: 0,
            uptime_ms: 1 << 40,
        }
    }

    #[test]
    fn balanced_report_raises_nothing() {
        let d = Detector::with_threshold(0.25);
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![
                storage(1, 100),
                storage(2, 100),
                mgmt(3, 5.0, 5.0),
                mgmt(4, 5.0, 5.0),
            ],
        };
        assert!(d.check(&report).is_empty());
    }

    #[test]
    fn storage_hotspot_is_detected() {
        let d = Detector::with_threshold(0.25);
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![storage(1, 600), storage(2, 600), storage(3, 2_400)],
        };
        let c = d.check(&report);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].kind, ImbalanceKind::Storage);
        assert!((c[0].ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_gates_detection() {
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![storage(1, 600), storage(2, 840)],
        };
        // ratio = 840/720 ≈ 1.167.
        assert!(Detector::with_threshold(0.10).check(&report).len() == 1);
        assert!(Detector::with_threshold(0.25).check(&report).is_empty());
    }

    #[test]
    fn cpu_and_network_detectors_fire_independently() {
        let d = Detector::with_threshold(0.25);
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![mgmt(1, 100.0, 5.0), mgmt(2, 1.0, 5.0), mgmt(3, 1.0, 5.0)],
        };
        let kinds: Vec<ImbalanceKind> = d.check(&report).iter().map(|c| c.kind).collect();
        assert_eq!(kinds, vec![ImbalanceKind::Cpu]);
    }

    #[test]
    fn crashed_nodes_always_raise_candidates() {
        let d = Detector::with_threshold(0.25);
        let mut dead = storage(9, 0);
        dead.online = false;
        dead.crashed = true;
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![storage(1, 600), storage(2, 600), dead],
        };
        let c = d.check(&report);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].kind, ImbalanceKind::Crash);
        assert_eq!(c[0].ratio, 1.0);
    }

    /// The detector's verdicts as read off the full LVM score.
    fn verdicts_from_full_score(d: &Detector, report: &LoadReport) -> Vec<Candidate> {
        let mut out = Vec::new();
        let crashed = report.crashed().count();
        if crashed > 0 {
            out.push(Candidate {
                kind: ImbalanceKind::Crash,
                ratio: crashed as f64,
            });
        }
        let s = lvm::score_warmed(report, d.cfg.warmup_ms);
        let limit = 1.0 + d.cfg.threshold_t;
        let gates = [
            (
                ImbalanceKind::Storage,
                s.storage_ratio,
                s.storage_mean,
                d.cfg.min_storage_mean,
            ),
            (
                ImbalanceKind::Cpu,
                s.cpu_ratio,
                s.cpu_mean,
                d.cfg.min_cpu_mean,
            ),
            (
                ImbalanceKind::Network,
                s.network_ratio,
                s.network_mean,
                d.cfg.min_network_mean,
            ),
        ];
        for (kind, ratio, mean, min_mean) in gates {
            if ratio > limit && mean >= min_mean {
                out.push(Candidate { kind, ratio });
            }
        }
        out
    }

    #[test]
    fn check_matches_verdicts_of_full_score() {
        // Random reports with warming-up management nodes, zero-capacity
        // storage nodes, offline and crashed nodes: the ratio-only path
        // must raise exactly the candidates the full score implies.
        let mut fired = [0usize; 4];
        for seed in 0..3000u64 {
            let mut d = Detector::with_threshold([0.1, 0.25, 0.5][(seed % 3) as usize]);
            d.cfg.min_storage_mean = 0.01;
            let report = crate::lvm::tests::random_report(seed, d.cfg.warmup_ms);
            let got = d.check(&report);
            assert_eq!(got, verdicts_from_full_score(&d, &report), "seed {seed}");
            for c in got {
                fired[c.kind as usize] += 1;
            }
        }
        assert!(
            fired.iter().all(|&n| n > 0),
            "every detector fires: {fired:?}"
        );
    }

    #[test]
    fn kind_display() {
        assert_eq!(ImbalanceKind::Storage.to_string(), "storage");
        assert_eq!(ImbalanceKind::Crash.to_string(), "crash");
    }

    #[test]
    fn default_threshold_matches_paper_optimum() {
        assert!((DetectorConfig::default().threshold_t - 0.25).abs() < 1e-12);
    }

    /// Scripted target for the settle-before-final-check regression: the
    /// replayed case concentrates CPU on gateway 1 (a transient rate
    /// skew), probe opens spread evenly over both gateways, waiting
    /// decays the rate counters like the real monitor's decaying windows,
    /// and rebalance is an instant no-op.
    struct TransientRateTarget {
        now: u64,
        /// Extra CPU on gateway 1 from replayed (non-Open) case ops.
        hot: f64,
        /// CPU both gateways accrue from probe opens.
        even: f64,
    }

    impl crate::adaptor::DfsAdaptor for TransientRateTarget {
        fn name(&self) -> String {
            "scripted-transient-rate".into()
        }
        fn send(&mut self, op: &Operation) -> Result<(), crate::adaptor::AdaptorError> {
            match op.opt {
                Operator::Open => self.even += 1.0,
                _ => self.hot += 10.0,
            }
            Ok(())
        }
        fn load_report(&mut self) -> crate::adaptor::LoadReport {
            LoadReport {
                time_ms: self.now,
                nodes: vec![mgmt(1, self.even + self.hot, 0.0), mgmt(2, self.even, 0.0)],
            }
        }
        fn rebalance(&mut self) {}
        fn rebalance_done(&mut self) -> bool {
            true
        }
        fn wait(&mut self, ms: u64) {
            self.now += ms;
            let decay = (-(ms as f64) / 300_000.0).exp();
            self.hot *= decay;
            self.even *= decay;
        }
        fn reset(&mut self) {}
        fn coverage(&mut self) -> u64 {
            0
        }
        fn now_ms(&mut self) -> u64 {
            self.now
        }
        fn inventory(&mut self) -> crate::adaptor::NodeInventory {
            crate::adaptor::NodeInventory {
                mgmt: vec![1, 2],
                ..Default::default()
            }
        }
    }

    #[test]
    fn double_check_filters_transient_rate_imbalance() {
        // Regression: `double_check` used to read the load report straight
        // after its final rebalance loop, with no settle or fresh probes —
        // the replay's concentrated (but transient) CPU skew then survived
        // as a spurious confirmation.
        let mut d = Detector::with_threshold(0.25);
        d.cfg.probe_requests = 5;
        let mut target = TransientRateTarget {
            now: 0,
            hot: 0.0,
            even: 0.0,
        };
        let case = TestCase::new(vec![
            Operation::new(
                Operator::Create,
                vec![Operand::FileName("/t0".into()), Operand::Size(0)],
            ),
            Operation::new(
                Operator::Create,
                vec![Operand::FileName("/t1".into()), Operand::Size(0)],
            ),
        ]);
        // Sanity: without the settle, the stale replay skew would read
        // hot=20 vs even=10 → ratio 1.5 > 1.25, i.e. a Cpu candidate.
        let survivors = d.double_check(&mut target, &case);
        assert!(
            survivors.is_empty(),
            "transient rate skew must not survive a settled double-check: {survivors:?}"
        );
    }
}
