//! The Load Variance Model (Figure 8 of the paper).
//!
//! For every pair of nodes the model sums the absolute differences of
//! computation load (CPU), network load (requests, read IO, write IO) and
//! storage load. Normalized and weighted, this yields the guidance score
//! that load variance-guided fuzzing maximizes. The model also exposes the
//! max-over-mean ratios the imbalance detector thresholds against
//! (Section 2.2's LBS definition).

// detlint:allow-file(float-accum): all sums/folds reduce `Vec<f64>` load
// vectors in index order; the vectors are built from reports whose node
// order the adaptor fixes, so the floating-point reduction is order-pinned.

use crate::adaptor::{LoadReport, Role};
use serde::{Deserialize, Serialize};

/// Weighting factors of the three variance components.
///
/// The paper uses 1/3 each by default and studies storage-heavier weights
/// in Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VarianceWeights {
    /// Weight of storage-load variance.
    pub storage: f64,
    /// Weight of computation-load variance.
    pub cpu: f64,
    /// Weight of network-load variance.
    pub network: f64,
}

impl Default for VarianceWeights {
    fn default() -> Self {
        VarianceWeights {
            storage: 1.0 / 3.0,
            cpu: 1.0 / 3.0,
            network: 1.0 / 3.0,
        }
    }
}

impl VarianceWeights {
    /// Weights with the storage factor set to `storage` and the remainder
    /// split evenly (the Table 8 sweep). `storage` is clamped into
    /// `[0, 1]` so the weights always sum to 1 (the sweep invariant);
    /// without the clamp, out-of-range inputs would silently skew the
    /// guidance score.
    pub fn storage_weighted(storage: f64) -> Self {
        let storage = storage.clamp(0.0, 1.0);
        let rest = (1.0 - storage) / 2.0;
        VarianceWeights {
            storage,
            cpu: rest,
            network: rest,
        }
    }
}

/// The variance measurement of one load report.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VarianceScore {
    /// Normalized mean pairwise storage difference over storage nodes.
    pub storage: f64,
    /// Normalized mean pairwise CPU difference over management nodes.
    pub cpu: f64,
    /// Normalized mean pairwise network difference over management nodes.
    pub network: f64,
    /// Max/mean storage ratio (detector input).
    pub storage_ratio: f64,
    /// Max/mean CPU ratio.
    pub cpu_ratio: f64,
    /// Max/mean network ratio.
    pub network_ratio: f64,
    /// Mean storage per node (bytes) — used by detector load gates.
    pub storage_mean: f64,
    /// Mean CPU per management node.
    pub cpu_mean: f64,
    /// Mean network load per management node.
    pub network_mean: f64,
}

impl VarianceScore {
    /// The weighted guidance score.
    pub fn weighted(&self, w: &VarianceWeights) -> f64 {
        w.storage * self.storage + w.cpu * self.cpu + w.network * self.network
    }
}

/// Mean absolute pairwise difference of `values`, normalized by the mean
/// value (scale-free; 0 for perfectly even load).
fn normalized_pairwise(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    if mean <= f64::EPSILON {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut pairs = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += (values[i] - values[j]).abs();
            pairs += 1;
        }
    }
    (sum / pairs as f64) / mean
}

/// Max over mean of `values` (≥ 1.0 when any load exists; 1.0 for
/// degenerate inputs).
fn max_over_mean(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 1.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean <= f64::EPSILON {
        return 1.0;
    }
    values.iter().cloned().fold(f64::MIN, f64::max) / mean
}

/// The per-role load vectors the model reduces, in report order:
/// storage utilization of online storage nodes with capacity, and CPU and
/// network load of online management nodes at least `warmup_ms` old.
struct LoadVectors {
    storage: Vec<f64>,
    cpu: Vec<f64>,
    net: Vec<f64>,
}

impl LoadVectors {
    fn of(report: &LoadReport, warmup_ms: u64) -> Self {
        // Storage load is compared as utilization (used/capacity), matching
        // how real balancers and operators read `df` output; nodes may carry
        // different volume counts.
        let storage = report
            .by_role(Role::Storage)
            .filter(|n| n.capacity > 0)
            .map(|n| n.storage as f64 / n.capacity as f64)
            .collect();
        let warm = || {
            report
                .by_role(Role::Management)
                .filter(move |n| n.uptime_ms >= warmup_ms)
        };
        LoadVectors {
            storage,
            cpu: warm().map(|n| n.cpu).collect(),
            net: warm().map(|n| n.network()).collect(),
        }
    }

    /// The O(n) part of the model: max/mean ratios and means.
    fn ratios(&self) -> LoadRatios {
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        LoadRatios {
            storage_ratio: max_over_mean(&self.storage),
            cpu_ratio: max_over_mean(&self.cpu),
            network_ratio: max_over_mean(&self.net),
            storage_mean: mean(&self.storage),
            cpu_mean: mean(&self.cpu),
            network_mean: mean(&self.net),
        }
    }
}

/// The detector's inputs: the max/mean ratios and means of a
/// [`VarianceScore`], without its O(n²) pairwise sums.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct LoadRatios {
    /// Max/mean storage ratio.
    pub storage_ratio: f64,
    /// Max/mean CPU ratio.
    pub cpu_ratio: f64,
    /// Max/mean network ratio.
    pub network_ratio: f64,
    /// Mean storage utilization per storage node.
    pub storage_mean: f64,
    /// Mean CPU per management node.
    pub cpu_mean: f64,
    /// Mean network load per management node.
    pub network_mean: f64,
}

/// Computes the Load Variance Model over a load report, excluding
/// management nodes younger than `warmup_ms` (their rate counters carry no
/// signal yet; including them lets a tester "raise variance" by merely
/// adding nodes).
pub fn score_warmed(report: &LoadReport, warmup_ms: u64) -> VarianceScore {
    let v = LoadVectors::of(report, warmup_ms);
    let r = v.ratios();
    VarianceScore {
        storage: normalized_pairwise(&v.storage),
        cpu: normalized_pairwise(&v.cpu),
        network: normalized_pairwise(&v.net),
        storage_ratio: r.storage_ratio,
        cpu_ratio: r.cpu_ratio,
        network_ratio: r.network_ratio,
        storage_mean: r.storage_mean,
        cpu_mean: r.cpu_mean,
        network_mean: r.network_mean,
    }
}

/// The ratio and mean fields of [`score_warmed`], bit for bit, in O(n):
/// the same vectors reduced by the same expressions, minus the pairwise
/// sums.
pub(crate) fn ratios_warmed(report: &LoadReport, warmup_ms: u64) -> LoadRatios {
    LoadVectors::of(report, warmup_ms).ratios()
}

/// Computes the Load Variance Model over a load report.
pub fn score(report: &LoadReport) -> VarianceScore {
    score_warmed(report, 0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adaptor::NodeLoad;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A random report mixing storage nodes (some without capacity, some
    /// offline or crashed) with management nodes on both sides of
    /// `warmup_ms`, with loads drawn near the detector's default gates and
    /// from a small pool so ties and zeros are common.
    pub(crate) fn random_report(seed: u64, warmup_ms: u64) -> LoadReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(0..40usize);
        let nodes = (0..n as u64)
            .map(|id| {
                let online = rng.random_range(0..8u32) != 0;
                let pick = |rng: &mut StdRng, hi: f64| match rng.random_range(0..4u32) {
                    0 => 0.0,
                    1 => hi / 2.0,
                    _ => rng.random_range(0..1000u32) as f64 * hi / 1000.0,
                };
                let storage_node = rng.random_range(0..2u32) == 0;
                let capacity = if storage_node && rng.random_range(0..5u32) != 0 {
                    1 << 30
                } else {
                    0
                };
                NodeLoad {
                    node: id,
                    role: if storage_node {
                        Role::Storage
                    } else {
                        Role::Management
                    },
                    online,
                    crashed: !online && rng.random_range(0..2u32) == 0,
                    cpu: pick(&mut rng, 12.0),
                    rps: pick(&mut rng, 30.0),
                    read_io: pick(&mut rng, 10.0),
                    write_io: pick(&mut rng, 10.0),
                    storage: rng.random_range(0..(1u64 << 29)),
                    capacity,
                    uptime_ms: warmup_ms - 1 + rng.random_range(0..3u64),
                }
            })
            .collect();
        LoadReport { time_ms: 0, nodes }
    }

    #[test]
    fn ratios_match_full_score_bit_for_bit() {
        let warmup = 480_000;
        for seed in 0..2000u64 {
            let report = random_report(seed, warmup);
            let s = score_warmed(&report, warmup);
            let r = ratios_warmed(&report, warmup);
            let pairs = [
                (s.storage_ratio, r.storage_ratio),
                (s.cpu_ratio, r.cpu_ratio),
                (s.network_ratio, r.network_ratio),
                (s.storage_mean, r.storage_mean),
                (s.cpu_mean, r.cpu_mean),
                (s.network_mean, r.network_mean),
            ];
            for (a, b) in pairs {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: {s:?} vs {r:?}");
            }
        }
    }

    fn storage_node(id: u64, bytes: u64) -> NodeLoad {
        NodeLoad {
            node: id,
            role: Role::Storage,
            online: true,
            crashed: false,
            cpu: 0.0,
            rps: 0.0,
            read_io: 0.0,
            write_io: 0.0,
            storage: bytes,
            capacity: 1 << 30,
            uptime_ms: 1 << 40,
        }
    }

    fn mgmt_node(id: u64, cpu: f64, rps: f64) -> NodeLoad {
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
    fn even_load_scores_zero_variance() {
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![
                storage_node(1, 100),
                storage_node(2, 100),
                storage_node(3, 100),
            ],
        };
        let s = score(&report);
        assert_eq!(s.storage, 0.0);
        assert!((s.storage_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_load_scores_positive_variance() {
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![
                storage_node(1, 10),
                storage_node(2, 10),
                storage_node(3, 100),
            ],
        };
        let s = score(&report);
        assert!(s.storage > 0.5);
        // mean = 40, max = 100 -> ratio 2.5.
        assert!((s.storage_ratio - 2.5).abs() < 1e-12);
    }

    #[test]
    fn variance_is_scale_free() {
        let a = LoadReport {
            time_ms: 0,
            nodes: vec![storage_node(1, 10), storage_node(2, 30)],
        };
        let b = LoadReport {
            time_ms: 0,
            nodes: vec![storage_node(1, 1_000), storage_node(2, 3_000)],
        };
        assert!((score(&a).storage - score(&b).storage).abs() < 1e-12);
    }

    #[test]
    fn cpu_and_network_measured_on_mgmt_nodes() {
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![
                mgmt_node(1, 10.0, 100.0),
                mgmt_node(2, 2.0, 20.0),
                storage_node(3, 50),
                storage_node(4, 50),
            ],
        };
        let s = score(&report);
        assert!(s.cpu > 0.0);
        assert!(s.network > 0.0);
        assert_eq!(s.storage, 0.0);
    }

    #[test]
    fn weighted_score_respects_weights() {
        let s = VarianceScore {
            storage: 1.0,
            storage_ratio: 2.0,
            ..Default::default()
        };
        let even = s.weighted(&VarianceWeights::default());
        let heavy = s.weighted(&VarianceWeights::storage_weighted(1.0));
        assert!(heavy > even);
        assert!((heavy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn storage_weighted_sums_to_one() {
        // In-range sweep values plus out-of-range inputs, which must be
        // clamped into [0, 1] rather than producing weights that sum to
        // something other than 1 (regression: `storage_weighted(1.5)` used
        // to return {1.5, 0, 0} and `storage_weighted(-1.0)` {-1, 1, 1}).
        for w in [
            1.0 / 6.0,
            1.0 / 3.0,
            0.5,
            2.0 / 3.0,
            1.0,
            -1.0,
            -0.25,
            1.5,
            42.0,
        ] {
            let v = VarianceWeights::storage_weighted(w);
            assert!(
                (v.storage + v.cpu + v.network - 1.0).abs() < 1e-12,
                "weights for input {w} must sum to 1: {v:?}"
            );
            assert!((0.0..=1.0).contains(&v.storage));
            assert!(v.cpu >= 0.0 && v.network >= 0.0);
        }
    }

    #[test]
    fn offline_nodes_are_ignored() {
        let mut down = storage_node(9, 1_000_000);
        down.online = false;
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![storage_node(1, 100), storage_node(2, 100), down],
        };
        assert_eq!(score(&report).storage, 0.0);
    }

    #[test]
    fn warming_up_mgmt_and_zero_capacity_storage_nodes_are_excluded() {
        let mut young = mgmt_node(3, 90.0, 90.0);
        young.uptime_ms = 999;
        let mut empty = storage_node(6, 1 << 29);
        empty.capacity = 0;
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![
                mgmt_node(1, 5.0, 5.0),
                mgmt_node(2, 5.0, 5.0),
                young,
                storage_node(4, 100),
                storage_node(5, 100),
                empty,
            ],
        };
        let r = ratios_warmed(&report, 1000);
        assert_eq!(
            (r.cpu_ratio, r.network_ratio, r.storage_ratio),
            (1.0, 1.0, 1.0)
        );
        assert_eq!(r.cpu_mean, 5.0);
        // Old enough once uptime reaches the warm-up period.
        let r = ratios_warmed(&report, 999);
        assert!(r.cpu_ratio > 2.0 && r.network_ratio > 2.0);
        assert_eq!(score_warmed(&report, 999).cpu_ratio, r.cpu_ratio);
    }

    #[test]
    fn degenerate_single_node_is_balanced() {
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![storage_node(1, 100)],
        };
        let s = score(&report);
        assert_eq!(s.storage, 0.0);
        assert_eq!(s.storage_ratio, 1.0);
    }
}
