//! A campaign is a pure function of (flavor, strategy, seed): the grid
//! executor must return bit-identical results to serial execution no
//! matter how many workers race over the matrix.

use bench::{run_cell, run_grid, GridSpec};
use simdfs::{BugSet, Flavor};

#[test]
fn grid_results_are_identical_to_serial_at_any_worker_count() {
    // The reference is the fresh-deploy serial path (`run_cell`): one
    // brand-new simulator per cell, no reuse, no pool. Every worker count
    // — including 1, which also reuses simulators via base-restore — must
    // reproduce it bit for bit, both structurally and through the
    // canonical JSON report.
    let base = GridSpec::new(
        vec![Flavor::GlusterFs, Flavor::Hdfs],
        vec!["Themis".into()],
        vec![0xbe, 7],
        BugSet::New,
        1,
    );
    let serial: Vec<_> = (0..base.cells()).map(|i| run_cell(&base, i)).collect();
    for workers in [1, 2, 4, 8] {
        let spec = GridSpec {
            workers,
            ..base.clone()
        };
        let out = run_grid(&spec);
        assert_eq!(out.cells.len(), serial.len());
        assert_eq!(
            out.worker_stats.iter().map(|s| s.cells_run).sum::<u64>() as usize,
            serial.len()
        );
        // Reuse must cap deploys at workers × flavors (and at least one
        // worker deployed something).
        let redeploys = out.redeploys();
        assert!(
            redeploys >= 1 && redeploys <= (workers * spec.flavors.len()) as u64,
            "workers={workers}: {redeploys} redeploys"
        );
        for (g, s) in out.cells.iter().zip(&serial) {
            assert_eq!(g.index, s.index);
            assert_eq!(
                g.eval.campaign,
                s.eval.campaign,
                "worker count {workers} changed cell {} ({} / {} / seed {})",
                g.index,
                g.flavor.name(),
                g.strategy,
                g.seed
            );
            assert_eq!(
                g.eval.campaign.to_json(),
                s.eval.campaign.to_json(),
                "canonical JSON diverged at workers={workers}, cell {}",
                g.index
            );
            assert_eq!(g.eval.found, s.eval.found);
            assert_eq!(g.eval.first_trigger_min, s.eval.first_trigger_min);
            assert_eq!(
                g.eval.false_positive_confirms,
                s.eval.false_positive_confirms
            );
        }
    }
}

#[test]
fn scaled_grid_cells_are_identical_to_serial_reference() {
    // The BENCH_4 configuration in miniature: heavy cells on a scaled
    // topology, reused per-worker sims vs. fresh-deploy serial reference.
    let base = GridSpec {
        scale_nodes: Some(60),
        ..GridSpec::new(
            vec![Flavor::Hdfs, Flavor::CephFs],
            vec!["Themis".into()],
            vec![0xbe, 21],
            BugSet::None,
            1,
        )
    };
    let serial: Vec<_> = (0..base.cells()).map(|i| run_cell(&base, i)).collect();
    for workers in [2, 4] {
        let out = run_grid(&GridSpec {
            workers,
            ..base.clone()
        });
        for (g, s) in out.cells.iter().zip(&serial) {
            assert_eq!(
                g.eval.campaign.to_json(),
                s.eval.campaign.to_json(),
                "scaled cell {} diverged at workers={workers}",
                g.index
            );
        }
    }
}
