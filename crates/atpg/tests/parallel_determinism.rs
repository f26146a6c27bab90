//! The parallel campaign engine must produce byte-identical reports at
//! every thread count, and those reports must equal the sequential
//! engine's — fault dropping included.

use atpg_easy_atpg::campaign::{self, AtpgConfig};
use atpg_easy_atpg::parallel::AtpgCampaign;
use atpg_easy_circuits::suite;
use atpg_easy_netlist::Netlist;

fn circuits() -> Vec<(String, Netlist)> {
    let mut picked = Vec::new();
    picked.push(("c17".to_string(), suite::c17()));
    for c in suite::mcnc_like() {
        if c.name == "rca8" {
            picked.push((c.name, c.netlist));
        }
    }
    for c in suite::iscas_like() {
        if c.name == "c432w" {
            picked.push((c.name, c.netlist));
        }
    }
    assert_eq!(picked.len(), 3, "suite circuits present");
    picked
}

#[test]
fn reports_identical_for_1_2_8_threads() {
    let config = AtpgConfig {
        random_patterns: 64,
        seed: 0xDEC0DE,
        ..AtpgConfig::default()
    };
    for (name, nl) in circuits() {
        let sequential = campaign::run(&nl, &config);
        let reference = sequential.canonical_report();
        for threads in [1, 2, 8] {
            let run = AtpgCampaign::new(config).with_threads(threads).run(&nl);
            assert_eq!(
                run.result.canonical_report(),
                reference,
                "{name} at {threads} threads diverges from the sequential campaign"
            );
            assert!(
                (run.result.coverage() - sequential.coverage()).abs() < 1e-12,
                "{name}: coverage must match"
            );
        }
    }
}

#[test]
fn dominance_collapsed_campaign_is_thread_count_independent() {
    let config = AtpgConfig {
        dominance: true,
        random_patterns: 16,
        seed: 3,
        ..AtpgConfig::default()
    };
    let nl = suite::c17();
    let reference = AtpgCampaign::new(config).with_threads(1).run(&nl);
    let wide = AtpgCampaign::new(config).with_threads(8).run(&nl);
    assert_eq!(
        reference.result.canonical_report(),
        wide.result.canonical_report()
    );
}

/// The static pre-pass retires faults before any worker sees them: the
/// parallel engine must emit the same records for them as the sequential
/// driver, and count them apart from dropped and solved faults.
#[test]
fn static_prune_matches_sequential_at_every_thread_count_and_window() {
    let nl = suite::mcnc_like()
        .into_iter()
        .find(|c| c.name == "rand60")
        .expect("suite circuit present")
        .netlist;
    for incremental in [false, true] {
        let config = AtpgConfig {
            static_prune: true,
            incremental,
            random_patterns: 16,
            seed: 5,
            ..AtpgConfig::default()
        };
        let sequential = campaign::run(&nl, &config);
        assert!(
            sequential.statically_pruned() > 0,
            "fixture must exercise the static pre-pass"
        );
        for threads in [1, 2, 4] {
            for window in [1, 16] {
                let case = format!("incremental={incremental} threads={threads} window={window}");
                let run = AtpgCampaign::new(config)
                    .with_threads(threads)
                    .with_commit_window(window)
                    .run(&nl);
                assert_eq!(
                    run.result.detection_report(),
                    sequential.detection_report(),
                    "{case}: detection must match the sequential campaign"
                );
                if !incremental && window == 1 {
                    assert_eq!(
                        run.result.canonical_report(),
                        sequential.canonical_report(),
                        "{case}: fresh solving at window 1 keeps byte identity"
                    );
                }
                let r = &run.report;
                assert!(r.static_pruned > 0, "{case}");
                assert_eq!(r.static_pruned, run.result.statically_pruned(), "{case}");
                assert_eq!(
                    r.committed_solves() + r.dropped + r.static_pruned,
                    r.queue_depth,
                    "{case}: every fault is pruned, dropped or solved once"
                );
            }
        }
    }
}
