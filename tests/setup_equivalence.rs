//! One setup, three ways: for every scenario configuration the
//! `mitosis-sim` runner, the live run of its capture and a serial replay of
//! that capture must report the same metrics, and the bytes every capture
//! writes are pinned by one digest.
//!
//! The runners, the captures and replay all build their systems from the
//! same setup description, so a drift between any two of them — a setup
//! step one applies and another skips, a different thread placement, a
//! different populate order — shows up here as unequal metrics or as a
//! changed digest.

use mitosis_numa::{NodeMask, SocketId, GIB};
use mitosis_sim::{
    MigrationConfig, MigrationRun, MultiSocketConfig, MultiSocketScenario, PhaseChange,
    PhaseSchedule, RunMetrics, SimParams, WorkloadMigrationScenario,
};
use mitosis_trace::{
    capture_engine_run_dynamic, capture_migration_scenario, capture_multisocket_scenario,
    CapturedRun, ReplayRequest, ReplaySession,
};
use mitosis_workloads::{suite, WorkloadSpec};

/// FNV-1a 64 over `to_bytes()` of every capture in [`all_captures`], in
/// order, computed before the runners, the captures and replay shared one
/// setup interpreter.  A change here means some capture now writes
/// different bytes, so traces captured before it would no longer match a
/// fresh capture.
const CAPTURE_DIGEST: u64 = 0xea85_faf9_b3fc_58f2;

/// The three parameter sets every configuration runs under: plain, with
/// heavy allocator fragmentation, and with ranged shootdowns.
fn param_sets() -> [(&'static str, SimParams); 3] {
    let base = SimParams::quick_test().with_accesses(300);
    [
        ("plain", base.clone()),
        ("fragmented", base.clone().with_heavy_fragmentation()),
        ("ranged", base.with_ranged_shootdowns()),
    ]
}

/// The multi-socket workload: Memcached's parallel first-touch init and
/// hot/cold pattern over a footprint small enough for a debug build.
fn multisocket_spec() -> WorkloadSpec {
    suite::memcached().with_footprint(48 * GIB)
}

/// All 16 multi-socket configurations: data policy × AutoNUMA × Mitosis ×
/// THP.
fn multisocket_configs() -> Vec<MultiSocketConfig> {
    let mut configs = Vec::new();
    for interleave in [false, true] {
        for autonuma in [false, true] {
            for mitosis in [false, true] {
                for thp in [false, true] {
                    let mut config = MultiSocketConfig::first_touch();
                    if interleave {
                        config = config.with_interleave();
                    }
                    if autonuma {
                        config = config.with_autonuma();
                    }
                    if mitosis {
                        config = config.with_mitosis();
                    }
                    if thp {
                        config = config.with_thp();
                    }
                    configs.push(config);
                }
            }
        }
    }
    configs
}

/// All 28 migration runs: the seven Table 2 configurations × Mitosis × THP.
fn migration_runs() -> Vec<MigrationRun> {
    let mut runs = Vec::new();
    for config in MigrationConfig::all() {
        for mitosis in [false, true] {
            for thp in [false, true] {
                let mut run = MigrationRun::new(config);
                if mitosis {
                    run = run.with_mitosis();
                }
                if thp {
                    run = run.with_thp();
                }
                runs.push(run);
            }
        }
    }
    runs
}

fn serial_replay(captured: &CapturedRun, params: &SimParams) -> RunMetrics {
    ReplaySession::new(params)
        .replay(&captured.trace, &ReplayRequest::new().serial())
        .expect("serial replay")
        .outcome
        .metrics
}

/// Asserts runner == capture == replay for one case.
fn assert_agree(label: &str, runner: &RunMetrics, captured: &CapturedRun, params: &SimParams) {
    assert_eq!(
        *runner, captured.live_metrics,
        "{label}: the runner and the capture's live run differ"
    );
    assert_eq!(
        serial_replay(captured, params),
        captured.live_metrics,
        "{label}: the replay differs from the capture's live run"
    );
}

fn multisocket_case(config: MultiSocketConfig, params: &SimParams, label: &str) {
    let spec = multisocket_spec();
    let runner = MultiSocketScenario::run(&spec, config, params).expect("runner");
    let captured = capture_multisocket_scenario(&spec, config, params).expect("capture");
    assert_agree(label, &runner.metrics, &captured, params);
}

#[test]
fn multisocket_runner_capture_and_replay_agree() {
    for (name, params) in param_sets() {
        for config in multisocket_configs() {
            multisocket_case(config, &params, &format!("{name} {}", config.label()));
        }
    }
}

#[test]
fn migration_runner_capture_and_replay_agree() {
    let spec = suite::gups();
    for (name, params) in param_sets() {
        for run in migration_runs() {
            let label = format!("{name} {}", run.label());
            let runner = WorkloadMigrationScenario::run(&spec, run, &params).expect("runner");
            let captured = capture_migration_scenario(&spec, run, &params).expect("capture");
            assert_agree(&label, &runner.metrics, &captured, &params);
        }
    }
}

#[test]
fn multisocket_runner_honours_threads_per_socket() {
    let params = SimParams::quick_test()
        .with_accesses(300)
        .with_threads_per_socket(2);
    for config in multisocket_configs() {
        multisocket_case(config, &params, &format!("2/socket {}", config.label()));
    }
}

/// Socket lists a caller may pass to `capture_engine_run_dynamic`: sorted,
/// unsorted and with duplicates.
fn dynamic_socket_lists() -> [Vec<SocketId>; 3] {
    let sockets = |ids: &[u16]| ids.iter().copied().map(SocketId::new).collect();
    [sockets(&[0, 1]), sockets(&[2, 0, 1]), sockets(&[1, 1, 0])]
}

/// An empty schedule and one that adds and then drops page-table replicas.
fn dynamic_schedules() -> [PhaseSchedule; 2] {
    [
        PhaseSchedule::new(),
        PhaseSchedule::new()
            .at(
                100,
                PhaseChange::SetReplicas {
                    sockets: NodeMask::all(3),
                },
            )
            .at(
                200,
                PhaseChange::SetReplicas {
                    sockets: NodeMask::new(),
                },
            ),
    ]
}

#[test]
fn dynamic_captures_with_any_socket_order_replay_identically() {
    let params = SimParams::quick_test().with_accesses(300);
    for sockets in dynamic_socket_lists() {
        for schedule in dynamic_schedules() {
            let captured =
                capture_engine_run_dynamic(&multisocket_spec(), &params, &sockets, &schedule)
                    .expect("capture");
            assert_eq!(
                serial_replay(&captured, &params),
                captured.live_metrics,
                "sockets {sockets:?}, {} events",
                schedule.events().len()
            );
        }
    }
}

/// Every capture the digest covers, in a fixed order.
fn all_captures() -> Vec<CapturedRun> {
    let mut captures = Vec::new();
    for (_, params) in param_sets() {
        for config in multisocket_configs() {
            captures.push(capture_multisocket_scenario(
                &multisocket_spec(),
                config,
                &params,
            ));
        }
        for run in migration_runs() {
            captures.push(capture_migration_scenario(&suite::gups(), run, &params));
        }
    }
    let base = SimParams::quick_test().with_accesses(300);
    let two_per_socket = base.clone().with_threads_per_socket(2);
    for config in multisocket_configs() {
        captures.push(capture_multisocket_scenario(
            &multisocket_spec(),
            config,
            &two_per_socket,
        ));
    }
    for sockets in dynamic_socket_lists() {
        for schedule in dynamic_schedules() {
            captures.push(capture_engine_run_dynamic(
                &multisocket_spec(),
                &base,
                &sockets,
                &schedule,
            ));
        }
    }
    captures
        .into_iter()
        .map(|captured| captured.expect("capture"))
        .collect()
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn capture_bytes_are_pinned() {
    let captures = all_captures();
    assert_eq!(captures.len(), 3 * (16 + 28) + 16 + 6);
    let digest = captures
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, captured| {
            fnv1a(hash, &captured.trace.to_bytes().expect("encode"))
        });
    assert_eq!(
        digest, CAPTURE_DIGEST,
        "capture bytes changed: digest {digest:#018x}"
    );
}
