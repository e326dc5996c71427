//! Metrics-plane reconciliation property: under random threaded traffic —
//! faults injected and cleared mid-run — the [`MetricsSnapshot`] counters
//! must reconcile exactly at every quiescent point:
//!
//! * per lane: `admitted == completed + diverged + failed` and
//!   `in_queue == 0` once drained (mid-run, `in_queue` is the difference);
//! * per service: the per-session `submitted` total equals the terminal
//!   total (`completed + diverged`) — every accepted request reaches
//!   exactly one terminal classification, whatever path it took;
//! * across planes: every [`dlt_serve::ServeStats`] counter that has a twin
//!   in the metrics registry or the TEE kernel equals that twin, so each
//!   event is counted in one place and read from there.

use dlt_core::FaultPlan;
use dlt_obs::metrics::MetricsSnapshot;
use dlt_obs::ObsConfig;
use dlt_serve::{
    Device, DriverletService, ExecMode, FailoverConfig, QosConfig, Request, RouteConfig,
    RoutePolicy, ServeConfig, SessionQos, SubmitMode, SuperviseConfig,
};
use proptest::prelude::*;

fn reconcile_lanes(snap: &MetricsSnapshot) {
    for lane in &snap.lanes {
        prop_assert_eq!(lane.in_queue, 0, "lane {} drained but holds work", lane.lane);
        prop_assert_eq!(
            lane.admitted,
            lane.completed + lane.diverged + lane.failed,
            "lane {} ({}) leaked a request between admission and its terminal event",
            lane.lane,
            &lane.device
        );
    }
}

/// Cross-plane conservation at a quiescent point: each `ServeStats`
/// counter with a registry or TEE twin equals it.
fn conserve(service: &DriverletService, snap: &MetricsSnapshot) {
    let stats = service.stats();
    prop_assert_eq!(stats.doorbells, service.smc_doorbells(), "doorbells vs TEE doorbell SMCs");
    let r = &snap.robustness;
    prop_assert_eq!(stats.throttled, r.throttled, "throttled");
    prop_assert_eq!(stats.failovers, r.failovers, "failovers");
    prop_assert_eq!(stats.failover_exhausted, r.failover_exhausted, "failover_exhausted");
    prop_assert_eq!(stats.quarantines, r.quarantines, "quarantines");
    prop_assert_eq!(stats.lane_restores, r.lane_restores, "lane_restores");
    let session_throttled: u64 = snap.sessions.iter().map(|s| s.throttled).sum();
    prop_assert_eq!(stats.throttled, session_throttled, "throttled vs session series");
    prop_assert_eq!(stats.routed, snap.route.decisions, "routed");
    prop_assert_eq!(stats.route_spills, snap.route.spills, "route_spills");
    prop_assert_eq!(stats.stripe_fanouts, snap.route.stripe_fanouts, "stripe_fanouts");
    prop_assert_eq!(stats.stripe_parts, snap.route.stripe_parts, "stripe_parts");
    // Every lane execution ends in exactly one lane terminal event.
    let lane_terminal: u64 = snap.lanes.iter().map(|l| l.completed + l.diverged + l.failed).sum();
    prop_assert_eq!(stats.completed, lane_terminal, "completed vs lane terminals");
}

/// One randomized threaded run. `fleet` serves two MMC replicas striped
/// two blocks wide, with admission QoS, failover and supervision on, so
/// the routing and robustness counters move too.
fn run_case(choices: &[u8], mode: SubmitMode, fleet: bool) {
    let mut config = ServeConfig {
        submit_mode: mode,
        exec_mode: ExecMode::Threaded,
        obs: ObsConfig::Full,
        block_granularities: vec![1, 8],
        ..ServeConfig::default()
    };
    let devices: &[Device] = if fleet {
        config.route =
            RouteConfig { policy: RoutePolicy::Stripe { stripe_blocks: 2 }, spill: true };
        config.qos = QosConfig {
            enabled: true,
            default_qos: SessionQos { rate_rps: 20_000, burst: 4, weight: 1 },
        };
        config.failover = FailoverConfig { enabled: true, ..FailoverConfig::default() };
        config.supervise =
            SuperviseConfig { enabled: true, divergence_threshold: 2, window: 8, probation_ok: 2 };
        &[Device::Mmc, Device::Mmc, Device::Usb]
    } else {
        &[Device::Mmc, Device::Usb]
    };
    let mut service = DriverletService::new(devices, config).expect("build service");
    let sessions: Vec<u32> = (0..3).map(|_| service.open_session().unwrap()).collect();

    let mut faulted = false;
    for (i, byte) in choices.iter().enumerate() {
        let session = sessions[*byte as usize % sessions.len()];
        let device = if byte % 2 == 0 { Device::Mmc } else { Device::Usb };
        match byte % 7 {
            // Flip the fault state on the MMC lane: replays from here on
            // diverge (sticky) until the next flip clears it.
            0 => {
                if faulted {
                    service.clear_fault(Device::Mmc).expect("clear fault");
                } else {
                    service
                        .inject_fault(
                            Device::Mmc,
                            FaultPlan {
                                template: Some("_rd_".to_string()),
                                sticky: true,
                                ..FaultPlan::default()
                            },
                        )
                        .expect("inject fault");
                }
                faulted = !faulted;
            }
            // A quiescent checkpoint mid-run: the invariants must already
            // hold here, not only at the end.
            1 => {
                service.drain_all();
                for s in &sessions {
                    service.take_completions(*s);
                }
                let snap = service.metrics_snapshot().expect("metrics plane is on");
                reconcile_lanes(&snap);
                conserve(&service, &snap);
            }
            2 | 3 => {
                let data = vec![*byte; 512];
                let _ = service.submit(
                    session,
                    Request::Write { device, blkid: 64 + u32::from(*byte % 32), data },
                );
            }
            _ => {
                let _ = service.submit(
                    session,
                    Request::Read {
                        device,
                        blkid: 64 + u32::from(*byte % 32),
                        blkcnt: 1 + u32::from(i as u8 % 4),
                    },
                );
            }
        }
        if mode == SubmitMode::Ring && byte % 5 == 0 {
            service.ring_doorbell().expect("doorbell");
        }
    }
    service.drain_all();
    for s in &sessions {
        service.take_completions(*s);
    }

    let snap = service.metrics_snapshot().expect("metrics plane is on");
    reconcile_lanes(&snap);
    conserve(&service, &snap);

    let submitted: u64 = snap.sessions.iter().map(|s| s.submitted).sum();
    let terminal: u64 = snap.sessions.iter().map(|s| s.completed + s.diverged).sum();
    prop_assert_eq!(
        submitted,
        terminal,
        "sessions saw {} submissions but {} terminal completions",
        submitted,
        terminal
    );

    // The faulted phases produced real divergences exactly when a fault
    // was live; the lane counter and the session counters agree on them
    // (on a fleet, failover swallows some and a striped parent folds
    // several member divergences into one).
    if !fleet {
        let lane_diverged: u64 = snap.lanes.iter().map(|l| l.diverged).sum();
        let session_diverged: u64 = snap.sessions.iter().map(|s| s.diverged).sum();
        prop_assert_eq!(lane_diverged, session_diverged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn per_call_metrics_reconcile_under_faulted_threaded_traffic(
        choices in proptest::collection::vec(any::<u8>(), 24..64)
    ) {
        run_case(&choices, SubmitMode::PerCall, false);
    }

    #[test]
    fn ring_metrics_reconcile_under_faulted_threaded_traffic(
        choices in proptest::collection::vec(any::<u8>(), 24..64)
    ) {
        run_case(&choices, SubmitMode::Ring, false);
    }

    #[test]
    fn fleet_metrics_and_stats_conserve_under_faulted_threaded_traffic(
        choices in proptest::collection::vec(any::<u8>(), 24..64)
    ) {
        let mode = if choices[0] % 2 == 0 { SubmitMode::PerCall } else { SubmitMode::Ring };
        run_case(&choices, mode, true);
    }
}
