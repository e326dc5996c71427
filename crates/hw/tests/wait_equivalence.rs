//! `SystemBus::wait_for_irq` lands idle waits on the poll grid in one clock
//! step when every device vouches (`MmioDevice::quiet_until_ns`). Stepping
//! the grid quantum by quantum is the oracle: both must produce the same
//! result, the same virtual time and the same interrupt state.

use dlt_hw::device::SharedDevice;
use dlt_hw::{shared, CostModel, HwError, IrqController, MmioDevice, Platform, Shared, World};
use proptest::prelude::*;

const LINE: u32 = dlt_hw::irq::lines::VCHIQ;

/// A polled device in the style of the VC4 model: it raises its interrupt
/// (after a delivery latency) on the first tick at or after its due time,
/// and reports no exact deadline, so waits reach it on the poll grid.
struct PolledToy {
    irqs: Shared<IrqController>,
    due_ns: Option<u64>,
    delivery_ns: u64,
    vouches: bool,
}

impl MmioDevice for PolledToy {
    fn name(&self) -> &'static str {
        "polled"
    }
    fn mmio_base(&self) -> u64 {
        0x3f00_2000
    }
    fn mmio_len(&self) -> u64 {
        0x100
    }
    fn read32(&mut self, _offset: u64, _now_ns: u64) -> u32 {
        0
    }
    fn write32(&mut self, _offset: u64, _val: u32, _now_ns: u64) {}
    fn tick(&mut self, now_ns: u64) {
        if self.due_ns.is_some_and(|due| now_ns >= due) {
            self.due_ns = None;
            self.irqs.lock().assert_at(LINE, now_ns + self.delivery_ns);
        }
    }
    fn soft_reset(&mut self, _now_ns: u64) {
        self.due_ns = None;
    }
    fn irq_line(&self) -> Option<u32> {
        Some(LINE)
    }
    fn quiet_until_ns(&self) -> Option<u64> {
        self.vouches.then(|| self.due_ns.unwrap_or(u64::MAX))
    }
}

fn rig(poll_delay_ns: u64, delivery_ns: u64, vouches: bool) -> (Platform, Shared<PolledToy>) {
    let p = Platform::with_cost(CostModel { poll_delay_ns, ..CostModel::default() });
    let toy = shared(PolledToy { irqs: p.irqs.clone(), due_ns: None, delivery_ns, vouches });
    p.bus.lock().attach(SharedDevice::boxed(toy.clone())).unwrap();
    (p, toy)
}

/// Everything a wait leaves behind that later code could observe.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `Ok(waited_us)`, or the `waited_us` of a `Timeout`.
    result: Result<u64, u64>,
    now_ns: u64,
    pending: bool,
    scheduled: Option<u64>,
    asserts: u64,
    armed: Option<u64>,
}

fn wait(p: &Platform, toy: &Shared<PolledToy>, timeout_us: u64) -> Outcome {
    let result = p.bus.lock().wait_for_irq(LINE, timeout_us, World::Secure);
    let result = result.map_err(|e| match e {
        HwError::Timeout { waited_us, .. } => waited_us,
        other => panic!("a wait can only time out: {other}"),
    });
    let now_ns = p.now_ns();
    let irqs = p.irqs.lock();
    Outcome {
        result,
        now_ns,
        pending: irqs.is_pending(LINE, now_ns),
        scheduled: irqs.next_deadline(LINE),
        asserts: irqs.assert_count(),
        armed: toy.lock().due_ns,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rounds of (arm the device, wait, acknowledge, idle gap) on a
    /// vouching and a stepping platform stay in lock step, and each vouched
    /// wait takes O(1) clock advances however many quanta it spans.
    /// Timeouts range from zero to past the due time.
    #[test]
    fn landing_on_the_poll_grid_matches_stepping(
        poll_delay_ns in 250u64..20_000,
        delivery_ns in 0u64..30_000,
        start_offset_ns in 0u64..1_000_000,
        rounds in 1usize..4,
        dues_in_ns in proptest::collection::vec(0u64..2_000_000, 3),
        timeouts_us in proptest::collection::vec(0u64..3_000, 3),
        gaps_ns in proptest::collection::vec(0u64..50_000, 3),
    ) {
        let (fast, fast_toy) = rig(poll_delay_ns, delivery_ns, true);
        let (slow, slow_toy) = rig(poll_delay_ns, delivery_ns, false);
        for p in [&fast, &slow] {
            p.clock.lock().advance_ns(start_offset_ns);
        }
        for round in 0..rounds {
            let (due_in_ns, timeout_us) = (dues_in_ns[round], timeouts_us[round]);
            for (p, toy) in [(&fast, &fast_toy), (&slow, &slow_toy)] {
                toy.lock().due_ns = Some(p.now_ns() + due_in_ns);
            }
            let before = fast.clock.lock().advance_count();
            let got = wait(&fast, &fast_toy, timeout_us);
            let advances = fast.clock.lock().advance_count() - before;
            let want = wait(&slow, &slow_toy, timeout_us);
            prop_assert_eq!(&got, &want, "due in {due_in_ns} ns, timeout {timeout_us} us");
            prop_assert!(advances <= 4, "a vouched wait took {advances} clock advances");
            for p in [&fast, &slow] {
                p.bus.lock().ack_irq(LINE);
                p.clock.lock().advance_ns(gaps_ns[round]);
            }
        }
    }
}

/// A timeout that reaches past the end of virtual time saturates: the wait
/// returns a typed `Timeout` instead of overflowing (a debug-build panic)
/// or wrapping into an immediate, spurious timeout.
#[test]
fn huge_timeouts_saturate_instead_of_overflowing() {
    for (start_ns, timeout_us) in [(0, u64::MAX), (5_000, u64::MAX / 1_000)] {
        let (p, _toy) = rig(10_000, 0, true);
        p.clock.lock().advance_ns(start_ns);
        let err = p.bus.lock().wait_for_irq(LINE, timeout_us, World::Secure).unwrap_err();
        let HwError::Timeout { waited_us, .. } = err else { panic!("expected a timeout: {err}") };
        assert_eq!(waited_us, (u64::MAX - start_ns) / 1_000);
        assert_eq!(p.now_ns(), u64::MAX);
    }
}
