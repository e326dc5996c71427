//! System bus, TZASC-style security filtering, and the [`Platform`] bundle.
//!
//! The bus maps device register windows and RAM into one physical address
//! space, charges virtual-time costs for every access, and enforces the
//! secure-world device assignment that a TZASC provides on real TrustZone
//! silicon (the paper modifies the Arm trusted firmware to assign the MMC and
//! VC4 instances to the TEE, §8.3.1).

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::device::MmioDevice;
use crate::error::HwError;
use crate::irq::IrqController;
use crate::mem::{DmaRegion, PhysMem};
use crate::{shared, HwResult, Shared};

/// Which world issued a bus access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum World {
    /// The untrusted rich OS (Linux in the paper).
    NonSecure,
    /// The TrustZone TEE (OP-TEE in the paper).
    Secure,
}

/// Mapping attribute for MMIO accesses. The replayer maps device memory
/// uncached (§6.2) which is slightly slower than the cached normal-world
/// mapping; the cost model charges accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmioAttr {
    /// Normal-world cacheable device mapping.
    Cached,
    /// TEE strongly-ordered / uncached device mapping.
    Uncached,
}

struct DeviceSlot {
    dev: Box<dyn MmioDevice>,
    name: &'static str,
    base: u64,
    len: u64,
    irq_line: Option<u32>,
    secure_only: bool,
}

/// The system interconnect.
pub struct SystemBus {
    clock: Shared<VirtualClock>,
    mem: Shared<PhysMem>,
    irqs: Shared<IrqController>,
    devices: Vec<DeviceSlot>,
    secure_ram: Vec<DmaRegion>,
    access_count: u64,
}

impl SystemBus {
    /// Create a bus over the given clock, memory and interrupt controller.
    pub fn new(
        clock: Shared<VirtualClock>,
        mem: Shared<PhysMem>,
        irqs: Shared<IrqController>,
    ) -> Self {
        SystemBus { clock, mem, irqs, devices: Vec::new(), secure_ram: Vec::new(), access_count: 0 }
    }

    /// Attach a device. Its register window must not overlap an existing one.
    pub fn attach(&mut self, dev: Box<dyn MmioDevice>) -> HwResult<()> {
        let (name, base, len, irq_line) =
            (dev.name(), dev.mmio_base(), dev.mmio_len(), dev.irq_line());
        for slot in &self.devices {
            let overlaps = base < slot.base + slot.len && slot.base < base + len;
            if overlaps {
                return Err(HwError::DeviceError {
                    device: name.to_string(),
                    reason: format!("register window overlaps {}", slot.name),
                });
            }
        }
        self.devices.push(DeviceSlot { dev, name, base, len, irq_line, secure_only: false });
        Ok(())
    }

    /// Assign a device exclusively to the secure world (TZASC programming).
    pub fn set_device_secure(&mut self, name: &str, secure_only: bool) -> HwResult<()> {
        for slot in &mut self.devices {
            if slot.name == name {
                slot.secure_only = secure_only;
                return Ok(());
            }
        }
        Err(HwError::NoSuchDevice { name: name.to_string() })
    }

    /// Mark a RAM window as secure-world-only (the TEE's reserved CMA pool).
    pub fn protect_ram(&mut self, region: DmaRegion) {
        self.secure_ram.push(region);
    }

    /// Remove all secure RAM windows (tests only).
    pub fn clear_ram_protection(&mut self) {
        self.secure_ram.clear();
    }

    /// Whether `name` is currently assigned to the secure world.
    pub fn is_device_secure(&self, name: &str) -> bool {
        self.devices.iter().any(|s| s.name == name && s.secure_only)
    }

    /// Names of all attached devices.
    pub fn device_names(&self) -> Vec<&'static str> {
        self.devices.iter().map(|s| s.name).collect()
    }

    /// The secure-world device whose register window fully contains
    /// `addr..addr+len`, if any. Used by the replayer's load-time hardening:
    /// a template may touch a second secure device (e.g. the system DMA
    /// engine next to the MMC host) and any secure window qualifies.
    pub fn secure_device_containing(&self, addr: u64, len: u64) -> Option<&'static str> {
        self.devices
            .iter()
            .find(|s| s.secure_only && addr >= s.base && addr.saturating_add(len) <= s.base + s.len)
            .map(|s| s.name)
    }

    /// MMIO register window of an attached device.
    pub fn device_window(&self, name: &str) -> HwResult<DmaRegion> {
        self.devices
            .iter()
            .find(|s| s.name == name)
            .map(|s| DmaRegion::new(s.base, s.len as usize))
            .ok_or_else(|| HwError::NoSuchDevice { name: name.to_string() })
    }

    /// Total number of MMIO accesses routed so far.
    pub fn access_count(&self) -> u64 {
        self.access_count
    }

    /// Shared clock handle.
    pub fn clock(&self) -> Shared<VirtualClock> {
        self.clock.clone()
    }

    /// Shared physical memory handle.
    pub fn mem(&self) -> Shared<PhysMem> {
        self.mem.clone()
    }

    /// Shared interrupt controller handle.
    pub fn irqs(&self) -> Shared<IrqController> {
        self.irqs.clone()
    }

    fn slot_for(&self, addr: u64) -> Option<usize> {
        self.devices.iter().position(|s| addr >= s.base && addr < s.base + s.len)
    }

    fn check_device_access(&self, idx: usize, addr: u64, world: World) -> HwResult<()> {
        if self.devices[idx].secure_only && world == World::NonSecure {
            return Err(HwError::PermissionDenied { addr, world });
        }
        Ok(())
    }

    fn check_ram_access(&self, addr: u64, len: usize, world: World) -> HwResult<()> {
        if world == World::Secure {
            return Ok(());
        }
        for r in &self.secure_ram {
            let end = addr.saturating_add(len as u64);
            if addr < r.end() && r.base < end {
                return Err(HwError::PermissionDenied { addr, world });
            }
        }
        Ok(())
    }

    /// Read a 32-bit device register.
    pub fn mmio_read32(&mut self, addr: u64, world: World, attr: MmioAttr) -> HwResult<u32> {
        if !addr.is_multiple_of(4) {
            return Err(HwError::Misaligned { addr, align: 4 });
        }
        let idx = self.slot_for(addr).ok_or(HwError::Unmapped { addr })?;
        self.check_device_access(idx, addr, world)?;
        let now = {
            let mut c = self.clock.lock();
            c.charge_mmio(attr == MmioAttr::Uncached);
            c.now_ns()
        };
        self.access_count += 1;
        let off = addr - self.devices[idx].base;
        let val = self.devices[idx].dev.read32(off, now);
        Ok(val)
    }

    /// Write a 32-bit device register.
    pub fn mmio_write32(
        &mut self,
        addr: u64,
        val: u32,
        world: World,
        attr: MmioAttr,
    ) -> HwResult<()> {
        if !addr.is_multiple_of(4) {
            return Err(HwError::Misaligned { addr, align: 4 });
        }
        let idx = self.slot_for(addr).ok_or(HwError::Unmapped { addr })?;
        self.check_device_access(idx, addr, world)?;
        let now = {
            let mut c = self.clock.lock();
            c.charge_mmio(attr == MmioAttr::Uncached);
            c.now_ns()
        };
        self.access_count += 1;
        let off = addr - self.devices[idx].base;
        self.devices[idx].dev.write32(off, val, now);
        Ok(())
    }

    /// Read bytes from RAM (charged as word copies).
    pub fn ram_read(&mut self, addr: u64, out: &mut [u8], world: World) -> HwResult<()> {
        self.check_ram_access(addr, out.len(), world)?;
        self.clock.lock().charge_pio_words((out.len() as u64).div_ceil(4));
        self.mem.lock().read_bytes(addr, out)
    }

    /// Write bytes to RAM (charged as word copies).
    pub fn ram_write(&mut self, addr: u64, src: &[u8], world: World) -> HwResult<()> {
        self.check_ram_access(addr, src.len(), world)?;
        self.clock.lock().charge_pio_words((src.len() as u64).div_ceil(4));
        self.mem.lock().write_bytes(addr, src)
    }

    /// Read a 32-bit little-endian word from RAM.
    pub fn ram_read32(&mut self, addr: u64, world: World) -> HwResult<u32> {
        self.check_ram_access(addr, 4, world)?;
        self.clock.lock().charge_pio_words(1);
        self.mem.lock().read32(addr)
    }

    /// Write a 32-bit little-endian word to RAM.
    pub fn ram_write32(&mut self, addr: u64, val: u32, world: World) -> HwResult<()> {
        self.check_ram_access(addr, 4, world)?;
        self.clock.lock().charge_pio_words(1);
        self.mem.lock().write32(addr, val)
    }

    /// Tick every attached device up to the current time.
    pub fn tick_all(&mut self) {
        let now = self.clock.lock().now_ns();
        self.irqs.lock().tick(now);
        for slot in &mut self.devices {
            slot.dev.tick(now);
        }
    }

    /// Busy-wait (advancing virtual time) for `us` microseconds, ticking
    /// devices as time passes. Models `udelay`.
    pub fn delay_us(&mut self, us: u64) {
        self.clock.lock().advance_us(us);
        self.tick_all();
    }

    /// The earliest scheduled event on this bus — an IRQ assertion deadline
    /// or a device-internal completion deadline — if any. `wait_for_irq`
    /// jumps straight to it instead of polling. (The serve layer's
    /// event loop does *not* read this: its next-event times come from
    /// queued arrival stamps and hold deadlines, because a lane's devices
    /// only make progress while a replay drives them.)
    pub fn next_event_ns(&self) -> Option<u64> {
        let next_irq = self.irqs.lock().earliest_deadline();
        let next_dev = self.devices.iter().filter_map(|s| s.dev.next_deadline_ns()).min();
        match (next_irq, next_dev) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The earliest time at which any attached device could act on its own
    /// (see [`MmioDevice::quiet_until_ns`]); `None` unless every device
    /// vouches.
    fn quiet_until_ns(&self) -> Option<u64> {
        self.devices.iter().try_fold(u64::MAX, |quiet, s| Some(quiet.min(s.dev.quiet_until_ns()?)))
    }

    /// Wait for interrupt `line` to become pending, advancing virtual time.
    ///
    /// Returns the number of virtual microseconds waited. Fails with
    /// [`HwError::Timeout`] once `timeout_us` has passed; a timeout that
    /// reaches past the end of virtual time saturates rather than wraps.
    ///
    /// Between checks for the interrupt, time moves by one of two rules:
    ///
    /// * **Exact deadline.** When an interrupt assertion or a device's
    ///   [`MmioDevice::next_deadline_ns`] falls after now and no later than
    ///   the timeout, the clock jumps straight to the earliest one.
    /// * **Poll grid.** Otherwise the wait advances one `poll_delay_ns`
    ///   quantum and ticks every device. When every attached device
    ///   vouches through [`MmioDevice::quiet_until_ns`], none of the ticks
    ///   before the earliest vouched time (or the timeout, if sooner) can
    ///   change anything, so the clock lands on the first grid instant at
    ///   or after it in one step: the same instant, in the same state, that
    ///   stepping quantum by quantum reaches.
    pub fn wait_for_irq(&mut self, line: u32, timeout_us: u64, _world: World) -> HwResult<u64> {
        let start = self.clock.lock().now_ns();
        let deadline = self.clock.lock().deadline_after_us(timeout_us);
        let quantum_ns = self.clock.lock().cost().poll_delay_ns.max(1);
        loop {
            self.tick_all();
            let now = self.clock.lock().now_ns();
            if self.irqs.lock().is_pending(line, now) {
                // Charge the delivery latency once.
                let delivery = self.clock.lock().cost().irq_delivery_ns;
                self.clock.lock().advance_ns(delivery);
                return Ok((self.clock.lock().now_ns() - start) / 1_000);
            }
            if now >= deadline {
                return Err(HwError::Timeout {
                    what: format!("irq {line}"),
                    waited_us: (now - start) / 1_000,
                });
            }
            match self.next_event_ns() {
                Some(d) if d > now && d <= deadline => self.clock.lock().advance_to(d),
                _ => {
                    let quanta = self.quiet_until_ns().map_or(1, |quiet| {
                        quiet.min(deadline).saturating_sub(now).div_ceil(quantum_ns).max(1)
                    });
                    self.clock.lock().advance_ns(quanta.saturating_mul(quantum_ns));
                }
            }
        }
    }

    /// Acknowledge (clear) an interrupt line.
    pub fn ack_irq(&mut self, line: u32) {
        self.irqs.lock().clear(line);
    }

    /// Whether an interrupt line is pending right now.
    pub fn irq_pending(&mut self, line: u32) -> bool {
        let now = self.clock.lock().now_ns();
        self.irqs.lock().is_pending(line, now)
    }

    /// Soft-reset a device by name and clear its interrupt line.
    pub fn soft_reset_device(&mut self, name: &str) -> HwResult<()> {
        let now = {
            let mut c = self.clock.lock();
            let cost = c.cost().soft_reset_ns;
            c.advance_ns(cost);
            c.now_ns()
        };
        let mut found = None;
        for slot in &mut self.devices {
            if slot.name == name {
                slot.dev.soft_reset(now);
                found = slot.irq_line;
                if found.is_none() {
                    return Ok(());
                }
                break;
            }
        }
        match found {
            Some(line) => {
                self.irqs.lock().reset_line(line);
                Ok(())
            }
            None => Err(HwError::NoSuchDevice { name: name.to_string() }),
        }
    }

    /// Names and register maps of all devices (Table 7 effort analysis).
    pub fn register_maps(&self) -> Vec<(&'static str, Vec<(u64, &'static str)>)> {
        self.devices.iter().map(|s| (s.name, s.dev.register_map())).collect()
    }
}

/// Convenience bundle that wires a clock, RAM, the interrupt controller and a
/// bus together with the standard memory map of the simulated SoC.
///
/// One `Platform` models **one TEE core**: everything attached to it shares
/// its clock, and its timeline advances independently of every other
/// platform. Single-core experiments build one; the `dlt-serve` multi-core
/// service builds one per device lane (all starting from epoch zero) and
/// merges their timelines with a pointwise-max rule.
pub struct Platform {
    /// Shared virtual clock.
    pub clock: Shared<VirtualClock>,
    /// Shared physical memory.
    pub mem: Shared<PhysMem>,
    /// Shared interrupt controller.
    pub irqs: Shared<IrqController>,
    /// Shared system bus.
    pub bus: Shared<SystemBus>,
}

impl Platform {
    /// Physical base address of system RAM.
    pub const RAM_BASE: u64 = 0x0000_0000;
    /// Size of system RAM (64 MiB is plenty for descriptors, data pages and
    /// the VCHIQ queue).
    pub const RAM_SIZE: usize = 64 * 1024 * 1024;
    /// Base of the MMIO peripheral window (BCM2835-style).
    pub const PERIPH_BASE: u64 = 0x3f00_0000;

    /// Create a platform with the default cost model.
    pub fn new() -> Self {
        Self::with_cost(CostModel::default())
    }

    /// Create a platform with a custom cost model.
    pub fn with_cost(cost: CostModel) -> Self {
        let clock = shared(VirtualClock::new(cost));
        let mem = shared(PhysMem::new(Self::RAM_BASE, Self::RAM_SIZE));
        let irqs = shared(IrqController::new());
        let bus = shared(SystemBus::new(clock.clone(), mem.clone(), irqs.clone()));
        Platform { clock, mem, irqs, bus }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.lock().now_ns()
    }

    /// The cost model in use.
    pub fn cost(&self) -> CostModel {
        self.clock.lock().cost().clone()
    }
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial device: one status register at +0x0 that reads back the last
    /// written value, and a "completion" register at +0x4 that schedules an
    /// IRQ 100 us after being written.
    struct ToyDevice {
        irqs: Shared<IrqController>,
        last: u32,
        resets: u32,
    }

    impl MmioDevice for ToyDevice {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn mmio_base(&self) -> u64 {
            0x3f00_1000
        }
        fn mmio_len(&self) -> u64 {
            0x100
        }
        fn read32(&mut self, offset: u64, _now: u64) -> u32 {
            match offset {
                0x0 => self.last,
                0x8 => self.resets,
                _ => 0,
            }
        }
        fn write32(&mut self, offset: u64, val: u32, now: u64) {
            match offset {
                0x0 => self.last = val,
                0x4 => self.irqs.lock().assert_at(crate::irq::lines::MMC, now + 100_000),
                _ => {}
            }
        }
        fn tick(&mut self, _now: u64) {}
        fn soft_reset(&mut self, _now: u64) {
            self.last = 0;
            self.resets += 1;
        }
        fn irq_line(&self) -> Option<u32> {
            Some(crate::irq::lines::MMC)
        }
    }

    fn toy_platform() -> Platform {
        let p = Platform::new();
        let dev = Box::new(ToyDevice { irqs: p.irqs.clone(), last: 0, resets: 0 });
        p.bus.lock().attach(dev).unwrap();
        p
    }

    #[test]
    fn mmio_round_trip_and_cost() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.mmio_write32(0x3f00_1000, 0xabcd, World::NonSecure, MmioAttr::Cached).unwrap();
        let v = bus.mmio_read32(0x3f00_1000, World::NonSecure, MmioAttr::Cached).unwrap();
        assert_eq!(v, 0xabcd);
        drop(bus);
        let cost = p.cost();
        assert_eq!(p.now_ns(), 2 * cost.mmio_access_ns);
    }

    #[test]
    fn uncached_access_costs_more() {
        let p = toy_platform();
        let cost = p.cost();
        p.bus.lock().mmio_read32(0x3f00_1000, World::Secure, MmioAttr::Uncached).unwrap();
        assert_eq!(p.now_ns(), cost.mmio_uncached_ns);
    }

    #[test]
    fn unmapped_and_misaligned_accesses_fault() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        assert!(matches!(
            bus.mmio_read32(0x3f99_0000, World::Secure, MmioAttr::Cached),
            Err(HwError::Unmapped { .. })
        ));
        assert!(matches!(
            bus.mmio_read32(0x3f00_1002, World::Secure, MmioAttr::Cached),
            Err(HwError::Misaligned { .. })
        ));
    }

    #[test]
    fn tzasc_blocks_normal_world_on_secure_device() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.set_device_secure("toy", true).unwrap();
        assert!(matches!(
            bus.mmio_read32(0x3f00_1000, World::NonSecure, MmioAttr::Cached),
            Err(HwError::PermissionDenied { .. })
        ));
        assert!(bus.mmio_read32(0x3f00_1000, World::Secure, MmioAttr::Uncached).is_ok());
        assert!(bus.is_device_secure("toy"));
    }

    #[test]
    fn secure_ram_window_is_protected() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.protect_ram(DmaRegion::new(0x10_0000, 0x30_0000));
        assert!(bus.ram_write32(0x10_0040, 7, World::Secure).is_ok());
        assert!(matches!(
            bus.ram_write32(0x10_0040, 7, World::NonSecure),
            Err(HwError::PermissionDenied { .. })
        ));
        // Outside the window the normal world is fine.
        assert!(bus.ram_write32(0x40_0000, 7, World::NonSecure).is_ok());
    }

    #[test]
    fn wait_for_irq_advances_time_to_the_assertion() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.mmio_write32(0x3f00_1004, 1, World::Secure, MmioAttr::Uncached).unwrap();
        let waited = bus.wait_for_irq(crate::irq::lines::MMC, 10_000, World::Secure).unwrap();
        assert!(waited >= 99, "should have waited about 100 us, got {waited}");
        bus.ack_irq(crate::irq::lines::MMC);
        assert!(!bus.irq_pending(crate::irq::lines::MMC));
    }

    #[test]
    fn wait_for_irq_times_out() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        let err = bus.wait_for_irq(crate::irq::lines::USB, 500, World::Secure).unwrap_err();
        assert!(matches!(err, HwError::Timeout { .. }));
    }

    #[test]
    fn soft_reset_reaches_the_device_and_charges_time() {
        let p = toy_platform();
        let before = p.now_ns();
        {
            let mut bus = p.bus.lock();
            bus.mmio_write32(0x3f00_1000, 5, World::Secure, MmioAttr::Uncached).unwrap();
            bus.soft_reset_device("toy").unwrap();
            let v = bus.mmio_read32(0x3f00_1000, World::Secure, MmioAttr::Uncached).unwrap();
            assert_eq!(v, 0);
            let resets = bus.mmio_read32(0x3f00_1008, World::Secure, MmioAttr::Uncached).unwrap();
            assert_eq!(resets, 1);
        }
        assert!(p.now_ns() > before + p.cost().soft_reset_ns);
    }

    #[test]
    fn overlapping_windows_are_rejected() {
        let p = toy_platform();
        let dup = Box::new(ToyDevice { irqs: p.irqs.clone(), last: 0, resets: 0 });
        let err = p.bus.lock().attach(dup).unwrap_err();
        assert!(matches!(err, HwError::DeviceError { .. }));
    }

    #[test]
    fn ram_round_trip_through_bus() {
        let p = toy_platform();
        let mut bus = p.bus.lock();
        bus.ram_write(0x1000, &[1, 2, 3, 4, 5], World::NonSecure).unwrap();
        let mut out = [0u8; 5];
        bus.ram_read(0x1000, &mut out, World::NonSecure).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn device_window_lookup() {
        let p = toy_platform();
        let w = p.bus.lock().device_window("toy").unwrap();
        assert_eq!(w.base, 0x3f00_1000);
        assert_eq!(w.len, 0x100);
        assert!(p.bus.lock().device_window("nope").is_err());
    }
}
