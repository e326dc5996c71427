//! The device-model trait implemented by every simulated IO device.
//!
//! The paper's system model (§3.1) assumes a device is a reactive FSM driven
//! purely through its register/shared-memory/interrupt interface, whose state
//! transitions are independent of the IO data content. The [`MmioDevice`]
//! trait captures exactly that interface; the MMC, USB and VC4/VCHIQ
//! simulators in `dlt-dev-*` implement it.

/// A memory-mapped device on the simulated SoC.
///
/// All methods take the current virtual time so device models can schedule
/// completion interrupts and expire internal timers without holding a clock
/// handle (which keeps lock ordering trivial in the single-threaded
/// simulation).
pub trait MmioDevice: Send {
    /// Stable device name, e.g. `"sdhost"`, `"dwc2"`, `"vchiq"`.
    fn name(&self) -> &'static str;

    /// Physical base address of the register window.
    fn mmio_base(&self) -> u64;

    /// Length in bytes of the register window.
    fn mmio_len(&self) -> u64;

    /// Read a 32-bit register at `offset` from the window base.
    fn read32(&mut self, offset: u64, now_ns: u64) -> u32;

    /// Write a 32-bit register at `offset` from the window base.
    fn write32(&mut self, offset: u64, val: u32, now_ns: u64);

    /// Let the device make forward progress up to `now_ns` (complete DMA,
    /// assert interrupts whose deadlines passed, etc.).
    fn tick(&mut self, now_ns: u64);

    /// Soft reset: return to the clean post-initialisation state, as if the
    /// device had just finished its boot-time bring-up. This is the recovery
    /// primitive the replayer uses between templates and on divergence (§5).
    fn soft_reset(&mut self, now_ns: u64);

    /// The interrupt line this device asserts, if any.
    fn irq_line(&self) -> Option<u32>;

    /// Human-readable names of interesting registers (offset -> name), used
    /// for template debugging output and the Table 7 effort analysis.
    fn register_map(&self) -> Vec<(u64, &'static str)> {
        Vec::new()
    }

    /// Whether the device believes it is idle (no in-flight work). Used by
    /// tests and by the divergence analysis to detect residual state.
    fn is_idle(&self) -> bool {
        true
    }

    /// An exact wake time: the next virtual time at which this device will
    /// make progress on its own (an internal completion deadline such as
    /// media latency), if the device model defines its progress at that
    /// instant. [`crate::SystemBus::wait_for_irq`] jumps an idle wait
    /// straight to the earliest such deadline, so reporting one changes
    /// *when* the device is ticked — it is part of the timing model, not
    /// an optimisation. `None` (the default) leaves the device on the poll
    /// grid (see [`MmioDevice::quiet_until_ns`]).
    fn next_deadline_ns(&self) -> Option<u64> {
        None
    }

    /// The vouch for the poll grid: the earliest virtual time at which
    /// [`MmioDevice::tick`] could change anything — device state, memory,
    /// an interrupt line or the answer of [`MmioDevice::next_deadline_ns`].
    /// A tick at any earlier time must be a no-op. `Some(u64::MAX)` means
    /// the device never acts on its own until it is next accessed.
    ///
    /// A device without an exact deadline is ticked once per
    /// `poll_delay_ns` quantum while a driver waits for an interrupt. When
    /// every attached device vouches, the bus advances to the first grid
    /// instant at or after the earliest vouched time in one clock step:
    /// the ticks it skips could not have changed anything, so virtual time
    /// is exactly what stepping would produce. `None` (the default) means
    /// the device cannot say and keeps the bus stepping one quantum at a
    /// time, which is always correct.
    fn quiet_until_ns(&self) -> Option<u64> {
        None
    }
}

/// Adapter that exposes a shared, typed device handle as a boxed
/// [`MmioDevice`] for bus attachment.
///
/// Device simulators are usually constructed as `Shared<ConcreteDevice>` so
/// that tests, fault injectors and validation scripts keep a typed handle
/// (e.g. to unplug the SD card mid-transfer, §8.2.1), while the bus owns a
/// `Box<dyn MmioDevice>` routing accesses to the same instance.
pub struct SharedDevice<T: MmioDevice>(pub crate::Shared<T>);

impl<T: MmioDevice> SharedDevice<T> {
    /// Wrap a shared typed handle.
    pub fn new(inner: crate::Shared<T>) -> Self {
        SharedDevice(inner)
    }

    /// Box this adapter for `SystemBus::attach`.
    pub fn boxed(inner: crate::Shared<T>) -> Box<dyn MmioDevice>
    where
        T: 'static,
    {
        Box::new(SharedDevice(inner))
    }
}

impl<T: MmioDevice> MmioDevice for SharedDevice<T> {
    fn name(&self) -> &'static str {
        self.0.lock().name()
    }
    fn mmio_base(&self) -> u64 {
        self.0.lock().mmio_base()
    }
    fn mmio_len(&self) -> u64 {
        self.0.lock().mmio_len()
    }
    fn read32(&mut self, offset: u64, now_ns: u64) -> u32 {
        self.0.lock().read32(offset, now_ns)
    }
    fn write32(&mut self, offset: u64, val: u32, now_ns: u64) {
        self.0.lock().write32(offset, val, now_ns)
    }
    fn tick(&mut self, now_ns: u64) {
        self.0.lock().tick(now_ns)
    }
    fn soft_reset(&mut self, now_ns: u64) {
        self.0.lock().soft_reset(now_ns)
    }
    fn irq_line(&self) -> Option<u32> {
        self.0.lock().irq_line()
    }
    fn register_map(&self) -> Vec<(u64, &'static str)> {
        self.0.lock().register_map()
    }
    fn is_idle(&self) -> bool {
        self.0.lock().is_idle()
    }
    fn next_deadline_ns(&self) -> Option<u64> {
        self.0.lock().next_deadline_ns()
    }
    fn quiet_until_ns(&self) -> Option<u64> {
        self.0.lock().quiet_until_ns()
    }
}

/// A tiny sparse register bank helper for device models.
///
/// Most simulated devices keep their architectural registers here and overlay
/// side effects in their `read32`/`write32` implementations.
///
/// Register access sits on the replay hot path (every simulated MMIO access
/// and most device state machines go through it), so the bank is a sorted
/// vector with binary search rather than a tree map — a few dozen registers
/// fit in one or two cache lines — and [`RegBank::reset`] restores in place
/// without reallocating.
#[derive(Debug, Clone, Default)]
pub struct RegBank {
    /// `(offset, value)` sorted by offset.
    regs: Vec<(u64, u32)>,
    /// `(offset, reset value)` sorted by offset; only defined registers.
    reset_values: Vec<(u64, u32)>,
}

fn sorted_set(v: &mut Vec<(u64, u32)>, offset: u64, val: u32) {
    match v.binary_search_by_key(&offset, |e| e.0) {
        Ok(i) => v[i].1 = val,
        Err(i) => v.insert(i, (offset, val)),
    }
}

impl RegBank {
    /// Empty register bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a register with a reset value.
    pub fn define(&mut self, offset: u64, reset_value: u32) {
        sorted_set(&mut self.reset_values, offset, reset_value);
        sorted_set(&mut self.regs, offset, reset_value);
    }

    /// Read a register (undefined registers read as zero, like reserved
    /// addresses on most SoCs).
    pub fn get(&self, offset: u64) -> u32 {
        match self.regs.binary_search_by_key(&offset, |e| e.0) {
            Ok(i) => self.regs[i].1,
            Err(_) => 0,
        }
    }

    /// Write a register.
    pub fn set(&mut self, offset: u64, val: u32) {
        sorted_set(&mut self.regs, offset, val);
    }

    /// Set bits in a register.
    pub fn set_bits(&mut self, offset: u64, bits: u32) {
        let v = self.get(offset) | bits;
        self.set(offset, v);
    }

    /// Clear bits in a register.
    pub fn clear_bits(&mut self, offset: u64, bits: u32) {
        let v = self.get(offset) & !bits;
        self.set(offset, v);
    }

    /// Whether all of `bits` are set.
    pub fn has_bits(&self, offset: u64, bits: u32) -> bool {
        self.get(offset) & bits == bits
    }

    /// Restore every defined register to its reset value and drop the rest.
    /// Reuses the existing allocation (soft resets happen before every
    /// template execution).
    pub fn reset(&mut self) {
        self.regs.clone_from(&self.reset_values);
    }

    /// Number of defined (architected) registers.
    pub fn defined_count(&self) -> usize {
        self.reset_values.len()
    }

    /// Offsets of all registers that have ever been written or defined.
    pub fn offsets(&self) -> Vec<u64> {
        self.regs.iter().map(|e| e.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regbank_defaults_to_zero() {
        let bank = RegBank::new();
        assert_eq!(bank.get(0x40), 0);
    }

    #[test]
    fn regbank_define_and_reset() {
        let mut bank = RegBank::new();
        bank.define(0x0, 0x1234);
        bank.define(0x4, 0x0);
        bank.set(0x0, 0xdead);
        bank.set(0x100, 0xbeef); // undefined scratch register
        assert_eq!(bank.get(0x0), 0xdead);
        bank.reset();
        assert_eq!(bank.get(0x0), 0x1234);
        assert_eq!(bank.get(0x100), 0, "undefined registers are dropped on reset");
        assert_eq!(bank.defined_count(), 2);
    }

    #[test]
    fn regbank_bit_operations() {
        let mut bank = RegBank::new();
        bank.define(0x8, 0);
        bank.set_bits(0x8, 0b1010);
        assert!(bank.has_bits(0x8, 0b1000));
        assert!(!bank.has_bits(0x8, 0b0100));
        bank.clear_bits(0x8, 0b0010);
        assert_eq!(bank.get(0x8), 0b1000);
    }

    #[test]
    fn regbank_offsets_listing() {
        let mut bank = RegBank::new();
        bank.define(0x0, 0);
        bank.define(0x8, 0);
        bank.set(0x4, 7);
        let offs = bank.offsets();
        assert_eq!(offs, vec![0x0, 0x4, 0x8]);
    }
}
