//! Proof that VC4 generates each camera frame straight into the host buffer.
//!
//! A counting global allocator wraps the system allocator and totals the
//! bytes requested. After a warm-up capture, delivering one 1440p capture
//! (a 1 MiB frame) through [`Vc4Vchiq`] must allocate well under one frame:
//! only the small message vectors of the queue protocol, never a temporary
//! frame that is then copied into memory.
//!
//! This file holds a single `#[test]` so no sibling test thread can disturb
//! the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlt_dev_vchiq::msg::is_valid_jpeg;
use dlt_dev_vchiq::queue::{self, pagelist, RX_AREA_OFF};
use dlt_dev_vchiq::{regs, CameraResolution, MmalMessage, MsgType, Vc4Vchiq};
use dlt_hw::device::MmioDevice;
use dlt_hw::{shared, CostModel, IrqController, PhysMem, Shared};

struct CountingAllocator;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Budget for one delivered capture: the protocol's message vectors fit in a
/// few hundred bytes; one 1440p frame is 1 MiB.
const CAPTURE_ALLOC_BUDGET: u64 = 64 << 10;

const QUEUE_BASE: u64 = 0x10_0000;
const PG_LIST: u64 = 0x20_0000;
const FRAME_PAGES: u64 = 0x30_0000;
const BUF_BYTES: u32 = 2 << 20;
/// Service handle VC4 hands out on OpenService ("mmal").
const SERVICE: u32 = 0x6d6d_616c;

struct Rig {
    vc4: Vc4Vchiq,
    mem: Shared<PhysMem>,
    now: u64,
    tx_pos: u32,
    rx_read: u32,
}

impl Rig {
    fn new() -> Self {
        let mem = shared(PhysMem::new(0, 16 << 20));
        let irqs = shared(IrqController::new());
        let mut vc4 = Vc4Vchiq::new(mem.clone(), irqs, CostModel::default());
        for (off, w) in queue::slot0_init_words() {
            mem.lock().write32(QUEUE_BASE + off, w).unwrap();
        }
        vc4.write32(regs::MBOX_WRITE, QUEUE_BASE as u32, 0);
        let pages = BUF_BYTES as usize / pagelist::PAGE_BYTES;
        {
            let mut m = mem.lock();
            m.write32(PG_LIST + pagelist::NUM_PAGES, pages as u32).unwrap();
            for i in 0..pages as u64 {
                let page = FRAME_PAGES + i * pagelist::PAGE_BYTES as u64;
                m.write32(PG_LIST + pagelist::FIRST_PAGE + i * 4, page as u32).unwrap();
            }
        }
        Rig { vc4, mem, now: 0, tx_pos: 0, rx_read: 0 }
    }

    /// Send `msg` and advance time until VC4 replies.
    fn call(&mut self, msg: MmalMessage) -> MmalMessage {
        let (words, new_pos) = queue::tx_message_words(self.tx_pos, &msg);
        for (off, w) in words {
            self.mem.lock().write32(QUEUE_BASE + off, w).unwrap();
        }
        self.tx_pos = new_pos;
        self.vc4.write32(regs::BELL2, 1, self.now);
        for _ in 0..100_000 {
            self.now += 1_000_000;
            self.vc4.tick(self.now);
            let reply = {
                let mem = self.mem.lock();
                let rx_pos = mem.read32(QUEUE_BASE + queue::slot0::RX_POS).unwrap();
                (self.rx_read < rx_pos).then(|| {
                    queue::read_message(&mem, QUEUE_BASE, RX_AREA_OFF, self.rx_read)
                        .unwrap()
                        .unwrap()
                })
            };
            if let Some((reply, next)) = reply {
                self.rx_read = next;
                self.vc4.write32(regs::BELL0, 1, self.now);
                return reply;
            }
        }
        panic!("no reply from VC4");
    }

    fn capture(&mut self, img_size: u32) -> MmalMessage {
        self.call(MmalMessage::new(
            MsgType::BufferFromHost,
            SERVICE,
            vec![PG_LIST as u32, BUF_BYTES, img_size],
        ))
    }
}

#[test]
fn delivering_a_capture_allocates_no_frame() {
    let res = CameraResolution::R1440p;
    let mut rig = Rig::new();
    for (mtype, payload) in [
        (MsgType::Connect, vec![]),
        (MsgType::OpenService, vec![SERVICE]),
        (MsgType::ComponentCreate, vec![]),
        (MsgType::PortSetFormat, vec![res.code()]),
        (MsgType::PortEnable, vec![]),
    ] {
        let reply = rig.call(MmalMessage::new(mtype, SERVICE, payload));
        assert_ne!(reply.mtype, MsgType::Error, "{mtype:?} refused");
    }
    let img_size = res.frame_bytes();
    assert_eq!(rig.capture(img_size).mtype, MsgType::BufferToHost, "warm-up capture");

    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let done = rig.capture(img_size);
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;

    assert_eq!(done.mtype, MsgType::BufferToHost);
    assert_eq!(done.payload[0], img_size);
    assert_eq!(rig.vc4.frames_produced(), 2);
    let mem = rig.mem.lock();
    assert_eq!(mem.read32(PG_LIST + pagelist::TOTAL_LEN).unwrap(), img_size);
    assert!(is_valid_jpeg(&mem.snapshot(FRAME_PAGES, img_size as usize).unwrap()));
    assert!(
        allocated < CAPTURE_ALLOC_BUDGET,
        "one {res:?} capture allocated {allocated} bytes (budget {CAPTURE_ALLOC_BUDGET})"
    );
}
