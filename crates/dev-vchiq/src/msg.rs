//! MMAL-style message encoding carried over the VCHIQ queue.
//!
//! Real VCHIQ/MMAL messages range from 28 to 306 bytes and come in tens of
//! types (§7.3.3). The model keeps the same shape — a fixed header followed
//! by a type-specific payload, padded to a 64-byte multiple in the slot —
//! while restricting the type population to what the camera path needs.

/// Camera resolutions the record campaign covers (Table 5/6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CameraResolution {
    /// 1280x720.
    R720p,
    /// 1920x1080.
    R1080p,
    /// 2560x1440.
    R1440p,
}

impl CameraResolution {
    /// Encode as the wire word used in PORT_SET_FORMAT.
    pub fn code(self) -> u32 {
        match self {
            CameraResolution::R720p => 720,
            CameraResolution::R1080p => 1080,
            CameraResolution::R1440p => 1440,
        }
    }

    /// Decode from the wire word.
    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            720 => Some(CameraResolution::R720p),
            1080 => Some(CameraResolution::R1080p),
            1440 => Some(CameraResolution::R1440p),
            _ => None,
        }
    }

    /// Pixel dimensions.
    pub fn dims(self) -> (u32, u32) {
        match self {
            CameraResolution::R720p => (1280, 720),
            CameraResolution::R1080p => (1920, 1080),
            CameraResolution::R1440p => (2560, 1440),
        }
    }

    /// Megapixels scaled by 100 (for the cost model).
    pub fn megapixels_x100(self) -> u64 {
        let (w, h) = self.dims();
        u64::from(w) * u64::from(h) / 10_000
    }

    /// The encoded (JPEG) frame size VC4 produces at this resolution.
    ///
    /// Deterministic by design: the device FSM and the frame size depend only
    /// on the configured resolution, never on scene content — the
    /// data-independence prerequisite of §3.1.
    pub const fn frame_bytes(self) -> u32 {
        match self {
            CameraResolution::R720p => 311_296,    // 304 KiB
            CameraResolution::R1080p => 622_592,   // 608 KiB
            CameraResolution::R1440p => 1_048_576, // 1 MiB
        }
    }

    /// All supported resolutions.
    pub fn all() -> [CameraResolution; 3] {
        [CameraResolution::R720p, CameraResolution::R1080p, CameraResolution::R1440p]
    }
}

/// Message types carried over the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum MsgType {
    /// CPU -> VC4 connection handshake.
    Connect = 1,
    /// VC4 -> CPU handshake acknowledgement.
    ConnectAck = 2,
    /// Open an MMAL service port (payload: fourcc).
    OpenService = 3,
    /// Service opened (payload: service handle).
    OpenServiceAck = 4,
    /// Create a component (payload: component name).
    ComponentCreate = 5,
    /// Component created (payload: component handle).
    ComponentCreateAck = 6,
    /// Set the capture port format (payload: resolution code).
    PortSetFormat = 7,
    /// Format accepted (payload: expected image size for this format).
    PortSetFormatAck = 8,
    /// Enable the capture port.
    PortEnable = 9,
    /// Port enabled.
    PortEnableAck = 10,
    /// Hand a host buffer to VC4 and trigger a capture
    /// (payload: page-list address, buffer size, expected image size).
    BufferFromHost = 11,
    /// Capture finished; the buffer now holds `img_size` bytes.
    BufferToHost = 12,
    /// Disable the capture port.
    PortDisable = 13,
    /// Port disabled.
    PortDisableAck = 14,
    /// Destroy the component.
    ComponentDestroy = 15,
    /// Component destroyed.
    ComponentDestroyAck = 16,
    /// VC4 signals a protocol error (payload: error code).
    Error = 255,
}

impl MsgType {
    /// Decode from the wire word.
    pub fn from_u32(v: u32) -> Option<MsgType> {
        use MsgType::*;
        Some(match v {
            1 => Connect,
            2 => ConnectAck,
            3 => OpenService,
            4 => OpenServiceAck,
            5 => ComponentCreate,
            6 => ComponentCreateAck,
            7 => PortSetFormat,
            8 => PortSetFormatAck,
            9 => PortEnable,
            10 => PortEnableAck,
            11 => BufferFromHost,
            12 => BufferToHost,
            13 => PortDisable,
            14 => PortDisableAck,
            15 => ComponentDestroy,
            16 => ComponentDestroyAck,
            255 => Error,
            _ => return None,
        })
    }
}

/// Message header size in bytes: type, service handle, payload length.
pub const HEADER_BYTES: usize = 12;
/// Messages are padded to this granularity inside a slot.
pub const MSG_ALIGN: usize = 64;
/// Maximum payload words a message can carry.
pub const MAX_PAYLOAD_WORDS: usize = 72;

/// A decoded VCHIQ/MMAL message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmalMessage {
    /// Message type.
    pub mtype: MsgType,
    /// Service handle (0 before OpenServiceAck).
    pub service: u32,
    /// Payload words.
    pub payload: Vec<u32>,
}

impl MmalMessage {
    /// Construct a message.
    pub fn new(mtype: MsgType, service: u32, payload: Vec<u32>) -> Self {
        MmalMessage { mtype, service, payload }
    }

    /// Encoded length in bytes before slot padding.
    pub fn wire_len(&self) -> usize {
        HEADER_BYTES + self.payload.len() * 4
    }

    /// Encoded length in bytes after padding to [`MSG_ALIGN`].
    pub fn padded_len(&self) -> usize {
        self.wire_len().div_ceil(MSG_ALIGN) * MSG_ALIGN
    }

    /// Encode to wire words (header + payload). The caller writes these words
    /// into the slot area.
    pub fn encode(&self) -> Vec<u32> {
        let mut words = Vec::with_capacity(3 + self.payload.len());
        words.push(self.mtype as u32);
        words.push(self.service);
        words.push((self.payload.len() * 4) as u32);
        words.extend_from_slice(&self.payload);
        words
    }

    /// Decode from wire words.
    pub fn decode(words: &[u32]) -> Option<MmalMessage> {
        if words.len() < 3 {
            return None;
        }
        let mtype = MsgType::from_u32(words[0])?;
        let service = words[1];
        let payload_len = (words[2] as usize) / 4;
        if payload_len > MAX_PAYLOAD_WORDS || words.len() < 3 + payload_len {
            return None;
        }
        Some(MmalMessage { mtype, service, payload: words[3..3 + payload_len].to_vec() })
    }
}

/// Deterministic synthetic JPEG frame produced by the modelled ISP.
///
/// The content carries valid SOI/EOI markers so the paper's "captured images
/// are in the valid JPEG format" validation (§8.2.1) has something real to
/// check, and a frame counter + resolution tag so tests can verify that
/// distinct captures yield distinct images. Allocates the frame and fills it
/// with [`synth_jpeg_into`].
pub fn synth_jpeg(resolution: CameraResolution, frame_no: u32) -> Vec<u8> {
    let mut out = vec![0u8; resolution.frame_bytes() as usize];
    synth_jpeg_into(resolution, frame_no, &mut out);
    out
}

/// Bytes before the pseudo-random body: SOI, then an APP0 marker carrying
/// the frame number and the resolution code.
const FRAME_HEAD_BYTES: usize = 12;
/// Bytes after the body: the EOI marker.
const FRAME_TAIL_BYTES: usize = 2;
/// Interleaved xorshift chains the frame body is generated on.
const CHAINS: usize = 4;

/// Write the synthetic JPEG frame for `frame_no` into `out`, which must be
/// exactly `resolution.frame_bytes()` long.
///
/// Byte-identity contract: the result is byte for byte the frame of one
/// serial xorshift64 stream seeded by frame number and resolution, whose
/// successive states fill the body in 8-byte little-endian words (the last
/// word truncated to fit). The body is generated on four interleaved
/// chains, each started at its segment's offset in that one stream by a
/// precomputed jump (see DESIGN.md, "Simulated frames"), so the bytes do not
/// depend on how they are generated.
///
/// # Panics
///
/// If `out.len()` differs from `resolution.frame_bytes()`.
pub fn synth_jpeg_into(resolution: CameraResolution, frame_no: u32, out: &mut [u8]) {
    let len = resolution.frame_bytes() as usize;
    assert_eq!(out.len(), len, "frame buffer must be exactly one {resolution:?} frame");
    // SOI marker.
    out[0] = 0xff;
    out[1] = 0xd8;
    // APP0 header carrying the frame number and resolution for validation.
    out[2] = 0xff;
    out[3] = 0xe0;
    out[4..8].copy_from_slice(&frame_no.to_le_bytes());
    out[8..12].copy_from_slice(&resolution.code().to_le_bytes());
    // Deterministic pseudo-random body (xorshift seeded by frame + resolution).
    let seed = (u64::from(frame_no) << 32) ^ u64::from(resolution.code()) ^ 0x9e37_79b9_7f4a_7c15;
    let body = &mut out[FRAME_HEAD_BYTES..len - FRAME_TAIL_BYTES];
    let seg_bytes = chain_words(resolution) * 8;
    let (chained, tail) = body.split_at_mut(CHAINS * seg_bytes);
    let jump = jump_matrix(resolution);
    let mut states = [seed; CHAINS];
    for j in 1..CHAINS {
        states[j] = gf2_apply(jump, states[j - 1]);
    }
    let mut segments = chained.chunks_exact_mut(seg_bytes);
    let mut segments: [&mut [u8]; CHAINS] =
        std::array::from_fn(|_| segments.next().expect("the chained span holds CHAINS segments"));
    for w in (0..seg_bytes).step_by(8) {
        for (state, segment) in states.iter_mut().zip(segments.iter_mut()) {
            *state = xorshift64(*state);
            segment[w..w + 8].copy_from_slice(&state.to_le_bytes());
        }
    }
    // The last chain ends where the tail begins in the serial stream.
    let mut state = states[CHAINS - 1];
    for chunk in tail.chunks_mut(8) {
        state = xorshift64(state);
        let n = chunk.len();
        chunk.copy_from_slice(&state.to_le_bytes()[..n]);
    }
    // Avoid accidental EOI markers in the body would be overkill; just ensure
    // the real EOI terminates the stream.
    out[len - 2] = 0xff;
    out[len - 1] = 0xd9;
}

/// One step of the body's xorshift64 generator.
const fn xorshift64(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// Full 8-byte body words each chain generates at `resolution`.
const fn chain_words(resolution: CameraResolution) -> usize {
    (resolution.frame_bytes() as usize - FRAME_HEAD_BYTES - FRAME_TAIL_BYTES) / 8 / CHAINS
}

/// A 64x64 bit matrix over GF(2), stored by columns: column `i` is the
/// image of the unit vector `1 << i`.
type Gf2Matrix = [u64; 64];

/// Multiply the matrix `m` by the bit vector `v`.
const fn gf2_apply(m: &Gf2Matrix, v: u64) -> u64 {
    let mut r = 0;
    let mut i = 0;
    while i < 64 {
        r ^= m[i] & 0u64.wrapping_sub((v >> i) & 1);
        i += 1;
    }
    r
}

/// The matrix product `a · b`.
const fn gf2_mul(a: &Gf2Matrix, b: &Gf2Matrix) -> Gf2Matrix {
    let mut c = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        c[i] = gf2_apply(a, b[i]);
        i += 1;
    }
    c
}

/// The matrix of `k` xorshift64 steps: xorshift64 is linear over GF(2)^64,
/// so `k` steps are the `k`-th power of the one-step matrix.
const fn xorshift64_jump(mut k: usize) -> Gf2Matrix {
    let mut step = [0u64; 64];
    let mut power = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        step[i] = xorshift64(1 << i);
        power[i] = 1 << i;
        i += 1;
    }
    while k > 0 {
        if k & 1 == 1 {
            power = gf2_mul(&step, &power);
        }
        step = gf2_mul(&step, &step);
        k >>= 1;
    }
    power
}

/// The jump from one chain's start to the next at `resolution`.
fn jump_matrix(resolution: CameraResolution) -> &'static Gf2Matrix {
    static JUMP_720P: Gf2Matrix = xorshift64_jump(chain_words(CameraResolution::R720p));
    static JUMP_1080P: Gf2Matrix = xorshift64_jump(chain_words(CameraResolution::R1080p));
    static JUMP_1440P: Gf2Matrix = xorshift64_jump(chain_words(CameraResolution::R1440p));
    match resolution {
        CameraResolution::R720p => &JUMP_720P,
        CameraResolution::R1080p => &JUMP_1080P,
        CameraResolution::R1440p => &JUMP_1440P,
    }
}

/// Check that a byte buffer looks like one of our synthetic JPEG frames.
pub fn is_valid_jpeg(data: &[u8]) -> bool {
    data.len() >= 4
        && data[0] == 0xff
        && data[1] == 0xd8
        && data[data.len() - 2] == 0xff
        && data[data.len() - 1] == 0xd9
}

/// Extract the frame number embedded in a synthetic frame.
pub fn frame_number(data: &[u8]) -> Option<u32> {
    if data.len() < 12 || !is_valid_jpeg(data) {
        return None;
    }
    Some(u32::from_le_bytes([data[4], data[5], data[6], data[7]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The serial single-chain generator `synth_jpeg_into` must reproduce,
    /// kept verbatim as the oracle.
    fn reference_synth_jpeg(resolution: CameraResolution, frame_no: u32) -> Vec<u8> {
        let len = resolution.frame_bytes() as usize;
        let mut out = vec![0u8; len];
        // SOI marker.
        out[0] = 0xff;
        out[1] = 0xd8;
        // APP0 header carrying the frame number and resolution for validation.
        out[2] = 0xff;
        out[3] = 0xe0;
        out[4..8].copy_from_slice(&frame_no.to_le_bytes());
        out[8..12].copy_from_slice(&resolution.code().to_le_bytes());
        // Deterministic pseudo-random body (xorshift seeded by frame + resolution).
        let mut state =
            (u64::from(frame_no) << 32) ^ u64::from(resolution.code()) ^ 0x9e37_79b9_7f4a_7c15;
        let body = &mut out[12..len - 2];
        for chunk in body.chunks_mut(8) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bytes = state.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        // Avoid accidental EOI markers in the body would be overkill; just ensure
        // the real EOI terminates the stream.
        out[len - 2] = 0xff;
        out[len - 1] = 0xd9;
        out
    }

    fn assert_matches_reference(resolution: CameraResolution, frame_no: u32) {
        let mut out = vec![0u8; resolution.frame_bytes() as usize];
        synth_jpeg_into(resolution, frame_no, &mut out);
        assert!(
            out == reference_synth_jpeg(resolution, frame_no),
            "{resolution:?} frame {frame_no} differs from the serial generator"
        );
    }

    #[test]
    fn chained_generator_matches_serial_at_edge_frame_numbers() {
        for resolution in CameraResolution::all() {
            for frame_no in [0, 1, 7, 12_345, u32::MAX] {
                assert_matches_reference(resolution, frame_no);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn chained_generator_matches_serial(res in 0usize..3, frame_no in any::<u32>()) {
            assert_matches_reference(CameraResolution::all()[res], frame_no);
        }

        #[test]
        fn jump_matrix_equals_repeated_steps(state in any::<u64>(), k in 0usize..=64) {
            let mut stepped = state;
            for _ in 0..k {
                stepped = xorshift64(stepped);
            }
            prop_assert_eq!(gf2_apply(&xorshift64_jump(k), state), stepped);
        }
    }

    #[test]
    fn resolution_codes_round_trip() {
        for r in CameraResolution::all() {
            assert_eq!(CameraResolution::from_code(r.code()), Some(r));
        }
        assert_eq!(CameraResolution::from_code(480), None);
    }

    #[test]
    fn frame_sizes_grow_with_resolution() {
        assert!(CameraResolution::R720p.frame_bytes() < CameraResolution::R1080p.frame_bytes());
        assert!(CameraResolution::R1080p.frame_bytes() < CameraResolution::R1440p.frame_bytes());
        assert!(
            CameraResolution::R720p.megapixels_x100() < CameraResolution::R1440p.megapixels_x100()
        );
    }

    #[test]
    fn message_encode_decode_round_trip() {
        let m = MmalMessage::new(MsgType::BufferFromHost, 7, vec![0x1000, 2 << 20, 311_296]);
        let words = m.encode();
        let back = MmalMessage::decode(&words).unwrap();
        assert_eq!(back, m);
        assert_eq!(m.wire_len(), 12 + 12);
        assert_eq!(m.padded_len(), 64);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MmalMessage::decode(&[]).is_none());
        assert!(MmalMessage::decode(&[999, 0, 0]).is_none());
        assert!(MmalMessage::decode(&[1, 0, 400]).is_none(), "payload longer than provided");
    }

    #[test]
    fn all_message_types_decode() {
        for v in [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 255] {
            assert!(MsgType::from_u32(v).is_some());
        }
        assert!(MsgType::from_u32(42).is_none());
    }

    #[test]
    fn synthetic_jpeg_is_well_formed_and_distinct() {
        let a = synth_jpeg(CameraResolution::R720p, 0);
        let b = synth_jpeg(CameraResolution::R720p, 1);
        assert_eq!(a.len(), CameraResolution::R720p.frame_bytes() as usize);
        assert!(is_valid_jpeg(&a));
        assert!(is_valid_jpeg(&b));
        assert_ne!(a, b, "frames with different numbers must differ");
        assert_eq!(frame_number(&a), Some(0));
        assert_eq!(frame_number(&b), Some(1));
        // Deterministic: the same frame number reproduces bit-for-bit.
        assert_eq!(a, synth_jpeg(CameraResolution::R720p, 0));
    }

    #[test]
    fn invalid_jpeg_is_detected() {
        assert!(!is_valid_jpeg(&[0, 1, 2, 3]));
        let mut good = synth_jpeg(CameraResolution::R720p, 3);
        let n = good.len();
        good[n - 1] = 0;
        assert!(!is_valid_jpeg(&good));
        assert_eq!(frame_number(&good), None);
    }

    #[test]
    fn padded_len_is_a_multiple_of_the_alignment() {
        for payload_words in 0..40 {
            let m = MmalMessage::new(MsgType::Connect, 0, vec![0; payload_words]);
            assert_eq!(m.padded_len() % MSG_ALIGN, 0);
            assert!(m.padded_len() >= m.wire_len());
        }
    }
}
