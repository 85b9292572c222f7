//! The frame codec: how paced CQ15 sample chunks **and the control
//! plane** travel as bytes.
//!
//! Two frame families share one wire, one magic and one CRC. The byte
//! at offset 8 dispatches them: data frames put their stream count
//! there (`1..=`[`MAX_STREAMS`]), control frames a type tag
//! (`0xC1..=0xC5`) — the ranges are disjoint, so a data frame can
//! never parse as a control frame or vice versa.
//!
//! Data frame (all integers little-endian):
//!
//! ```text
//! +-------+---------+-----------+---------+------------------+---------+
//! | magic |  seq    | n_streams |  len    |     payload      |  crc32  |
//! | 4 B   |  u32    |  u8 1..=8 |  u16    | n·len·4 B        |  u32    |
//! +-------+---------+-----------+---------+------------------+---------+
//! ```
//!
//! Control frame (fixed 21 bytes):
//!
//! ```text
//! +-------+---------+-----------+----------+---------+
//! | magic |  seq    |   type    |  value   |  crc32  |
//! | 4 B   |  u32    | u8 ≥ 0xC1 |   u64    |  u32    |
//! +-------+---------+-----------+----------+---------+
//! ```
//!
//! * `magic` — [`MAGIC`], the resynchronisation anchor.
//! * `seq` — frame sequence number (wraps). Data frames feed the
//!   receiver's sequence tracker for gap/duplicate accounting; control
//!   frames count in an independent per-direction space (the control
//!   plane uses cumulative values, so its frames are idempotent and
//!   reorder-safe and need no gap tracking).
//! * `n_streams` / `len` — chunk geometry: `n_streams` equal-length
//!   per-antenna slices of `len` samples each.
//! * `type` / `value` — the control message ([`ControlMsg`]): CREDIT
//!   (cumulative samples granted), HEARTBEAT (sender's sample
//!   position), HELLO / RESET (session handshake nonce), BYE (final
//!   sample position).
//! * `payload` — samples as `i16` re/im pairs: the Q1.15 bus width of
//!   the paper's JESD204A converters (4 bytes per complex sample),
//!   stream 0 first.
//! * `crc32` — IEEE CRC-32 over everything after the magic, so any bit
//!   flip in header, payload or control value is caught.
//!
//! [`crc32`] runs on the CPU's [`Isa`] tier. From the AVX2 tier up
//! (whose probe also requires PCLMULQDQ), bodies of 128 B or more —
//! every data frame of 31 samples or more, all streams counted — fold
//! 64 bytes per step by carry-less multiplication. The portable tier,
//! control frames and other short bodies run a one-byte-per-step
//! table loop, which is also the oracle the folding body is tested
//! against.
//!
//! The decoder ([`FrameDecoder`]) is a resynchronising scanner: bytes
//! go in via [`FrameDecoder::push`] in arbitrary slices (carriers make
//! no framing promises), events come out of
//! [`FrameDecoder::next_event`] — decoded data frames, control frames,
//! CRC rejections, and counts of garbage bytes skipped while hunting
//! for the next magic. A header whose dispatch byte is implausible
//! (zero streams, oversized chunk, unknown control type) is treated as
//! a coincidental magic and scanned past one byte at a time, so the
//! decoder can never be wedged by hostile input.

use mimo_fixed::{Fx, Isa, CQ15};

use crate::error::TransportError;

/// Frame delimiter: "CQ15" — the sample format on the wire.
pub const MAGIC: [u8; 4] = *b"CQ15";

/// Maximum samples per stream in one frame (u16 len field spare room;
/// also bounds decoder memory per frame to ~256 KiB at 8 streams).
pub const MAX_FRAME_SAMPLES: usize = 8192;

/// Maximum per-antenna streams in one frame (twice the paper's 4×4).
pub const MAX_STREAMS: usize = 8;

/// Bytes before the payload: magic + seq + n_streams + len.
pub const HEADER_LEN: usize = 4 + 4 + 1 + 2;

/// Bytes per complex sample on the wire (i16 re + i16 im).
pub const BYTES_PER_SAMPLE: usize = 4;

/// Total encoded size of every control frame:
/// magic + seq + type + u64 value + CRC-32.
pub const CONTROL_FRAME_LEN: usize = 4 + 4 + 1 + 8 + CRC_LEN;

const CRC_LEN: usize = 4;

/// Control type tags. Deliberately disjoint from the data dispatch
/// range `1..=MAX_STREAMS` (see the module docs).
const TYPE_CREDIT: u8 = 0xC1;
const TYPE_HEARTBEAT: u8 = 0xC2;
const TYPE_HELLO: u8 = 0xC3;
const TYPE_RESET: u8 = 0xC4;
const TYPE_BYE: u8 = 0xC5;

// The scanner admits control frames by the one range
// `TYPE_CREDIT..=TYPE_BYE`: it must hold every tag and no stream count.
const _: () = assert!(
    TYPE_HEARTBEAT == TYPE_CREDIT + 1
        && TYPE_HELLO == TYPE_CREDIT + 2
        && TYPE_RESET == TYPE_CREDIT + 3
        && TYPE_BYE == TYPE_CREDIT + 4
);
const _: () = assert!(TYPE_CREDIT as usize > MAX_STREAMS);

/// Total encoded size of a frame with the given geometry.
pub fn frame_len(n_streams: usize, samples: usize) -> usize {
    HEADER_LEN + n_streams * samples * BYTES_PER_SAMPLE + CRC_LEN
}

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = make_crc_table();

/// Shortest input the folding body takes: two fold-by-4 blocks. Control
/// frames and shorter bodies stay on the byte loop.
const FOLD_MIN: usize = 128;

/// IEEE CRC-32 (the zlib/Ethernet polynomial, reflected) on this CPU's
/// widest tier, [`Isa::detected`]: [`crc32_with`] says which body runs.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_with(Isa::detected(), bytes)
}

/// [`crc32`] on the body of tier `isa`.
///
/// * AVX2 tier (and above), inputs of 128 B or more: carry-less
///   multiplication (PCLMULQDQ) folds four 128-bit lanes 64 bytes at a
///   time, then one lane 16 bytes at a time, then reduces the last 128
///   bits to the CRC by a Barrett reduction; the byte loop finishes the
///   tail under 16 B.
/// * Portable tier, and inputs under 128 B on any tier: a
///   one-byte-per-step table loop, which is also the tests' oracle.
///
/// Every tier gives the same CRC for the same bytes.
pub fn crc32_with(isa: Isa, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if isa.avx2() && bytes.len() >= FOLD_MIN {
        // SAFETY: an `Isa` answers `avx2()` only where the probe
        // detected AVX2 and PCLMULQDQ on this CPU (the tier invariant).
        return !unsafe { crc32_fold(!0, bytes) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    !crc32_bytes(!0, bytes)
}

/// Runs the CRC register `c` (pre-inversion) over `bytes`, one table
/// lookup per byte.
fn crc32_bytes(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = (c >> 8) ^ CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize];
    }
    c
}

/// Runs the CRC register `c` over `bytes` (at least [`FOLD_MIN`] long)
/// by carry-less folding, in the bit-reflected domain of the IEEE
/// polynomial P = 0x1_04C1_1DB7. The constants are those of zlib's and
/// crc32fast's PCLMULQDQ bodies (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009):
/// `K1`/`K2` (x^(512±32) mod P) fold a lane 64 bytes on, `K3`/`K4`
/// (x^(128±32) mod P) fold 16 bytes on and `K5` (x^64 mod P) takes 96
/// bits to 64, each bit-reflected and shifted left by one; `P_X` and
/// `MU` are the reflected P and ⌊x^64 / P⌋ of the Barrett step to 32
/// bits.
///
/// # Safety
///
/// The CPU must support AVX2 and PCLMULQDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,pclmulqdq")]
// SAFETY: callers must have verified AVX2 and PCLMULQDQ support at run
// time (`crc32_with` calls this only when its `Isa` answers `avx2()`,
// the tier invariant). Every load reads 16 bytes of a slice that is
// at least 16 bytes long.
unsafe fn crc32_fold(c: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    let load = |block: &[u8]| _mm_loadu_si128(block[..16].as_ptr().cast());
    // `acc` · x^(distance) mod P, added into `next`: the low and high
    // halves of `acc` multiplied by their constants in `k`.
    let fold = |acc: __m128i, next: __m128i, k: __m128i| {
        _mm_xor_si128(
            _mm_xor_si128(next, _mm_clmulepi64_si128(acc, k, 0x00)),
            _mm_clmulepi64_si128(acc, k, 0x11),
        )
    };
    let k1k2 = _mm_set_epi64x(K2, K1);
    let k3k4 = _mm_set_epi64x(K4, K3);
    let low32 = _mm_set_epi32(0, 0, 0, !0);

    // Four lanes, 64 bytes per step; the register enters the first.
    let (head, rest) = bytes.split_at(64);
    let mut lanes = [0, 16, 32, 48].map(|at| load(&head[at..]));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));
    let mut quads = rest.chunks_exact(64);
    for quad in &mut quads {
        for (at, lane) in [0, 16, 32, 48].into_iter().zip(&mut lanes) {
            *lane = fold(*lane, load(&quad[at..]), k1k2);
        }
    }
    // Fold the lanes into one, then the remaining 16-byte blocks.
    let mut acc = fold(
        fold(fold(lanes[0], lanes[1], k3k4), lanes[2], k3k4),
        lanes[3],
        k3k4,
    );
    let mut blocks = quads.remainder().chunks_exact(16);
    for block in &mut blocks {
        acc = fold(acc, load(block), k3k4);
    }

    // 128 → 96 → 64 bits.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(acc, k3k4, 0x10),
        _mm_srli_si128(acc, 8),
    );
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett reduction, 64 → 32 bits; the reflected result sits in the
    // second 32-bit word.
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    crc32_bytes(c, blocks.remainder())
}

/// Encodes one multi-stream sample chunk as a frame, **appending** the
/// bytes to `out` (callers batch several frames into one carrier send
/// by not clearing in between).
///
/// Samples are serialized as saturated `i16` raw Q1.15 values — the
/// 16-bit converter bus. Values representable in 16 bits round-trip
/// exactly.
///
/// # Errors
///
/// [`TransportError::BadFrame`] when the chunk has no streams, more
/// than [`MAX_STREAMS`], ragged stream lengths, zero samples, or more
/// than [`MAX_FRAME_SAMPLES`] samples per stream.
pub fn encode_frame<S: AsRef<[CQ15]>>(
    seq: u32,
    chunks: &[S],
    out: &mut Vec<u8>,
) -> Result<(), TransportError> {
    let n_streams = chunks.len();
    if n_streams == 0 || n_streams > MAX_STREAMS {
        return Err(TransportError::BadFrame(format!(
            "{n_streams} streams outside the 1..={MAX_STREAMS} codec limit"
        )));
    }
    let len = chunks[0].as_ref().len();
    if len == 0 || len > MAX_FRAME_SAMPLES {
        return Err(TransportError::BadFrame(format!(
            "{len} samples/stream outside the 1..={MAX_FRAME_SAMPLES} codec limit"
        )));
    }
    if chunks.iter().any(|c| c.as_ref().len() != len) {
        return Err(TransportError::BadFrame(
            "ragged chunk: streams have unequal sample counts".into(),
        ));
    }

    // phylint: hot
    let start = out.len();
    out.resize(start + frame_len(n_streams, len), 0);
    let frame = &mut out[start..];
    let (body, crc_field) = frame.split_at_mut(frame.len() - CRC_LEN);
    let (header, payload) = body.split_at_mut(HEADER_LEN);
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&seq.to_le_bytes());
    header[8] = n_streams as u8;
    header[9..].copy_from_slice(&(len as u16).to_le_bytes());
    let samples = chunks.iter().flat_map(AsRef::as_ref);
    for (word, s) in payload.chunks_exact_mut(BYTES_PER_SAMPLE).zip(samples) {
        word[..2].copy_from_slice(&bus_word(s.re).to_le_bytes());
        word[2..].copy_from_slice(&bus_word(s.im).to_le_bytes());
    }
    crc_field.copy_from_slice(&crc32(&body[MAGIC.len()..]).to_le_bytes());
    Ok(())
    // phylint: end-hot
}

/// One sample component as its saturated `i16` bus word.
#[inline]
fn bus_word(x: Fx<15>) -> i16 {
    x.raw().clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16
}

/// A control-plane message: the non-sample frames that make the link
/// supervised — flow control, liveness and session management. Every
/// message carries one cumulative `u64`, which makes the whole plane
/// idempotent: duplicates and reordering are absorbed by taking the
/// maximum (credits, positions) or comparing nonces (sessions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Receiver → sender: cumulative samples (per antenna) the sender
    /// is allowed to have put on the wire since the session started.
    /// The sender takes the max of all grants seen.
    Credit {
        /// Cumulative sample allowance (monotone per session).
        granted: u64,
    },
    /// Either direction: "I am alive", carrying the emitter's
    /// cumulative sample position (sent for a sender, consumed for a
    /// receiver) as a liveness-plus-progress signal for the peer's
    /// watchdog.
    Heartbeat {
        /// Cumulative samples per antenna at the emitter.
        position: u64,
    },
    /// Sender → receiver on (re)connect: begin session `session`. The
    /// receiver abandons any burst mid-decode (via the PHY's typed
    /// gap path), resets its sequence tracker and credit ledger, and
    /// replies with [`ControlMsg::Reset`] echoing the nonce.
    Hello {
        /// The new session nonce (monotone per sender lifetime).
        session: u64,
    },
    /// Receiver → sender: session `session` is accepted; data may
    /// flow. Also re-sent in reply to duplicate HELLOs (the original
    /// RESET may have been lost).
    Reset {
        /// The session nonce being acknowledged.
        session: u64,
    },
    /// Sender → receiver: clean end of stream after `position` total
    /// samples per antenna. On a clean link the receiver's delivered
    /// ledger must match it exactly.
    Bye {
        /// Final cumulative samples per antenna.
        position: u64,
    },
}

impl ControlMsg {
    fn tag(self) -> u8 {
        match self {
            Self::Credit { .. } => TYPE_CREDIT,
            Self::Heartbeat { .. } => TYPE_HEARTBEAT,
            Self::Hello { .. } => TYPE_HELLO,
            Self::Reset { .. } => TYPE_RESET,
            Self::Bye { .. } => TYPE_BYE,
        }
    }

    fn value(self) -> u64 {
        match self {
            Self::Credit { granted } => granted,
            Self::Heartbeat { position } | Self::Bye { position } => position,
            Self::Hello { session } | Self::Reset { session } => session,
        }
    }

    fn from_wire(tag: u8, value: u64) -> Option<Self> {
        match tag {
            TYPE_CREDIT => Some(Self::Credit { granted: value }),
            TYPE_HEARTBEAT => Some(Self::Heartbeat { position: value }),
            TYPE_HELLO => Some(Self::Hello { session: value }),
            TYPE_RESET => Some(Self::Reset { session: value }),
            TYPE_BYE => Some(Self::Bye { position: value }),
            _ => None,
        }
    }
}

/// One decoded control frame: its (control-plane) sequence number and
/// the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlFrame {
    /// Control-plane wire sequence number (independent of the data
    /// space; diagnostics only).
    pub seq: u32,
    /// The decoded message.
    pub msg: ControlMsg,
}

/// Encodes one control message, **appending** the bytes to `out`
/// (same batching contract as [`encode_frame`]). Control frames are
/// always [`CONTROL_FRAME_LEN`] bytes and never fail to encode.
// phylint: hot
pub fn encode_control(seq: u32, msg: ControlMsg, out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(CONTROL_FRAME_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(msg.tag());
    out.extend_from_slice(&msg.value().to_le_bytes());
    let crc = crc32(&out[start + MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
}
// phylint: end-hot

/// One decoded frame: the sequence number and the per-stream samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleFrame {
    /// Wire sequence number (wraps at `u32::MAX`).
    pub seq: u32,
    /// One equal-length sample vector per stream.
    pub streams: Vec<Vec<CQ15>>,
}

impl SampleFrame {
    /// Samples per stream.
    pub fn samples(&self) -> usize {
        self.streams.first().map_or(0, Vec::len)
    }
}

/// What the decoder found next in the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeEvent {
    /// A complete frame whose CRC verified.
    Frame(SampleFrame),
    /// A complete control frame whose CRC verified.
    Control(ControlFrame),
    /// A framed region whose CRC failed — the header's sequence number
    /// is reported as a *hint* only (it is itself unverified). The
    /// scanner resumes one byte past the bad magic.
    BadCrc {
        /// Unverified sequence number from the rejected header.
        seq_hint: u32,
    },
    /// Bytes discarded while scanning for the next magic.
    Garbage {
        /// Number of bytes skipped.
        bytes: usize,
    },
}

/// Incremental resynchronising frame parser. See the module docs.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted once it grows).
    read: usize,
    /// Garbage bytes skipped since the last emitted event.
    garbage_run: usize,
}

/// Outcome of positioning the cursor on the next plausible frame.
enum Scan {
    /// A plausible complete frame starts at the cursor; `control`
    /// records which family its dispatch byte selected.
    Frame { total: usize, control: bool },
    /// More bytes are needed (possibly mid-frame or mid-magic).
    NeedMore,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw carrier bytes. Call [`FrameDecoder::next_event`]
    /// until it returns `None` to drain what they complete.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (bounded by one maximum
    /// frame plus one carrier read, given a draining caller).
    // phylint: allow(test_only_api) -- test support: crates/transport/tests/codec.rs
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Returns the next decode event, or `None` when the buffered
    /// bytes hold no complete event yet.
    pub fn next_event(&mut self) -> Option<DecodeEvent> {
        match self.scan() {
            Scan::NeedMore => {
                self.compact();
                self.take_garbage()
            }
            Scan::Frame { total, control } => {
                if let Some(g) = self.take_garbage() {
                    // Report the skipped run first; the frame is
                    // still at the cursor for the next call.
                    return Some(g);
                }
                let frame = &self.buf[self.read..self.read + total];
                let want = le_u32_at(frame, total - CRC_LEN);
                let got = crc32(&frame[MAGIC.len()..total - CRC_LEN]);
                if want == got {
                    let event = if control {
                        DecodeEvent::Control(decode_control_verified(frame))
                    } else {
                        DecodeEvent::Frame(decode_verified(frame))
                    };
                    self.read += total;
                    self.compact();
                    return Some(event);
                }
                // Corrupted frame (or a coincidental magic inside
                // other data): reject, rescan one byte past the
                // magic so a real frame hiding inside is found.
                let seq_hint = le_u32_at(frame, 4);
                self.read += 1;
                self.garbage_run += 1;
                Some(DecodeEvent::BadCrc { seq_hint })
            }
        }
    }

    /// Advances `read` past garbage until the cursor sits on a
    /// plausible complete frame or runs out of data. Skipped bytes
    /// accumulate in `garbage_run`.
    // phylint: hot
    fn scan(&mut self) -> Scan {
        loop {
            let avail = &self.buf[self.read..];
            // Find the next magic.
            let Some(at) = find_magic(avail) else {
                // No magic anywhere: everything but a possible magic
                // prefix dangling at the tail is garbage.
                let keep = magic_prefix_len(avail);
                let skip = avail.len() - keep;
                self.read += skip;
                self.garbage_run += skip;
                return Scan::NeedMore;
            };
            self.read += at;
            self.garbage_run += at;
            let avail = &self.buf[self.read..];
            // The dispatch byte sits one past the seq field; without
            // it we cannot tell the frame family yet.
            if avail.len() <= 8 {
                return Scan::NeedMore;
            }
            let dispatch = avail[8];
            if (TYPE_CREDIT..=TYPE_BYE).contains(&dispatch) {
                // Control frame: fixed length, nothing else to vet
                // before the CRC.
                if avail.len() < CONTROL_FRAME_LEN {
                    return Scan::NeedMore;
                }
                return Scan::Frame { total: CONTROL_FRAME_LEN, control: true };
            }
            if avail.len() < HEADER_LEN {
                return Scan::NeedMore;
            }
            let n_streams = dispatch as usize;
            let len = u16::from_le_bytes([avail[9], avail[10]]) as usize;
            if n_streams == 0
                || n_streams > MAX_STREAMS
                || len == 0
                || len > MAX_FRAME_SAMPLES
            {
                // Implausible dispatch byte or geometry: a
                // coincidental magic. Step one byte and keep hunting.
                self.read += 1;
                self.garbage_run += 1;
                continue;
            }
            let total = frame_len(n_streams, len);
            if avail.len() < total {
                return Scan::NeedMore;
            }
            return Scan::Frame { total, control: false };
        }
    }
    // phylint: end-hot

    fn take_garbage(&mut self) -> Option<DecodeEvent> {
        if self.garbage_run > 0 {
            let bytes = std::mem::take(&mut self.garbage_run);
            Some(DecodeEvent::Garbage { bytes })
        } else {
            None
        }
    }

    /// Drops the consumed prefix once it dominates the buffer.
    fn compact(&mut self) {
        if self.read > 4096 && self.read * 2 >= self.buf.len() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
    }
}

/// Reads a little-endian `u32` at `at` without a panicking slice
/// conversion. The scanner vets frame lengths before decode, so the
/// short-slice arm is unreachable in practice; if bookkeeping ever
/// regressed, the 0 it yields fails the CRC comparison and the frame
/// is rejected instead of crashing the receiver.
fn le_u32_at(bytes: &[u8], at: usize) -> u32 {
    match bytes.get(at..at + 4) {
        Some(&[a, b, c, d]) => u32::from_le_bytes([a, b, c, d]),
        _ => 0,
    }
}

/// Reads a little-endian `u64` at `at`; same contract as
/// [`le_u32_at`].
fn le_u64_at(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(&[a, b, c, d, e, f, g, h]) => u64::from_le_bytes([a, b, c, d, e, f, g, h]),
        _ => 0,
    }
}

/// Longest tail of `bytes` that is a proper prefix of [`MAGIC`] (and
/// so might complete into a magic with more input).
fn magic_prefix_len(bytes: &[u8]) -> usize {
    for keep in (1..MAGIC.len()).rev() {
        if bytes.len() >= keep && bytes[bytes.len() - keep..] == MAGIC[..keep] {
            return keep;
        }
    }
    0
}

/// Index of the first [`MAGIC`] occurrence in `bytes`.
fn find_magic(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < MAGIC.len() {
        return None;
    }
    (0..=bytes.len() - MAGIC.len()).find(|&i| bytes[i..i + MAGIC.len()] == MAGIC)
}

/// Decodes a control frame whose CRC has already verified.
fn decode_control_verified(frame: &[u8]) -> ControlFrame {
    let seq = le_u32_at(frame, 4);
    let value = le_u64_at(frame, 9);
    // The scanner only classifies known tags as control frames, so
    // this cannot be None.
    #[expect(
        clippy::expect_used,
        reason = "the scanner admits only dispatch bytes in TYPE_CREDIT..=TYPE_BYE before classifying a frame as control, exactly the tags `from_wire` accepts"
    )]
    let msg = ControlMsg::from_wire(frame[8], value).expect("scanner vetted the tag");
    ControlFrame { seq, msg }
}

/// Decodes a frame whose CRC has already verified.
fn decode_verified(frame: &[u8]) -> SampleFrame {
    let seq = le_u32_at(frame, 4);
    let n_streams = frame[8] as usize;
    let len = u16::from_le_bytes([frame[9], frame[10]]) as usize;
    let mut streams = Vec::with_capacity(n_streams);
    let mut at = HEADER_LEN;
    for _ in 0..n_streams {
        let mut stream = Vec::with_capacity(len);
        for _ in 0..len {
            let re = i16::from_le_bytes([frame[at], frame[at + 1]]);
            let im = i16::from_le_bytes([frame[at + 2], frame[at + 3]]);
            at += BYTES_PER_SAMPLE;
            stream.push(CQ15 {
                re: Fx::from_raw(i64::from(re)),
                im: Fx::from_raw(i64::from(im)),
            });
        }
        streams.push(stream);
    }
    SampleFrame { seq, streams }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(n_streams: usize, len: usize, salt: i64) -> Vec<Vec<CQ15>> {
        (0..n_streams)
            .map(|s| {
                (0..len)
                    .map(|i| {
                        let v = (salt + (s * len + i) as i64 * 31) % 32768;
                        CQ15 {
                            re: Fx::from_raw(v),
                            im: Fx::from_raw(-v),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn drain(dec: &mut FrameDecoder) -> Vec<DecodeEvent> {
        std::iter::from_fn(|| dec.next_event()).collect()
    }

    /// The byte loop alone: the oracle every tier is held to.
    fn crc32_oracle(bytes: &[u8]) -> u32 {
        !crc32_bytes(!0, bytes)
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector, on every tier.
        for &isa in Isa::tiers() {
            assert_eq!(crc32_with(isa, b"123456789"), 0xCBF4_3926, "{}", isa.name());
            assert_eq!(crc32_with(isa, b""), 0, "{}", isa.name());
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_tier_matches_the_byte_loop_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..4096 + 16u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for offset in 0..16 {
            let bytes = &buf[offset..offset + 4096];
            // The oracle's register, advanced one byte per length.
            let mut c = !0u32;
            for len in 0..=bytes.len() {
                for &isa in Isa::tiers() {
                    assert_eq!(
                        crc32_with(isa, &bytes[..len]),
                        !c,
                        "{} at offset {offset}, length {len}",
                        isa.name()
                    );
                }
                if len < bytes.len() {
                    c = crc32_bytes(c, &bytes[len..=len]);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn every_tier_matches_the_byte_loop_on_random_buffers(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..9000),
            offset in 0usize..16,
        ) {
            let bytes = &bytes[offset.min(bytes.len())..];
            let want = crc32_oracle(bytes);
            for &isa in Isa::tiers() {
                proptest::prop_assert_eq!(crc32_with(isa, bytes), want, "{}", isa.name());
            }
        }
    }

    #[test]
    fn known_answer_frame_pins_the_wire_bytes() {
        let sample = |re: i64, im: i64| CQ15 {
            re: Fx::from_raw(re),
            im: Fx::from_raw(im),
        };
        let chunks = [
            [
                sample(1, -1),
                sample(0x1234, -0x1234),
                sample(32767, -32768),
            ],
            // The first sample saturates to the bus range.
            [sample(40_000, -40_000), sample(0, 0), sample(-2, 3)],
        ];
        let mut out = vec![0xEE]; // encode appends
        encode_frame(0x0102_0304, &chunks, &mut out).unwrap();
        #[rustfmt::skip]
        let want: [u8; 40] = [
            0xEE,
            0x43, 0x51, 0x31, 0x35, // "CQ15"
            0x04, 0x03, 0x02, 0x01, // seq
            0x02, 0x03, 0x00,       // 2 streams × 3 samples
            0x01, 0x00, 0xFF, 0xFF, 0x34, 0x12, 0xCC, 0xED, 0xFF, 0x7F, 0x00, 0x80,
            0xFF, 0x7F, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0xFE, 0xFF, 0x03, 0x00,
            0xA1, 0x38, 0x61, 0x60, // CRC-32 0x6061_38A1
        ];
        assert_eq!(out, want);
    }

    #[test]
    fn roundtrip_is_identity_across_split_points() {
        let chunks = chunk(4, 160, 7);
        let mut bytes = Vec::new();
        encode_frame(99, &chunks, &mut bytes).unwrap();
        assert_eq!(bytes.len(), frame_len(4, 160));

        for split in [1usize, 3, 11, 64, bytes.len()] {
            let mut dec = FrameDecoder::new();
            for piece in bytes.chunks(split) {
                dec.push(piece);
            }
            let events = drain(&mut dec);
            assert_eq!(events.len(), 1, "split {split}: {events:?}");
            let DecodeEvent::Frame(f) = &events[0] else {
                panic!("split {split}: {events:?}");
            };
            assert_eq!(f.seq, 99);
            assert_eq!(f.streams, chunks);
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn corrupted_byte_anywhere_is_rejected_not_decoded() {
        let chunks = chunk(2, 9, 3);
        let mut bytes = Vec::new();
        encode_frame(5, &chunks, &mut bytes).unwrap();
        // Flip one bit in every single byte position in turn; no
        // position may yield a clean decode of wrong data.
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let mut dec = FrameDecoder::new();
            dec.push(&bad);
            for e in drain(&mut dec) {
                if let DecodeEvent::Frame(f) = e {
                    panic!("corrupt byte {pos} decoded as frame seq {}", f.seq);
                }
            }
        }
    }

    #[test]
    fn resynchronises_after_garbage_and_reports_it() {
        let chunks = chunk(1, 4, 1);
        let mut wire = vec![0xA5u8; 237]; // leading noise
        encode_frame(0, &chunks, &mut wire).unwrap();
        wire.extend_from_slice(b"CQ1"); // a teasing partial magic
        wire.extend_from_slice(&[9, 9, 9]);
        encode_frame(1, &chunks, &mut wire).unwrap();

        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let events = drain(&mut dec);
        let frames: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                DecodeEvent::Frame(f) => Some(f.seq),
                _ => None,
            })
            .collect();
        assert_eq!(frames, vec![0, 1]);
        let garbage: usize = events
            .iter()
            .filter_map(|e| match e {
                DecodeEvent::Garbage { bytes } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(garbage, 237 + 6);
    }

    #[test]
    fn implausible_header_after_real_magic_does_not_wedge() {
        // A magic followed by a zero-stream header must be skipped.
        let mut wire = MAGIC.to_vec();
        wire.extend_from_slice(&[0u8; 7]); // seq + n_streams=0 + len=0
        let chunks = chunk(2, 3, 11);
        encode_frame(7, &chunks, &mut wire).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let events = drain(&mut dec);
        assert!(
            events.iter().any(
                |e| matches!(e, DecodeEvent::Frame(f) if f.seq == 7 && f.streams == chunks)
            ),
            "{events:?}"
        );
    }

    #[test]
    fn encode_rejects_bad_geometry() {
        let mut out = Vec::new();
        let empty: Vec<Vec<CQ15>> = Vec::new();
        assert!(matches!(
            encode_frame(0, &empty, &mut out),
            Err(TransportError::BadFrame(_))
        ));
        let ragged = vec![vec![CQ15::ZERO; 4], vec![CQ15::ZERO; 5]];
        assert!(matches!(
            encode_frame(0, &ragged, &mut out),
            Err(TransportError::BadFrame(_))
        ));
        let huge = vec![vec![CQ15::ZERO; MAX_FRAME_SAMPLES + 1]];
        assert!(matches!(
            encode_frame(0, &huge, &mut out),
            Err(TransportError::BadFrame(_))
        ));
        let wide = vec![vec![CQ15::ZERO; 1]; MAX_STREAMS + 1];
        assert!(matches!(
            encode_frame(0, &wide, &mut out),
            Err(TransportError::BadFrame(_))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn control_frames_roundtrip_and_interleave_with_data() {
        let msgs = [
            ControlMsg::Credit { granted: 123_456_789_012 },
            ControlMsg::Heartbeat { position: u64::MAX },
            ControlMsg::Hello { session: 7 },
            ControlMsg::Reset { session: 7 },
            ControlMsg::Bye { position: 0 },
        ];
        let chunks = chunk(4, 31, 5);
        let mut wire = Vec::new();
        for (i, msg) in msgs.iter().enumerate() {
            let before = wire.len();
            encode_control(i as u32, *msg, &mut wire);
            assert_eq!(wire.len() - before, CONTROL_FRAME_LEN);
            encode_frame(i as u32, &chunks, &mut wire).unwrap();
        }
        for split in [1usize, 5, CONTROL_FRAME_LEN, wire.len()] {
            let mut dec = FrameDecoder::new();
            for piece in wire.chunks(split) {
                dec.push(piece);
            }
            let events = drain(&mut dec);
            let controls: Vec<ControlMsg> = events
                .iter()
                .filter_map(|e| match e {
                    DecodeEvent::Control(c) => Some(c.msg),
                    _ => None,
                })
                .collect();
            let frames = events
                .iter()
                .filter(|e| matches!(e, DecodeEvent::Frame(_)))
                .count();
            assert_eq!(controls, msgs, "split {split}");
            assert_eq!(frames, msgs.len(), "split {split}");
            assert!(
                !events.iter().any(|e| matches!(
                    e,
                    DecodeEvent::Garbage { .. } | DecodeEvent::BadCrc { .. }
                )),
                "split {split}: {events:?}"
            );
        }
    }

    #[test]
    fn corrupted_control_frame_is_rejected_not_misparsed() {
        let mut wire = Vec::new();
        encode_control(9, ControlMsg::Credit { granted: 4096 }, &mut wire);
        for pos in 0..wire.len() {
            let mut bad = wire.clone();
            bad[pos] ^= 0x04;
            let mut dec = FrameDecoder::new();
            dec.push(&bad);
            for e in drain(&mut dec) {
                assert!(
                    !matches!(e, DecodeEvent::Control(_) | DecodeEvent::Frame(_)),
                    "corrupt byte {pos} decoded cleanly: {e:?}"
                );
            }
        }
    }

    #[test]
    fn dispatch_ranges_are_structurally_disjoint() {
        // A data frame's dispatch byte is its stream count (1..=8); a
        // control frame's is its tag (0xC1..=0xC5). Encode both and
        // confirm the families come back as themselves.
        let chunks = chunk(MAX_STREAMS, 3, 2);
        let mut wire = Vec::new();
        encode_frame(0, &chunks, &mut wire).unwrap();
        encode_control(0, ControlMsg::Hello { session: 1 }, &mut wire);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let events = drain(&mut dec);
        assert!(matches!(events[0], DecodeEvent::Frame(_)), "{events:?}");
        assert!(matches!(events[1], DecodeEvent::Control(_)), "{events:?}");
    }

    #[test]
    fn saturating_i16_serialization_roundtrips_bus_range_exactly() {
        let extremes = vec![vec![
            CQ15 {
                re: Fx::from_raw(i64::from(i16::MAX)),
                im: Fx::from_raw(i64::from(i16::MIN)),
            },
            CQ15 {
                re: Fx::from_raw(i64::from(i16::MAX) + 500), // saturates
                im: Fx::from_raw(0),
            },
        ]];
        let mut bytes = Vec::new();
        encode_frame(0, &extremes, &mut bytes).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let Some(DecodeEvent::Frame(f)) = dec.next_event() else {
            panic!()
        };
        assert_eq!(f.streams[0][0], extremes[0][0]);
        assert_eq!(f.streams[0][1].re.raw(), i64::from(i16::MAX));
    }

    /// Leading decimal integer of a doc-table cell (`4·n·s` → 4).
    fn leading_int(cell: &str) -> Option<usize> {
        let end = cell
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(cell.len());
        cell[..end].parse().ok()
    }

    /// The crate docs' line that starts with `heading`, and the
    /// `| offset | size | field |` rows of the table that follows it.
    fn doc_table<'a>(lib: &'a str, heading: &str) -> (&'a str, Vec<[&'a str; 3]>) {
        let mut docs = lib
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .map(str::trim);
        let head = docs.find(|l| l.starts_with(heading)).unwrap();
        let rows = docs
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2) // the header and separator rows
            .map(|l| {
                let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
                [cells[0], cells[1], cells[2]]
            })
            .collect();
        (head, rows)
    }

    /// Walks the fixed-size rows from the top, asserting that each
    /// starts where the previous one ended; returns the first offset
    /// not covered and the number of rows walked.
    fn fixed_rows(rows: &[[&str; 3]]) -> (usize, usize) {
        let mut at = 0;
        let mut walked = 0;
        for [offset, size, field] in rows {
            let Ok(size) = size.parse::<usize>() else {
                break;
            };
            assert_eq!(offset.parse(), Ok(at), "offset of {field:?}");
            at += size;
            walked += 1;
        }
        (at, walked)
    }

    /// The wire-format tables in the crate docs describe these
    /// constants: a second implementation written from the docs must
    /// interoperate with this one.
    #[test]
    fn wire_format_docs_match_the_frame_constants() {
        let lib = include_str!("lib.rs");
        let magic = format!("\"{}\"", std::str::from_utf8(&MAGIC).unwrap());
        let (_, data) = doc_table(lib, "**Data frame**");
        let (heading, control) = doc_table(lib, "**Control frame**");
        assert!(data[0][2].contains(&magic), "{:?}", data[0]);
        assert!(control[0][2].contains(&magic), "{:?}", control[0]);

        // Data: the header rows end at HEADER_LEN, where the payload
        // row starts, `BYTES_PER_SAMPLE·n·s` bytes long.
        let (header, walked) = fixed_rows(&data);
        assert_eq!(header, HEADER_LEN);
        let payload = data[walked];
        assert_eq!(payload[0].parse(), Ok(HEADER_LEN), "{payload:?}");
        assert_eq!(
            leading_int(payload[1]),
            Some(BYTES_PER_SAMPLE),
            "{payload:?}"
        );

        // Control: every row is fixed-size, and the rows and the
        // heading's `fixed N bytes` both total CONTROL_FRAME_LEN.
        assert_eq!(fixed_rows(&control), (CONTROL_FRAME_LEN, control.len()));
        let fixed = heading.split("fixed ").nth(1).and_then(leading_int);
        assert_eq!(fixed, Some(CONTROL_FRAME_LEN), "{heading}");

        // The offset-8 row lists exactly the tags the decoder accepts,
        // which are the scanner's range, and the prose states that
        // range and the disjoint stream-count range.
        let tag_row = control.iter().find(|r| r[0] == "8").unwrap();
        let tags: Vec<u8> = tag_row[2]
            .split("0x")
            .skip(1)
            .map(|hex| u8::from_str_radix(&hex[..2], 16).unwrap())
            .collect();
        let decoded: Vec<u8> = (0..=u8::MAX)
            .filter(|&t| ControlMsg::from_wire(t, 0).is_some())
            .collect();
        assert_eq!(tags, decoded);
        assert_eq!(decoded, (TYPE_CREDIT..=TYPE_BYE).collect::<Vec<_>>());
        let range = format!("`{TYPE_CREDIT:#04X}..={TYPE_BYE:#04X}`");
        assert!(lib.contains(&range), "the docs never state {range}");
        let streams = format!("`1..={MAX_STREAMS}`");
        assert!(lib.contains(&streams), "the docs never state {streams}");
    }
}
