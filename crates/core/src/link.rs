//! End-to-end link simulation: BER / PER measurement harness.

use mimo_channel::ChannelModel;
use mimo_coding::bits;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::adapt::RateController;
use crate::config::PhyConfig;
use crate::error::PhyError;
use crate::mcs::Mcs;
use crate::rx::{MimoReceiver, RxResult};
use crate::tx::MimoTransmitter;

/// One measured operating point of a BER sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerPoint {
    /// Configured channel SNR in dB (`None` for non-AWGN channels).
    pub snr_db: Option<f64>,
    /// Information bits compared.
    pub bits: u64,
    /// Bit errors counted (lost bursts count all their bits as errors).
    pub bit_errors: u64,
    /// Bursts transmitted.
    pub bursts: u64,
    /// Bursts that failed to decode at all.
    pub burst_errors: u64,
}

impl BerPoint {
    /// Bit error rate.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }
}

/// One burst of a closed-loop adaptive run: the rate the controller
/// chose, whether the payload came back bit-exact, the receiver's
/// quality measurement (absent for lost bursts) and the on-air time.
#[derive(Debug, Clone)]
pub struct AdaptiveBurstRecord {
    /// The MCS the controller selected for this burst.
    pub mcs: Mcs,
    /// Whether the decoded payload matched the transmitted one
    /// bit-exactly.
    pub ok: bool,
    /// The receiver's per-burst quality measurement; `None` when the
    /// burst was lost before diagnostics existed (sync loss, header
    /// CRC failure, decode error).
    pub quality: Option<crate::rx::ChannelQuality>,
    /// On-air duration of the burst (preamble + header + payload
    /// symbols) at the link clock, seconds.
    pub airtime_s: f64,
    /// Payload bytes carried.
    pub payload_bytes: usize,
}

/// The per-burst trace of one [`LinkSimulation::run_adaptive`] run.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveTrace {
    /// One record per transmitted burst, in transmit order.
    pub records: Vec<AdaptiveBurstRecord>,
}

impl AdaptiveTrace {
    /// Payload bits delivered bit-exactly.
    pub fn delivered_bits(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.ok)
            .map(|r| 8 * r.payload_bytes as u64)
            .sum()
    }

    /// Total on-air time of every transmitted burst, seconds.
    pub fn airtime_s(&self) -> f64 {
        self.records.iter().map(|r| r.airtime_s).sum()
    }

    /// Goodput: bit-exact delivered payload bits per second of
    /// airtime — the figure of merit link adaptation maximizes (a
    /// too-timid controller wastes airtime on slow rates, a too-greedy
    /// one loses bursts).
    pub fn goodput_bps(&self) -> f64 {
        let airtime = self.airtime_s();
        if airtime > 0.0 {
            self.delivered_bits() as f64 / airtime
        } else {
            0.0
        }
    }

    /// Bursts delivered bit-exactly.
    pub fn bursts_ok(&self) -> u64 {
        self.records.iter().filter(|r| r.ok).count() as u64
    }

    /// The highest rate index the controller reached.
    pub fn max_mcs(&self) -> Option<Mcs> {
        self.records.iter().map(|r| r.mcs).max_by_key(|m| m.index())
    }
}

/// End-to-end link harness: transmitter → caller-supplied channel →
/// receiver, with bit-exact payload comparison.
///
/// # Examples
///
/// ```
/// use mimo_channel::IdealChannel;
/// use mimo_core::{LinkSimulation, PhyConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut link = LinkSimulation::new(PhyConfig::paper_synthesis(), 7)?;
/// let mut chan = IdealChannel::new(4);
/// let point = link.run(&mut chan, 200, 5)?;
/// assert_eq!(point.bit_errors, 0);
/// # Ok(())
/// # }
/// ```
pub struct LinkSimulation {
    tx: MimoTransmitter,
    rx: MimoReceiver,
    rng: ChaCha8Rng,
}

impl LinkSimulation {
    /// Builds the 4×4 transmitter/receiver pair for `cfg`; `seed`
    /// drives the random payloads.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(cfg: PhyConfig, seed: u64) -> Result<Self, PhyError> {
        Ok(Self {
            tx: MimoTransmitter::new(cfg.clone())?,
            rx: MimoReceiver::new(cfg)?,
            rng: ChaCha8Rng::seed_from_u64(seed),
        })
    }

    /// The configuration under test.
    pub fn config(&self) -> &PhyConfig {
        self.tx.config()
    }

    /// Runs `bursts` bursts of `payload_bytes` random payload through
    /// `channel` and accumulates bit/burst error counts.
    ///
    /// A burst that fails to decode (sync loss, singular channel,
    /// decode error) is counted as all-bits-wrong — the pessimistic
    /// convention, so BER curves cannot flatter themselves by dropping
    /// hard bursts.
    ///
    /// # Errors
    ///
    /// Returns configuration-level errors only (a payload too large for
    /// one burst); channel-induced decode failures are folded into the
    /// counts.
    pub fn run(
        &mut self,
        channel: &mut dyn ChannelModel,
        payload_bytes: usize,
        bursts: u64,
    ) -> Result<BerPoint, PhyError> {
        let mcs = self.tx.default_mcs();
        let mut point = BerPoint {
            snr_db: None,
            bits: 0,
            bit_errors: 0,
            bursts: 0,
            burst_errors: 0,
        };
        for _ in 0..bursts {
            let payload: Vec<u8> = (0..payload_bytes).map(|_| self.rng.gen()).collect();
            let (_, received) = self.run_one_traced(mcs, channel, &payload)?;
            point.bursts += 1;
            point.bits += 8 * payload.len() as u64;
            match received {
                Ok(rx) if rx.payload == payload => {}
                Ok(rx) => {
                    let tx_bits = bits::bytes_to_bits(&payload);
                    let rx_bits = bits::bytes_to_bits(&rx.payload);
                    let common = tx_bits.len().min(rx_bits.len());
                    let diff = bits::hamming_distance(&tx_bits[..common], &rx_bits[..common]);
                    let missing = tx_bits.len() - common;
                    point.bit_errors += (diff + missing) as u64;
                    point.burst_errors += 1;
                }
                Err(_) => {
                    point.bit_errors += 8 * payload.len() as u64;
                    point.burst_errors += 1;
                }
            }
        }
        Ok(point)
    }

    /// Drives the full closed loop — TX at the controller's rate →
    /// `channel` → RX → [`RateController::update`] — for `bursts`
    /// bursts of `payload_bytes` random payload, returning the
    /// per-burst (mcs, quality, ok) trace.
    ///
    /// Feedback convention: a bit-exact burst feeds its
    /// [`ChannelQuality`](crate::ChannelQuality) to the controller; a
    /// lost **or corrupted** burst feeds `None` (a burst that decodes
    /// to wrong bytes is a loss for adaptation purposes, whatever its
    /// EVM claimed). With a time-varying channel (e.g.
    /// [`mimo_channel::TimeVaryingAwgn`]) the controller climbs the
    /// rate ladder as SNR improves and backs off as it degrades.
    ///
    /// # Errors
    ///
    /// Returns configuration-level errors (a payload too large for one
    /// burst); channel-induced decode failures are folded into the
    /// trace as lost bursts.
    pub fn run_adaptive(
        &mut self,
        controller: &mut RateController,
        channel: &mut dyn ChannelModel,
        payload_bytes: usize,
        bursts: u64,
    ) -> Result<AdaptiveTrace, PhyError> {
        let clock_hz = self.config().geometry().clock_hz();
        let mut trace = AdaptiveTrace::default();
        for _ in 0..bursts {
            let mcs = controller.current();
            let payload: Vec<u8> = (0..payload_bytes).map(|_| self.rng.gen()).collect();
            let (tx_samples, received) = self.run_one_traced(mcs, channel, &payload)?;
            let (ok, quality) = match received {
                Ok(result) => {
                    let ok = result.payload == payload;
                    (ok, ok.then_some(result.diagnostics.quality))
                }
                Err(_) => (false, None),
            };
            controller.update(quality.as_ref());
            trace.records.push(AdaptiveBurstRecord {
                mcs,
                ok,
                quality,
                airtime_s: tx_samples as f64 / clock_hz,
                payload_bytes,
            });
        }
        Ok(trace)
    }

    /// One closed-loop burst: transmit at `mcs`, propagate, receive.
    /// The outer error is configuration-level (propagates); the inner
    /// is the channel-induced receive outcome. Also returns the
    /// per-stream on-air sample count for airtime accounting.
    fn run_one_traced(
        &mut self,
        mcs: Mcs,
        channel: &mut dyn ChannelModel,
        payload: &[u8],
    ) -> Result<(usize, Result<RxResult, PhyError>), PhyError> {
        let burst = self.tx.transmit_burst_with(mcs, payload)?;
        let received = channel.propagate(&burst.streams);
        Ok((burst.len_samples(), self.rx.receive_burst(&received)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_channel::{AwgnChannel, IdealChannel};

    #[test]
    fn ideal_channel_is_error_free() {
        let mut link = LinkSimulation::new(PhyConfig::paper_synthesis(), 1).unwrap();
        let mut chan = IdealChannel::new(4);
        let point = link.run(&mut chan, 100, 4).unwrap();
        assert_eq!(point.bit_errors, 0);
        assert_eq!(point.bits, 4 * 800);
    }

    #[test]
    fn high_snr_awgn_is_error_free() {
        let mut link = LinkSimulation::new(PhyConfig::paper_synthesis(), 2).unwrap();
        let mut chan = AwgnChannel::new(4, 30.0, 11);
        let point = link.run(&mut chan, 100, 3).unwrap();
        assert_eq!(point.bit_errors, 0, "BER {} at 30 dB", point.ber());
    }

    #[test]
    fn low_snr_produces_errors_but_no_panic() {
        let mut link = LinkSimulation::new(PhyConfig::gigabit(), 3).unwrap();
        let mut chan = AwgnChannel::new(4, 2.0, 13);
        let point = link.run(&mut chan, 100, 3).unwrap();
        assert!(point.ber() > 0.0, "64-QAM r=3/4 at 2 dB cannot be clean");
    }
}
