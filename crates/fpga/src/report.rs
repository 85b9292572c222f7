//! Synthesis report generation: Tables 1–4 and the §V scaling claims.

use std::fmt;

use crate::device::Device;
use crate::entities::{RxEntity, SynthConfig, TxEntity};
use crate::resources::ResourceUsage;

/// Which side of the link a report covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Transmitter,
    Receiver,
}

/// A generated synthesis report: per-entity rows plus device totals —
/// the model's reproduction of Tables 1+2 (transmitter) or Tables 3+4
/// (receiver).
///
/// # Examples
///
/// ```
/// use mimo_fpga::{SynthConfig, SynthesisReport};
///
/// let report = SynthesisReport::receiver(SynthConfig::paper());
/// assert_eq!(report.total().aluts, 183_957); // Table 3
/// assert_eq!(report.total().dsp18, 896);
/// ```
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    side: Side,
    cfg: SynthConfig,
    device: Device,
    rows: Vec<(&'static str, ResourceUsage)>,
    infrastructure: ResourceUsage,
    sharing_credit: ResourceUsage,
}

impl SynthesisReport {
    /// Builds the transmitter report (Tables 1 and 2).
    pub fn transmitter(cfg: SynthConfig) -> Self {
        let rows = TxEntity::TABLE2_ROWS
            .iter()
            .map(|e| (e.name(), e.resources(cfg)))
            .collect();
        Self {
            side: Side::Transmitter,
            cfg,
            device: Device::stratix_iv_530(),
            rows,
            infrastructure: TxEntity::Infrastructure.resources(cfg),
            sharing_credit: ResourceUsage::ZERO,
        }
    }

    /// Builds the receiver report (Tables 3 and 4).
    pub fn receiver(cfg: SynthConfig) -> Self {
        let rows = RxEntity::TABLE4_ROWS
            .iter()
            .map(|e| (e.name(), e.resources(cfg)))
            .collect();
        Self {
            side: Side::Receiver,
            cfg,
            device: Device::stratix_iv_530(),
            rows,
            infrastructure: RxEntity::Infrastructure.resources(cfg),
            sharing_credit: RxEntity::sharing_credit(cfg),
        }
    }

    /// The configuration reported on.
    pub fn config(&self) -> SynthConfig {
        self.cfg
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Per-entity rows (the Table 2 / Table 4 content).
    pub fn rows(&self) -> &[(&'static str, ResourceUsage)] {
        &self.rows
    }

    /// Total resources (the Table 1 / Table 3 content): entity rows
    /// plus infrastructure minus the synthesis sharing credit.
    pub fn total(&self) -> ResourceUsage {
        let sum: ResourceUsage = self.rows.iter().map(|(_, r)| *r).sum();
        (sum + self.infrastructure).saturating_sub(self.sharing_credit)
    }

    /// Device utilization percentages for the totals, as the "% Used"
    /// column: `(aluts, registers, memory, dsp)`.
    pub fn utilization(&self) -> (f64, f64, f64, f64) {
        self.device.utilization(self.total())
    }

    /// Whether the design fits the device.
    pub fn fits_device(&self) -> bool {
        self.device.fits(self.total())
    }

    /// The §V claim for the receiver: the fraction of ALUTs and DSPs
    /// consumed by the channel-estimation + equalization entities
    /// ("86% of the ALUTS and 77% of the DSP multipliers").
    ///
    /// Returns `(alut_fraction, dsp_fraction)` in percent.
    pub fn channel_est_share(&self) -> Option<(f64, f64)> {
        if self.side != Side::Receiver {
            return None;
        }
        let est: ResourceUsage = RxEntity::CHANNEL_EST_EQ
            .iter()
            .map(|e| e.resources(self.cfg))
            .sum();
        let total = self.total();
        Some((
            100.0 * est.aluts as f64 / total.aluts as f64,
            100.0 * est.dsp18 as f64 / total.dsp18 as f64,
        ))
    }
}

impl fmt::Display for SynthesisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let title = match self.side {
            Side::Transmitter => "MIMO Transmitter",
            Side::Receiver => "MIMO Receiver",
        };
        writeln!(
            f,
            "{title} synthesis @ {} channels, {}-pt OFDM, {} bits/carrier — {}",
            self.cfg.n_channels,
            self.cfg.fft_size,
            self.cfg.modulation_bits,
            self.device.name()
        )?;
        writeln!(
            f,
            "{:<22}{:>10}{:>11}{:>13}{:>8}",
            "Function", "ALUTs", "Registers", "Memory bits", "DSP"
        )?;
        for (name, r) in &self.rows {
            writeln!(
                f,
                "{:<22}{:>10}{:>11}{:>13}{:>8}",
                name, r.aluts, r.registers, r.memory_bits, r.dsp18
            )?;
        }
        let i = self.infrastructure;
        writeln!(
            f,
            "{:<22}{:>10}{:>11}{:>13}{:>8}",
            "(infrastructure)", i.aluts, i.registers, i.memory_bits, i.dsp18
        )?;
        let t = self.total();
        writeln!(
            f,
            "{:<22}{:>10}{:>11}{:>13}{:>8}",
            "TOTAL", t.aluts, t.registers, t.memory_bits, t.dsp18
        )?;
        let (a, r, m, d) = self.utilization();
        writeln!(f, "% used: ALUTs {a:.1}  regs {r:.1}  memory {m:.2}  DSP {d:.1}")
    }
}

/// One row of the FFT-size scaling analysis (the §V discussion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingRow {
    /// FFT size.
    pub fft_size: usize,
    /// Transmitter totals at that size.
    pub tx_total: ResourceUsage,
    /// Receiver totals at that size.
    pub rx_total: ResourceUsage,
    /// Whether both sides still fit the paper's device.
    pub fits: bool,
}

impl SynthesisReport {
    /// Sweeps the FFT size and reports totals — executable form of the
    /// paper's "there are plenty of memory resources available on the
    /// FPGA to accommodate a 512-point OFDM system".
    pub fn scaling_analysis(base: SynthConfig) -> Vec<ScalingRow> {
        [64usize, 128, 256, 512]
            .into_iter()
            .map(|n| {
                let cfg = SynthConfig {
                    fft_size: n,
                    ..base
                };
                let tx = SynthesisReport::transmitter(cfg);
                let rx = SynthesisReport::receiver(cfg);
                ScalingRow {
                    fft_size: n,
                    tx_total: tx.total(),
                    rx_total: rx.total(),
                    fits: tx.fits_device() && rx.fits_device(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals_exact() {
        let report = SynthesisReport::transmitter(SynthConfig::paper());
        let t = report.total();
        assert_eq!(t, ResourceUsage::new(33_423, 12_320, 265_408, 32));
        let (a, r, m, d) = report.utilization();
        assert!((a - 7.8).abs() < 0.07, "ALUT% {a}");
        assert!((r - 2.9).abs() < 0.05, "reg% {r}");
        assert!((m - 1.2).abs() < 0.06, "mem% {m}");
        assert!((d - 3.1).abs() < 0.05, "dsp% {d}");
    }

    #[test]
    fn table3_totals_exact() {
        let report = SynthesisReport::receiver(SynthConfig::paper());
        let t = report.total();
        assert_eq!(t, ResourceUsage::new(183_957, 173_335, 367_060, 896));
        let (a, r, m, d) = report.utilization();
        assert!((a - 43.2).abs() < 0.1, "ALUT% {a}");
        assert!((r - 40.7).abs() < 0.1, "reg% {r}");
        assert!((m - 1.72).abs() < 0.01, "mem% {m}");
        assert!((d - 87.5).abs() < 0.01, "dsp% {d}");
    }

    #[test]
    fn channel_est_share_matches_claims() {
        let report = SynthesisReport::receiver(SynthConfig::paper());
        let (aluts, dsps) = report.channel_est_share().unwrap();
        // Paper: "86% of the ALUTS and 77% of the DSP multipliers".
        assert!((aluts - 86.0).abs() < 1.0, "ALUT share {aluts:.1}%");
        assert!((dsps - 77.0).abs() < 1.0, "DSP share {dsps:.1}%");
        // Transmitter has no such claim.
        assert!(SynthesisReport::transmitter(SynthConfig::paper())
            .channel_est_share()
            .is_none());
    }

    #[test]
    fn scaling_512_fits_device() {
        let rows = SynthesisReport::scaling_analysis(SynthConfig::paper());
        assert_eq!(rows.len(), 4);
        let r512 = rows.iter().find(|r| r.fft_size == 512).unwrap();
        // The paper: memory scales ~8x and still fits comfortably.
        let r64 = rows.iter().find(|r| r.fft_size == 64).unwrap();
        let mem_ratio = r512.rx_total.memory_bits as f64 / r64.rx_total.memory_bits as f64;
        assert!((mem_ratio - 8.0).abs() < 0.5, "memory ratio {mem_ratio}");
        assert!(r512.fits, "512-point must fit the device");
        // Memory still a small fraction of the device.
        let frac = r512.rx_total.memory_bits as f64 / 21_233_664.0;
        assert!(frac < 0.25, "512-pt RX memory fraction {frac}");
    }

    #[test]
    fn report_renders_all_rows() {
        let text = SynthesisReport::receiver(SynthConfig::paper()).to_string();
        for name in ["QR decomposition", "Viterbi decoder", "TOTAL", "% used"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn dsp_budget_fits_1024_at_paper_config_only() {
        // At 4 channels the RX uses 896 of 1,024 DSPs (87.5%): the
        // paper's headroom comment. Doubling channels would not fit.
        let report = SynthesisReport::receiver(SynthConfig {
            n_channels: 8,
            ..SynthConfig::paper()
        });
        assert!(!report.fits_device());
    }
}
