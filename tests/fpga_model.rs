//! Coherence between the FPGA resource model, the blocks' latency
//! models and the functional implementations — the models must
//! describe the system we actually built (Experiments T1–T4, F1, F7,
//! F8).

use mimo_baseband::chanest::{qrd_datapath_latency_cycles, Mat4, SystolicQrdArray};
use mimo_baseband::cordic::Cordic;
use mimo_baseband::fixed::Cf64;
use mimo_baseband::fpga::{ResourceUsage, RxEntity, SynthConfig, SynthesisReport, TxEntity};
use mimo_baseband::modem::{Modulation, SymbolMapper};
use mimo_baseband::ofdm::CpBuffer;
use mimo_baseband::phy::PhyConfig;
use mimo_baseband::sync::CORRELATOR_MULTIPLIERS;

#[test]
fn table1_and_table3_totals_are_papers() {
    let tx = SynthesisReport::transmitter(SynthConfig::paper());
    assert_eq!(tx.total(), ResourceUsage::new(33_423, 12_320, 265_408, 32));
    let rx = SynthesisReport::receiver(SynthConfig::paper());
    assert_eq!(rx.total(), ResourceUsage::new(183_957, 173_335, 367_060, 896));
}

#[test]
fn time_sync_dsp_count_matches_functional_model() {
    // Paper + our correlator: 32 complex taps = 128 18-bit multipliers.
    let entity = RxEntity::TimeSynchroniser.resources(SynthConfig::paper());
    assert_eq!(entity.dsp18 as usize, CORRELATOR_MULTIPLIERS);
}

#[test]
fn qrd_latency_model_matches_cycle_measurement() {
    // The closed form's 22 CORDIC stages hold at every element depth,
    // not only the paper's 20-cycle element.
    let h = Mat4::from_fn(|r, c| Cf64::new(0.3 - 0.1 * r as f64, 0.05 * (c as f64 - r as f64)));
    for iterations in [6, 12, 18, 24] {
        let cordic = Cordic::with_iterations(iterations);
        let model = qrd_datapath_latency_cycles(4, cordic.latency_cycles());
        let (_, measured) = SystolicQrdArray::with_cordic(cordic).run(&h.to_fixed());
        assert_eq!(measured, u64::from(model), "{iterations} iterations");
    }
}

#[test]
fn cp_buffer_memory_matches_fig3_sizing() {
    // Fig 3: dual-port memory twice the OFDM frame. The functional
    // model's word count times 32 bits (16-bit I + 16-bit Q) per
    // channel gives the CP buffering the infrastructure entity must
    // cover.
    for n in [64usize, 512] {
        let buf = CpBuffer::new(n).unwrap();
        assert_eq!(buf.memory_words(), 2 * n);
        let bits_for_4_channels = 4 * buf.memory_words() * 32;
        let infra = TxEntity::Infrastructure.resources(SynthConfig {
            fft_size: n,
            ..SynthConfig::paper()
        });
        assert!(
            infra.memory_bits as usize >= bits_for_4_channels,
            "N={n}: infrastructure memory {} cannot hold 4 CP buffers ({bits_for_4_channels})",
            infra.memory_bits
        );
    }
}

#[test]
fn mapper_rom_fits_infrastructure_memory() {
    // The symbol-mapper LUT (duplicated once, per the paper) must fit
    // in the transmitter's infrastructure memory budget.
    let mapper = SymbolMapper::new(Modulation::Qam64).unwrap();
    let rom_bits = mapper.lut().len() * 32; // I+Q @ 16 bits
    let infra = TxEntity::Infrastructure.resources(SynthConfig::paper());
    assert!(infra.memory_bits as usize > 2 * rom_bits);
}

/// The default MCS's data rate at a configuration's geometry.
fn data_rate_bps(cfg: &PhyConfig) -> f64 {
    cfg.mcs().data_rate_bps(cfg.geometry())
}

#[test]
fn headline_claim_holds() {
    // The reason the paper is called "1Gbps": 64-QAM r=3/4 on 4
    // streams at the achieved 100 MHz clock.
    assert!(data_rate_bps(&PhyConfig::gigabit()) >= 1.0e9);
}

#[test]
fn scaling_claims_hold_in_model() {
    let rows = SynthesisReport::scaling_analysis(SynthConfig::paper());
    let r64 = &rows[0];
    let r512 = rows.last().unwrap();
    // "eight times as many memory bits" (approximately).
    let ratio = r512.rx_total.memory_bits as f64 / r64.rx_total.memory_bits as f64;
    assert!((ratio - 8.0).abs() < 1.0, "memory ratio {ratio}");
    // "plenty of memory resources available ... to accommodate a
    // 512-point OFDM system".
    assert!(r512.fits);
    // Interleaver logic 8x (Table 2 scaling statement).
    let il64 = TxEntity::BlockInterleaver.resources(SynthConfig::paper());
    let il512 = TxEntity::BlockInterleaver.resources(SynthConfig {
        fft_size: 512,
        ..SynthConfig::paper()
    });
    assert_eq!(il512.aluts, 8 * il64.aluts);
}

#[test]
fn channel_est_dominates_receiver() {
    let rx = SynthesisReport::receiver(SynthConfig::paper());
    let (aluts, dsps) = rx.channel_est_share().unwrap();
    assert!(aluts > 80.0 && aluts < 90.0, "ALUT share {aluts}");
    assert!(dsps > 70.0 && dsps < 82.0, "DSP share {dsps}");
}
