//! The per-MCS datapath kit bank.
//!
//! The paper's hardware holds the mapper ROM contents for *every*
//! address width and multiplexes among them with the rate field; the
//! software model mirrors that with a [`RateTable`]: one prebuilt
//! [`RateKit`] (mapper LUT, demapper thresholds, and the fused
//! interleaving/puncturing bit map both link ends route bits through) per
//! [`Mcs`] row, built once from the link geometry.
//! Per-burst rate changes are then a table index — no allocation, no
//! LUT rebuild — which is what keeps the steady-state payload loops
//! zero-allocation even across mixed-rate batches.

use mimo_interleave::{BlockInterleaver, FusedDeinterleaver};
use mimo_modem::{SymbolDemapper, SymbolMapper};

use crate::config::LinkGeometry;
use crate::error::PhyError;
use crate::mcs::Mcs;

/// The rate-dependent datapath pieces for one MCS table row.
#[derive(Debug, Clone)]
pub(crate) struct RateKit {
    pub(crate) mcs: Mcs,
    pub(crate) mapper: SymbolMapper,
    pub(crate) demapper: SymbolDemapper,
    /// The rate's one bit map: interleaving and puncturing fused into
    /// one per-symbol table. The transmitter gathers each symbol's
    /// coded bits out of the mother-code stream through it, and the
    /// receiver scatters the demapped LLRs back through it.
    pub(crate) fused: FusedDeinterleaver,
}

impl RateKit {
    fn new(mcs: Mcs, geometry: &LinkGeometry) -> Result<Self, PhyError> {
        let mapper = SymbolMapper::new(mcs.modulation())?;
        let demapper = SymbolDemapper::matched_to(&mapper);
        let interleaver = BlockInterleaver::new(
            mcs.coded_bits_per_symbol(geometry),
            mcs.bits_per_symbol(),
        )?;
        let fused = FusedDeinterleaver::new(&interleaver, mcs.code_rate().keep_pattern())?;
        Ok(Self {
            mcs,
            mapper,
            demapper,
            fused,
        })
    }

    /// Mother-code bits one symbol spans: the region the transmitter
    /// gathers a symbol's coded bits from and the receiver scatters
    /// its LLRs into.
    pub(crate) fn mother_bits_per_symbol(&self) -> usize {
        self.fused.mother_bits_per_symbol()
    }
}

/// One [`RateKit`] per [`Mcs`] row, indexed by the SIGNAL-field rate
/// index.
#[derive(Debug, Clone)]
pub(crate) struct RateTable {
    kits: Vec<RateKit>,
}

impl RateTable {
    pub(crate) fn new(geometry: &LinkGeometry) -> Result<Self, PhyError> {
        let kits = Mcs::ALL
            .iter()
            .map(|&mcs| RateKit::new(mcs, geometry))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { kits })
    }

    /// The kit for a table row.
    pub(crate) fn kit(&self, mcs: Mcs) -> &RateKit {
        &self.kits[usize::from(mcs.index())]
    }

    /// The kit the SIGNAL-field header is always encoded with
    /// (BPSK r=1/2).
    pub(crate) fn header_kit(&self) -> &RateKit {
        self.kit(Mcs::most_robust())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_match_their_mcs() {
        let table = RateTable::new(&LinkGeometry::mimo()).unwrap();
        for mcs in Mcs::ALL {
            let kit = table.kit(mcs);
            assert_eq!(kit.mcs, mcs);
            assert_eq!(kit.mapper.modulation(), mcs.modulation());
            assert_eq!(kit.demapper.modulation(), mcs.modulation());
            assert_eq!(
                kit.fused.block_size(),
                48 * mcs.bits_per_symbol(),
                "{mcs}"
            );
            // Mother stream = coded / kept-fraction, per symbol.
            let keep = mcs.code_rate().keep_pattern();
            let keeps = keep.iter().filter(|&&k| k).count();
            assert_eq!(
                kit.mother_bits_per_symbol(),
                kit.fused.block_size() / keeps * keep.len(),
                "{mcs}"
            );
        }
        assert_eq!(table.header_kit().mcs, Mcs::Bpsk12);
    }
}
