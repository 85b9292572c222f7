//! The target FPGA device catalog.

use crate::resources::ResourceUsage;

/// An FPGA device's available resources. The paper's percentages imply
/// a Stratix-IV-class part with 424,960 ALUTs, 21,233,664 memory bits
/// and 1,024 18-bit DSP blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    name: &'static str,
    capacity: ResourceUsage,
}

impl Device {
    /// The paper's device (Stratix IV 530-class).
    pub fn stratix_iv_530() -> Self {
        Self {
            name: "Stratix IV (424,960-ALUT class)",
            capacity: ResourceUsage::new(424_960, 424_960, 21_233_664, 1_024),
        }
    }

    /// Device display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Available resources.
    pub fn capacity(&self) -> ResourceUsage {
        self.capacity
    }

    /// Percentage of each category a usage consumes, as the paper's
    /// "% Used" column: `(aluts%, registers%, memory%, dsp%)`.
    pub fn utilization(&self, used: ResourceUsage) -> (f64, f64, f64, f64) {
        let pct = |u: u64, c: u64| 100.0 * u as f64 / c as f64;
        (
            pct(used.aluts, self.capacity.aluts),
            pct(used.registers, self.capacity.registers),
            pct(used.memory_bits, self.capacity.memory_bits),
            pct(used.dsp18, self.capacity.dsp18),
        )
    }

    /// `true` if the usage fits the device in every category.
    pub fn fits(&self, used: ResourceUsage) -> bool {
        used.aluts <= self.capacity.aluts
            && used.registers <= self.capacity.registers
            && used.memory_bits <= self.capacity.memory_bits
            && used.dsp18 <= self.capacity.dsp18
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::stratix_iv_530()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_percentages_reproduce() {
        // Table 1: 33,423 ALUTs = 7.8%; Table 3: 183,957 = 43.2%.
        let dev = Device::stratix_iv_530();
        let (a, ..) = dev.utilization(ResourceUsage::new(33_423, 0, 0, 0));
        assert!((a - 7.8).abs() < 0.1, "TX ALUT% {a}");
        let (a, ..) = dev.utilization(ResourceUsage::new(183_957, 0, 0, 0));
        assert!((a - 43.2).abs() < 0.1, "RX ALUT% {a}");
        // Table 3 DSP: 896/1024 = 87.5%.
        let (.., d) = dev.utilization(ResourceUsage::new(0, 0, 0, 896));
        assert!((d - 87.5).abs() < 1e-9);
    }

    #[test]
    fn fits_checks_every_category() {
        let dev = Device::stratix_iv_530();
        assert!(dev.fits(ResourceUsage::new(400_000, 400_000, 1_000_000, 1_000)));
        assert!(!dev.fits(ResourceUsage::new(500_000, 0, 0, 0)));
        assert!(!dev.fits(ResourceUsage::new(0, 0, 0, 1_025)));
    }
}
