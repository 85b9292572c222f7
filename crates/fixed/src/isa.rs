//! The CPU tier every lane kernel is built for.
//!
//! The paper fixes each entity's datapath once, before synthesis. The
//! software counterpart is the choice of which target-feature build
//! of a lane kernel runs, and it is made once: [`Isa::tiers`] probes
//! the CPU on its first call and every later call reads the answer.
//! Each lane kernel stores the [`Isa`] it was built with (the
//! [`Isa::detected`] tier, or any tier of [`Isa::tiers`] in the
//! differential tests) and dispatches on [`Isa::avx2`] /
//! [`Isa::avx512bw`] at every call.
//!
//! # The tier invariant
//!
//! The field of [`Isa`] is private, so [`Isa::tiers`] is the only
//! source of values. An `Isa` therefore answers `avx2()` only on a CPU
//! where the probe detected AVX2, and `avx512bw()` only where it
//! detected both AVX2 and AVX-512BW. Every `unsafe` call of a
//! `#[target_feature]` lane body rests on this.

use std::sync::OnceLock;

/// One SIMD tier of this CPU: which build of a lane kernel may run.
///
/// Tiers are ordered portable < AVX2 < AVX-512BW, and each includes
/// the ones below it.
///
/// # Examples
///
/// ```
/// use mimo_fixed::Isa;
///
/// let tiers = Isa::tiers();
/// assert_eq!(tiers[0].name(), "portable");
/// assert_eq!(Some(&Isa::detected()), tiers.last());
/// // The AVX-512BW tier sits on top of the AVX2 one.
/// assert!(!Isa::detected().avx512bw() || Isa::detected().avx2());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Isa(Tier);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    Portable,
    Avx2,
    Avx512bw,
}

/// Every tier, in ascending order; the probe decides how many run.
const ALL: [Isa; 3] = [Isa(Tier::Portable), Isa(Tier::Avx2), Isa(Tier::Avx512bw)];

impl Isa {
    /// Every tier this CPU runs, portable first, in ascending order.
    /// The CPU is probed on the first call of the process; no call
    /// allocates.
    pub fn tiers() -> &'static [Isa] {
        static RUNNABLE: OnceLock<usize> = OnceLock::new();
        &ALL[..*RUNNABLE.get_or_init(probe)]
    }

    /// The widest tier this CPU runs: the last of [`Isa::tiers`].
    pub fn detected() -> Isa {
        let tiers = Self::tiers();
        tiers[tiers.len() - 1]
    }

    /// Whether kernels of this tier may run AVX2 code.
    #[inline]
    pub fn avx2(self) -> bool {
        self.0 >= Tier::Avx2
    }

    /// Whether kernels of this tier may run AVX-512BW code.
    #[inline]
    pub fn avx512bw(self) -> bool {
        self.0 >= Tier::Avx512bw
    }

    /// `"portable"`, `"avx2"` or `"avx512bw"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2",
            Tier::Avx512bw => "avx512bw",
        }
    }
}

/// The CPU probe: how many entries of [`ALL`] this CPU runs. The
/// AVX-512BW tier needs AVX2 as well, since it includes the AVX2 one.
fn probe() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        // The one run-time CPU-feature query of the workspace.
        macro_rules! cpu_has {
            ($feature:tt) => {
                std::arch::is_x86_feature_detected!($feature)
            };
        }
        if cpu_has!("avx2") {
            return 2 + usize::from(cpu_has!("avx512bw"));
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_start_portable_and_ascend() {
        let tiers = Isa::tiers();
        assert_eq!(tiers.first(), Some(&ALL[0]));
        assert!(!tiers[0].avx2() && !tiers[0].avx512bw());
        assert!(tiers.windows(2).all(|w| w[0] < w[1]), "{tiers:?}");
    }

    #[test]
    fn detected_is_the_last_tier() {
        assert_eq!(Some(&Isa::detected()), Isa::tiers().last());
    }

    #[test]
    fn repeated_probes_agree() {
        let first = Isa::tiers();
        for _ in 0..3 {
            assert_eq!(Isa::tiers(), first);
            assert_eq!(Isa::detected(), Isa::detected());
        }
        assert_eq!(probe(), first.len());
    }

    #[test]
    fn avx512bw_tier_implies_the_avx2_query() {
        let names: Vec<_> = Isa::tiers().iter().map(|isa| isa.name()).collect();
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            let avx512bw = std::arch::is_x86_feature_detected!("avx512bw");
            assert_eq!(names.contains(&"avx2"), avx2);
            assert_eq!(names.contains(&"avx512bw"), avx2 && avx512bw);
            if Isa::detected().avx512bw() {
                assert!(avx2 && avx512bw);
            }
            for (feature, found) in [("avx2", avx2), ("avx512bw", avx512bw)] {
                if !found {
                    eprintln!("tier {feature} not tested: this CPU lacks it");
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(names, ["portable"]);
    }
}
