//! Run metadata stamped on every result, so snapshots taken on
//! different hosts, kernel tiers or toolchains are never compared
//! blindly.

use mimo_baseband::coding::{hard_to_llr, CodeSpec, ViterbiDecoder};

#[derive(Debug, Clone)]
pub struct Meta {
    /// `std::thread::available_parallelism()`: the CPUs this process
    /// may use (affinity and quota applied).
    pub host_threads: usize,
    /// Online CPUs of the machine (`processor` lines in /proc/cpuinfo).
    pub nproc: usize,
    pub cpu_features: Vec<&'static str>,
    /// The Viterbi tier `ViterbiDecoder` dispatches to on this build
    /// and CPU.
    pub viterbi_kernel: &'static str,
    pub build_profile: &'static str,
    pub rustc: &'static str,
    pub git_commit: &'static str,
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(host_threads)
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($name:tt),*) => {$(
            if std::arch::is_x86_feature_detected!($name) {
                f.push($name);
            }
        )*};
    }
    probe!("sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512bw");
    f
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> Vec<&'static str> {
    Vec::new()
}

pub fn collect() -> Meta {
    let soft = [hard_to_llr(0), hard_to_llr(1)];
    Meta {
        host_threads: host_threads(),
        nproc: online_cpus(),
        cpu_features: cpu_features(),
        viterbi_kernel: ViterbiDecoder::new(CodeSpec::ieee80211a()).kernel_name(&soft),
        build_profile: env!("PERFBENCH_PROFILE"),
        rustc: env!("PERFBENCH_RUSTC"),
        git_commit: env!("PERFBENCH_COMMIT"),
    }
}

impl Meta {
    pub fn to_json(&self) -> String {
        let features: Vec<String> = self
            .cpu_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect();
        format!(
            "{{\"host_threads\": {}, \"nproc\": {}, \"cpu_features\": [{}], \"viterbi_kernel\": \"{}\", \"build_profile\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
            self.host_threads,
            self.nproc,
            features.join(", "),
            self.viterbi_kernel,
            self.build_profile,
            self.rustc.replace('"', "'"),
            self.git_commit,
        )
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
