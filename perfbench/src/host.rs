//! Host measurements and provenance: process CPU time, peak resident
//! memory, core count, the crypto backends the simulator selected, and
//! the compiler that built the benchmark.

use thoth_crypto::{Aes128, SipHash24};

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (Linux `USER_HZ`, fixed at 100 for the procfs ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads (joined
/// ones included). `None` where `/proc` is unavailable.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields restart after
    // its closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Seconds the hypervisor stole from this machine's CPUs so far, summed
/// over CPUs (the `steal` column of `/proc/stat`): on a shared host this
/// explains run-to-run variance. `None` where `/proc` is unavailable.
#[must_use]
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Worker threads `run_jobs` uses on this host.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Where and how a result was produced, recorded in every output so a
/// surprising number can be explained from the artefact alone.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// `Aes128::backend()` of a freshly keyed cipher.
    pub aes_backend: String,
    /// `SipHash24::backend()` of a freshly keyed hasher.
    pub sip_backend: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
}

impl Provenance {
    /// Probes the current host.
    #[must_use]
    pub fn detect() -> Self {
        Provenance {
            cores: cores(),
            aes_backend: format!("{:?}", Aes128::new(&[0; 16]).backend()),
            sip_backend: format!("{:?}", SipHash24::from_key_bytes(&[0; 16]).backend()),
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
        }
    }

    /// JSON object form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let esc = thoth_telemetry::json::escape;
        format!(
            "{{\"cores\":{},\"aes_backend\":\"{}\",\"sip_backend\":\"{}\",\"rustc\":\"{}\"}}",
            self.cores,
            esc(&self.aes_backend),
            esc(&self.sip_backend),
            esc(&self.rustc)
        )
    }
}
