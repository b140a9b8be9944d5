//! The host fingerprint printed with every result.

use crate::report::json_string;

/// Everything besides the code that moves the numbers, as a JSON object:
/// CPU, cores, the kernel table in use, compiler, build settings and the
/// library's `CYBERHD_*` knobs.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let mut knobs: Vec<String> = std::env::vars()
        .filter(|(key, _)| key.starts_with("CYBERHD_"))
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    knobs.sort();
    let fields = [
        ("cpu", cpu),
        ("available_parallelism", hdc::parallel::available_cores().to_string()),
        ("kernel_isa", hdc::kernel::active().isa().to_string()),
        ("rustc", env!("NIDSBENCH_RUSTC").to_string()),
        ("profile", env!("NIDSBENCH_PROFILE").to_string()),
        ("knobs", knobs.join(" ")),
    ];
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {}", json_string(k), json_string(v))).collect();
    format!("{{{}}}", body.join(", "))
}
