//! Sample statistics, process memory, host fingerprint, child-process
//! census, and temporaries that remove themselves.

use std::path::{Path, PathBuf};

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when the layer did no work (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.expect("VmHWM in /proc/self/status (Linux procfs is required)") / 1024.0
}

/// Direct children of this process, from procfs (the census
/// `crates/serve/tests/lifecycle.rs` takes). Must be empty at exit.
pub fn child_pids() -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("children")) {
            out.extend(
                text.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
    }
    out
}

/// Where a measurement was taken. `rustc` and `commit` come from
/// `run.sh` through the environment.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub profile: &'static str,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: env("EPIBENCH_RUSTC"),
            commit: env("EPIBENCH_COMMIT"),
        }
    }

    /// More compute threads than cores: parallel timings mean nothing.
    pub fn oversubscribed(&self) -> bool {
        self.nproc < crate::manifest::THREADS_PER_WORKLOAD
    }

    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" profile={} rustc=\"{}\" commit={} threads_per_workload={}{}",
            self.nproc,
            self.cpu,
            self.profile,
            self.rustc,
            self.commit,
            crate::manifest::THREADS_PER_WORKLOAD,
            if self.oversubscribed() {
                " OVERSUBSCRIBED"
            } else {
                ""
            }
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"profile\": \"{}\", \"rustc\": \"{}\", \
             \"commit\": \"{}\", \"threads_per_workload\": {}, \"oversubscribed\": {}}}",
            self.nproc,
            self.cpu.replace('"', "'"),
            self.profile,
            self.rustc.replace('"', "'"),
            self.commit.replace('"', "'"),
            crate::manifest::THREADS_PER_WORKLOAD,
            self.oversubscribed()
        )
    }
}

/// Directory for everything the benchmark writes, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out (run from the repository root)");
    dir
}

/// A file or directory under [`out_dir`] removed on drop, so a failed or
/// panicking run leaves nothing behind either.
pub struct Temp(PathBuf);

impl Temp {
    pub fn new(name: &str) -> Temp {
        let path = out_dir().join(format!("{name}-{}", std::process::id()));
        let tmp = Temp(path);
        tmp.remove();
        tmp
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("epck.tmp"));
    }
}

impl Drop for Temp {
    fn drop(&mut self) {
        self.remove();
    }
}
