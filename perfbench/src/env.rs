//! The environment of a run, recorded so that noisy-neighbour runs can be
//! spotted: core count, load average before and after, the run's median
//! reference-kernel time (see [`crate::speed`]), build profile, and the
//! source the program was built from.

use dip_models::json::JsonValue;
use std::path::{Path, PathBuf};

/// Environment of one run.
#[derive(Debug, Clone)]
pub struct Environment {
    nproc: usize,
    load_before: String,
    load_after: String,
    kernel_ms: f64,
    profile: &'static str,
    commit: String,
    source_digest: String,
}

impl Environment {
    /// Records everything known before the run starts.
    pub fn capture() -> Self {
        let root = repo_root();
        Self {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            load_before: load_average(),
            load_after: String::new(),
            kernel_ms: f64::NAN,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(&root).unwrap_or_else(|| "unknown".into()),
            source_digest: format!("{:016x}", source_digest(&root)),
        }
    }

    /// Records the load average after the run and the run's median
    /// kernel pass time in ms.
    pub fn finish(mut self, kernel_ms: f64) -> Self {
        self.load_after = load_average();
        self.kernel_ms = kernel_ms;
        self
    }

    /// One human-readable line.
    pub fn describe(&self) -> String {
        format!(
            "nproc={} loadavg_before=[{}] loadavg_after=[{}] kernel_ms={:.4} profile={} \
             commit={} source={}",
            self.nproc,
            self.load_before,
            self.load_after,
            self.kernel_ms,
            self.profile,
            self.commit,
            self.source_digest
        )
    }

    /// The environment as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let s = |v: &str| JsonValue::String(v.to_string());
        JsonValue::Object(vec![
            ("nproc".into(), JsonValue::Number(self.nproc as f64)),
            ("loadavg_before".into(), s(&self.load_before)),
            ("loadavg_after".into(), s(&self.load_after)),
            ("kernel_ms".into(), JsonValue::Number(self.kernel_ms)),
            ("profile".into(), s(self.profile)),
            ("commit".into(), s(&self.commit)),
            ("source_digest".into(), s(&self.source_digest)),
        ])
    }
}

/// The repository root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The 1, 5 and 15 minute load averages, or `unavailable`.
fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unavailable".into())
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git work tree (for instance in an exported checkout).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the relative path and contents of every file under the
/// repository's `crates/` and this package's `src/`, in sorted order: the
/// same source gives the same digest, in a git tree or not.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in [root.join("crates"), root.join("perfbench").join("src")] {
        collect_files(&dir, &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(rel) = file.strip_prefix(root) {
            feed(rel.to_string_lossy().as_bytes());
        }
        if let Ok(contents) = std::fs::read(&file) {
            feed(&contents);
        }
    }
    hash
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
