//! Where a result came from: source revision, host, core count, the
//! inference kernel width, and the filesystem under the store. Every
//! result line carries this, so two numbers are only compared when they
//! were measured on the same kind of machine with the same kernels.

use std::path::Path;

/// The provenance fields of one run.
pub struct Provenance {
    /// `git` commit of the checkout, or `none` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a digest of every Rust source and manifest under `crates/`
    /// and `perfbench/`: identifies the measured code even without git.
    pub source_digest: String,
    /// Host name.
    pub host: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// The SIMD kernel width the inference path dispatches to.
    pub kernel_width: &'static str,
    /// Filesystem type of the directory holding the store and checkpoints.
    pub store_fs: String,
}

impl Provenance {
    /// Collect provenance for a run whose files live in `run_dir`.
    pub fn collect(run_dir: &Path) -> Provenance {
        Provenance {
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "none".into()),
            source_digest: format!("{:016x}", source_digest()),
            host: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map(|h| h.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            nproc: nproc(),
            kernel_width: autophase_nn::simd::picked().name(),
            store_fs: filesystem_of(run_dir).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The fields as JSON object members (no braces), for the result line.
    pub fn json_fields(&self) -> String {
        format!(
            "\"git_rev\":\"{}\",\"source_digest\":\"{}\",\"host\":\"{}\",\"nproc\":{},\"kernel_width\":\"{}\",\"store_fs\":\"{}\"",
            self.git_rev, self.source_digest, self.host, self.nproc, self.kernel_width, self.store_fs
        )
    }
}

/// `(steal, total)` CPU jiffies since boot, from `/proc/stat`. Steal is
/// time the hypervisor ran something else while this machine's CPUs
/// wanted to run: a run that saw much of it was measured on a busy host.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Stolen share of CPU time between two [`cpu_jiffies`] samples, in
/// `[0, 1]`; 0 when either sample is missing or no time passed.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Cores available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolve `HEAD` by reading the git directory directly (loose ref, then
/// packed refs), so no `git` process is needed.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(refname)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == refname).then(|| rev.to_string())
    })
}

fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "perfbench"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        if let Ok(content) = std::fs::read(f) {
            bytes.extend_from_slice(&content);
        }
    }
    autophase_ir::fingerprint::fnv1a(&bytes)
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(ty) = entry.file_type() else { continue };
        if ty.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Filesystem type of the mount that holds `dir`, from the longest
/// matching mount point in `/proc/self/mountinfo`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, fs)| fs)
}
