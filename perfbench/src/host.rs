//! Host fingerprint printed with every result.

use std::path::Path;

pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Workers every parallel region and the service's task graph use:
    /// all of `nproc`, never more.
    pub workers: usize,
    pub simd: &'static str,
    /// `git rev-parse HEAD`, when the sources are a git checkout.
    pub git_rev: Option<String>,
    /// CRC-32 over the repository's crate sources, so an export without
    /// git history is still identified.
    pub source_crc32: Option<u32>,
}

impl Host {
    pub fn probe() -> Self {
        let nproc = stdpar::backend::hardware_parallelism();
        let simd = match nbody_math::simd::simd_level() {
            nbody_math::simd::SimdLevel::Portable => "portable",
            nbody_math::simd::SimdLevel::Avx2Fma => "avx2+fma",
        };
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        Host {
            nproc,
            workers: nproc,
            simd,
            git_rev,
            source_crc32: source_crc32(Path::new("crates")),
        }
    }

    pub fn describe(&self, workload: &str, seed: u64, trace: bool) -> String {
        format!(
            "host: nproc={} workers={} simd={} git_rev={} source_crc32={} | workload={workload} seed={seed} trace={}",
            self.nproc,
            self.workers,
            self.simd,
            self.git_rev.as_deref().unwrap_or("none"),
            self.source_crc32.map_or("none".into(), |c| format!("{c:08x}")),
            u8::from(trace),
        )
    }
}

/// CRC-32 of every `.rs` and `Cargo.toml` file under `root`, visited in
/// sorted path order, each prefixed by its path.
fn source_crc32(root: &Path) -> Option<u32> {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, &mut files).ok()?;
    files.sort();
    let mut crc = nbody_math::Crc32::new();
    for f in &files {
        crc.update(f.to_string_lossy().as_bytes());
        crc.update(&std::fs::read(f).ok()?);
    }
    Some(crc.finalize())
}
