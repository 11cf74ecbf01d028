//! Hermetic configuration and host provenance.

use std::fmt::Write as _;
use std::path::Path;

/// Variables the engine re-reads on every execution. An inherited one would
/// silently measure a different program, so the benchmark refuses to start
/// while any is set and passes every setting as a value instead.
pub const QUERY_AFFECTING_VARS: [&str; 14] = [
    "HEF_PIPELINE",
    "HEF_PREFETCH",
    "HEF_PARTITION",
    "HEF_REGISTRY",
    "HEF_THREADS",
    "HEF_PAGE_CACHE",
    "HEF_PAGE_BYTES",
    "HEF_DEADLINE_MS",
    "HEF_MEM_BUDGET",
    "HEF_MAX_QUERIES",
    "HEF_PLAN_OPT",
    "HEF_FAULT",
    "HEF_TRACE",
    "HEF_METRICS",
];

/// The query-affecting variables that `lookup` reports as set.
pub fn forbidden_vars_set(lookup: impl Fn(&str) -> Option<String>) -> Vec<&'static str> {
    QUERY_AFFECTING_VARS
        .into_iter()
        .filter(|v| lookup(v).is_some())
        .collect()
}

/// FNV-1a over bytes: a stable content hash for provenance.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The commit checked out in `root`, read from `.git` without running git;
/// `None` outside a git checkout.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// Hash of every Rust source and manifest under `crates/`, in path order:
/// identifies the program in checkouts that carry no git metadata.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    fnv1a(&all)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map(|s| s.trim().to_string())
    .unwrap_or_else(|_| "unknown".to_string())
}

/// Resident set size of this process in MiB, from `/proc/self/status`.
pub fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hand freed heap memory back to the operating system, so that each
/// set-up starts from the same heap and resident memory measured next
/// counts live data, not what an earlier phase freed.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, is thread-safe,
        // and only releases pages that hold no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and program provenance as `(key, JSON value)` pairs.
pub fn provenance(root: &Path, registry_path: &Path, seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let registry_hash = std::fs::read(registry_path)
        .map(|b| json_str(&format!("{:016x}", fnv1a(&b))))
        .unwrap_or_else(|_| "null".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        (
            "native_backend",
            json_str(hef_hid::Backend::native().name()),
        ),
        ("l2", json_str(&cache_size(2))),
        ("l3", json_str(&cache_size(3))),
        ("seed", seed.to_string()),
        (
            "git_revision",
            git_revision(root).map_or("null".to_string(), |r| json_str(&r)),
        ),
        (
            "source_fnv",
            json_str(&format!("{:016x}", source_hash(root))),
        ),
        (
            "registry_file",
            json_str(&registry_path.display().to_string()),
        ),
        ("registry_fnv", registry_hash),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_rejects_a_set_variable() {
        let none = |_: &str| None;
        assert!(forbidden_vars_set(none).is_empty());
        let one = |v: &str| (v == "HEF_PREFETCH").then(|| "8".to_string());
        assert_eq!(forbidden_vars_set(one), vec!["HEF_PREFETCH"]);
        // An empty value still counts: the engine reads presence for some.
        let empty = |v: &str| (v == "HEF_TRACE").then(String::new);
        assert_eq!(forbidden_vars_set(empty), vec!["HEF_TRACE"]);
        // Unrelated variables pass.
        let other = |v: &str| (v == "HEF_PROP_SEED").then(|| "1".to_string());
        assert!(forbidden_vars_set(other).is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
