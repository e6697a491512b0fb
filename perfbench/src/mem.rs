//! Process introspection through `/proc/self`: resident-set size and the
//! filesystem a path lives on.

use std::path::Path;

/// A `kB` field of `/proc/self/status` (`"VmRSS:"`, `"VmHWM:"`), or 0 where
/// the file is unavailable.
pub fn rss_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kib| kib.parse().ok())
        })
        .unwrap_or(0)
}

/// The type of the filesystem holding `path` (the mount with the longest
/// matching mount point), e.g. `"ext4"` or `"overlay"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount_point = fields.next()?;
            let fs = fields.next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
