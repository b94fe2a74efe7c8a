//! Host resource readings of this process (64-bit Linux with glibc).

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 `long` fields.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("perfbench calls getrusage(2) and glibc mallopt with the 64-bit Linux layouts");

const RUSAGE_SELF: i32 = 0;

/// glibc `mallopt` parameter for the mmap threshold.
const M_MMAP_THRESHOLD: i32 = -3;

/// glibc's initial mmap threshold, 128 KiB.
const MMAP_THRESHOLD_BYTES: i32 = 128 * 1024;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc's mmap threshold at its initial 128 KiB. By default glibc
/// raises the threshold each time a large mapped block is freed; from
/// then on large buffers come from the heap, where a growing vector is
/// copied rather than remapped and freed space stays resident. Whether a
/// run's largest buffers meet that state depends on the order of earlier
/// allocations, which made peak RSS differ by a tenth or more between
/// seeds of equal work. With the threshold pinned, large buffers are
/// mapped and unmapped with their use, so peak RSS follows the memory the
/// simulator holds.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` takes two plain integers and only adjusts the
    // allocator's tuning; no allocation is borrowed across the call.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) accepts 128 KiB");
}

/// User + system CPU seconds this process has used so far, all threads
/// included — the sweep executor's scoped workers exit after each sweep,
/// and `getrusage` keeps their time, at microsecond resolution.
#[must_use]
pub fn cpu_secs() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (checked at compile time above), and RUSAGE_SELF is a valid
    // `who`; the call writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// Peak resident set size of this process image so far, in MiB.
///
/// Read from `VmHWM` in `/proc/self/status`: unlike `getrusage`'s
/// `ru_maxrss`, it starts afresh at `exec`, so the launcher's own memory
/// (`cargo run`, a wrapper script) is not mistaken for the workload's.
///
/// # Panics
///
/// Panics when procfs does not report `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_cpu_advances() {
        let c0 = cpu_secs();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_secs() > c0);
        assert!(peak_rss_mb() > 0.0);
    }
}
