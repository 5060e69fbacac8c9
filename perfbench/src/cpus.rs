//! Thread CPU affinity, so the open-loop generator can have a core of
//! its own: it busy-polls, and an engine thread woken onto its core
//! would delay the requests due meanwhile.

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
}

/// CPUs the process could run on when it started, ascending.
pub fn at_start() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(allowed)
}

/// CPUs the calling thread may run on, ascending.
fn allowed() -> Vec<usize> {
    let mut mask: Mask = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<Mask>()` bytes into
    // `mask`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut mask) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread (and the threads it starts from now on)
/// to `cpus`. Returns whether the kernel accepted it.
pub fn restrict(cpus: &[usize]) -> bool {
    let mut mask: Mask = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: the kernel reads `size_of::<Mask>()` bytes from `mask`;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), &mask) == 0 }
}
