//! Thread placement for the TCP workloads: the load generator and the
//! server each own one core, so a run measures the program and not where
//! the scheduler happened to put four busy threads on two cores.
//!
//! The only `unsafe` in the benchmark: two foreign calls into the C
//! library's affinity functions.

#![allow(unsafe_code)]

use std::io;

/// Words of a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

#[repr(C)]
struct CpuSet([u64; WORDS]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> io::Result<Vec<usize>> {
    let mut set = CpuSet([0; WORDS]);
    // SAFETY: `set` is a writable, properly aligned buffer of exactly the
    // size passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..WORDS * 64)
        .filter(|&cpu| set.0[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread (and threads it spawns later) to `cpus`.
pub fn pin(cpus: &[usize]) -> io::Result<()> {
    let mut set = CpuSet([0; WORDS]);
    for &cpu in cpus.iter().filter(|&&c| c < WORDS * 64) {
        set.0[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The generator's and the server's core, when there are two.
pub fn split() -> Option<(usize, usize)> {
    match allowed().ok()?.as_slice() {
        [a, b, ..] => Some((*a, *b)),
        _ => None,
    }
}

/// Pins the calling thread to one core until dropped, then restores the
/// set it had.
pub struct Pinned {
    before: Vec<usize>,
}

impl Pinned {
    pub fn to(cpu: usize) -> io::Result<Self> {
        let before = allowed()?;
        pin(&[cpu])?;
        Ok(Self { before })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = pin(&self.before);
    }
}
