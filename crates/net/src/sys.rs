//! The library crates' one `unsafe` island: three raw Linux syscalls that
//! the standard library and the vendored dependency set do not wrap.
//!
//! * `poll(2)` — [`wait_readable`] blocks until any of a set of file
//!   descriptors is readable (or hung up, or in error). The reactor's I/O
//!   thread waits on its TCP endpoints here instead of sleeping between
//!   poll passes, the way ZeroMQ's I/O threads block on socket readiness.
//! * `signal(2)` — [`catch_signal`] installs a handler that only records
//!   the signal in a process-global atomic bitmask; [`signal_caught`]
//!   reads it back. Binaries use this to drain on SIGTERM/SIGINT.
//! * `kill(2)` — [`kill`] sends a signal to one child process (the chaos
//!   harness's SIGKILL/SIGSTOP/SIGCONT).
//!
//! Every entry point below is safe: each `unsafe` block is a single FFI
//! call whose arguments are checked or owned here. Keep every other
//! library module free of `unsafe`; the struct layouts and constants
//! follow the Linux ABI.

use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// Data to read (for a listener: a peer to accept).
const POLLIN: c_short = 0x001;

/// `sighandler_t` as `signal(2)` returns it; `SIG_ERR` is all ones.
const SIG_ERR: usize = usize::MAX;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    #[link_name = "kill"]
    fn libc_kill(pid: c_int, sig: c_int) -> c_int;
}

/// Blocks until at least one of `fds` is readable, hung up or in error,
/// or until `timeout` elapses (`None` waits indefinitely). Returns how
/// many descriptors are ready: 0 means the timeout expired. A signal that
/// interrupts the wait restarts it with the remaining time.
///
/// # Errors
///
/// Propagates `poll(2)` failures other than `EINTR` (e.g. `ENOMEM`).
pub fn wait_readable(fds: &[RawFd], timeout: Option<Duration>) -> io::Result<usize> {
    let mut pollfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        let timeout_ms = match deadline {
            None => -1,
            // Round up so a sub-millisecond remainder still waits rather
            // than returning at once and spinning the caller.
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            }
        };
        // SAFETY: `pollfds` is a live, exclusively borrowed array of
        // `pollfds.len()` `#[repr(C)]` pollfd structs; the kernel writes
        // only their `revents` fields and keeps no pointer after return.
        let ready = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as c_ulong, timeout_ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One bit per signal number that [`catch_signal`]'s handler has seen.
static CAUGHT: AtomicU64 = AtomicU64::new(0);

extern "C" fn on_signal(signum: c_int) {
    // Async-signal-safe by construction: one lock-free atomic RMW, no
    // allocation, no locks, no I/O, no unwinding.
    if (1..64).contains(&signum) {
        CAUGHT.fetch_or(1 << signum, Ordering::Relaxed);
    }
}

/// Installs a handler for `signum` that only records its arrival; poll it
/// with [`signal_caught`]. Idempotent.
///
/// # Errors
///
/// Returns `InvalidInput` for numbers outside 1..64 and the OS error when
/// the signal cannot be caught (SIGKILL, SIGSTOP).
pub fn catch_signal(signum: i32) -> io::Result<()> {
    if !(1..64).contains(&signum) {
        return Err(io::ErrorKind::InvalidInput.into());
    }
    // SAFETY: `on_signal` has the C ABI, never unwinds and performs only
    // a lock-free atomic update, so it is sound to run at any
    // interruption point.
    let previous = unsafe { signal(signum, on_signal) };
    if previous == SIG_ERR {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Whether `signum` has arrived since [`catch_signal`] installed its
/// handler.
pub fn signal_caught(signum: i32) -> bool {
    (1..64).contains(&signum) && CAUGHT.load(Ordering::Relaxed) & (1 << signum) != 0
}

/// Sends `sig` to process `pid` via `kill(2)`. Returns `false` when the
/// syscall fails (no such process, no permission) and, without making it,
/// for pid 0 and pids beyond `i32::MAX`, which `kill(2)` would read as
/// "this process group" or "every process".
pub fn kill(pid: u32, sig: i32) -> bool {
    let Ok(pid) = c_int::try_from(pid) else {
        return false;
    };
    if pid == 0 {
        return false;
    }
    // SAFETY: a plain syscall taking two integers; no memory is shared.
    unsafe { libc_kill(pid, sig) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn wait_readable_returns_when_the_peer_writes() {
        let (reader, mut writer) = UnixStream::pair().unwrap();
        let fds = [reader.as_raw_fd()];
        let poke = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            writer.write_all(&[1]).unwrap();
            writer
        });
        let started = Instant::now();
        let ready = wait_readable(&fds, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(ready, 1);
        assert!(started.elapsed() < Duration::from_secs(5));
        drop(poke.join().unwrap());
    }

    #[test]
    fn wait_readable_returns_zero_on_timeout() {
        let (reader, _writer) = UnixStream::pair().unwrap();
        let started = Instant::now();
        let ready = wait_readable(&[reader.as_raw_fd()], Some(Duration::from_millis(30))).unwrap();
        assert_eq!(ready, 0);
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn wait_readable_reports_a_hung_up_peer() {
        let (reader, writer) = UnixStream::pair().unwrap();
        drop(writer);
        let ready = wait_readable(&[reader.as_raw_fd()], Some(Duration::from_secs(10))).unwrap();
        assert_eq!(ready, 1);
    }

    #[test]
    fn kill_rejects_group_and_broadcast_pids() {
        assert!(!kill(0, 0));
        assert!(!kill(u32::MAX, 0));
        // Signal 0 probes for existence without delivering anything.
        assert!(kill(std::process::id(), 0));
    }

    #[test]
    fn catch_signal_rejects_out_of_range_numbers() {
        assert!(catch_signal(0).is_err());
        assert!(catch_signal(64).is_err());
        assert!(!signal_caught(64));
    }
}
