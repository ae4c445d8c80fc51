//! Minimal POSIX signal plumbing, without a libc dependency.
//!
//! Two needs, both tiny: binaries must notice SIGTERM/SIGINT so they can
//! drain instead of dying mid-frame, and the chaos harness must deliver
//! SIGKILL/SIGSTOP/SIGCONT/SIGTERM to child processes it spawned. Both
//! are raw syscalls the vendored dependency set doesn't wrap. Their
//! bindings live in [`videopipe_net::sys`], the library crates' single
//! `unsafe` island and the only module carrying `allow(unsafe_code)`; this
//! crate is `#![forbid(unsafe_code)]` and only wraps those safe calls.
//! Keep it that way. The installed handler does the only async-signal-safe
//! thing possible: it sets a process-global atomic flag that the main
//! loops poll.

use std::sync::atomic::{AtomicBool, Ordering};
use videopipe_net::sys;

/// SIGINT (Ctrl-C).
pub const SIGINT: i32 = 2;
/// SIGKILL (uncatchable; chaos "machine died").
pub const SIGKILL: i32 = 9;
/// SIGTERM (graceful shutdown request).
pub const SIGTERM: i32 = 15;
/// SIGSTOP (uncatchable freeze; chaos "network partition/GC pause").
pub const SIGSTOP: i32 = 19;
/// SIGCONT (resume a stopped process; chaos "partition heals").
pub const SIGCONT: i32 = 18;

/// Set by [`request_termination`]; real signals land in `sys`'s bitmask.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Installs flag-setting handlers for SIGTERM and SIGINT. Idempotent.
/// After this, [`termination_requested`] turns true the moment either
/// signal arrives.
pub fn install_termination_handler() {
    // Both are catchable signal numbers, so installation cannot fail.
    let _ = sys::catch_signal(SIGTERM);
    let _ = sys::catch_signal(SIGINT);
}

/// Whether SIGTERM/SIGINT has been received since
/// [`install_termination_handler`].
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::Relaxed) || sys::signal_caught(SIGTERM) || sys::signal_caught(SIGINT)
}

/// Test hook: pretend a termination signal arrived.
pub fn request_termination() {
    TERMINATE.store(true, Ordering::Relaxed);
}

/// Sends `sig` to `pid` via `kill(2)`. Returns `false` when the syscall
/// fails (no such process, no permission), and for pid 0 (never signal
/// "every process in our group" by accident). Used by the chaos harness
/// to SIGKILL/SIGSTOP/SIGCONT real child processes it spawned.
pub fn kill(pid: u32, sig: i32) -> bool {
    sys::kill(pid, sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn termination_flag_roundtrip() {
        install_termination_handler();
        assert!(!termination_requested() || TERMINATE.load(Ordering::Relaxed));
        request_termination();
        assert!(termination_requested());
        TERMINATE.store(false, Ordering::Relaxed);
    }

    #[test]
    fn kill_rejects_pid_zero() {
        assert!(!kill(0, SIGCONT));
    }

    #[test]
    fn kill_signals_real_children() {
        // Spawn a sleeping child and SIGKILL it through our wrapper.
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        assert!(kill(child.id(), SIGKILL));
        let status = child.wait().expect("wait");
        assert!(!status.success());
    }
}
