//! Runner fingerprint: the machine shape a result was measured on, plus
//! two calibration probes, so results from different runners are never
//! compared as if they came from one.

use std::sync::mpsc;
use std::time::Instant;

/// The shape of the machine and build a result came from.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Cores the OS makes available to this process.
    pub nproc: usize,
    /// Reactor worker threads, as counted by the runtime's scheduler
    /// statistics.
    pub workers: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Median single-thread `memcpy` bandwidth over a 16 MiB buffer, GB/s.
    pub memcpy_gbps: f64,
    /// Median round trip of a std `mpsc` ping-pong between two threads, µs.
    pub pingpong_us: f64,
}

/// Measures the fingerprint of a run whose reactor had `workers` workers.
/// Allocates 32 MiB for the copy probe, so call it after the peak resident
/// set of a run has been read.
pub fn fingerprint(workers: usize) -> Fingerprint {
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        workers,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        memcpy_gbps: memcpy_gbps(),
        pingpong_us: pingpong_us(),
    }
}

fn memcpy_gbps() -> f64 {
    const LEN: usize = 16 << 20;
    let src: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
    let mut dst = vec![0u8; LEN];
    let mut rates: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            LEN as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

fn pingpong_us() -> f64 {
    const ROUNDS: usize = 2_000;
    let (ping_tx, ping_rx) = mpsc::channel::<u64>();
    let (pong_tx, pong_rx) = mpsc::channel::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let mut trips: Vec<f64> = Vec::with_capacity(ROUNDS);
    for i in 0..(ROUNDS + ROUNDS / 10) as u64 {
        let t = Instant::now();
        ping_tx.send(i).expect("echo thread alive");
        let back = pong_rx.recv().expect("echo thread alive");
        assert_eq!(back, i);
        // The first tenth warms both threads up and is not kept.
        if i as usize >= ROUNDS / 10 {
            trips.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(ping_tx);
    echo.join().expect("echo thread exits cleanly");
    trips.sort_by(f64::total_cmp);
    trips[trips.len() / 2]
}
