//! Host-phase probes. The speed of a small virtual machine moves in
//! phases that last minutes and shift every latency together. Each run
//! reads these probes before and after its timed phase and prints them
//! in its provenance line, so that a shift of every metric can be told
//! apart from a change in the program.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// One reading of the probes.
pub struct Phase {
    /// Steal time of all CPUs so far, in clock ticks (`/proc/stat`).
    pub steal_ticks: Option<u64>,
    /// Median round trip of a one-byte ping-pong between two threads
    /// over a Unix socket pair, in µs: the floor under every request.
    pub ipc_us: f64,
    /// Median time of a fixed compute kernel, in µs.
    pub compute_us: f64,
}

/// Reads every probe; takes about 40 ms.
pub fn sample() -> Phase {
    Phase {
        steal_ticks: steal_ticks(),
        ipc_us: ipc_us(),
        compute_us: compute_us(),
    }
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn ipc_us() -> f64 {
    const TRIPS: usize = 2000;
    let Ok((mut a, mut b)) = UnixStream::pair() else {
        return f64::NAN;
    };
    let echo = std::thread::spawn(move || {
        let mut byte = [0u8; 1];
        while b.read_exact(&mut byte).is_ok() && b.write_all(&byte).is_ok() {}
    });
    let mut times = Vec::with_capacity(TRIPS);
    let mut byte = [0u8; 1];
    for _ in 0..TRIPS {
        let t0 = Instant::now();
        if a.write_all(&byte).is_err() || a.read_exact(&mut byte).is_err() {
            break;
        }
        times.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(a);
    let _ = echo.join();
    if times.is_empty() {
        f64::NAN
    } else {
        median(times)
    }
}

fn compute_us() -> f64 {
    // A 1 MiB table read at seeded-random offsets: arithmetic plus cache
    // traffic, about 1 ms per pass.
    let table: Vec<u64> = (0..1u64 << 17)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect();
    let mut times = Vec::with_capacity(15);
    let mut acc = 0u64;
    for _ in 0..15 {
        let t0 = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(table[(x as usize) & (table.len() - 1)]);
        }
        times.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    std::hint::black_box(acc);
    median(times)
}
