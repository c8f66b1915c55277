//! Host record: how much CPU this process got, how long it waited for
//! one, how much the hypervisor stole, and how fast a fixed calibration
//! loop ran. Printed beside every result; never used to scale one.
//! Also peak RSS and the kernel's drop count for our own UDP sockets.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/stat` (USER_HZ; 100 on
/// Linux on every common architecture).
const USER_HZ: f64 = 100.0;

/// One reading of the counters the host record is made of.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSnap {
    on_cpu_ns: u64,
    wait_ns: u64,
    steal_ticks: u64,
}

impl HostSnap {
    pub fn take() -> HostSnap {
        let (on_cpu_ns, wait_ns) = schedstat().unwrap_or((0, 0));
        HostSnap {
            on_cpu_ns,
            wait_ns,
            steal_ticks: steal_ticks().unwrap_or(0),
        }
    }
}

/// Differences between two snapshots, plus the calibration time.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostRecord {
    pub cpu_s: f64,
    pub runqueue_wait_s: f64,
    /// Steal over the whole machine (all CPUs), not only this process.
    pub steal_s: f64,
    pub calib_ms: f64,
}

impl HostRecord {
    pub fn between(a: HostSnap, b: HostSnap, calib_ms: f64) -> HostRecord {
        HostRecord {
            cpu_s: b.on_cpu_ns.saturating_sub(a.on_cpu_ns) as f64 * 1e-9,
            runqueue_wait_s: b.wait_ns.saturating_sub(a.wait_ns) as f64 * 1e-9,
            steal_s: b.steal_ticks.saturating_sub(a.steal_ticks) as f64 / USER_HZ,
            calib_ms,
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"cpu_s\": {:.4}, \"runqueue_wait_s\": {:.4}, \"steal_s\": {:.2}, \"calib_ms\": {:.3}}}",
            self.cpu_s, self.runqueue_wait_s, self.steal_s, self.calib_ms
        )
    }
}

/// On-CPU and run-queue-wait nanoseconds of the calling thread.
fn schedstat() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// Machine-wide steal ticks (the eighth value of the `cpu` line).
fn steal_ticks() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/stat").ok()?;
    let line = s.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Median wall time, in ms, of a fixed integer-and-memory loop. The loop
/// does the same work on every host, so its time says how fast this host
/// is running right now.
pub fn calibrate() -> f64 {
    let mut buf = vec![0u64; 1 << 16];
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..4_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (buf.len() - 1);
            buf[slot] = buf[slot].wrapping_add(i);
        }
        std::hint::black_box((x, &buf));
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Datagrams the kernel dropped on the IPv4 loopback sockets bound to
/// `ports` (the last column of `/proc/net/udp`), summed.
pub fn udp_drops(ports: &[u16]) -> u64 {
    let Ok(table) = std::fs::read_to_string("/proc/net/udp") else {
        return 0;
    };
    table
        .lines()
        .skip(1)
        .filter_map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            let (ip, port) = cols.get(1)?.split_once(':')?;
            let port = u16::from_str_radix(port, 16).ok()?;
            (ip == "0100007F" && ports.contains(&port)).then(|| cols.last()?.parse::<u64>().ok())?
        })
        .sum()
}
