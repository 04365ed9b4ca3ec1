//! Order statistics, closed-loop phases and the `/proc` readers every
//! workload shares.

use std::path::Path;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// What one operation (a sweep round, a daemon job, a dispatch) reported.
pub struct OpResult {
    /// Time the user waited for the operation, excluding output checks.
    pub latency: Duration,
    /// Cells the operation completed.
    pub cells: u64,
    /// Whether the output matched its pinned digest.
    pub ok: bool,
}

/// Minimum span of a throughput window, seconds.
pub const WINDOW_SECONDS: f64 = 0.25;

/// The steal share up to which a window counts as quiet: one stolen tick of
/// the fifty that two CPUs accrue in a window.
pub const QUIET_STEAL: f64 = 0.02;

/// One completed operation of a timed phase.
pub struct Op {
    /// The operation's latency in seconds.
    pub latency: f64,
    /// Cells the operation completed.
    pub cells: u64,
    /// Whether the output was verified.
    pub ok: bool,
}

/// A slice of a phase, closed by the first operation to complete at least
/// [`WINDOW_SECONDS`] after the previous window closed (the last window of
/// a phase may be shorter).
pub struct Window {
    /// Wall seconds the window spans.
    pub seconds: f64,
    /// Operations that completed in the window.
    pub ops: Vec<Op>,
    /// Process user+sys CPU seconds spent in the window.
    pub cpu: f64,
    /// Share of host CPU ticks the hypervisor stole in the window.
    pub steal: f64,
}

impl Window {
    /// Cells completed in the window.
    pub fn cells(&self) -> u64 {
        self.ops.iter().map(|op| op.cells).sum()
    }
}

/// A timed closed-loop phase, as consecutive windows.
pub struct Phase {
    /// The windows, in time order.
    pub windows: Vec<Window>,
}

impl Phase {
    /// Every operation of the phase.
    pub fn ops(&self) -> impl Iterator<Item = &Op> {
        self.windows.iter().flat_map(|w| w.ops.iter())
    }

    /// Operations whose output failed verification.
    pub fn failed(&self) -> u64 {
        self.ops().filter(|op| !op.ok).count() as u64
    }

    /// Operation latencies in seconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.ops().map(|op| op.latency).collect()
    }

    /// The full-length windows in which the hypervisor stole (almost) no
    /// CPU time: every window with a steal share of at most
    /// [`QUIET_STEAL`], or, on a host too busy for that, the least-stolen
    /// quarter of the windows (at least ten).  Steal is the host's doing,
    /// not the program's, so the choice does not depend on the program's
    /// speed.  A phase too short for one full window is kept whole.
    pub fn quiet(&self) -> Vec<&Window> {
        let mut full: Vec<&Window> = self
            .windows
            .iter()
            .filter(|w| w.seconds >= WINDOW_SECONDS)
            .collect();
        if full.is_empty() {
            return self.windows.iter().collect();
        }
        full.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let calm = full.iter().take_while(|w| w.steal <= QUIET_STEAL).count();
        full.truncate(calm.max(full.len() / 4).max(10));
        full
    }
}

/// The open window of a running phase.
struct Recorder {
    origin: Instant,
    opened: f64,
    ticks: (u64, u64),
    cpu: f64,
    ops: Vec<Op>,
    windows: Vec<Window>,
}

impl Recorder {
    fn close(&mut self, now: f64) {
        let (ticks, cpu) = (host_ticks(), cpu_seconds());
        self.windows.push(Window {
            seconds: now - self.opened,
            ops: std::mem::take(&mut self.ops),
            cpu: cpu - self.cpu,
            steal: steal_ratio(self.ticks, ticks),
        });
        (self.opened, self.ticks, self.cpu) = (now, ticks, cpu);
    }
}

/// Runs `op` in a closed loop on `clients` threads until `seconds` have
/// passed: each client starts its next operation only after the previous
/// one returned.  `op` receives the client index and that client's
/// operation counter.
pub fn closed_loop<F>(clients: usize, seconds: f64, op: F) -> Phase
where
    F: Fn(usize, u64) -> OpResult + Sync,
{
    let origin = Instant::now();
    let recorder = Mutex::new(Recorder {
        origin,
        opened: 0.0,
        ticks: host_ticks(),
        cpu: cpu_seconds(),
        ops: Vec::new(),
        windows: Vec::new(),
    });
    let client = |c: usize| {
        let mut j = 0u64;
        while origin.elapsed().as_secs_f64() < seconds {
            let result = op(c, j);
            let mut recorder = recorder
                .lock()
                .expect("no client panics holding the recorder");
            recorder.ops.push(Op {
                latency: result.latency.as_secs_f64(),
                cells: result.cells,
                ok: result.ok,
            });
            let now = recorder.origin.elapsed().as_secs_f64();
            if now - recorder.opened >= WINDOW_SECONDS {
                recorder.close(now);
            }
            j += 1;
        }
    };
    if clients <= 1 {
        client(0);
    } else {
        thread::scope(|scope| {
            for c in 0..clients {
                scope.spawn(move || client(c));
            }
        });
    }
    let mut recorder = recorder.into_inner().expect("clients joined");
    if !recorder.ops.is_empty() {
        let now = origin.elapsed().as_secs_f64();
        recorder.close(now);
    }
    Phase {
        windows: recorder.windows,
    }
}

/// `part / whole`, 0 for an empty whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A tail percentile and the percentile actually reported.
pub struct Tail {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile of that rank (the requested one when the sample
    /// count allows it).
    pub percentile: f64,
}

/// The nearest-rank `p`-th percentile, provided at least ten samples lie
/// beyond it; otherwise the highest rank that still has ten samples beyond
/// it, but never a rank below the median.
pub fn tail(values: &[f64], p: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: p,
        };
    }
    let wanted = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = if n - 1 - wanted >= 10 {
        wanted
    } else {
        n.saturating_sub(11).max((n - 1) / 2)
    };
    Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
    }
}

/// Process user+sys CPU seconds, from `/proc/self/stat` (clock ticks of
/// 1/100 s, the Linux `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks from the first line of `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The share of host CPU ticks stolen by the hypervisor between two
/// [`host_ticks`] readings.
pub fn steal_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// FNV-1a 64 over every file under `dirs` (paths and contents, in sorted
/// path order): identifies the sources a run was built from, also in a
/// checkout that is not a git repository.
pub fn source_digest(dirs: &[&Path]) -> u64 {
    use ld_runner::stream::{fnv1a, FNV_OFFSET};
    let mut files = Vec::new();
    let mut pending: Vec<_> = dirs.iter().map(|d| d.to_path_buf()).collect();
    while let Some(dir) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, path| {
        let h = fnv1a(h, path.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(path).unwrap_or_default())
    })
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
pub fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_the_ten_beyond_rule() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail(&hundred, 90.0);
        assert_eq!((p90.value, p90.percentile), (90.0, 90.0));
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        let capped = tail(&fifty, 90.0);
        assert_eq!(capped.value, 40.0, "ten samples must lie beyond it");
        assert_eq!(
            tail(&[5.0, 7.0, 9.0], 90.0).value,
            7.0,
            "never below the median"
        );
    }

    #[test]
    fn quiet_windows_are_the_least_stolen() {
        let window = |seconds: f64, steal: f64| Window {
            seconds,
            ops: vec![Op {
                latency: 0.1,
                cells: 5,
                ok: true,
            }],
            cpu: 0.1,
            steal,
        };
        // A calm host: every full window with at most one stolen tick.
        let mut windows: Vec<Window> = (0..20)
            .map(|i| window(0.3, f64::from(i % 2) * 0.02))
            .collect();
        windows.extend([window(0.3, 0.3), window(0.01, 0.0)]);
        let phase = Phase { windows };
        assert_eq!(phase.quiet().len(), 20);
        assert_eq!(phase.ops().count(), 22, "every window still counts");
        // A busy host: the least-stolen quarter, but at least ten windows.
        let busy = Phase {
            windows: (0..60)
                .map(|i| window(0.3, 0.05 + f64::from(i) * 0.01))
                .collect(),
        };
        let quiet = busy.quiet();
        assert_eq!(quiet.len(), 15);
        assert!(quiet.iter().all(|w| w.steal < 0.2 + 1e-9));
    }
}
