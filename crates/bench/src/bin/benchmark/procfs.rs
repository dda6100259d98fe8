//! `/proc` readers for the `os.*` metrics. The parsers take text so
//! the unit tests run on canned files; [`sample`] reads the live ones.

/// `(utime, stime)` in clock ticks from `/proc/<pid>/stat`, whole
/// process (all threads, including ones that already exited).
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Numeric value of a `Key:   value [kB]` line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status_line(status, key)?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

fn status_line<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
}

/// Voluntary + involuntary context switches of one task's status file.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// CPUs in a `Cpus_allowed_list` value such as `0-1,4`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_cpu_list(status_line(&status, "Cpus_allowed_list")?)
}

/// One reading of the process's OS counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsSample {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    /// Context switches summed over the threads alive right now.
    /// Threads that exited take their counts with them, so a window
    /// delta is exact only for threads that live across it (every
    /// workload's pool threads do, except inside `dst::fuzz`, which
    /// spawns and joins a pool per campaign).
    pub ctx_switches: u64,
    /// The calibration echo thread's share of `ctx_switches`.
    pub echo_ctx_switches: u64,
    /// Peak resident set (`VmHWM`), KiB.
    pub peak_rss_kib: u64,
}

pub fn sample() -> OsSample {
    let mut s = OsSample::default();
    if let Some((u, k)) = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat_cpu)
    {
        s.utime_ticks = u;
        s.stime_ticks = k;
    }
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        s.peak_rss_kib = parse_status_field(&status, "VmHWM").unwrap_or(0);
    }
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for t in tasks.flatten() {
            // A thread can exit between the listing and the read.
            if let Ok(status) = std::fs::read_to_string(t.path().join("status")) {
                let n = parse_ctx_switches(&status).unwrap_or(0);
                s.ctx_switches += n;
                if status_line(&status, "Name").map(str::trim) == Some(crate::calib::ECHO_THREAD) {
                    s.echo_ctx_switches += n;
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (m) ark) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        731 269 0 0 20 0 9 0 123456 104857600 2048 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tbenchmark\nUmask:\t0022\nState:\tR (running)\nTgid:\t4242\n\
                          VmPeak:\t  204800 kB\nVmSize:\t  102400 kB\nVmHWM:\t    8192 kB\n\
                          VmRSS:\t    6144 kB\nThreads:\t9\nCpus_allowed:\t1\n\
                          Cpus_allowed_list:\t0\nvoluntary_ctxt_switches:\t15003\n\
                          nonvoluntary_ctxt_switches:\t42\n";

    #[test]
    fn stat_cpu_fields_survive_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu(STAT), Some((731, 269)));
        assert_eq!(parse_stat_cpu("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu("no parens here"), None);
    }

    #[test]
    fn status_fields_parse_with_units_and_tabs() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(8192));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(9));
        // `Vm` alone is a prefix of several keys but not a key.
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
        assert_eq!(parse_status_field(STATUS, "Missing"), None);
        assert_eq!(parse_ctx_switches(STATUS), Some(15045));
        assert_eq!(parse_ctx_switches("voluntary_ctxt_switches:\t1\n"), None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0"), Some(vec![0]));
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("\t2-3,7,9-10\n"), Some(vec![2, 3, 7, 9, 10]));
        assert_eq!(parse_cpu_list("a-b"), None);
        assert_eq!(
            parse_cpu_list(status_line(STATUS, "Cpus_allowed_list").unwrap()),
            Some(vec![0])
        );
    }
}
