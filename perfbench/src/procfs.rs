//! Process resources read from `/proc/self`: peak resident memory and CPU
//! time of every thread of the process (server threads included).

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of the whole process, seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_seconds(&stat, USER_HZ)
}

/// Clock ticks per second of `/proc` CPU times; Linux reports 100 on every
/// architecture the benchmark targets.
const USER_HZ: f64 = 100.0;

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field 2)
/// may contain spaces, so fields are counted after its closing parenthesis.
fn parse_cpu_seconds(stat: &str, ticks_per_s: f64) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / ticks_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_and_stime_past_a_command_with_spaces() {
        let stat = "42 (my bench) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0";
        assert_eq!(parse_cpu_seconds(stat, 100.0), Some(3.0));
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
