//! The provenance header every `BENCH_*.json` record starts with: which
//! host, which commit, which command and when, so a committed number can
//! be traced to the run that produced it.

use std::time::{SystemTime, UNIX_EPOCH};

/// JSON object members (no braces) naming the bench, the host's
/// available parallelism, the git revision, the exact command line and
/// the UTC date: `"bench":…,"host_cores":…,"git_rev":…,"command":…,"date":…`.
pub fn header_fields(bench: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let command = std::env::args().collect::<Vec<_>>().join(" ");
    let mut out = String::from("\"bench\":");
    cfx_obs::json::write_str(&mut out, bench);
    out.push_str(&format!(",\"host_cores\":{cores},\"git_rev\":"));
    cfx_obs::json::write_str(&mut out, &git_rev());
    out.push_str(",\"command\":");
    cfx_obs::json::write_str(&mut out, &command);
    out.push_str(",\"date\":");
    cfx_obs::json::write_str(&mut out, &utc_date());
    out
}

/// The checked-out commit, suffixed `-dirty` when the working tree has
/// uncommitted changes; `unknown` outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Today's UTC date, `YYYY-MM-DD`.
fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Proleptic-Gregorian (year, month, day) of a day count since
/// 1970-01-01 (Howard Hinnant's `civil_from_days`).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + (month <= 2) as i64, month, day)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_match_known_days() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(59), (1970, 3, 1));
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        assert_eq!(civil_from_days(20_743), (2026, 10, 17));
    }

    #[test]
    fn header_is_a_json_object_body() {
        let doc = format!("{{{}}}", header_fields("t"));
        let v = cfx_obs::json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("t"));
        assert!(v.get("host_cores").and_then(|c| c.as_u64()).is_some());
        assert!(v.get("date").and_then(|d| d.as_str()).is_some());
    }
}
