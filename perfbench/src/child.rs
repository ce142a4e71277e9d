//! Untraced runs spread their passes over [`PROCESSES`] child processes
//! run one after another, each for an equal share of the run's time
//! left when it starts (and more, one pass each, until [`MIN_OPS`]
//! distinct operations were timed).
//!
//! A process's memory layout lasts its whole life and sets its speed:
//! two copies of the `sampling_saturation` pass run side by side on a
//! 2-vCPU VM differed by up to 15% in their fastest pass. Taking each
//! piece of work's fastest time over several processes measures the
//! program rather than one process's layout.
//!
//! Child `i` runs with `--child i`, prints [`encode`]d passes on
//! standard output, and reports its failed checks on standard error
//! itself.

// sky-lint: allow-file(D002, host wall time is what the benchmark measures)

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::pass::Pass;
use crate::trace::Recorder;
use crate::{Passes, MIN_OPS};

/// Child processes per untraced run.
pub const PROCESSES: u32 = 5;

fn join(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    items.join(" ")
}

/// What the parent needs of each pass, one line each, then the peak
/// RSS and the panic that ended the passes, if any.
pub fn encode(passes: &Passes) -> String {
    let mut out = String::new();
    for (p, _) in &passes.done {
        out += &format!(
            "# pass {} {:?} {} {} {} {} {} | {} | {}\n",
            p.seed,
            p.setup_s,
            p.digest,
            p.events,
            p.invocations,
            p.attempted,
            p.failed,
            join(&p.segments),
            join(&p.op_ms),
        );
    }
    if let Some(mb) = passes.first_peak_rss_mb {
        out += &format!("# rss {mb:?}\n");
    }
    if let Some(msg) = &passes.panicked {
        out += &format!("# panicked {msg}\n");
    }
    out
}

fn parse_pass(line: &str) -> Option<Pass> {
    let mut parts = line.split(" | ");
    let mut head = parts.next()?.split_whitespace();
    let floats = |s: &str| {
        s.split_whitespace()
            .map(|v| v.parse::<f64>().ok())
            .collect::<Option<Vec<f64>>>()
    };
    let mut pass = Pass {
        seed: head.next()?.parse().ok()?,
        setup_s: head.next()?.parse().ok()?,
        digest: head.next()?.parse().ok()?,
        events: head.next()?.parse().ok()?,
        invocations: head.next()?.parse().ok()?,
        attempted: head.next()?.parse().ok()?,
        failed: head.next()?.parse().ok()?,
        segments: floats(parts.next()?)?,
        op_ms: floats(parts.next()?)?,
        ..Pass::default()
    };
    pass.wall_s = pass.segments.iter().sum();
    Some(pass)
}

/// Read a child's standard output into `passes`: its passes are
/// appended, its peak RSS kept only if none was read before, and its
/// panic recorded.
pub fn read(stdout: &str, passes: &mut Passes) -> Result<(), String> {
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# pass ") {
            let pass = parse_pass(rest).ok_or_else(|| format!("unreadable child line: {line}"))?;
            passes.done.push((pass, Recorder::new(false)));
        } else if let Some(mb) = line.strip_prefix("# rss ") {
            let mb = mb
                .parse()
                .map_err(|e| format!("unreadable child line {line}: {e}"))?;
            passes.first_peak_rss_mb.get_or_insert(mb);
        } else if let Some(msg) = line.strip_prefix("# panicked ") {
            passes.panicked = Some(msg.to_string());
        }
    }
    Ok(())
}

/// Run children one after another, each with `argv` and `--seconds` set
/// to its share of the time left of `seconds`, and gather their passes.
/// A child ends its last pass past its share, and the shares after it
/// shrink to match. Each child is waited for before the next starts.
pub fn spread(argv: &[String], seconds: f64) -> Result<Passes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Passes::default();
    let mut children = 0;
    while children < PROCESSES || passes.distinct_ops() < MIN_OPS {
        if children == 4 * PROCESSES {
            return Err(format!(
                "{} children timed only {} distinct operations",
                children,
                passes.distinct_ops()
            ));
        }
        let left = end.saturating_duration_since(Instant::now()).as_secs_f64();
        let share = left / f64::from(PROCESSES.saturating_sub(children).max(1));
        children += 1;
        // A child with no time left still makes one pass.
        let share = format!("{:?}", share.max(1e-3));
        let output = Command::new(&exe)
            .args(argv)
            .args(["--seconds", share.as_str()])
            .args(["--child", children.to_string().as_str()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        if !output.status.success() {
            return Err(format!("child process failed: {}", output.status));
        }
        read(&String::from_utf8_lossy(&output.stdout), &mut passes)?;
        if passes.panicked.is_some() {
            break;
        }
    }
    Ok(passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_survive_the_trip_through_a_child_line() {
        let pass = Pass {
            seed: 7,
            setup_s: 0.1 + 0.2,
            digest: u64::MAX,
            events: 12,
            invocations: 3,
            attempted: 2,
            failed: 1,
            segments: vec![1e-7, 0.25, 1.0 / 3.0],
            op_ms: vec![0.25, 2.0 / 3.0],
            ..Pass::default()
        };
        let mut sent = Passes::default();
        sent.done.push((pass, Recorder::new(false)));
        sent.first_peak_rss_mb = Some(95.25);
        sent.panicked = Some("boom".to_string());

        let mut got = Passes::default();
        read(&encode(&sent), &mut got).unwrap();
        let (p, q) = (&sent.done[0].0, &got.done[0].0);
        assert_eq!(
            (q.seed, q.setup_s, q.digest, q.events, q.invocations),
            (p.seed, p.setup_s, p.digest, p.events, p.invocations)
        );
        assert_eq!((q.attempted, q.failed), (p.attempted, p.failed));
        assert_eq!(q.segments, p.segments);
        assert_eq!(q.op_ms, p.op_ms);
        assert_eq!(q.wall_s, p.segments.iter().sum::<f64>());
        assert_eq!(got.first_peak_rss_mb, Some(95.25));
        assert_eq!(got.panicked.as_deref(), Some("boom"));
        assert!(read("# pass 1 x", &mut got).is_err());
    }
}
