//! A bounded trace log.
//!
//! Simulations can emit human-readable trace lines (scheduler decisions,
//! type changes, migrations). The log is disabled by default so tracing
//! costs one branch when off, and bounded so it cannot exhaust memory
//! on long runs.

use crate::time::SimTime;

/// A bounded, optionally-enabled trace log.
///
/// # Examples
///
/// ```
/// use aql_sim::trace::TraceLog;
/// use aql_sim::time::SimTime;
///
/// let mut log = TraceLog::enabled(16);
/// log.emit(SimTime::from_ms(30), || "vcpu0 -> LLCF".to_string());
/// assert_eq!(log.lines().len(), 1);
/// assert!(log.lines()[0].contains("LLCF"));
/// ```
#[derive(Debug, Clone)]
pub struct TraceLog {
    enabled: bool,
    cap: usize,
    lines: Vec<String>,
    dropped: u64,
}

impl TraceLog {
    /// Creates a disabled log (emissions are no-ops).
    pub fn disabled() -> Self {
        TraceLog {
            enabled: false,
            cap: 0,
            lines: Vec::new(),
            dropped: 0,
        }
    }

    /// Creates an enabled log holding at most `cap` lines; further
    /// emissions are counted but dropped.
    pub fn enabled(cap: usize) -> Self {
        TraceLog {
            enabled: true,
            cap,
            lines: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a line; `f` is only evaluated when the log is enabled and
    /// not full, so formatting is free when tracing is off.
    pub fn emit<F: FnOnce() -> String>(&mut self, now: SimTime, f: F) {
        if !self.enabled {
            return;
        }
        if self.lines.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.lines.push(format!("[{now}] {}", f()));
    }

    /// Recorded lines, oldest first.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Number of lines dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut log = TraceLog::disabled();
        log.emit(SimTime::ZERO, || panic!("must not format when disabled"));
        assert!(log.lines().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn cap_is_respected() {
        let mut log = TraceLog::enabled(2);
        for i in 0..5 {
            log.emit(SimTime::from_ms(i), || format!("line {i}"));
        }
        assert_eq!(log.lines().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert!(log.lines()[0].contains("line 0"));
        assert!(log.lines()[1].contains("line 1"));
    }

    #[test]
    fn lines_carry_timestamps() {
        let mut log = TraceLog::enabled(4);
        log.emit(SimTime::from_ms(30), || "tick".to_string());
        assert!(log.lines()[0].starts_with("[30.000ms]"));
    }
}
