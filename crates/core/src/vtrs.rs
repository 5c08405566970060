//! The vCPU Type Recognition System (§3.3).
//!
//! A matrix of five cursor rows times `n` monitoring-period entries is
//! kept per vCPU, updated as a sliding window. After each period the
//! per-row averages are computed and the vCPU's type is the row with
//! the highest average. `n` trades reactivity (small `n` follows
//! sporadic type changes) against stability (each change can trigger a
//! migration); the paper settles on `n = 4`.

use std::collections::VecDeque;

use aql_hv::apptype::VcpuType;
use aql_mem::PmuSample;

use crate::cursors::{CursorLimits, Cursors};

/// vTRS configuration.
#[derive(Debug, Clone, Copy)]
pub struct VtrsConfig {
    /// Sliding-window length in monitoring periods (the paper's `n`).
    pub window: usize,
    /// Cursor normalisation limits.
    pub limits: CursorLimits,
    /// `LLCO` window-average above which an `IOInt`/`ConSpin` vCPU is
    /// marked *trashing* (the paper's `IOInt⁺`/`ConSpin⁺`, §3.5).
    pub trashing_threshold: f64,
    /// Tie margin for the decision rule: when an `IOInt`/`ConSpin`
    /// average lies within this many points of the best CPU-burn
    /// cursor, the event-based type wins. The paper notes exact cursor
    /// ties are improbable on real hardware; in this noise-free
    /// simulator a saturated CPU-burn cursor is *exactly* 100, so
    /// positive evidence (IO events, PLE traps observed) is preferred
    /// over the absence-of-evidence ramps within the margin.
    pub tie_margin: f64,
    /// Minimum CPU time (ns) a vCPU must have run in a period for its
    /// cache cursors to count as evidence. With 30 ms quanta and four
    /// vCPUs per pCPU, most periods contain *no* slice of a given vCPU
    /// at all; such empty periods carry the previous cursor row
    /// forward instead of polluting the window (IO and PLE events are
    /// always evidence, regardless of run time).
    pub min_run_ns: u64,
}

impl Default for VtrsConfig {
    fn default() -> Self {
        VtrsConfig {
            window: 4,
            limits: CursorLimits::default(),
            trashing_threshold: 50.0,
            tie_margin: 25.0,
            min_run_ns: aql_sim::time::MS,
        }
    }
}

/// Per-vCPU recognition state: the 5×n cursor matrix.
#[derive(Debug, Clone)]
pub struct VcpuMonitor {
    window: usize,
    rows: VecDeque<Cursors>,
}

impl VcpuMonitor {
    /// Creates an empty monitor with the given window.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        VcpuMonitor {
            window,
            rows: VecDeque::with_capacity(window),
        }
    }

    /// Records one period's cursors (sliding out the oldest entry).
    pub fn push(&mut self, c: Cursors) {
        if self.rows.len() == self.window {
            self.rows.pop_front();
        }
        self.rows.push_back(c);
    }

    /// The most recent cursor row, if any.
    pub fn last(&self) -> Option<Cursors> {
        self.rows.back().copied()
    }

    /// Number of periods currently in the window.
    pub fn filled(&self) -> usize {
        self.rows.len()
    }

    /// Window-average cursors (`*_cur_avg`); zero when empty.
    pub fn averages(&self) -> Cursors {
        if self.rows.is_empty() {
            return Cursors::default();
        }
        let n = self.rows.len() as f64;
        let mut avg = Cursors::default();
        for c in &self.rows {
            avg.ioint += c.ioint;
            avg.conspin += c.conspin;
            avg.lolcf += c.lolcf;
            avg.llcf += c.llcf;
            avg.llco += c.llco;
        }
        avg.ioint /= n;
        avg.conspin /= n;
        avg.lolcf /= n;
        avg.llcf /= n;
        avg.llco /= n;
        avg
    }

    /// The recognised type: highest window-average cursor, with the
    /// positive-evidence tie rule (see [`crate::vtrs::VtrsConfig`]).
    pub fn decide(&self, tie_margin: f64) -> VcpuType {
        let avg = self.averages();
        let best = avg.argmax();
        let best_v = avg.get(best);
        if matches!(best, VcpuType::IoInt | VcpuType::ConSpin) {
            return best;
        }
        // Prefer event-based types within the margin.
        let io = avg.get(VcpuType::IoInt);
        let spin = avg.get(VcpuType::ConSpin);
        if io.max(spin) + tie_margin >= best_v && io.max(spin) > 0.0 {
            return if io >= spin {
                VcpuType::IoInt
            } else {
                VcpuType::ConSpin
            };
        }
        best
    }
}

/// The whole recognition system: one monitor per vCPU.
#[derive(Debug, Clone)]
pub struct Vtrs {
    cfg: VtrsConfig,
    monitors: Vec<VcpuMonitor>,
    /// The cursors recorded by the latest `observe` call, one per
    /// vCPU. Kept as a reusable buffer so the per-monitoring-period
    /// hot path performs no heap allocation.
    last_cursors: Vec<Cursors>,
}

impl Vtrs {
    /// Creates the system for `vcpus` vCPUs.
    pub fn new(vcpus: usize, cfg: VtrsConfig) -> Self {
        Vtrs {
            monitors: (0..vcpus).map(|_| VcpuMonitor::new(cfg.window)).collect(),
            cfg,
            last_cursors: Vec::with_capacity(vcpus),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &VtrsConfig {
        &self.cfg
    }

    /// Feeds one monitoring period's PMU samples (index = vCPU index).
    /// Returns the effective cursors recorded for each vCPU: a fresh
    /// row when the period carried evidence (enough run time, or IO or
    /// PLE events), else the previous row held forward.
    ///
    /// The returned slice borrows an internal buffer (overwritten by
    /// the next call): `observe` runs every monitoring period and must
    /// not allocate.
    pub fn observe(&mut self, samples: &[PmuSample]) -> &[Cursors] {
        assert_eq!(samples.len(), self.monitors.len(), "sample count mismatch");
        let min_run = self.cfg.min_run_ns;
        let limits = self.cfg.limits;
        self.last_cursors.clear();
        self.last_cursors
            .extend(samples.iter().zip(&mut self.monitors).map(|(s, m)| {
                let has_evidence = s.ran_ns >= min_run || s.io_events > 0 || s.ple_exits > 0;
                let c = if has_evidence {
                    Cursors::from_sample(s, &limits)
                } else {
                    m.last().unwrap_or_else(|| Cursors::from_sample(s, &limits))
                };
                m.push(c);
                c
            }));
        &self.last_cursors
    }

    /// The recognised type of a vCPU.
    pub fn type_of(&self, vcpu: usize) -> VcpuType {
        self.monitors[vcpu].decide(self.cfg.tie_margin)
    }

    /// Window-average cursors of a vCPU.
    pub fn averages_of(&self, vcpu: usize) -> Cursors {
        self.monitors[vcpu].averages()
    }

    /// Whether the vCPU qualifies as *trashing* for clustering: it is
    /// `LLCO`, or `IOInt`/`ConSpin` with an LLCO average above the
    /// threshold (the paper's `⁺` annotation).
    pub fn is_trashing(&self, vcpu: usize) -> bool {
        self.is_trashing_hysteresis(vcpu, None)
    }

    /// Like [`Vtrs::is_trashing`], with a ±10-point hysteresis band
    /// around the threshold when the previous flag is known — a vCPU
    /// hovering at the boundary must not flip the cluster plan every
    /// window.
    pub fn is_trashing_hysteresis(&self, vcpu: usize, previous: Option<bool>) -> bool {
        let t = self.type_of(vcpu);
        match t {
            VcpuType::Llco => true,
            VcpuType::IoInt | VcpuType::ConSpin => {
                let threshold = match previous {
                    Some(true) => self.cfg.trashing_threshold - 10.0,
                    Some(false) => self.cfg.trashing_threshold + 10.0,
                    None => self.cfg.trashing_threshold,
                };
                self.averages_of(vcpu).llco > threshold
            }
            _ => false,
        }
    }

    /// Whether every monitor has a full window.
    pub fn warmed_up(&self) -> bool {
        self.monitors.iter().all(|m| m.filled() >= self.cfg.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io_sample(events: u64) -> PmuSample {
        PmuSample {
            instructions: 1e6,
            io_events: events,
            ran_ns: 1,
            period_ns: 30_000_000,
            ..Default::default()
        }
    }

    fn llco_sample() -> PmuSample {
        PmuSample {
            instructions: 1e6,
            llc_refs: 1e5,
            llc_misses: 9e4,
            ran_ns: 7_500_000,
            period_ns: 30_000_000,
            ..Default::default()
        }
    }

    fn empty_sample() -> PmuSample {
        PmuSample {
            period_ns: 30_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn monitor_window_slides() {
        let mut m = VcpuMonitor::new(2);
        m.push(Cursors {
            ioint: 100.0,
            ..Default::default()
        });
        m.push(Cursors {
            ioint: 50.0,
            ..Default::default()
        });
        assert_eq!(m.averages().ioint, 75.0);
        m.push(Cursors {
            ioint: 0.0,
            ..Default::default()
        });
        // The 100.0 entry slid out.
        assert_eq!(m.averages().ioint, 25.0);
        assert_eq!(m.filled(), 2);
    }

    #[test]
    fn steady_io_is_recognised() {
        let mut v = Vtrs::new(1, VtrsConfig::default());
        for _ in 0..4 {
            v.observe(&[io_sample(20)]);
        }
        assert_eq!(v.type_of(0), VcpuType::IoInt);
        assert!(v.warmed_up());
        assert!(!v.is_trashing(0));
    }

    #[test]
    fn type_changes_after_window_turnover() {
        let mut v = Vtrs::new(1, VtrsConfig::default());
        for _ in 0..4 {
            v.observe(&[io_sample(20)]);
        }
        assert_eq!(v.type_of(0), VcpuType::IoInt);
        // The workload turns into a trasher; after the window refills
        // the decision follows.
        for _ in 0..4 {
            v.observe(&[llco_sample()]);
        }
        assert_eq!(v.type_of(0), VcpuType::Llco);
    }

    #[test]
    fn sporadic_blips_are_absorbed_by_the_window() {
        let mut v = Vtrs::new(1, VtrsConfig::default());
        for _ in 0..4 {
            v.observe(&[io_sample(20)]);
        }
        // One noisy trashing period must not flip the decision.
        v.observe(&[llco_sample()]);
        assert_eq!(v.type_of(0), VcpuType::IoInt);
    }

    #[test]
    fn trashing_annotation_for_io_with_llco_pressure() {
        let mut v = Vtrs::new(1, VtrsConfig::default());
        // IO events and trashing cache behaviour at once (IOInt⁺).
        let s = PmuSample {
            instructions: 1e6,
            llc_refs: 1e5,
            llc_misses: 9e4,
            io_events: 50,
            ran_ns: 7_500_000,
            period_ns: 30_000_000,
            ..Default::default()
        };
        for _ in 0..4 {
            v.observe(&[s]);
        }
        assert_eq!(v.type_of(0), VcpuType::IoInt);
        assert!(v.is_trashing(0), "IOInt with trashing cache is IOInt+");
    }

    #[test]
    fn decisions_available_before_window_fills() {
        let mut v = Vtrs::new(1, VtrsConfig::default());
        v.observe(&[io_sample(20)]);
        // With one period the decision already leans IOInt.
        assert_eq!(v.type_of(0), VcpuType::IoInt);
        assert!(!v.warmed_up());
    }

    #[test]
    #[should_panic(expected = "sample count mismatch")]
    fn observe_checks_length() {
        let mut v = Vtrs::new(2, VtrsConfig::default());
        v.observe(&[io_sample(1)]);
    }

    #[test]
    fn empty_periods_hold_the_previous_row() {
        let mut v = Vtrs::new(1, VtrsConfig::default());
        for _ in 0..4 {
            v.observe(&[llco_sample()]);
        }
        assert_eq!(v.type_of(0), VcpuType::Llco);
        // The vCPU gets no pCPU time for many periods (its slice falls
        // outside the monitoring period): the decision must not decay.
        for _ in 0..8 {
            v.observe(&[empty_sample()]);
        }
        assert_eq!(v.type_of(0), VcpuType::Llco, "held rows keep the type");
    }

    #[test]
    fn io_events_count_as_evidence_without_runtime() {
        let mut v = Vtrs::new(1, VtrsConfig::default());
        for _ in 0..4 {
            v.observe(&[llco_sample()]);
        }
        // A blocked-but-woken IO vCPU barely runs, yet its events are
        // positive evidence and must flip the type.
        let io = PmuSample {
            io_events: 30,
            ran_ns: 100_000,
            period_ns: 30_000_000,
            ..Default::default()
        };
        for _ in 0..4 {
            v.observe(&[io]);
        }
        assert_eq!(v.type_of(0), VcpuType::IoInt);
    }
}
