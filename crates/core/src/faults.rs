//! Deterministic fault injection for the DSA's internal structures.
//!
//! The paper's safety argument is that the DSA only ever *speculates*
//! about timing — architectural state is always produced by the scalar
//! core, so a wrong template, a lying Array Map or a stale speculative
//! range can cost cycles but never correctness. This module makes that
//! argument testable: a [`FaultPlan`] (carried in
//! [`DsaConfig`](crate::DsaConfig)) arms a set of named [`FaultSite`]s,
//! and the engine corrupts its own bookkeeping at those sites in a
//! seed-deterministic schedule. The engine's consistency checks must
//! then *detect* each corruption, roll back, and degrade to scalar
//! execution — which the differential oracle
//! ([`crate::oracle`]) verifies produces bit-identical results.
//!
//! Everything is derived from a single `u64` seed via splitmix64, so a
//! failing schedule is reproducible from its seed alone.

pub use dsa_trace::FaultSite;

/// A deterministic fault-injection schedule: a seed plus a bitmask of
/// armed sites. `Copy` and field-for-field comparable so it can live
/// inside [`DsaConfig`](crate::DsaConfig) without breaking memoization
/// keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the per-site firing schedule.
    pub seed: u64,
    /// Bit `i` arms `FaultSite::ALL[i]`.
    pub armed_mask: u8,
}

impl FaultPlan {
    /// Arms every site under `seed`.
    pub fn all(seed: u64) -> FaultPlan {
        FaultPlan { seed, armed_mask: (1 << FaultSite::ALL.len()) - 1 }
    }

    /// Arms a single site under `seed`.
    pub fn only(seed: u64, site: FaultSite) -> FaultPlan {
        FaultPlan { seed, armed_mask: 1 << site as u8 }
    }

    /// Whether `site` is armed.
    pub fn armed(&self, site: FaultSite) -> bool {
        self.armed_mask & (1 << site as u8) != 0
    }

    /// The armed sites, in stable order.
    pub fn sites(&self) -> impl Iterator<Item = FaultSite> + '_ {
        FaultSite::ALL.into_iter().filter(|s| self.armed(*s))
    }
}

/// splitmix64 — the standard 64-bit mixer; deterministic,
/// dependency-free. Public so the chaos harness in `dsa-bench` derives
/// its randomized schedules from the same generator the engine uses.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One randomized firing window: site `site` fires on opportunity
/// indices `start .. start + len` (a *burst*). Opportunity indices count
/// per-site, exactly like [`FaultState::fire`]'s modular schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BurstWindow {
    /// Site the burst applies to.
    pub site: FaultSite,
    /// First opportunity index (per-site) that fires.
    pub start: u32,
    /// Number of consecutive opportunities that fire (≥ 1).
    pub len: u32,
}

impl BurstWindow {
    /// Whether per-site opportunity `n` falls inside the burst.
    pub fn contains(&self, n: u32) -> bool {
        n >= self.start && n - self.start < self.len
    }
}

/// A generalized, seed-driven fault schedule: instead of the five fixed
/// modular patterns of [`FaultPlan`], an arbitrary set of
/// (site × trigger-opportunity × burst-length) windows. Produced by the
/// chaos harness ([`FaultSchedule::generate`]) and shrunk window-by-
/// window when a campaign fails, so a minimal reproducer is just a
/// shorter window list with the same seed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FaultSchedule {
    /// Seed the schedule was generated from (kept for `pick` variants
    /// and for provenance in reproducer artifacts).
    pub seed: u64,
    /// Firing windows; order is irrelevant to semantics but preserved
    /// for reproducer stability.
    pub windows: Vec<BurstWindow>,
}

impl FaultSchedule {
    /// Generates a randomized schedule of `n_windows` bursts from
    /// `seed`: uniformly chosen sites, trigger opportunities in
    /// `0..max_start`, burst lengths in `1..=4`. Deterministic — the
    /// same `(seed, n_windows, max_start)` always yields the same
    /// schedule.
    pub fn generate(seed: u64, n_windows: usize, max_start: u32) -> FaultSchedule {
        let mut s = seed ^ 0xc4a5_a511_7e3d_0b7d;
        let windows = (0..n_windows)
            .map(|_| {
                let r = splitmix64(&mut s);
                let site = FaultSite::ALL[(r % FaultSite::ALL.len() as u64) as usize];
                let start = ((r >> 8) % max_start.max(1) as u64) as u32;
                let len = 1 + ((r >> 40) % 4) as u32;
                BurstWindow { site, start, len }
            })
            .collect();
        FaultSchedule { seed, windows }
    }

    /// Bitmask of sites that appear in at least one window (the
    /// schedule-mode equivalent of [`FaultPlan::armed_mask`]).
    pub fn armed_mask(&self) -> u8 {
        self.windows.iter().fold(0, |m, w| m | 1 << w.site as u8)
    }

    /// Whether per-site opportunity `n` at `site` falls in any window.
    pub fn fires(&self, site: FaultSite, n: u32) -> bool {
        self.windows.iter().any(|w| w.site == site && w.contains(n))
    }
}

/// Runtime firing state derived from a [`FaultPlan`]. Each armed site
/// fires on a seed-chosen subset of its opportunities: site `s` fires at
/// opportunity `n` iff `n % period[s] == phase[s]`, with `period` in
/// `1..=3`. Every armed site therefore fires within its first three
/// opportunities, and keeps firing sparsely after that — enough to
/// exercise repeated detection without drowning the run.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    period: [u32; 5],
    phase: [u32; 5],
    seen: [u32; 5],
    fired: [u32; 5],
    /// When present, firing decisions come from the window list instead
    /// of the modular `period`/`phase` schedule.
    schedule: Option<FaultSchedule>,
}

impl FaultState {
    /// Derives the firing schedule for `plan`.
    pub fn new(plan: FaultPlan) -> FaultState {
        let mut period = [1u32; 5];
        let mut phase = [0u32; 5];
        for i in 0..FaultSite::ALL.len() {
            let mut s = plan.seed ^ (0xf4_417 + i as u64 * 0x9e37_79b9);
            let r = splitmix64(&mut s);
            period[i] = 1 + (r % 3) as u32;
            phase[i] = ((r >> 16) % period[i] as u64) as u32;
        }
        FaultState { plan, period, phase, seen: [0; 5], fired: [0; 5], schedule: None }
    }

    /// Derives runtime state from a generalized window schedule. Sites
    /// with at least one window are armed; firing decisions come from
    /// window containment instead of the modular pattern.
    pub fn from_schedule(schedule: FaultSchedule) -> FaultState {
        let plan = FaultPlan { seed: schedule.seed, armed_mask: schedule.armed_mask() };
        FaultState {
            plan,
            period: [1; 5],
            phase: [0; 5],
            seen: [0; 5],
            fired: [0; 5],
            schedule: Some(schedule),
        }
    }

    /// The plan this state was derived from (for schedule mode, a plan
    /// with the union of scheduled sites armed).
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The window schedule, when running in schedule mode.
    pub fn schedule(&self) -> Option<&FaultSchedule> {
        self.schedule.as_ref()
    }

    /// Registers one opportunity at `site` and reports whether the fault
    /// fires there. Unarmed sites never fire (and are not counted).
    pub fn fire(&mut self, site: FaultSite) -> bool {
        if !self.plan.armed(site) {
            return false;
        }
        let i = site as usize;
        let n = self.seen[i];
        self.seen[i] += 1;
        let fires = match &self.schedule {
            Some(sched) => sched.fires(site, n),
            None => n % self.period[i] == self.phase[i],
        };
        if fires {
            self.fired[i] += 1;
        }
        fires
    }

    /// Seed-deterministic choice in `0..n` for the current firing at
    /// `site` (used to pick among corruption variants).
    pub fn pick(&self, site: FaultSite, n: u32) -> u32 {
        let i = site as usize;
        let mut s = self.plan.seed ^ ((self.seen[i] as u64) << 8) ^ site as u64;
        (splitmix64(&mut s) % n.max(1) as u64) as u32
    }

    /// Total faults fired so far, across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|&n| n as u64).sum()
    }

    /// Faults fired at `site` so far.
    pub fn fired_at(&self, site: FaultSite) -> u32 {
        self.fired[site as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_arm_and_iterate() {
        let all = FaultPlan::all(42);
        assert!(FaultSite::ALL.iter().all(|&s| all.armed(s)));
        assert_eq!(all.sites().count(), 5);
        let one = FaultPlan::only(42, FaultSite::DropVcacheEntry);
        assert!(one.armed(FaultSite::DropVcacheEntry));
        assert!(!one.armed(FaultSite::CorruptTemplate));
        assert_eq!(one.sites().count(), 1);
    }

    #[test]
    fn schedule_is_deterministic_and_fires_early() {
        for seed in 0..64u64 {
            let mut a = FaultState::new(FaultPlan::all(seed));
            let mut b = FaultState::new(FaultPlan::all(seed));
            for site in FaultSite::ALL {
                let fa: Vec<bool> = (0..10).map(|_| a.fire(site)).collect();
                let fb: Vec<bool> = (0..10).map(|_| b.fire(site)).collect();
                assert_eq!(fa, fb, "seed {seed} site {site:?}");
                assert!(
                    fa[..3].iter().any(|&f| f),
                    "site must fire within 3 opportunities (seed {seed}, {site:?})"
                );
            }
            assert!(a.total_fired() > 0);
        }
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let mut st = FaultState::new(FaultPlan::only(7, FaultSite::LieSentinelTrip));
        for _ in 0..20 {
            assert!(!st.fire(FaultSite::CorruptTemplate));
        }
        assert_eq!(st.fired_at(FaultSite::CorruptTemplate), 0);
    }

    #[test]
    fn generated_schedules_are_deterministic() {
        let a = FaultSchedule::generate(99, 8, 50);
        let b = FaultSchedule::generate(99, 8, 50);
        assert_eq!(a, b);
        assert_eq!(a.windows.len(), 8);
        assert!(a.windows.iter().all(|w| w.start < 50 && (1..=4).contains(&w.len)));
        assert_ne!(a, FaultSchedule::generate(100, 8, 50));
    }

    #[test]
    fn schedule_windows_gate_firing() {
        let sched = FaultSchedule {
            seed: 1,
            windows: vec![BurstWindow { site: FaultSite::CorruptTemplate, start: 2, len: 3 }],
        };
        let mut st = FaultState::from_schedule(sched);
        // Opportunities 0,1 miss; 2,3,4 fire; 5+ miss.
        let fired: Vec<bool> = (0..7).map(|_| st.fire(FaultSite::CorruptTemplate)).collect();
        assert_eq!(fired, [false, false, true, true, true, false, false]);
        assert_eq!(st.fired_at(FaultSite::CorruptTemplate), 3);
        // Unscheduled sites are unarmed.
        assert!(!st.fire(FaultSite::LieSentinelTrip));
        assert_eq!(st.fired_at(FaultSite::LieSentinelTrip), 0);
    }

    #[test]
    fn schedule_armed_mask_is_union_of_window_sites() {
        let sched = FaultSchedule {
            seed: 0,
            windows: vec![
                BurstWindow { site: FaultSite::DropVcacheEntry, start: 0, len: 1 },
                BurstWindow { site: FaultSite::SkipRollbackFlush, start: 5, len: 2 },
            ],
        };
        let st = FaultState::from_schedule(sched);
        assert!(st.plan().armed(FaultSite::DropVcacheEntry));
        assert!(st.plan().armed(FaultSite::SkipRollbackFlush));
        assert!(!st.plan().armed(FaultSite::CorruptTemplate));
    }

    #[test]
    fn pick_is_bounded() {
        let st = FaultState::new(FaultPlan::all(3));
        for n in 1..8 {
            assert!(st.pick(FaultSite::CorruptTemplate, n) < n);
        }
    }
}
