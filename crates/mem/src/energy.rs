//! Energy and power quantities.
//!
//! The unit choices make the paper's numbers fall out naturally:
//! power in **milliwatts** (Table V) times latency in **nanoseconds**
//! (Table III) yields energy in **picojoules** with no conversion factors.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};
use hhpim_sim::SimDuration;

/// An amount of energy, stored in picojoules.
///
/// # Examples
///
/// ```
/// use hhpim_mem::{Energy, Power};
/// use hhpim_sim::SimDuration;
/// // An HP-SRAM read: 508.93 mW for 1.12 ns ≈ 570 pJ.
/// let e = Power::from_mw(508.93) * SimDuration::from_ns_f64(1.12);
/// assert!((e.as_pj() - 570.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from picojoules.
    ///
    /// # Panics
    ///
    /// Panics if `pj` is negative or not finite.
    pub fn from_pj(pj: f64) -> Self {
        assert!(
            pj.is_finite() && pj >= 0.0,
            "energy must be finite and non-negative"
        );
        Energy(pj)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nj(nj: f64) -> Self {
        Self::from_pj(nj * 1e3)
    }

    /// Creates an energy from microjoules.
    pub fn from_uj(uj: f64) -> Self {
        Self::from_pj(uj * 1e6)
    }

    /// Creates an energy from millijoules.
    pub fn from_mj(mj: f64) -> Self {
        Self::from_pj(mj * 1e9)
    }

    /// Returns the energy in picojoules.
    #[inline]
    pub fn as_pj(self) -> f64 {
        self.0
    }

    /// Returns the energy in nanojoules.
    pub fn as_nj(self) -> f64 {
        self.0 / 1e3
    }

    /// Returns the energy in microjoules.
    pub fn as_uj(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns the energy in millijoules.
    pub fn as_mj(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the energy in joules.
    pub fn as_j(self) -> f64 {
        self.0 / 1e12
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Energy) -> Energy {
        Energy((self.0 - rhs.0).max(0.0))
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    /// # Panics
    ///
    /// Panics (in debug builds) if the result would be negative.
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        debug_assert!(self.0 >= rhs.0, "energy subtraction went negative");
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<u64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: u64) -> Energy {
        Energy(self.0 * rhs as f64)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    /// Dimensionless ratio of two energies.
    type Output = f64;
    #[inline]
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Self {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.0;
        if pj >= 1e9 {
            write!(f, "{:.3}mJ", pj / 1e9)
        } else if pj >= 1e6 {
            write!(f, "{:.3}uJ", pj / 1e6)
        } else if pj >= 1e3 {
            write!(f, "{:.3}nJ", pj / 1e3)
        } else {
            write!(f, "{:.3}pJ", pj)
        }
    }
}

/// A running energy total that can also record, in order, each addend
/// it receives.
///
/// Every energy counter of the structural models (bank static, dynamic
/// and wake energy, PE and controller energy) is one of these. The
/// record is off by default; memoized task replay switches it on for
/// one recorded task, so it can later re-apply the exact addends in
/// the exact order — f64 addition does not associate, so the addends,
/// not their sum, are what reproduce a total bit for bit.
///
/// Equality compares totals only: the record is a recording aid, not
/// model state.
///
/// # Examples
///
/// ```
/// use hhpim_mem::{Energy, EnergyAccumulator};
///
/// let mut acc = EnergyAccumulator::default();
/// acc.set_recording(true);
/// acc.add(Energy::from_pj(0.1));
/// acc.add(Energy::from_pj(0.2));
/// assert_eq!(acc.recorded(), &[Energy::from_pj(0.1), Energy::from_pj(0.2)]);
///
/// // Re-applying the addends in order lands on the same bits.
/// let mut replay = Energy::ZERO;
/// for &e in acc.recorded() {
///     replay += e;
/// }
/// assert_eq!(replay.as_pj().to_bits(), acc.get().as_pj().to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnergyAccumulator {
    total: Energy,
    record: Option<Vec<Energy>>,
}

impl EnergyAccumulator {
    /// The running total.
    #[inline]
    pub fn get(&self) -> Energy {
        self.total
    }

    /// Overwrites the running total (restoring a snapshot).
    #[inline]
    pub fn set(&mut self, total: Energy) {
        self.total = total;
    }

    /// Adds `e` to the total, recording it when recording is on.
    #[inline]
    pub fn add(&mut self, e: Energy) {
        self.total += e;
        if let Some(record) = &mut self.record {
            record.push(e);
        }
    }

    /// Switches recording on (with an empty record) or off (dropping
    /// the record).
    pub fn set_recording(&mut self, on: bool) {
        self.record = on.then(Vec::new);
    }

    /// The addends recorded since recording started or was last
    /// cleared, in the order they were added (empty when off).
    pub fn recorded(&self) -> &[Energy] {
        self.record.as_deref().unwrap_or(&[])
    }

    /// Empties the record, keeping recording on if it was.
    pub fn clear_recorded(&mut self) {
        if let Some(record) = &mut self.record {
            record.clear();
        }
    }
}

impl PartialEq for EnergyAccumulator {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
    }
}

/// Electrical power, stored in milliwatts.
///
/// # Examples
///
/// ```
/// use hhpim_mem::Power;
/// let p = Power::from_mw(23.29);
/// assert!((p.as_w() - 0.02329).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from milliwatts.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is negative or not finite.
    pub fn from_mw(mw: f64) -> Self {
        assert!(
            mw.is_finite() && mw >= 0.0,
            "power must be finite and non-negative"
        );
        Power(mw)
    }

    /// Creates a power from microwatts.
    pub fn from_uw(uw: f64) -> Self {
        Self::from_mw(uw / 1e3)
    }

    /// Creates a power from watts.
    pub fn from_w(w: f64) -> Self {
        Self::from_mw(w * 1e3)
    }

    /// Returns the power in milliwatts.
    #[inline]
    pub fn as_mw(self) -> f64 {
        self.0
    }

    /// Returns the power in watts.
    pub fn as_w(self) -> f64 {
        self.0 / 1e3
    }
}

impl Add for Power {
    type Output = Power;
    #[inline]
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    #[inline]
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<SimDuration> for Power {
    type Output = Energy;
    /// Energy = power × time (mW × ns = pJ).
    #[inline]
    fn mul(self, rhs: SimDuration) -> Energy {
        Energy(self.0 * rhs.as_ns_f64())
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Self {
        iter.fold(Power::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e3 {
            write!(f, "{:.3}W", self.0 / 1e3)
        } else if self.0 >= 1.0 {
            write!(f, "{:.3}mW", self.0)
        } else {
            write!(f, "{:.3}uW", self.0 * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        // Table V / Table III spot-checks.
        let hp_mram_read = Power::from_mw(428.48) * SimDuration::from_ns_f64(2.62);
        assert!((hp_mram_read.as_pj() - 1122.6).abs() < 0.1);
        let lp_sram_read = Power::from_mw(177.3) * SimDuration::from_ns_f64(1.41);
        assert!((lp_sram_read.as_pj() - 250.0).abs() < 0.1);
    }

    #[test]
    fn energy_units_roundtrip() {
        let e = Energy::from_mj(1.5);
        assert!((e.as_uj() - 1500.0).abs() < 1e-9);
        assert!((e.as_j() - 1.5e-3).abs() < 1e-15);
        assert_eq!(Energy::from_nj(2.0).as_pj(), 2000.0);
        assert_eq!(Energy::from_uj(2.0).as_nj(), 2000.0);
    }

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_pj(10.0);
        let b = Energy::from_pj(4.0);
        assert_eq!((a + b).as_pj(), 14.0);
        assert_eq!((a - b).as_pj(), 6.0);
        assert_eq!((a * 2.0).as_pj(), 20.0);
        assert_eq!((a * 3u64).as_pj(), 30.0);
        assert_eq!((a / 2.0).as_pj(), 5.0);
        assert_eq!(a / b, 2.5);
        assert_eq!(b.saturating_sub(a), Energy::ZERO);
    }

    #[test]
    fn energy_sum() {
        let total: Energy = (1..=4).map(|i| Energy::from_pj(i as f64)).sum();
        assert_eq!(total.as_pj(), 10.0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Energy::from_pj(5.0).to_string(), "5.000pJ");
        assert_eq!(Energy::from_nj(5.0).to_string(), "5.000nJ");
        assert_eq!(Energy::from_mj(5.0).to_string(), "5.000mJ");
        assert_eq!(Power::from_mw(5.0).to_string(), "5.000mW");
        assert_eq!(Power::from_mw(0.5).to_string(), "500.000uW");
        assert_eq!(Power::from_w(5.0).to_string(), "5.000W");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_energy() {
        Energy::from_pj(-1.0);
    }

    #[test]
    fn power_uw_constructor() {
        assert!((Power::from_uw(355.0).as_mw() - 0.355).abs() < 1e-12);
    }
}
