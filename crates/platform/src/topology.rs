//! Core topology and the three-region processor division.
//!
//! AUM's frequency-aware stage divides the physical cores into a High-AU
//! region `C_H`, a Low-AU region `C_L`, and a None-AU region `C_N`
//! (paper §VI-B2). Each region runs at a frequency determined by its AU
//! license class, which isolates the compulsory frequency reduction of AMX
//! code from AU-free co-runners.

use serde::{Deserialize, Serialize};

/// AU usage level of a processor region (paper's `U_AU` classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AuUsageLevel {
    /// No AU instructions execute in the region (shared applications only).
    None,
    /// Light AU usage, e.g. the decode phase (mostly AVX with sporadic AMX).
    Low,
    /// Heavy AU usage, e.g. the prefill phase (sustained AMX tiles).
    High,
}

impl AuUsageLevel {
    /// All levels, ordered from no usage to heavy usage.
    pub const ALL: [AuUsageLevel; 3] = [AuUsageLevel::None, AuUsageLevel::Low, AuUsageLevel::High];
}

impl core::fmt::Display for AuUsageLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuUsageLevel::None => write!(f, "None"),
            AuUsageLevel::Low => write!(f, "Low"),
            AuUsageLevel::High => write!(f, "High"),
        }
    }
}

/// A contiguous three-way split of the platform's physical cores:
/// `[0, high)` is the High-AU region, `[high, high+low)` the Low-AU region,
/// and `[high+low, total)` the None-AU region.
///
/// # Examples
///
/// ```
/// use aum_platform::topology::{AuUsageLevel, ProcessorDivision};
///
/// // Table III example: High = cores 0-11, Low = 12-15, None = 16-23.
/// let div = ProcessorDivision::new(12, 4, 8);
/// assert_eq!(div.total_cores(), 24);
/// assert_eq!(div.cores(AuUsageLevel::Low), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessorDivision {
    high: usize,
    low: usize,
    none: usize,
}

impl ProcessorDivision {
    /// Creates a division with the given region sizes.
    #[must_use]
    pub const fn new(high: usize, low: usize, none: usize) -> Self {
        ProcessorDivision { high, low, none }
    }

    /// The exclusive division: every core serves the AU application, split
    /// between prefill (High) and decode (Low) with no sharing region. This
    /// is the ALL-AU baseline's arrangement.
    #[must_use]
    pub fn exclusive(total: usize, high: usize) -> Self {
        assert!(high <= total, "high region larger than platform");
        ProcessorDivision {
            high,
            low: total - high,
            none: 0,
        }
    }

    /// Cores in a region.
    #[must_use]
    pub const fn cores(&self, level: AuUsageLevel) -> usize {
        match level {
            AuUsageLevel::High => self.high,
            AuUsageLevel::Low => self.low,
            AuUsageLevel::None => self.none,
        }
    }

    /// Total cores across all regions.
    #[must_use]
    pub const fn total_cores(&self) -> usize {
        self.high + self.low + self.none
    }

    /// Cores with any AU activity (High + Low).
    #[must_use]
    pub const fn au_cores(&self) -> usize {
        self.high + self.low
    }

    /// Fraction of cores in a region, 0 when the platform is empty.
    #[must_use]
    pub fn fraction(&self, level: AuUsageLevel) -> f64 {
        let total = self.total_cores();
        if total == 0 {
            0.0
        } else {
            self.cores(level) as f64 / total as f64
        }
    }

    /// Core-id range of a region, as `(start, end)` exclusive.
    #[must_use]
    pub const fn region_range(&self, level: AuUsageLevel) -> (usize, usize) {
        match level {
            AuUsageLevel::High => (0, self.high),
            AuUsageLevel::Low => (self.high, self.high + self.low),
            AuUsageLevel::None => (self.high + self.low, self.high + self.low + self.none),
        }
    }

    /// Enumerates every division of `total` cores whose region sizes are
    /// multiples of `step` (used by the profiler's division sweep).
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    #[must_use]
    pub fn enumerate(total: usize, step: usize) -> Vec<ProcessorDivision> {
        assert!(step > 0, "enumeration step must be positive");
        let mut out = Vec::new();
        let mut high = 0;
        while high <= total {
            let mut low = 0;
            while high + low <= total {
                out.push(ProcessorDivision::new(high, low, total - high - low));
                low += step;
            }
            high += step;
        }
        out
    }
}

impl core::fmt::Display for ProcessorDivision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "H{}/L{}/N{}", self.high, self.low, self.none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_cores() {
        let d = ProcessorDivision::new(12, 4, 8);
        assert_eq!(d.total_cores(), 24);
        assert_eq!(d.au_cores(), 16);
    }

    #[test]
    fn fractions_sum_to_one() {
        let d = ProcessorDivision::new(10, 20, 18);
        let sum: f64 = AuUsageLevel::ALL.iter().map(|&l| d.fraction(l)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exclusive_has_no_shared_region() {
        let d = ProcessorDivision::exclusive(96, 32);
        assert_eq!(d.cores(AuUsageLevel::None), 0);
        assert_eq!(d.cores(AuUsageLevel::High), 32);
        assert_eq!(d.cores(AuUsageLevel::Low), 64);
    }

    #[test]
    fn enumerate_covers_simplex() {
        let divisions = ProcessorDivision::enumerate(8, 4);
        // high, low in {0,4,8} with high+low <= 8: (0,0)(0,4)(0,8)(4,0)(4,4)(8,0)
        assert_eq!(divisions.len(), 6);
        assert!(divisions.iter().all(|d| d.total_cores() == 8));
    }

    #[test]
    fn region_ranges_are_contiguous() {
        let d = ProcessorDivision::new(3, 5, 2);
        assert_eq!(d.region_range(AuUsageLevel::High), (0, 3));
        assert_eq!(d.region_range(AuUsageLevel::Low), (3, 8));
        assert_eq!(d.region_range(AuUsageLevel::None), (8, 10));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", ProcessorDivision::new(1, 2, 3)), "H1/L2/N3");
        assert_eq!(format!("{}", AuUsageLevel::High), "High");
    }
}
