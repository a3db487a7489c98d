//! The 700-day fleet growth model (Fig. 1).
//!
//! Fig. 1 plots fleet-wide RPCs-per-second divided by CPU cycles consumed,
//! normalized to the first day, over 700 days: a ~30%/year compounding
//! rise (64% total) from (a) cheaper per-RPC stacks and (b) microservice
//! decomposition shrinking the work behind each RPC — on top of weekly
//! seasonality and noise. The model generates both underlying counters so
//! the figure is produced by the same TSDB query a production system
//! would run.

use rpclens_simcore::rng::SplitMix64;
use rpclens_simcore::time::{SimDuration, SimTime};
use rpclens_tsdb::store::TimeSeriesDb;

/// Growth model parameters.
#[derive(Debug, Clone)]
pub struct GrowthConfig {
    /// Days to generate (the paper observes 700).
    pub days: u32,
    /// Initial fleet RPC rate, RPS.
    pub base_rps: f64,
    /// Initial fleet CPU consumption, cycles per second.
    pub base_cps: f64,
    /// Annual growth rate of RPC volume (compound).
    pub rps_annual_growth: f64,
    /// Annual growth rate of CPU consumption (compound) — slower than
    /// RPC growth, which is the paper's headline.
    pub cps_annual_growth: f64,
    /// Weekly seasonality amplitude (weekends are quieter).
    pub weekly_amp: f64,
    /// Day-to-day noise amplitude.
    pub noise: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        GrowthConfig {
            days: 700,
            base_rps: 1.0e9,
            base_cps: 5.0e14,
            // RPS/CPU must grow ~30%/yr: split the ratio between RPC
            // volume growing fast and cycles growing slower.
            rps_annual_growth: 0.55,
            cps_annual_growth: 0.192, // (1.55/1.192 - 1) ≈ 30%.
            weekly_amp: 0.06,
            noise: 0.015,
            seed: 0x640,
        }
    }
}

/// The generated series and the derived Fig. 1 curve.
#[derive(Debug)]
pub struct GrowthModel {
    config: GrowthConfig,
}

impl GrowthModel {
    /// Creates a model.
    pub fn new(config: GrowthConfig) -> Self {
        GrowthModel { config }
    }

    fn day_noise(&self, day: u32, stream: u64) -> f64 {
        let mut sm = SplitMix64::new(self.config.seed ^ stream.wrapping_mul(0x9E37) ^ day as u64);
        (sm.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// Fleet RPS on `day`.
    pub fn rps(&self, day: u32) -> f64 {
        let years = day as f64 / 365.25;
        let trend = self.config.base_rps * (1.0 + self.config.rps_annual_growth).powf(years);
        let weekly =
            1.0 + self.config.weekly_amp * (std::f64::consts::TAU * day as f64 / 7.0).sin();
        let noise = 1.0 + self.config.noise * self.day_noise(day, 1);
        trend * weekly * noise
    }

    /// Fleet cycles per second on `day`.
    pub fn cps(&self, day: u32) -> f64 {
        let years = day as f64 / 365.25;
        let trend = self.config.base_cps * (1.0 + self.config.cps_annual_growth).powf(years);
        let weekly =
            1.0 + self.config.weekly_amp * 0.8 * (std::f64::consts::TAU * day as f64 / 7.0).sin();
        let noise = 1.0 + self.config.noise * self.day_noise(day, 2);
        trend * weekly * noise
    }

    /// Writes daily counters into a TSDB (cumulative counts, as a real
    /// metric pipeline exports them).
    pub fn populate(&self, db: &mut TimeSeriesDb) {
        let day = SimDuration::from_hours(24);
        let mut rpc_total = 0u64;
        let mut cycle_total = 0u64;
        for d in 0..self.config.days {
            rpc_total = rpc_total.saturating_add((self.rps(d) * 86_400.0) as u64);
            cycle_total = cycle_total.saturating_add((self.cps(d) * 86_400.0 / 1e6) as u64);
            let at = SimTime::ZERO + SimDuration::from_nanos(d as u64 * day.as_nanos());
            db.write("fleet/rpc/total", at, rpc_total);
            // Cycles stored in mega-cycles to stay inside u64.
            db.write("fleet/cpu/cycles", at, cycle_total);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GrowthConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Day `d`'s RPS/CPU ratio normalized to day 0 (Fig. 1's series).
    fn normalized_ratio(m: &GrowthModel, d: u32) -> f64 {
        (m.rps(d) / m.cps(d)) / (m.rps(0) / m.cps(0))
    }

    #[test]
    fn ratio_grows_about_64_percent_over_700_days() {
        let m = GrowthModel::new(GrowthConfig::default());
        assert_eq!(m.config().days, 700);
        let last = normalized_ratio(&m, 699);
        // Paper: 64% total growth over the window. Allow noise slack.
        assert!((1.5..1.8).contains(&last), "final ratio {last}");
    }

    #[test]
    fn annual_rate_is_about_30_percent() {
        let m = GrowthModel::new(GrowthConfig {
            noise: 0.0,
            weekly_amp: 0.0,
            ..GrowthConfig::default()
        });
        let y1 = normalized_ratio(&m, 365);
        assert!((1.27..1.33).contains(&y1), "year-1 ratio {y1}");
    }

    #[test]
    fn weekly_seasonality_is_visible() {
        let m = GrowthModel::new(GrowthConfig {
            noise: 0.0,
            ..GrowthConfig::default()
        });
        // Within one week, RPS must oscillate.
        let values: Vec<f64> = (0..7).map(|d| m.rps(d)).collect();
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max / min > 1.05, "no weekly swing: {values:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GrowthModel::new(GrowthConfig::default());
        let b = GrowthModel::new(GrowthConfig::default());
        for d in [0, 100, 350, 699] {
            assert_eq!(a.rps(d), b.rps(d));
            assert_eq!(a.cps(d), b.cps(d));
        }
    }

    #[test]
    fn populate_writes_monotone_counters() {
        let m = GrowthModel::new(GrowthConfig {
            days: 30,
            ..GrowthConfig::default()
        });
        let mut db = TimeSeriesDb::new(SimDuration::from_hours(24));
        m.populate(&mut db);
        let series = db.series("fleet/rpc/total").expect("series exists");
        assert_eq!(series.len(), 30);
        assert!(series.points().windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn tsdb_rate_reconstructs_rps_within_noise() {
        let m = GrowthModel::new(GrowthConfig {
            days: 10,
            noise: 0.0,
            weekly_amp: 0.0,
            ..GrowthConfig::default()
        });
        let mut db = TimeSeriesDb::new(SimDuration::from_hours(24));
        m.populate(&mut db);
        let rates = db.series("fleet/rpc/total").unwrap().rate();
        for (i, (_, r)) in rates.iter().enumerate() {
            let expected = m.rps(i as u32 + 1);
            assert!(
                (r - expected).abs() / expected < 0.01,
                "day {i}: rate {r} vs rps {expected}"
            );
        }
    }
}
