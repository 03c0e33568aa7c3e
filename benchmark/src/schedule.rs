//! Seeded open-loop arrival schedules.
//!
//! The schedule is fixed before the run starts, so a stall in the system
//! under test cannot slow the offered load: every request keeps its due
//! time, and latency is measured from it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, in nanoseconds from the start of the schedule.
    pub due_ns: u64,
    /// Index of the request's input in the image pool.
    pub image: usize,
}

/// Exponential inter-arrival gap in nanoseconds for a Poisson process of
/// `rate` events per second.
fn gap_ns(rng: &mut StdRng, rate: f64) -> u64 {
    let u: f64 = rng.gen();
    (-(1.0 - u).ln() / rate * 1e9) as u64
}

/// Every arrival of a Poisson process of `rate` requests per second due
/// before `duration_ns`, in due order, deterministic in `seed`. Each arrival
/// draws its image uniformly from `0..pool`.
///
/// # Panics
///
/// Panics on a non-positive rate or an empty pool.
#[must_use]
pub fn schedule(rate: f64, duration_ns: u64, pool: usize, seed: u64) -> Vec<Arrival> {
    assert!(pool > 0, "empty image pool");
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = gap_ns(&mut rng, rate);
    while t < duration_ns {
        out.push(Arrival {
            due_ns: t,
            image: rng.gen_range(0..pool),
        });
        t += gap_ns(&mut rng, rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECOND: u64 = 1_000_000_000;

    #[test]
    fn deterministic_in_seed() {
        let a = schedule(400.0, SECOND, 16, 11);
        assert_eq!(a, schedule(400.0, SECOND, 16, 11));
        assert_ne!(a, schedule(400.0, SECOND, 16, 12));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|r| r.image < 16 && r.due_ns < SECOND));
    }

    #[test]
    fn poisson_mean_rate_within_three_percent() {
        let rate = 400.0;
        for seed in [1, 2, 3] {
            // 6000 arrivals at 400/s take about 15 s.
            let a = schedule(rate, 30 * SECOND, 8, seed);
            let first = &a[..6000];
            let measured = 6000.0 / (first[5999].due_ns as f64 / 1e9);
            assert!(
                (measured / rate - 1.0).abs() < 0.03,
                "seed {seed}: measured {measured:.1}/s against {rate}/s"
            );
        }
    }
}
