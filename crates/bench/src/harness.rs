//! The shared plumbing of the `bench_*` binaries: the environment knobs every
//! one of them reads, the timing helpers and the record writer.
//!
//! | variable | meaning |
//! |----------|---------|
//! | `QGDP_BENCH_REPS` | repetitions per measurement ([`reps`]) |
//! | `QGDP_BENCH_TOPOLOGIES` | comma-separated topology panel ([`topologies`]) |
//! | `QGDP_BENCH_OUT` | output path of the JSON record ([`write_record`]) |

use qgdp::prelude::StandardTopology;
use std::time::Instant;

/// The topology panel most `bench_*` binaries default to.
pub const DEFAULT_PANEL: [StandardTopology; 3] = [
    StandardTopology::Grid,
    StandardTopology::Falcon,
    StandardTopology::Eagle,
];

/// Repetitions per measurement: `QGDP_BENCH_REPS`, or `default` when it is
/// unset or not a number.
#[must_use]
pub fn reps(default: usize) -> usize {
    std::env::var("QGDP_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The topology panel: the comma-separated, case-insensitive names in
/// `QGDP_BENCH_TOPOLOGIES`, or `default` when it is unset.
///
/// # Panics
///
/// Panics on a name that is not a [`StandardTopology`].
#[must_use]
pub fn topologies(default: &[StandardTopology]) -> Vec<StandardTopology> {
    let Ok(names) = std::env::var("QGDP_BENCH_TOPOLOGIES") else {
        return default.to_vec();
    };
    let all = StandardTopology::all();
    names
        .split(',')
        .map(|name| {
            *all.iter()
                .find(|t| t.name().eq_ignore_ascii_case(name.trim()))
                .unwrap_or_else(|| panic!("unknown topology {name:?}"))
        })
        .collect()
}

/// The fastest of `reps` runs (at least one), each returning its own time in
/// milliseconds — criterion-style best-of reporting.
pub fn best_of<F: FnMut() -> f64>(reps: usize, mut run: F) -> f64 {
    (0..reps.max(1))
        .map(|_| run())
        .fold(f64::INFINITY, f64::min)
}

/// Wall-clock milliseconds of one call of `run`, its result kept alive through
/// [`std::hint::black_box`] so the work cannot be optimized away.
pub fn time_ms<T, F: FnMut() -> T>(mut run: F) -> f64 {
    let start = Instant::now();
    std::hint::black_box(run());
    start.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an unsorted sample pool: the smallest sample at
/// or above a `q` fraction of the pool (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty pool.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "empty latency pool");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The host's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes the JSON record to `QGDP_BENCH_OUT` (default `default_path`), prints
/// it, and returns the path written.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_record(default_path: &str, json: &str) -> String {
    let out_path = std::env::var("QGDP_BENCH_OUT").unwrap_or_else(|_| default_path.to_string());
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");
    out_path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        // Reversed: the function sorts the pool itself.
        let pool: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&pool, 0.50), 50.0);
        assert_eq!(percentile(&pool, 0.99), 99.0);
        assert_eq!(percentile(&pool, 1.0), 100.0);
        assert_eq!(percentile(&pool, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 0.50), 7.5);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty latency pool")]
    fn percentile_of_an_empty_pool_panics() {
        let _ = percentile(&[], 0.5);
    }
}
