//! Clocks, sample summaries, the seeded draw, and the result line.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the CPU clocks through 64-bit Linux `clock_gettime`");

/// A duration in milliseconds, with every digit the clock gave.
pub fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// The CPU time all threads of the process have used. On a shared host
/// other tenants take the CPU away from a busy thread at random. CPU time
/// leaves those pauses out, so it tracks the work done more closely than
/// wall time does. Counting every thread keeps work that a change moves
/// off the calling thread in the count.
pub fn process_cpu_time() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// The CPU time the calling thread has used.
pub fn thread_cpu_time() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) and `clock` is one of the
    // kernel's constants for the calling process's or thread's CPU clock.
    let status = unsafe { clock_gettime(clock, &mut now) };
    assert_eq!(
        status, 0,
        "the process and thread CPU clocks are always readable"
    );
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

/// The calling thread's CPU time for a fixed piece of work that shares no
/// code with the program, in two parts. Three quarters of it builds and
/// reads many small hash maps and vectors; the rest is lookups in a larger
/// map and a dependent walk over a 256 KiB table. A shared host slows
/// small allocations far more than the rest in its slow spells, and
/// elections slow with the small allocations (see `README.md`). No change
/// to the program changes this work, so its time measures how fast the
/// host runs the benchmark's thread.
pub fn reference_cpu_time() -> Duration {
    type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;
    let began = thread_cpu_time();
    let mut draws = SplitMix(0x5eed);
    let mut sum = 0u64;
    for _ in 0..900 {
        let mut small = Map::default();
        let mut lists = Vec::new();
        for i in 0..24 {
            let key = draws.next() % 1024;
            small.insert(key, i);
            lists.push((key, vec![i; 6]));
        }
        for (key, list) in &lists {
            sum = sum.wrapping_add(small[key] + list[3]);
        }
    }
    let mut large = Map::default();
    for i in 0..2048 {
        large.insert(draws.next() % 16_384, i);
    }
    for _ in 0..16_384 {
        let key = draws.next() % 16_384;
        sum = sum.wrapping_add(large.get(&key).copied().unwrap_or(1));
    }
    let table: Vec<u32> = (0..1u32 << 16)
        .map(|i| (draws.next() as u32 ^ i) & 0xffff)
        .collect();
    let mut at = 0u32;
    for _ in 0..32_768 {
        at = table[at as usize] ^ (at >> 1);
    }
    std::hint::black_box((sum, at));
    thread_cpu_time().saturating_sub(began)
}

/// The nearest-rank `q`-quantile of `samples` (NaN when there are none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (NaN when there are none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of `samples` (NaN when there are none).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// SplitMix64: the run's seeded draws, so one seed always yields the same
/// scenarios.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One reported metric; its name and unit match `BENCHMARK.json`.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What one run attempted, how much of it failed, and what it measured.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Nothing failed and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result; an unmeasured metric prints as `null`.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}
