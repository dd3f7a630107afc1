//! Metric collection, summary statistics and the result line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// The run's metrics and its correctness tally.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records the failures of `attempted` checked operations.
    pub fn tally(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }

    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// Prints the human-readable table and, last, the JSON result line.
    pub fn print(&self) {
        for failure in self.failures.iter().take(20) {
            eprintln!("FAILED: {failure}");
        }
        for metric in &self.metrics {
            println!(
                "{:<28} {:>14.4} {:<6} n={}",
                metric.name, metric.value, metric.unit, metric.samples
            );
        }
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed(),
            fields.join(", ")
        );
    }
}

/// A finite JSON number with every digit the float carries.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The global allocator of the benchmark: the system allocator, counting
/// live heap bytes and their peak. The in-process server allocates through
/// it too. Unlike the resident set, the count does not depend on which of
/// the allocator's per-thread arenas a thread happens to use, which moved
/// the resident peak of one run by 60 MiB from run to run.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        q
    }
}

/// Peak of the live heap bytes so far, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// One timed operation: the properties it decided and its latency.
pub struct Op {
    pub props: usize,
    pub ms: f64,
}

/// The end-to-end metrics every workload prints with tracing off.
///
/// Every figure is over the raw latency of every operation in the measured
/// loop. The percentiles are nearest-rank over those samples;
/// `props_per_s` is the properties decided over their sum, the wall-clock
/// the loop spent in operations (the benchmark's own verdict checks and
/// input building, between operations, are left out). `peak_heap_mb` is
/// sampled by the caller after a fixed amount of work.
pub fn end_to_end(outcome: &mut Outcome, setup_s: &[f64], ops: &[Op], peak_heap_mb: f64) {
    let latencies: Vec<f64> = ops.iter().map(|op| op.ms).collect();
    let props: usize = ops.iter().map(|op| op.props).sum();
    outcome.push("setup_s", median(setup_s), "s", setup_s.len());
    outcome.push(
        "props_per_s",
        props as f64 * 1e3 / latencies.iter().sum::<f64>(),
        "1/s",
        props,
    );
    outcome.push("lat_p50_ms", percentile(&latencies, 0.5), "ms", ops.len());
    outcome.push("lat_p90_ms", percentile(&latencies, 0.9), "ms", ops.len());
    let attempted = outcome.attempted.max(1);
    let ok_frac = 1.0 - outcome.failed() as f64 / attempted as f64;
    outcome.push("verdict_ok_frac", ok_frac, "frac", attempted as usize);
    outcome.push("peak_heap_mb", peak_heap_mb, "MiB", 1);
}
