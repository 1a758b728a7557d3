//! The machine's speed, measured by a fixed reference kernel between timed
//! requests, so that wall times can be scaled to a reference speed.
//!
//! On a shared host the cores run 20–35% slower for seconds to minutes at
//! a time, when a neighbour loads the same physical core or its caches.
//! That moves every wall time taken then, and min-of-k over repeats a few
//! seconds apart cannot remove it when a whole run falls in a slow phase.
//! The kernel below does the same kind of work as the planner's inner loop
//! (a binary heap keyed by `f64` times, lookups in an L2-sized table,
//! float arithmetic) but shares no code with it, so its time moves with
//! the machine and not with the code under test. Timed next to a request,
//! it tracks the request's slowdown: on a 2-vCPU VM the log-ratios of the
//! two correlate at about 0.8.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Jobs one kernel pass schedules.
const JOBS: usize = 4096;
/// Words of the duration table (1 MiB of `f64`, so it lives in L2).
const TABLE: usize = 1 << 17;
/// Machines the jobs are list-scheduled onto (the heap's size).
const MACHINES: usize = 48;
/// Kernel passes per burst; a burst reports their median time.
const PASSES: usize = 41;
/// The kernel pass time in ms that scaled times are relative to: about the
/// median pass time next to planning requests on a 2-vCPU Xeon VM (2 MiB
/// of L2 per core). Scaled times read as times on a machine whose pass
/// takes this long.
pub const REFERENCE_PASS_MS: f64 = 0.15;

/// The reference kernel and its inputs.
pub struct Speedometer {
    durations: Vec<f64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Speedometer {
    pub fn new() -> Self {
        let mut x = 0x5DEE_CE66_D1CE_5EEDu64;
        let durations = (0..TABLE)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = z ^ (z >> 31);
                1.0 + (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        Self {
            durations,
            heap: BinaryHeap::with_capacity(MACHINES),
        }
    }

    /// One pass: greedy list scheduling of [`JOBS`] jobs onto the machine
    /// that frees first, each job's duration read from the table at a
    /// data-dependent index. Returns the makespan.
    fn pass(&mut self) -> f64 {
        self.heap.clear();
        for m in 0..MACHINES as u32 {
            self.heap.push(Reverse((0f64.to_bits(), m)));
        }
        let (mut job, mut makespan) = (0usize, 0f64);
        for step in 0..JOBS {
            let Reverse((free_bits, machine)) = self.heap.pop().expect("machines");
            let end = f64::from_bits(free_bits) + self.durations[job];
            makespan = makespan.max(end);
            // Non-negative f64 bits order like the values.
            self.heap.push(Reverse((end.to_bits(), machine)));
            job = (job.wrapping_mul(5) + 1 + (end.to_bits() as usize & 7) + step) & (TABLE - 1);
        }
        makespan
    }

    /// Median wall time in ms of [`PASSES`] kernel passes.
    pub fn burst_ms(&mut self) -> f64 {
        let mut times: Vec<f64> = (0..PASSES)
            .map(|_| {
                let start = Instant::now();
                black_box(self.pass());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[PASSES / 2]
    }
}

/// The wall time of one timed call and the kernel time measured nearest
/// to it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    pub kernel_ms: f64,
}

impl Timing {
    /// The wall time at the reference speed.
    pub fn scaled_s(&self) -> f64 {
        scale(self.wall_s, self.kernel_ms)
    }
}

/// `wall_s` taken while a kernel pass took `kernel_ms`, at the reference
/// speed.
pub fn scale(wall_s: f64, kernel_ms: f64) -> f64 {
    wall_s * REFERENCE_PASS_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let mut a = Speedometer::new();
        let first = a.pass();
        assert_eq!(first.to_bits(), a.pass().to_bits());
        assert_eq!(first.to_bits(), Speedometer::new().pass().to_bits());
        // 4096 jobs of 1 to 2 time units on 48 machines.
        assert!(first > 4096.0 / 48.0 && first < 2.0 * 4096.0 / 48.0 + 2.0);
        assert!(a.burst_ms() > 0.0);
    }

    #[test]
    fn scaling_reads_reference_speed_times_unchanged() {
        assert_eq!(scale(0.5, REFERENCE_PASS_MS), 0.5);
        let slow = Timing {
            wall_s: 0.5,
            kernel_ms: 2.0 * REFERENCE_PASS_MS,
        };
        assert_eq!(slow.scaled_s(), 0.25);
    }
}
