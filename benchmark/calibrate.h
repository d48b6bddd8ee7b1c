// Machine-speed calibration for the host times.
//
// On a shared machine other tenants slow every program, in phases that last
// from seconds to minutes: per-thread CPU speed drops by up to 1.3x, and a
// run on all four vCPUs stalls at its epoch barriers while the hypervisor
// has one of them elsewhere (wall time up to 2x). Two host times taken in
// different phases mostly compare the neighbours. A fixed kernel that
// shares no code with the repository is therefore timed while a repetition
// is paused between slices of its run phase, on as many threads as the
// repetition runs, and the repetition's host times are scaled to what they
// would read at the kernel's reference speed. The kernel mixes what the
// program's host time is made of: pointer chasing over a working set the
// size of a run's heap, hash-map churn with small allocations, and integer
// mixing.
#pragma once

namespace orderless::bench {

struct CalibrationPass {
  double wall_s = 0;  // until every thread finished
  double cpu_s = 0;   // CPU time per thread, mean over threads
};

/// Runs the calibration kernel once on each of `threads` threads at the
/// same time. Its working set is mapped once per process and is not
/// inherited by forked children, so it adds nothing to their peak RSS.
CalibrationPass Calibrate(unsigned threads);

/// A pass on the reference machine (the 4-vCPU Xeon of
/// results/xeon-4vcpu-seed1.json): CPU time per thread, and wall time on
/// four threads, the count every parallel workload runs. Each is the lower
/// quartile of 200 passes there, since interference only ever adds time.
inline constexpr double kReferenceCpuS = 0.0182;
inline constexpr double kReferenceWallS = 0.0238;

/// How much more the program's CPU time moves with the machine's speed
/// than the kernel's: over 10-seed batches of each workload (20 to 60 runs,
/// 250 to 1400 repetitions), the slope of the log of a run's median CPU
/// time per transaction against the log of its kernel CPU time was 1.28 to
/// 1.73 (correlation 0.90 to 0.99).
inline constexpr double kCpuElasticity = 1.5;

}  // namespace orderless::bench
