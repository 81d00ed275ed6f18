#pragma once
// Host-speed calibration for the timed runs.  The shared host this
// benchmark runs on changes speed by up to 1.6x over minutes; the fastest
// repetition of a run moves with it.  A fixed kernel timed between the
// repetitions measures the same drift, and dividing by its fastest pass
// takes it out.  The kernel is a small two-phase clocked pipeline (virtual
// evaluate/commit calls, 8-entry ring FIFOs, data-dependent branches), so it
// stresses the host the way the simulator does.  It uses nothing from the
// library: no change to the library can change its time.

#include <cstdint>

namespace mpsocbench {

/// Seconds a calibration pass takes on the reference host.  run_s and
/// setup_s are reported at this host speed: raw seconds x
/// kCalibrationRefSeconds / fastest calibration pass of the run.
constexpr double kCalibrationRefSeconds = 0.015;

struct CalibrationPass {
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< the same on every pass
};

/// One pass of the calibration kernel: a fixed number of clock cycles of a
/// fixed pipeline, fed from a fixed seed.
CalibrationPass calibrationPass();

}  // namespace mpsocbench
