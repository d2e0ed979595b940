#pragma once

// The host-speed probe. This benchmark runs on virtual machines whose
// speed drifts with what their neighbours do; the drift moves every
// timing of a run together. Between operations, while the workload's
// pool is idle, the calling thread runs a fixed serial integer chain,
// and every bounded throughput of the run is reported as
//
//   raw x (the run's median probe time / the nominal probe time)
//
// and the set-up time as raw / that factor, so a run on a slow spell of
// the host is scaled back to the nominal speed. Normalisation is kept
// because it lowered the run-to-run spread of every such metric
// (perfbench/STEADINESS.md).
//
// A probe sample is discarded (and counted) if any other thread of the
// process used CPU while it ran: process CPU time minus the probe
// thread's own. A program change that left threads spinning would
// otherwise slow the probe and so flatter its own figures.

#include <cstddef>
#include <string>
#include <vector>

namespace pb {

class HostProbe {
 public:
  /// Run the probe once. Call it only while no other thread of the
  /// process has work.
  void sample();
  /// Count `seconds` of timed operations, and sample once half a second
  /// of them has run since the last sample.
  void after(double seconds);

  /// Median kept probe time in ms (0 when none was kept).
  double median_ms() const;
  std::size_t kept() const { return ms_.size(); }
  std::size_t discarded() const { return discarded_; }
  /// median / nominal; 1 when no sample was kept.
  double factor() const;
  /// Nominal, median, kept and discarded counts.
  std::string note() const;

 private:
  std::vector<double> ms_;
  std::size_t discarded_ = 0;
  double since_sample_s_ = 0;
};

}  // namespace pb
