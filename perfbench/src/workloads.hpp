#pragma once

// The benchmark's workloads. Each takes the parsed arguments and returns
// its checks and every metric it measured: the end-to-end metrics for a
// timed run (args.trace == false), the per-layer metrics for a traced
// run. perfbench/run.py keeps the ones BENCHMARK.json names for the
// result line; the rest go to the detail line.

#include "common.hpp"
#include "host.hpp"

namespace pb {

struct Outcome {
  Checker checks;
  std::vector<Metric> metrics;
  std::size_t working_set_bytes = 0;
  unsigned width = 1;  ///< threads one operation may use
  std::string probe;   ///< the host probe's detail note
  double steal_share = 0;  ///< of the machine's CPU time, over the measured phase
};

Outcome run_bulk(const Args& args);
Outcome run_serve(const Args& args);

/// Feeds one flipped archive byte and one out-of-bound reconstruction
/// through the checks the workloads use; both must count as failures.
Checker self_test();

/// A bounded throughput: `raw` x the host probe's factor. The detail
/// record keeps both. (Normalisation lowered the spread of every
/// throughput on every workload over twenty runs; STEADINESS.md.)
Metric throughput(const char* name, const char* unit, double raw, std::size_t samples,
                  const HostProbe& probe, const std::string& note);

/// cr, peak_rss_mb and setup_s, which every timed run reports; setup_s
/// is the raw median set-up time / the host probe's factor.
void add_footprint(Outcome& o, double raw_bytes, double archive_bytes, double setup_s,
                   int setup_reps, const HostProbe& probe);

}  // namespace pb
