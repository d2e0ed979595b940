#pragma once

// Shared pieces of the repository benchmark: the run's arguments and
// result, sample summaries (median plus the highest percentile with at
// least ten samples beyond it, always with the sample count), output
// checks that count failed operations, per-kind deck figures, and the
// run environment (RSS high-water mark, cache sizes, steal, rusage).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "util/field.hpp"

namespace pb {

/// Seconds on the steady clock since the first call in the process.
double now_s();

/// Median of a sample set (0 for none).
double median(std::vector<double> v);

/// A sample set as the detail line reports it: the median and the
/// highest percentile (to 0.1) that has at least ten samples beyond it,
/// with the count. With 20 samples or fewer that percentile is no tail,
/// and none is given.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail_pct = 0;  ///< 0 = no percentile has ten samples beyond it
  double tail = 0;
};
Summary summarize(std::vector<double> samples);
/// "n=<n> p50=<x> [pNN=<y>] <unit>".
std::string describe(const Summary& s, const char* unit);

/// One metric: the value on the result line, and its detail record.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value (0 = exact count)
  std::string note;         ///< definition, tails
  /// Bounded throughputs: the value before host-speed normalisation
  /// (0 for other metrics).
  double raw = 0;
};

/// Counts operations and the ones whose output failed a check.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;

  /// Record one operation; returns `ok`.
  bool op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failures.size() < 8) first_failures.push_back(what);
    }
    return ok;
  }
};

/// Every |a - b| <= eb (with the library tests' 1e-9 relative slack for
/// the double-precision bound arithmetic); NaN fails.
template <class T>
bool within_bound(std::span<const T> a, std::span<const T> b, double eb) {
  if (a.size() != b.size()) return false;
  const double lim = eb * (1 + 1e-9);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    if (!(d <= lim)) return false;
  }
  return true;
}

template <class T>
bool bit_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <class T>
bool bit_equal(const qip::Field<T>& a, const qip::Field<T>& b) {
  return a.dims() == b.dims() && bit_equal(a.span(), b.span());
}

/// One kind of operation in a workload's deck: every sample is the same
/// call on the same input, so its samples are unimodal and their median
/// is that kind's cost. Workload figures add the per-kind medians up
/// with the deck's fixed counts; no median is taken over a mixture.
struct OpKind {
  enum Dir { kCompress, kDecompress, kRead };
  std::string name;
  Dir dir = kCompress;
  double per_deck = 1;  ///< copies of this op in one deck
  double bytes = 0;     ///< raw bytes in (compress) or reconstructed (decode)
  std::vector<double> secs;
};

/// compress_mbps, decompress_mbps and ops_per_s of one deck from its
/// per-kind medians (before host-speed normalisation).
struct DeckFigures {
  double compress_mbps = 0;
  double decompress_mbps = 0;
  double ops_per_s = 0;
  std::size_t compress_samples = 0;
  std::size_t decompress_samples = 0;
  std::size_t samples = 0;
};
DeckFigures deck_figures(const std::vector<OpKind>& kinds);
/// Per-kind "name: n=.. p50=.. pNN=.. s" notes for the detail line.
std::string kinds_note(const std::vector<OpKind>& kinds);

/// Reset the kernel's RSS high-water mark for this process (Linux
/// clear_refs "5"); returns false where unsupported.
bool reset_peak_rss();
/// VmHWM of this process in MB (1e6 bytes); 0 when unavailable.
double peak_rss_mb();
/// AnonHugePages of this process in kB: anonymous memory the kernel
/// backs with transparent huge pages (0 when unavailable).
double huge_pages_kb();
/// Size in bytes of cpu0's cache at `level` (the largest level when
/// level is 0) from sysfs; 0 when unknown.
std::size_t cache_bytes(int level);

/// Aggregate CPU time of the machine from /proc/stat, in clock ticks.
struct CpuTicks {
  double steal = 0;  ///< time the hypervisor ran something else
  double total = 0;  ///< all states, all CPUs
};
CpuTicks cpu_ticks();

/// Share of the machine's CPU time stolen between two readings.
inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0.0;
}

/// Minor page faults and kernel CPU seconds of the whole process.
struct Usage {
  double minor_faults = 0;
  double sys_s = 0;
};
Usage process_usage();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Threads a workload's pool gets: one per CPU but one, because the
/// calling thread also works (it drains parallel_for blocks, or
/// generates the load).
inline unsigned pool_workers() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  return n > 1 ? n - 1 : 1;
}

/// Repeat `setup` `reps` times (keeping the last state) and return the
/// median wall time; each earlier state is destroyed before the next
/// repetition, so the process never holds two.
template <class State, class F>
double timed_setup(int reps, State& keep, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    keep = State{};
    const double t0 = now_s();
    setup(keep);
    t.push_back(now_s() - t0);
  }
  return median(t);
}

}  // namespace pb
