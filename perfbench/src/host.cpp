#include "host.hpp"

#include <time.h>

#include <cstdint>
#include <cstdio>

#include "common.hpp"

namespace pb {
namespace {

// Fixed work, ~62 ms. The nominal time is its median on the 4-vCPU KVM
// guest (Xeon, AVX-512) the benchmark was calibrated on; it only fixes
// the scale the normalised figures are quoted at.
constexpr std::uint64_t kIters = 24'000'000;
constexpr double kNominalMs = 62.5;
/// Other threads' CPU time a sample tolerates (wake-ups of idle workers).
constexpr double kQuietSlackS = 0.5e-3;

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A xorshift chain feeding a multiply-add chain: serial integer work the
/// compiler can neither vectorize nor shorten.
std::uint64_t int_chain() {
  std::uint64_t x = 0x2545F4914F6CDD1Dull, acc = 1;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0x9E3779B97F4A7C15ull + x;
  }
  return acc;
}

/// Keeps the probe's result alive so the work cannot be elided.
volatile std::uint64_t g_sink = 0;

}  // namespace

void HostProbe::sample() {
  since_sample_s_ = 0;
  const double p0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  const double c0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  const double t0 = now_s();
  const std::uint64_t r = int_chain();
  const double ms = 1e3 * (now_s() - t0);
  const double c1 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  const double p1 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  g_sink = g_sink + r;
  if ((p1 - p0) - (c1 - c0) > kQuietSlackS) ++discarded_;
  else ms_.push_back(ms);
}

void HostProbe::after(double seconds) {
  since_sample_s_ += seconds;
  if (since_sample_s_ >= 0.5) sample();
}

double HostProbe::median_ms() const { return median(ms_); }

double HostProbe::factor() const {
  const double m = median_ms();
  return m > 0 ? m / kNominalMs : 1.0;
}

std::string HostProbe::note() const {
  char nominal[64];
  std::snprintf(nominal, sizeof nominal, "int chain: nominal %.6g ms, ", kNominalMs);
  return nominal + describe(summarize(ms_), "ms") + "; discarded " + std::to_string(discarded_);
}

}  // namespace pb
