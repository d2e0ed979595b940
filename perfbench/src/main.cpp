// perfbench: the repository benchmark's driver program. One invocation
// runs one workload and prints one JSON line:
//
//   {"detail": {<run environment>}, "correct": bool, "attempted": n,
//    "failed": n, "metrics": [{"name", "value", "unit", "samples",
//    "note", ["raw"]}, ...]}
//
// with every metric the workload measured: end-to-end metrics for a
// timed run (--trace 0), per-layer metrics for a traced run (--trace 1).
// perfbench/run.py turns it into the detail line and the result line.
//
//   perfbench --workload bulk-sz3qp|serve-small
//             --seed N --seconds S --trace 0|1
//   perfbench --self-test

#include <cstdio>
#include <cstdlib>
#include <string>

#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"

namespace pb {

Metric throughput(const char* name, const char* unit, double raw, std::size_t samples,
                  const HostProbe& probe, const std::string& note) {
  Metric m{name, raw * probe.factor(), unit, samples, "normalised by the host probe; " + note};
  m.raw = raw;
  return m;
}

void add_footprint(Outcome& o, double raw_bytes, double archive_bytes, double setup_s,
                   int setup_reps, const HostProbe& probe) {
  o.metrics.push_back({"cr", raw_bytes / archive_bytes, "ratio", 0,
                       "raw bytes / archive bytes over the deck's compressions (exact)"});
  o.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0,
                       "VmHWM after a reset at the end of set-up: this workload's measured phase"});
  Metric setup{"setup_s", setup_s / probe.factor(), "s", static_cast<std::size_t>(setup_reps),
               "normalised by the host probe; median of the set-up repetitions: input "
               "generation, pool start, reference archives and outputs, warm-up"};
  setup.raw = setup_s;
  o.metrics.push_back(setup);
}

Checker self_test() {
  using namespace qip;
  Checker c;
  const double eb = 1e-3;
  const Field<float> f = make_field(DatasetId::kMiranda, 0, Dims{24, 24, 24}, 3);
  SZ3Config cfg;
  cfg.error_bound = eb;
  cfg.qp = QPConfig::best_fit();
  const std::vector<std::uint8_t> ref = sz3_compress(f.data(), f.dims(), cfg);
  const Field<float> ref_dec = sz3_decompress<float>(ref);

  // One flipped archive byte, through the identity check every
  // compress gets.
  std::vector<std::uint8_t> flipped = ref;
  flipped[flipped.size() / 2] ^= 0x10;
  c.op(flipped == ref, "self-test: flipped archive byte");

  // One reconstruction value moved past the bound, through the check
  // every decode gets.
  Field<float> off = ref_dec.clone();
  off.data()[off.size() / 3] += static_cast<float>(2 * eb);
  c.op(within_bound(f.span(), off.span(), eb) && bit_equal(off, ref_dec),
       "self-test: out-of-bound reconstruction");
  return c;
}

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

bool parse(int argc, char** argv, Args& a, bool& self) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else return false;
  }
  return self || (!a.workload.empty() && a.seconds > 0);
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Args args;
  bool self = false;
  if (!parse(argc, argv, args, self)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
                 "       perfbench --self-test\n");
    return 2;
  }
  const Checker st = self_test();
  const bool fired = st.attempted == 2 && st.failed == 2;
  if (self) {
    std::printf("{\"self_test\": {\"injected\": %llu, \"counted_failed\": %llu, \"fired\": %s}}\n",
                static_cast<unsigned long long>(st.attempted),
                static_cast<unsigned long long>(st.failed), fired ? "true" : "false");
    return fired ? 0 : 1;
  }

  Outcome o;
  try {
    if (args.workload == "bulk-sz3qp") o = run_bulk(args);
    else if (args.workload == "serve-small") o = run_serve(args);
    else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  std::string d = "{\"detail\": {\"workload\": " + json_str(args.workload) +
                  ", \"seed\": " + std::to_string(args.seed) +
                  ", \"seconds\": " + num(args.seconds) +
                  ", \"trace\": " + (args.trace ? "1" : "0") +
                  ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                  ", \"thread_width\": " + std::to_string(o.width) +
                  ", \"simd_tier\": " + json_str(qip::simd::to_string(qip::simd::active_tier())) +
                  ", \"llc_bytes\": " + std::to_string(cache_bytes(0)) +
                  ", \"l2_bytes\": " + std::to_string(cache_bytes(2)) +
                  ", \"working_set_bytes\": " + std::to_string(o.working_set_bytes) +
                  ", \"probe\": " + json_str(o.probe) +
                  ", \"steal_share\": " + num(o.steal_share) +
                  ", \"huge_pages_kb\": " + num(huge_pages_kb()) +
                  ", \"self_test_fired\": " + (fired ? "true" : "false") +
                  ", \"first_failures\": [";
  for (std::size_t i = 0; i < o.checks.first_failures.size(); ++i)
    d += (i ? ", " : "") + json_str(o.checks.first_failures[i]);
  d += "]}, \"correct\": " + std::string(o.checks.failed == 0 && fired ? "true" : "false") +
       ", \"attempted\": " + std::to_string(o.checks.attempted) +
       ", \"failed\": " + std::to_string(o.checks.failed) + ", \"metrics\": [";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    d += std::string(i ? ", " : "") + "{\"name\": " + json_str(m.name) +
         ", \"value\": " + num(m.value) + ", \"unit\": " + json_str(m.unit) +
         ", \"samples\": " + std::to_string(m.samples) + ", \"note\": " + json_str(m.note);
    if (m.raw > 0) d += ", \"raw\": " + num(m.raw);
    d += "}";
  }
  std::printf("%s]}\n", d.c_str());
  return 0;
}
