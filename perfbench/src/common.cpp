#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

/// Linear-interpolated percentile of sorted samples, p in [0, 100].
double percentile_sorted(const std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return v[lo] + f * (v[hi] - v[lo]);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 50);
  if (v.size() > 20) {
    const double n = static_cast<double>(v.size());
    s.tail_pct = std::floor(1000.0 * (1.0 - 10.0 / n)) / 10.0;
    s.tail = percentile_sorted(v, s.tail_pct);
  }
  return s;
}

std::string describe(const Summary& s, const char* unit) {
  std::string out = "n=" + std::to_string(s.n) + fmt(" p50=%.6g", s.p50);
  if (s.tail_pct > 0) out += fmt(" p%g", s.tail_pct) + fmt("=%.6g", s.tail);
  return out + " " + unit;
}

DeckFigures deck_figures(const std::vector<OpKind>& kinds) {
  DeckFigures f;
  double c_bytes = 0, c_s = 0, d_bytes = 0, d_s = 0, ops = 0, all_s = 0;
  for (const OpKind& k : kinds) {
    const double t = k.per_deck * median(k.secs);
    ops += k.per_deck;
    all_s += t;
    f.samples += k.secs.size();
    if (k.dir == OpKind::kCompress) {
      c_bytes += k.per_deck * k.bytes;
      c_s += t;
      f.compress_samples += k.secs.size();
    } else if (k.dir == OpKind::kDecompress) {
      d_bytes += k.per_deck * k.bytes;
      d_s += t;
      f.decompress_samples += k.secs.size();
    }
  }
  if (c_s > 0) f.compress_mbps = c_bytes / 1e6 / c_s;
  if (d_s > 0) f.decompress_mbps = d_bytes / 1e6 / d_s;
  if (all_s > 0) f.ops_per_s = ops / all_s;
  return f;
}

std::string kinds_note(const std::vector<OpKind>& kinds) {
  std::string out;
  for (const OpKind& k : kinds) {
    if (!out.empty()) out += "; ";
    out += k.name + " x" + fmt("%g", k.per_deck) + ": " + describe(summarize(k.secs), "s");
  }
  return out;
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  double v = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_minflt),
          static_cast<double>(ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_stime.tv_usec)};
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0;
}

double huge_pages_kb() {
  std::ifstream f("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("AnonHugePages:", 0) == 0) {
      std::istringstream is(line.substr(14));
      double kb = 0;
      is >> kb;
      return kb;
    }
  }
  return 0;
}

std::size_t cache_bytes(int level) {
  std::size_t best = 0;
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream lf(dir + "level"), sf(dir + "size"), tf(dir + "type");
    int lv = 0;
    std::string size, type;
    if (!(lf >> lv) || !(sf >> size) || size.empty() || !(tf >> type)) continue;
    if (type == "Instruction") continue;
    std::size_t mult = 1;
    if (size.back() == 'K') mult = 1024;
    if (size.back() == 'M') mult = 1024 * 1024;
    const std::size_t bytes = std::stoull(size) * mult;
    if (level ? lv == level : lv >= best_level) {
      best_level = lv;
      best = bytes;
    }
  }
  return best;
}

}  // namespace pb
