#pragma once

// The traced run. Every library call a workload makes is made once more
// untraced (its wall, rusage and pool counters are recorded), its output
// is checked, and then its layers are replayed through their public
// functions (replay.hpp) twice: at the workload's width and at width 1.
// A replay must reproduce the library's bytes or values exactly: one
// that does not counts as a failed op, so a layer time is never taken
// from a replay that drifted from the library. Calls the replays do not
// cover (an SZ3 archive that committed the Lorenzo fallback) are
// reported only as their codec.* parent and counted in
// trace.replayed_share. layer_metrics() turns the spans and counters
// into per-layer metrics.

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "host.hpp"
#include "ops.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace pb {

struct TraceRun {
  Tracer full;    ///< replays at the workload's width
  Tracer serial;  ///< the same replays at width 1
  LayerCounts counts;
  LayerCounts serial_counts;
  std::vector<int> exact;  ///< op ids whose replay reproduced the library
  std::vector<std::pair<int, double>> tuned;  ///< (op, library wall) of QoZ compresses
  std::map<std::string, double> codec_s;      ///< untraced walls by codec.* metric name
  double library_s = 0;  ///< untraced walls of the exactly replayed calls
  double calls = 0;      ///< untraced library calls
  double minor_faults = 0;
  double sys_s = 0;
  double pf_blocks = 0;
  double pf_blocks_caller = 0;
  double rounds = 0;  ///< per-layer seconds are reported per round (deck pass)
  std::vector<double> region_ms, preview_ms;  ///< untraced partial reads
  int next_op = 0;

  /// Time one untraced library call; adds its minor faults, kernel time
  /// and parallel_for counters.
  template <class F>
  double call(qip::ThreadPool* pool, F&& f) {
    if (pool) pool->reset_scheduler_stats();
    const Usage u0 = process_usage();
    const double t0 = now_s();
    f();
    const double wall = now_s() - t0;
    const Usage u1 = process_usage();
    calls += 1;
    minor_faults += u1.minor_faults - u0.minor_faults;
    sys_s += u1.sys_s - u0.sys_s;
    if (pool) {
      const qip::ThreadPool::SchedulerStats st = pool->scheduler_stats();
      pf_blocks += static_cast<double>(st.pf_blocks);
      pf_blocks_caller += static_cast<double>(st.pf_blocks_caller);
    }
    return wall;
  }

  void keep(int op, double wall) {
    exact.push_back(op);
    library_s += wall;
  }
};

/// A codec's compress through the library, checked against `expect`,
/// then replayed at `pool`'s width and at width 1.
template <class T, class F>
void traced_compress(TraceRun& r, const std::string& codec, const T* data,
                     const qip::Dims& dims, const std::vector<std::uint8_t>& expect,
                     qip::ThreadPool* pool, Checker& chk, F&& compress) {
  const int id = r.next_op++;
  std::vector<std::uint8_t> arc;
  const double w = r.call(pool, [&] { arc = compress(); });
  r.codec_s["codec." + codec + ".compress_s"] += w;
  chk.op(arc == expect, codec + " compress differs from the set-up archive");
  const std::optional<ReplayConfig> rc = parse_replay_config(arc);
  if (!rc) return;
  const auto a_full = replay_compress(r.full, id, data, dims, *rc, pool, r.counts);
  const auto a_serial = replay_compress(r.serial, id, data, dims, *rc, nullptr, r.serial_counts);
  chk.op(a_full == a_serial, codec + " compress: width-1 and full-width replays differ");
  chk.op(a_full == arc, codec + " compress: the layer replay does not reproduce the archive");
  if (a_full == arc) {
    r.keep(id, w);
    if (codec == "QoZ") r.tuned.emplace_back(id, w);
  }
  lzb_replay_encode(arc, pool, r.counts);
}

/// A codec's allocating full decode, checked against the bound `eb`
/// around `original` and against `expect` (the set-up decode), then
/// replayed.
template <class T>
void traced_decompress(TraceRun& r, const std::string& codec,
                       std::span<const std::uint8_t> arc, const qip::Field<T>& original,
                       double eb, const qip::Field<T>& expect, qip::ThreadPool* pool,
                       Checker& chk) {
  const int id = r.next_op++;
  qip::Field<T> dec;
  const double w = r.call(pool, [&] { dec = decode_full<T>(codec, arc, pool); });
  r.codec_s["codec." + codec + ".decompress_s"] += w;
  chk.op(within_bound(original.span(), dec.span(), eb) && bit_equal(dec, expect),
         codec + " decode breaks the bound or differs from the set-up decode");
  const std::optional<ReplayConfig> rc = parse_replay_config(arc);
  if (!rc) return;
  const qip::Field<T> d_full = replay_decompress<T>(r.full, id, arc, *rc, pool, r.counts);
  const qip::Field<T> d_serial =
      replay_decompress<T>(r.serial, id, arc, *rc, nullptr, r.serial_counts);
  chk.op(bit_equal(d_full, d_serial), codec + " decode: width-1 and full-width replays differ");
  chk.op(bit_equal(d_full, dec), codec + " decode: the layer replay does not reproduce the decode");
  if (bit_equal(d_full, dec)) r.keep(id, w);
  lzb_replay_decode(arc, pool, r.counts);
}

/// A region read (`region` set) or a level-`level` preview through the
/// registry, checked against `expect`, then replayed.
void traced_read(TraceRun& r, const std::string& codec, std::span<const std::uint8_t> arc,
                 const qip::Box* region, int level, const qip::Field<float>& expect,
                 qip::ThreadPool* pool, Checker& chk);

/// The per-layer metrics of a traced run. Metrics a workload cannot
/// measure (tuner.s without a tuned codec, region.read_ms without region
/// reads, ...) are left out. Throws when no call was replayed exactly,
/// so a run without layer figures reports none.
std::vector<Metric> layer_metrics(TraceRun& r, const HostProbe& probe, double steal);

}  // namespace pb
