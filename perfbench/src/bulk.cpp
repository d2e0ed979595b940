// bulk-sz3qp: Miranda 256^3 f32 (64 MiB, generator seed 3) through the
// public SZ3 entry points with best-fit QP at absolute bound 1e-3,
// untiled, with a pool at full width (the caller plus nproc - 1
// workers). The deck is one compress and one full decode. The field is
// fixed, so --seed changes nothing here but the run's identity.

#include <memory>

#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "layers.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {

using namespace qip;

namespace {

constexpr std::size_t kEdge = 256;
constexpr double kErrorBound = 1e-3;
constexpr int kSetupReps = 3;
constexpr std::size_t kMinOps = 8;  ///< samples of each kind a run needs
constexpr double kHardLimit = 2.0;  ///< x --seconds, while waiting for them

struct BulkState {
  std::unique_ptr<ThreadPool> pool;
  Field<float> field;
  std::vector<std::uint8_t> archive;  ///< set-up archive every compress must equal
  Field<float> decoded;               ///< its decode, which every decode must equal
};

SZ3Config config(ThreadPool* pool) {
  SZ3Config c;
  c.error_bound = kErrorBound;
  c.qp = QPConfig::best_fit();
  c.pool = pool;
  return c;
}

/// Input generation, pool start, and the reference archive and decode,
/// which also warm the allocator and the codec's scratch caches.
void setup(BulkState& s) {
  s.pool = std::make_unique<ThreadPool>(pool_workers());
  s.field = make_field(DatasetId::kMiranda, 0, Dims{kEdge, kEdge, kEdge}, 3);
  s.archive = sz3_compress(s.field.data(), s.field.dims(), config(s.pool.get()));
  s.decoded = sz3_decompress<float>(s.archive, s.pool.get());
}

void describe_env(Outcome& o, const BulkState& s) {
  o.width = s.pool->size() + 1;  // the workers and the calling thread
  o.working_set_bytes = s.field.size() * sizeof(float);
}

Outcome timed(const Args& args) {
  Outcome o;
  BulkState s;
  const double setup_s = timed_setup(kSetupReps, s, setup);
  describe_env(o, s);
  if (!within_bound(s.field.span(), s.decoded.span(), kErrorBound))
    o.checks.op(false, "bulk: the set-up decode breaks the bound");
  HostProbe probe;
  reset_peak_rss();
  const CpuTicks ticks0 = cpu_ticks();

  const double raw = static_cast<double>(s.field.size() * sizeof(float));
  std::vector<OpKind> kinds = {{"SZ3 compress", OpKind::kCompress, 1, raw, {}},
                               {"SZ3 decompress", OpKind::kDecompress, 1, raw, {}}};
  ThreadPool* pool = s.pool.get();
  probe.sample();
  const double end = now_s() + args.seconds;
  const double hard_end = now_s() + kHardLimit * args.seconds;
  while ((kinds[0].secs.size() < kMinOps || now_s() < end) && now_s() < hard_end) {
    try {
      const double t0 = now_s();
      const std::vector<std::uint8_t> arc =
          sz3_compress(s.field.data(), s.field.dims(), config(pool));
      const double t1 = now_s();
      const Field<float> dec = sz3_decompress<float>(arc, pool);
      const double t2 = now_s();
      kinds[0].secs.push_back(t1 - t0);
      kinds[1].secs.push_back(t2 - t1);
      o.checks.op(arc == s.archive, "bulk: archive differs from the set-up archive");
      o.checks.op(within_bound(s.field.span(), dec.span(), kErrorBound) &&
                      bit_equal(dec, s.decoded),
                  "bulk: decode breaks the bound or differs from the set-up decode");
      probe.after(t2 - t0);
    } catch (const std::exception& e) {
      o.checks.op(false, std::string("bulk: ") + e.what());
    }
  }
  o.steal_share = steal_share(ticks0, cpu_ticks());
  o.probe = probe.note();

  const DeckFigures f = deck_figures(kinds);
  const std::string per_kind = kinds_note(kinds);
  o.metrics = {
      throughput("compress_mbps", "MB/s", f.compress_mbps, f.compress_samples, probe,
                 "raw MB / median compress call; " + per_kind),
      throughput("decompress_mbps", "MB/s", f.decompress_mbps, f.decompress_samples, probe,
                 "MB reconstructed / median full-decode call"),
      throughput("ops_per_s", "ops/s", f.ops_per_s, f.samples, probe,
                 "2 / (median compress + median decode)"),
  };
  add_footprint(o, raw, static_cast<double>(s.archive.size()), setup_s, kSetupReps, probe);
  return o;
}

Outcome traced(const Args& args) {
  Outcome o;
  BulkState s;
  (void)timed_setup(1, s, setup);
  describe_env(o, s);
  HostProbe probe;
  const CpuTicks ticks0 = cpu_ticks();
  ThreadPool* pool = s.pool.get();
  TraceRun r;
  probe.sample();
  const double end = now_s() + args.seconds;
  while (r.rounds < 2 || now_s() < end) {
    try {
      traced_compress(r, "SZ3", s.field.data(), s.field.dims(), s.archive, pool, o.checks,
                      [&] { return sz3_compress(s.field.data(), s.field.dims(), config(pool)); });
      traced_decompress<float>(r, "SZ3", s.archive, s.field, kErrorBound, s.decoded, pool,
                               o.checks);
    } catch (const std::exception& e) {
      o.checks.op(false, std::string("bulk trace: ") + e.what());
    }
    r.rounds += 1;
    probe.sample();
  }
  o.steal_share = steal_share(ticks0, cpu_ticks());
  o.probe = probe.note();
  o.metrics = layer_metrics(r, probe, o.steal_share);
  return o;
}

}  // namespace

Outcome run_bulk(const Args& args) { return args.trace ? traced(args) : timed(args); }

}  // namespace pb
