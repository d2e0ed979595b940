// serve-small: a serve::Service over a pool of nproc - 1 workers, fed by
// the calling thread with blocking admission in a closed loop.
//
// The deck is a fixed multiset of small jobs (every seed serves the same
// multiset; the seed shuffles each deck and places the region boxes):
//  * compress + decompress with SZ3+QP, QoZ+QP and ZFP on Miranda 32^3
//    (x4 per deck), 48^3 (x2) and 64^3 (x1) f32;
//  * chunked SZ3+QP compress + decompress of the 64^3 field;
//  * level-2 previews (x2) and 32^3 region reads (4 boxes x2) of a tiled
//    SZ3+QP 64^3 archive.
// The largest input is 1 MiB, below large_job_bytes, so every job runs
// at width 1 and the pool's parallelism is across jobs. A deck is
// submitted whole and waited for; the probe runs between decks, while
// the pool is idle. Every served output is compared byte for byte with a
// serial direct call made at set-up.

#include <deque>
#include <limits>
#include <memory>
#include <random>

#include "compressors/registry.hpp"
#include "compressors/sz3.hpp"
#include "data/synthetic.hpp"
#include "layers.hpp"
#include "parallel/chunked.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace pb {

using namespace qip;

namespace {

/// Set-up takes ~0.5 s and moves ~10% between repetitions in a run, so
/// setup_s is the median of nine (bulk-sz3qp's ~7 s set-up uses three).
constexpr int kSetupReps = 9;
constexpr double kErrorBound = 1e-3;
constexpr std::size_t kMinDecks = 20;
constexpr double kHardLimit = 2.0;  ///< x --seconds, while waiting for kMinDecks
constexpr std::size_t kTile = 32;
/// The traced run's open-loop phase: Poisson arrivals at a fixed rate
/// (about a third of the 460-476 jobs/s closed-loop rate this deck
/// reaches on the 4-vCPU host the benchmark was calibrated on),
/// reject-on-full admission, and
/// enough jobs that p99 has ten samples beyond it.
constexpr double kOpenRate = 150.0;
constexpr std::size_t kOpenJobs = 1000;
constexpr std::size_t kTracedDecks = 10;

enum class Kind { kCompress, kDecompress, kChunked, kPreview, kRegion };
constexpr const char* kKindNames[] = {"compress", "decompress", "chunked", "preview", "region"};

struct Template {
  serve::JobSpec spec;  ///< input spans borrow from ServeState storage
  Kind kind = Kind::kCompress;
  int weight = 1;                    ///< copies per deck
  std::vector<std::uint8_t> expect;  ///< the serial direct call's output bytes
  std::size_t raw_bytes = 0;         ///< scalars in (compress) or out (decode side)
  // For the traced run's layer replays (interpolation codecs only).
  std::string codec;                  ///< "" when there is no replay
  const Field<float>* field = nullptr;  ///< compress input / decode reference
  Field<float> out;                   ///< decode-side expected output
};

struct ServeState {
  std::unique_ptr<ThreadPool> pool;
  std::deque<Field<float>> fields;              ///< stable addresses
  std::deque<std::vector<std::uint8_t>> blobs;  ///< raw dumps and archives
  std::vector<Template> templates;
  std::size_t deck_size = 0;
  Field<float> tiled_full;  ///< full decode of the tiled archive
};

/// The raw scalars of a field, as a served decode job returns them.
std::vector<std::uint8_t> to_bytes(const Field<float>& f) {
  std::vector<std::uint8_t> b(f.size() * sizeof(float));
  if (!b.empty()) std::memcpy(b.data(), f.data(), b.size());
  return b;
}

std::span<const std::uint8_t> keep(ServeState& s, std::vector<std::uint8_t> b) {
  s.blobs.push_back(std::move(b));
  return s.blobs.back();
}

GenericOptions opts(bool qp) {
  GenericOptions o;
  o.error_bound = kErrorBound;
  if (qp) o.qp = QPConfig::best_fit();
  return o;
}

void add_codec_jobs(ServeState& s, const Field<float>& f, std::span<const std::uint8_t> raw,
                    const char* codec, int weight) {
  const CompressorEntry& e = find_compressor(codec);
  const bool interp = std::string(codec) != "ZFP";
  Template c;
  c.kind = Kind::kCompress;
  c.weight = weight;
  c.spec.kind = serve::JobKind::kCompress;
  c.spec.codec = codec;
  c.spec.input = raw;
  c.spec.dims = f.dims();
  c.spec.options = opts(interp);
  c.expect = e.compress_f32(f.data(), f.dims(), c.spec.options);
  c.raw_bytes = raw.size();
  c.field = &f;
  if (interp) c.codec = codec;
  const auto arc = keep(s, c.expect);
  s.templates.push_back(std::move(c));

  Template d;
  d.kind = Kind::kDecompress;
  d.weight = weight;
  d.spec.kind = serve::JobKind::kDecompress;
  d.spec.input = arc;
  d.out = e.decompress_f32(arc);
  d.expect = to_bytes(d.out);
  d.raw_bytes = d.expect.size();
  d.field = &f;
  if (interp) d.codec = codec;
  s.templates.push_back(std::move(d));
}

void add_chunked_jobs(ServeState& s, const Field<float>& f, std::span<const std::uint8_t> raw) {
  ChunkedOptions co;
  co.compressor = "SZ3";
  co.options = opts(true);
  co.workers = 1;
  Template c;
  c.kind = Kind::kChunked;
  c.spec.kind = serve::JobKind::kCompress;
  c.spec.codec = "SZ3";
  c.spec.chunked = true;
  c.spec.input = raw;
  c.spec.dims = f.dims();
  c.spec.options = co.options;
  c.expect = chunked_compress<float>(f.data(), f.dims(), co);
  c.raw_bytes = raw.size();
  const auto arc = keep(s, c.expect);
  s.templates.push_back(std::move(c));

  Template d;
  d.kind = Kind::kChunked;
  d.spec.kind = serve::JobKind::kDecompress;
  d.spec.input = arc;
  d.expect = to_bytes(chunked_decompress<float>(arc, 1, nullptr));
  d.raw_bytes = d.expect.size();
  s.templates.push_back(std::move(d));
}

/// Fields, reference outputs (serial direct calls), pool start, and a
/// warm-up pass of every template through a Service.
void setup(ServeState& s, std::uint64_t seed) {
  s.pool = std::make_unique<ThreadPool>(pool_workers());
  std::uint64_t fseed = 4;
  const Field<float>* f64 = nullptr;
  std::span<const std::uint8_t> raw64;
  for (std::size_t e : {32, 48, 64}) {
    s.fields.push_back(make_field(DatasetId::kMiranda, 0, Dims{e, e, e}, fseed++));
    const Field<float>& f = s.fields.back();
    const auto raw = keep(s, to_bytes(f));
    const int weight = e == 32 ? 4 : e == 48 ? 2 : 1;
    for (const char* codec : {"SZ3", "QoZ", "ZFP"}) add_codec_jobs(s, f, raw, codec, weight);
    f64 = &f;
    raw64 = raw;
  }
  add_chunked_jobs(s, *f64, raw64);

  // Tiled SZ3+QP archive for the partial reads, pinned to the
  // interpolation path (a Lorenzo archive has no levels or tiles).
  SZ3Config tiled;
  static_cast<CodecOptions&>(tiled) = opts(true);
  tiled.tile_size = kTile;
  tiled.auto_fallback = false;
  const auto tarc = keep(s, sz3_compress(f64->data(), f64->dims(), tiled));
  s.tiled_full = sz3_decompress<float>(tarc);
  const CompressorEntry& sz3 = find_compressor("SZ3");
  Template p;
  p.kind = Kind::kPreview;
  p.weight = 2;
  p.spec.kind = serve::JobKind::kPreview;
  p.spec.input = tarc;
  p.spec.level = 2;
  p.out = sz3.decompress_preview_f32(tarc, 2, nullptr);
  p.expect = to_bytes(p.out);
  p.codec = "SZ3";
  s.templates.push_back(std::move(p));
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
  for (int i = 0; i < 4; ++i) {
    Template r;
    r.kind = Kind::kRegion;
    r.weight = 2;
    r.spec.kind = serve::JobKind::kRegion;
    r.spec.input = tarc;
    for (int a = 0; a < 3; ++a) {
      r.spec.region.lo[a] = kTile * (rng() % (f64->dims().extent(a) / kTile));
      r.spec.region.hi[a] = r.spec.region.lo[a] + kTile;
    }
    r.out = sz3.decompress_region_f32(tarc, r.spec.region, nullptr);
    r.expect = to_bytes(r.out);
    r.codec = "SZ3";
    s.templates.push_back(std::move(r));
  }

  s.deck_size = 0;
  for (const Template& t : s.templates) s.deck_size += static_cast<std::size_t>(t.weight);

  serve::ServeOptions so;
  so.pool = s.pool.get();
  serve::Service svc(so);
  for (const Template& t : s.templates) (void)svc.submit(t.spec);
  svc.drain();
}

/// One shuffled deck, as template indices.
std::vector<std::size_t> shuffled_deck(const ServeState& s, std::mt19937_64& rng) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < s.templates.size(); ++i)
    for (int w = 0; w < s.templates[i].weight; ++w) order.push_back(i);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Per-job records of served jobs.
struct Served {
  std::vector<std::vector<double>> service_s;  ///< by template
  std::vector<double> queue_wait_ms;
  std::vector<std::vector<double>> service_ms = std::vector<std::vector<double>>(5);  ///< by kind
  std::size_t completed = 0;
};

void finish(const ServeState& s, std::size_t tmpl, serve::JobResult r, Served& log,
            Checker& chk) {
  const Template& t = s.templates[tmpl];
  const bool ok = r.metrics.ok && r.bytes == t.expect;
  chk.op(ok, std::string("serve: ") + kKindNames[static_cast<int>(t.kind)] +
                 " job output differs from the serial call" +
                 (r.metrics.ok ? "" : ": " + r.metrics.error));
  ++log.completed;
  log.queue_wait_ms.push_back(1e3 * r.metrics.queue_wait_s);
  log.service_ms[static_cast<std::size_t>(t.kind)].push_back(1e3 * r.metrics.service_s);
  if (ok) log.service_s[tmpl].push_back(r.metrics.service_s);
}

/// Serve one deck closed-loop: submit every job with blocking admission,
/// then wait for all. Returns the deck's wall time.
double serve_deck(ServeState& s, serve::Service& svc, const std::vector<std::size_t>& order,
                  Served& log, Checker& chk) {
  std::vector<std::pair<std::size_t, std::future<serve::JobResult>>> inflight;
  inflight.reserve(order.size());
  const double t0 = now_s();
  for (std::size_t i : order) {
    std::optional<std::future<serve::JobResult>> fut = svc.submit(s.templates[i].spec);
    if (fut) inflight.emplace_back(i, std::move(*fut));
    else chk.op(false, "serve: blocking admission refused a job");
  }
  std::vector<serve::JobResult> results;
  results.reserve(inflight.size());
  for (auto& [i, fut] : inflight) results.push_back(fut.get());
  const double wall = now_s() - t0;
  for (std::size_t k = 0; k < inflight.size(); ++k)
    finish(s, inflight[k].first, std::move(results[k]), log, chk);
  return wall;
}

void describe_env(Outcome& o, const ServeState& s) {
  o.width = 1;
  for (const auto& b : s.blobs) o.working_set_bytes += b.size();
}

/// Served jobs are compared with set-up's serial direct calls. Those
/// decodes must hold the bound, and those partial reads must equal the
/// crop or decimation of the full decode.
void check_references(const ServeState& s, Checker& chk) {
  for (const Template& t : s.templates) {
    if (t.kind == Kind::kDecompress && !within_bound(t.field->span(), t.out.span(), kErrorBound))
      chk.op(false, "serve: a set-up decode breaks the bound");
    if (t.kind == Kind::kRegion && !bit_equal(t.out, crop3(s.tiled_full, t.spec.region)))
      chk.op(false, "serve: a set-up region read differs from the crop of the full decode");
    if (t.kind == Kind::kPreview &&
        !bit_equal(t.out, decimate_to_level(s.tiled_full.data(), s.tiled_full.dims(),
                                            t.spec.level)))
      chk.op(false, "serve: a set-up preview differs from the decimated full decode");
  }
}

Outcome timed(const Args& args) {
  Outcome o;
  ServeState s;
  const double setup_s =
      timed_setup(kSetupReps, s, [&](ServeState& st) { setup(st, args.seed); });
  describe_env(o, s);
  check_references(s, o.checks);
  HostProbe probe;
  reset_peak_rss();
  const CpuTicks ticks0 = cpu_ticks();

  serve::ServeOptions so;
  so.pool = s.pool.get();
  serve::Service svc(so);
  Served log;
  log.service_s.resize(s.templates.size());
  std::vector<double> deck_s;
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 100);
  probe.sample();
  const double end = now_s() + args.seconds;
  const double hard_end = now_s() + kHardLimit * args.seconds;
  while ((deck_s.size() < kMinDecks || now_s() < end) && now_s() < hard_end) {
    try {
      deck_s.push_back(serve_deck(s, svc, shuffled_deck(s, rng), log, o.checks));
      probe.after(deck_s.back());
    } catch (const std::exception& e) {
      o.checks.op(false, std::string("serve: ") + e.what());
    }
  }
  o.steal_share = steal_share(ticks0, cpu_ticks());
  o.probe = probe.note();

  // compress_mbps and decompress_mbps from each template's median
  // service time (one kind per template), weighted by the deck counts.
  std::vector<OpKind> kinds;
  double raw = 0, arc = 0;
  for (std::size_t i = 0; i < s.templates.size(); ++i) {
    const Template& t = s.templates[i];
    const bool comp = t.spec.kind == serve::JobKind::kCompress;
    const bool full = t.spec.kind == serve::JobKind::kDecompress;
    kinds.push_back({std::string(kKindNames[static_cast<int>(t.kind)]) + "#" + std::to_string(i),
                     comp ? OpKind::kCompress : full ? OpKind::kDecompress : OpKind::kRead,
                     static_cast<double>(t.weight), static_cast<double>(t.raw_bytes),
                     log.service_s[i]});
    if (comp) {
      raw += t.weight * static_cast<double>(t.raw_bytes);
      arc += t.weight * static_cast<double>(t.expect.size());
    }
  }
  const DeckFigures f = deck_figures(kinds);
  const Summary decks = summarize(deck_s);
  o.metrics = {
      throughput("compress_mbps", "MB/s", f.compress_mbps, f.compress_samples, probe,
                 "raw MB of a deck's compress jobs (plain and chunked) / sum of their templates' "
                 "median service_s x count; " + kinds_note(kinds)),
      throughput("decompress_mbps", "MB/s", f.decompress_mbps, f.decompress_samples, probe,
                 "MB a deck's full decodes reconstruct / sum of their templates' median service_s "
                 "x count"),
      throughput("ops_per_s", "ops/s", static_cast<double>(s.deck_size) / decks.p50, decks.n, probe,
                 std::to_string(s.deck_size) + " jobs / median closed-loop deck wall; decks " +
                     describe(decks, "s")),
  };
  add_footprint(o, raw, arc, setup_s, kSetupReps, probe);
  return o;
}

/// Percentile of latencies in which refused jobs are +inf; a percentile
/// that lands on a refused job reads 1e9 ms.
double latency_pct(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return std::isinf(v[i]) ? 1e9 : v[i];
}

/// The open-loop phase: kOpenJobs shuffled-deck jobs at Poisson arrivals
/// of kOpenRate with reject-on-full admission. Latency runs from each
/// job's scheduled send; a refused job counts as missing every limit.
struct OpenLoop {
  std::vector<double> latency_ms;
  double lag_max_ms = 0;
  std::uint64_t rejected = 0;
};

OpenLoop open_loop(ServeState& s, std::mt19937_64& rng, Served& log, Checker& chk) {
  serve::ServeOptions so;
  so.pool = s.pool.get();
  so.policy = serve::AdmitPolicy::kReject;
  serve::Service svc(so);
  std::vector<std::size_t> order;
  while (order.size() < kOpenJobs) {
    const std::vector<std::size_t> d = shuffled_deck(s, rng);
    order.insert(order.end(), d.begin(), d.end());
  }
  OpenLoop out;
  struct InFlight {
    std::future<serve::JobResult> fut;
    std::size_t tmpl;
    double due;
  };
  std::deque<InFlight> inflight;
  auto reap = [&](bool all) {
    while (!inflight.empty() &&
           (all || inflight.front().fut.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready)) {
      serve::JobResult r = inflight.front().fut.get();
      out.latency_ms.push_back(1e3 * (now_s() - inflight.front().due));
      finish(s, inflight.front().tmpl, std::move(r), log, chk);
      inflight.pop_front();
    }
  };
  std::exponential_distribution<double> gap(kOpenRate);
  double due = now_s();
  for (std::size_t i : order) {
    due += gap(rng);
    while (now_s() < due) {
      reap(false);
      const double left = due - now_s();
      if (left > 2e-4)
        std::this_thread::sleep_for(std::chrono::duration<double>(std::min(left - 1e-4, 1e-3)));
    }
    out.lag_max_ms = std::max(out.lag_max_ms, 1e3 * (now_s() - due));
    std::optional<std::future<serve::JobResult>> fut = svc.submit(s.templates[i].spec);
    if (fut) {
      inflight.push_back({std::move(*fut), i, due});
    } else {
      out.latency_ms.push_back(std::numeric_limits<double>::infinity());
      ++out.rejected;
    }
    reap(false);
  }
  reap(true);
  svc.drain();
  return out;
}

Outcome traced(const Args& args) {
  Outcome o;
  ServeState s;
  (void)timed_setup(1, s, [&](ServeState& st) { setup(st, args.seed); });
  describe_env(o, s);
  check_references(s, o.checks);
  HostProbe probe;
  const CpuTicks ticks0 = cpu_ticks();
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 100);
  const double end = now_s() + args.seconds;

  // Served phases: closed-loop decks, then the open loop.
  Served log;
  log.service_s.resize(s.templates.size());
  s.pool->reset_scheduler_stats();
  {
    serve::ServeOptions so;
    so.pool = s.pool.get();
    serve::Service svc(so);
    for (std::size_t d = 0; d < kTracedDecks; ++d) {
      probe.sample();
      (void)serve_deck(s, svc, shuffled_deck(s, rng), log, o.checks);
    }
  }
  const ThreadPool::SchedulerStats st = s.pool->scheduler_stats();
  const std::size_t closed_jobs = log.completed;
  const OpenLoop open = open_loop(s, rng, log, o.checks);

  // Layer replays of the deck's interpolation templates, at the width
  // the Service runs them (1).
  TraceRun r;
  while (r.rounds < 2 || now_s() < end) {
    for (const Template& t : s.templates) {
      if (t.codec.empty()) continue;
      try {
        if (t.spec.kind == serve::JobKind::kCompress) {
          const GenericOptions opt = t.spec.options;
          traced_compress(r, t.codec, t.field->data(), t.field->dims(), t.expect, nullptr,
                          o.checks, [&] {
                            return find_compressor(t.codec).compress_f32(t.field->data(),
                                                                         t.field->dims(), opt);
                          });
        } else if (t.spec.kind == serve::JobKind::kDecompress) {
          traced_decompress<float>(r, t.codec, t.spec.input, *t.field, kErrorBound, t.out,
                                   nullptr, o.checks);
        } else {
          const bool region = t.spec.kind == serve::JobKind::kRegion;
          traced_read(r, t.codec, t.spec.input, region ? &t.spec.region : nullptr, t.spec.level,
                      t.out, nullptr, o.checks);
        }
      } catch (const std::exception& e) {
        o.checks.op(false, std::string("serve trace: ") + e.what());
      }
    }
    r.rounds += 1;
    probe.sample();
  }
  o.steal_share = steal_share(ticks0, cpu_ticks());
  o.probe = probe.note();
  o.metrics = layer_metrics(r, probe, o.steal_share);

  // This workload's pool figures come from the served closed loop.
  for (Metric& m : o.metrics) {
    if (m.name == "pool.pf_blocks") {
      m.value = static_cast<double>(st.pf_blocks) /
                static_cast<double>(std::max<std::size_t>(1, closed_jobs));
      m.samples = closed_jobs;
      m.note = "parallel_for blocks per served job, closed loop";
    } else if (m.name == "pool.caller_drain_share") {
      m.value = st.pf_blocks ? static_cast<double>(st.pf_blocks_caller) /
                                   static_cast<double>(st.pf_blocks)
                             : 1.0;
      m.note = "parallel_for blocks the submitting thread drained / all blocks, served closed "
               "loop; 1 when no block ran on a worker's queue";
    }
  }
  const Summary w = summarize(log.queue_wait_ms);
  o.metrics.push_back({"serve.queue_wait_ms_p50", w.p50, "ms", w.n,
                       "admission to first worker touch, closed and open loop; " +
                           describe(w, "ms")});
  for (std::size_t k = 0; k < 5; ++k) {
    const Summary sv = summarize(log.service_ms[k]);
    o.metrics.push_back({std::string("serve.service_ms_p50.") + kKindNames[k], sv.p50, "ms", sv.n,
                         describe(sv, "ms")});
  }
  const std::string rate = std::to_string(kOpenRate) + " jobs/s Poisson, reject-on-full; " +
                           std::to_string(open.rejected) + " refused";
  o.metrics.push_back({"serve.open_latency_ms_p50", latency_pct(open.latency_ms, 50), "ms",
                       open.latency_ms.size(), rate});
  o.metrics.push_back({"serve.open_latency_ms_p99", latency_pct(open.latency_ms, 99), "ms",
                       open.latency_ms.size(), rate + "; a refused job reads 1e9"});
  o.metrics.push_back({"serve.generator_lag_ms_max", open.lag_max_ms, "ms", open.latency_ms.size(),
                       "scheduled send to submit call"});
  return o;
}

}  // namespace

Outcome run_serve(const Args& args) { return args.trace ? traced(args) : timed(args); }

}  // namespace pb
