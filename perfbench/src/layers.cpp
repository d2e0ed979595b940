#include "layers.hpp"

#include <numeric>
#include <stdexcept>

#include "compressors/registry.hpp"

namespace pb {

using namespace qip;

namespace {

double get(const std::map<std::string, double>& m, const char* k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void traced_read(TraceRun& r, const std::string& codec, std::span<const std::uint8_t> arc,
                 const Box* region, int level, const Field<float>& expect, ThreadPool* pool,
                 Checker& chk) {
  const int id = r.next_op++;
  const CompressorEntry& e = find_compressor(codec);
  Field<float> out;
  const double w = r.call(pool, [&] {
    out = region ? e.decompress_region_pool_f32(arc, *region, nullptr, pool)
                 : e.decompress_preview_pool_f32(arc, level, nullptr, pool);
  });
  (region ? r.region_ms : r.preview_ms).push_back(1e3 * w);
  const std::string what = codec + (region ? " region read" : " preview");
  chk.op(bit_equal(out, expect), what + " differs from the set-up reference");
  const std::optional<ReplayConfig> rc = parse_replay_config(arc);
  if (!rc) return;
  auto replay = [&](Tracer& tr, ThreadPool* p, LayerCounts& cnt) {
    return region ? replay_region<float>(tr, id, arc, *rc, *region, p, cnt)
                  : replay_preview<float>(tr, id, arc, *rc, level, p, cnt);
  };
  const Field<float> f = replay(r.full, pool, r.counts);
  const Field<float> s = replay(r.serial, nullptr, r.serial_counts);
  chk.op(bit_equal(f, s), what + ": width-1 and full-width replays differ");
  chk.op(bit_equal(f, out), what + ": the layer replay does not reproduce the read");
  if (bit_equal(f, out)) r.keep(id, w);
}

std::vector<Metric> layer_metrics(TraceRun& r, const HostProbe& probe, double steal) {
  if (r.exact.empty()) throw std::runtime_error("no library call was replayed exactly");
  std::sort(r.exact.begin(), r.exact.end());
  auto kept = [&](int id) { return std::binary_search(r.exact.begin(), r.exact.end(), id); };
  const std::vector<Span> fs = r.full.spans();
  const std::map<std::string, double> f = attribute(fs, kept);
  const std::map<std::string, double> s = attribute(r.serial.spans(), kept);
  const double replay_s = root_seconds(fs, kept);

  // Tuning time: a tuned codec's compress minus the replayed seal of the
  // plan its archive committed.
  double tuner_s = 0, tuned_library_s = 0, tuned_replay_s = 0;
  for (const auto& [id, wall] : r.tuned) {
    if (!kept(id)) continue;
    const double replayed = root_seconds(fs, [id = id](int x) { return x == id; });
    tuner_s += wall - replayed;
    tuned_library_s += wall;
    tuned_replay_s += replayed;
  }

  const double R = std::max(1.0, r.rounds);
  const LayerCounts& c = r.counts;
  auto per_round = [&](const char* k) { return get(f, k) / R; };
  const double interp_full = get(f, "interp.encode") + get(f, "interp.decode") +
                             get(f, "interp.tile_decode");
  const double interp_serial = get(s, "interp.encode") + get(s, "interp.decode") +
                               get(s, "interp.tile_decode");
  double covered = 0, uncovered = 0;
  for (const auto& [k, v] : f) (k.rfind("op.", 0) == 0 ? uncovered : covered) += v;
  const std::size_t calls = static_cast<std::size_t>(r.calls);
  const std::size_t rounds = static_cast<std::size_t>(R);

  std::vector<Metric> m = {
      {"interp.encode_s", per_round("interp.encode"), "s", rounds,
       "InterpEngine::encode on the blocking path, per round"},
      {"interp.decode_s", (get(f, "interp.decode") + get(f, "interp.tile_decode")) / R, "s",
       rounds, "InterpEngine::decode + decode_tile on the blocking path, per round"},
      {"interp.speedup", ratio(interp_serial, interp_full), "ratio", rounds,
       "width-1 replay / workload-width replay, interp spans"},
      {"huffman.encode_s", (get(f, "huffman.encode") + get(f, "huffman.encode_chunk")) / R, "s",
       rounds, "per-chunk huffman_encode, per round"},
      {"huffman.decode_s", per_round("huffman.decode"), "s", rounds,
       "per-chunk huffman_decode, per round"},
      {"huffman.max_chunk_share", ratio(c.max_chunk_share, c.compress_ops), "ratio", 0,
       "largest chunk's share of an archive's symbols, mean over compresses"},
      {"huffman.bits_per_symbol", ratio(8.0 * c.huffman_bytes, c.encoded_symbols), "bits", 0,
       "Huffman frame bits / symbols"},
      {"lzb.encode_s", c.lzb_encode_s / R, "s", rounds,
       "lzb_compress over the Huffman frames with seal's pool pattern, per round"},
      {"lzb.decode_s", c.lzb_decode_s / R, "s", rounds,
       "lzb_decompress over the payload frames with the chunk reads' pool pattern, per round"},
      {"lzb.gain", ratio(c.lzb_in_bytes, c.lzb_out_bytes), "ratio", 0,
       "Huffman bytes / framed bytes"},
      {"lzb.grown_chunks", c.lzb_grown / R, "count", 0,
       "frames LZB made larger than their Huffman input, per round"},
      {"container.seal_s", per_round("container.seal"), "s", rounds,
       "ContainerWriter::seal (includes its LZB framing), per round"},
      {"container.open_s", per_round("container.open"), "s", rounds,
       "ContainerReader constructor, per round"},
      {"container.read_share", ratio(std::accumulate(c.read_share.begin(), c.read_share.end(), 0.0),
                                     static_cast<double>(c.read_share.size())),
       "ratio", c.read_share.size(),
       "payload bytes read / archive bytes, mean over decode-side calls"},
      {"driver.minor_faults", ratio(r.minor_faults, r.calls), "count", calls,
       "getrusage around each untraced library call (process-wide), per call"},
      {"driver.sys_s", ratio(r.sys_s, r.calls), "s", calls,
       "kernel CPU time around each untraced library call (process-wide), per call"},
      {"driver.unattributed_s", uncovered / R, "s", rounds,
       "replayed call wall minus its layer spans, per round"},
      {"driver.coverage", ratio(covered + tuner_s, r.library_s), "ratio", 0,
       "(layer spans + tuner) / untraced library wall; above 1 by up to the tracing overhead"},
      {"pool.caller_drain_share",
       r.pf_blocks > 0 ? r.pf_blocks_caller / r.pf_blocks : 1.0, "ratio", 0,
       "parallel_for blocks the calling thread drained / all blocks, untraced library calls; "
       "1 when no block ran on a worker's queue (no pool, or width 1)"},
      {"pool.pf_blocks", ratio(r.pf_blocks, r.calls), "count", calls,
       "parallel_for blocks per untraced library call"},
      {"host.probe_ms", probe.median_ms(), "ms", probe.kept(), probe.note()},
      {"host.probe_discarded", static_cast<double>(probe.discarded()), "count", 0,
       "probe samples during which another thread of the process used CPU"},
      {"host.steal_share", steal, "ratio", 0, "share of the machine's CPU time stolen, whole run"},
      {"trace.overhead",
       ratio(replay_s - tuned_replay_s, r.library_s - tuned_library_s) - 1.0, "ratio",
       r.exact.size(),
       "traced replay wall / untraced library wall - 1, exactly replayed untuned calls"},
  };
  m.push_back({"trace.replayed_share", ratio(static_cast<double>(r.exact.size()), r.calls),
               "ratio", calls,
               "library calls whose layers were replayed exactly / traced library calls"});
  for (const auto& [k, v] : r.codec_s)
    m.push_back({k, v / R, "s", rounds, "untraced library call, per round"});
  if (!r.tuned.empty())
    m.push_back({"tuner.s", tuner_s / R, "s", rounds,
                 "tuned codecs' compress minus the replayed seal of their plan, per round"});
  if (!r.region_ms.empty())
    m.push_back({"region.read_ms", median(r.region_ms), "ms", r.region_ms.size(),
                 describe(summarize(r.region_ms), "ms")});
  if (!r.preview_ms.empty())
    m.push_back({"preview.read_ms", median(r.preview_ms), "ms", r.preview_ms.size(),
                 describe(summarize(r.preview_ms), "ms")});
  return m;
}

}  // namespace pb
