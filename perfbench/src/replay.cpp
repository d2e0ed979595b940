#include "replay.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common.hpp"
#include "compressors/lorenzo_path.hpp"
#include "encode/huffman.hpp"
#include "lossless/lzb.hpp"
#include "predict/multilevel.hpp"

namespace pb {

using namespace qip;

namespace {

/// The SZ3 front-end's sampled predictor choice (sz3.cpp): interpolation
/// versus Lorenzo on a centered 64^d box, by estimated archive bits.
template <class T>
SZ3Predictor select_predictor(const T* data, const Dims& dims,
                              const ReplayConfig& rc) {
  std::array<std::size_t, kMaxRank> ext{1, 1, 1, 1}, lo{0, 0, 0, 0};
  for (int a = 0; a < dims.rank(); ++a) {
    ext[a] = std::min<std::size_t>(dims.extent(a), 64);
    lo[a] = (dims.extent(a) - ext[a]) / 2;
  }
  Dims sd;
  switch (dims.rank()) {
    case 1: sd = Dims{ext[0]}; break;
    case 2: sd = Dims{ext[0], ext[1]}; break;
    case 3: sd = Dims{ext[0], ext[1], ext[2]}; break;
    default: sd = Dims{ext[0], ext[1], ext[2], ext[3]}; break;
  }
  Field<T> box_i(sd);
  std::array<std::size_t, kMaxRank> c{};
  for (c[0] = 0; c[0] < ext[0]; ++c[0])
    for (c[1] = 0; c[1] < ext[1]; ++c[1])
      for (c[2] = 0; c[2] < ext[2]; ++c[2])
        for (c[3] = 0; c[3] < ext[3]; ++c[3])
          box_i[sd.index(c[0], c[1], c[2], c[3])] =
              data[dims.index(lo[0] + c[0], lo[1] + c[1], lo[2] + c[2], lo[3] + c[3])];
  Field<T> box_l = box_i.clone();
  const double eb = rc.common.error_bound;
  LinearQuantizer<T> qi(eb, rc.common.radius);
  const InterpPlan plan = InterpPlan::uniform(
      interpolation_level_count(sd),
      rc.plan.levels.empty() ? LevelPlan{} : rc.plan.levels.front());
  const auto res = InterpEngine<T>::encode(box_i.data(), sd, plan, eb, qi, QPConfig{});
  const double bits_interp =
      static_cast<double>(huffman_cost_bits(res.symbols)) +
      static_cast<double>(qi.outlier_count()) * sizeof(T) * 8.0;
  LinearQuantizer<T> ql(eb, rc.common.radius);
  std::vector<std::uint32_t> lsym;
  lsym.reserve(sd.size());
  std::size_t cur = 0;
  lorenzo_walk<T, true>(box_l.data(), sd, ql, lsym, cur);
  const double bits_lorenzo =
      static_cast<double>(huffman_cost_bits(lsym)) +
      static_cast<double>(ql.outlier_count()) * sizeof(T) * 8.0;
  return bits_lorenzo < 0.95 * bits_interp ? SZ3Predictor::kLorenzo
                                           : SZ3Predictor::kInterpolation;
}

/// Decoded kConfig state of an archive.
template <class T>
struct Loaded {
  InterpCommon c;
  InterpPlan plan;
  LinearQuantizer<T> quant{1.0};
};

template <class T>
Loaded<T> load_config(const ContainerReader& in, const ReplayConfig& rc) {
  ByteReader h = in.stage(StageId::kConfig);
  Loaded<T> l;
  l.c = load_interp_common(h);
  if (rc.has_predictor) (void)h.get<std::uint8_t>();
  l.plan = InterpPlan::load(h);
  l.quant.set_error_bound(l.c.error_bound);
  l.quant.load(h);
  return l;
}

/// Run `one(i, pool_for_i)` for i in [0, n) with the driver's pattern:
/// fan out over the pool (inner calls get no pool) when there is more
/// than one unit, otherwise run inline and hand the pool down. Pool
/// tasks adopt the caller's current span as their parent.
template <class F>
void fan_out(std::size_t n, ThreadPool* pool, F&& one) {
  if (pool && n > 1) {
    const int parent = Tracer::current();
    pool->parallel_for(n, [&](std::size_t i) {
      Tracer::Adopt a(parent);
      one(i, static_cast<ThreadPool*>(nullptr));
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) one(i, pool);
  }
}

/// read_symbols_stage for chunks [0, n): each chunk's frame is read
/// (container.chunk_bytes) and Huffman-decoded into its slot.
std::vector<std::uint32_t> read_chunks(Tracer& tr, int op,
                                       const ContainerReader& in,
                                       std::size_t n, ThreadPool* pool) {
  Tracer::Scope stage(tr, "driver.read_symbols", op);
  const std::vector<ChunkEntry>& chunks = in.directory().chunks;
  std::vector<std::size_t> offsets(n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (chunks[i].symbol_count == 0)
      throw DecodeError("raw payload chunk in a symbol-stream archive");
    offsets[i] = total;
    total += chunks[i].symbol_count;
  }
  std::vector<std::uint32_t> symbols;
  {
    Tracer::Scope s(tr, "driver.symbols_alloc", op);
    symbols.resize(total);
  }
  fan_out(n, pool, [&](std::size_t i, ThreadPool* p) {
    std::vector<std::uint8_t> frame;
    {
      Tracer::Scope s(tr, "container.chunk_bytes", op);
      frame = in.chunk_bytes(i);
    }
    std::vector<std::uint32_t> syms;
    {
      Tracer::Scope s(tr, "huffman.decode", op);
      syms = huffman_decode(frame, p);
    }
    if (syms.size() != chunks[i].symbol_count)
      throw DecodeError("payload chunk symbol count mismatch");
    Tracer::Scope s(tr, "driver.symbols_copy", op);
    std::copy(syms.begin(), syms.end(), symbols.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
  });
  return symbols;
}

void open_reader(Tracer& tr, int op, std::optional<ContainerReader>& in,
                 std::span<const std::uint8_t> archive, const ReplayConfig& rc,
                 std::uint8_t dtype, ThreadPool* pool) {
  Tracer::Scope s(tr, "container.open", op);
  in.emplace(archive, rc.codec, dtype, ContainerReader::kNoBodyCap, pool);
}

}  // namespace

std::optional<ReplayConfig> parse_replay_config(std::span<const std::uint8_t> archive) {
  const ContainerReader in(archive);
  ReplayConfig rc;
  rc.codec = in.codec();
  if (rc.codec != CompressorId::kSZ3 && rc.codec != CompressorId::kQoZ) return std::nullopt;
  if (in.version() < 3) return std::nullopt;
  ByteReader h = in.stage(StageId::kConfig);
  rc.common = load_interp_common(h);
  if (rc.codec == CompressorId::kSZ3) {
    rc.has_predictor = true;
    rc.predictor = static_cast<SZ3Predictor>(h.get<std::uint8_t>());
    if (rc.predictor != SZ3Predictor::kInterpolation) return std::nullopt;
  }
  rc.plan = InterpPlan::load(h);
  rc.tile_size = in.directory().tiling.tile_size;
  return rc;
}

template <class T>
std::vector<std::uint8_t> replay_compress(Tracer& tr, int op, const T* data,
                                          const Dims& dims,
                                          const ReplayConfig& rc,
                                          ThreadPool* pool, LayerCounts& cnt) {
  Tracer::Scope root(tr, "op.compress", op);
  const double eb = rc.common.error_bound;
  ContainerWriter out(rc.codec, dtype_tag<T>(), dims);
  if (rc.has_predictor) {
    Tracer::Scope s(tr, "driver.select_predictor", op);
    if (select_predictor(data, dims, rc) != rc.predictor) return {};
  }
  const TileLayout tiles = interp_tile_layout(rc.tile_size, dims, rc.plan);
  std::vector<T> work;
  {
    Tracer::Scope s(tr, "driver.input_copy", op);
    work.assign(data, data + dims.size());
  }
  LinearQuantizer<T> quant(eb, rc.common.radius);
  std::vector<SymbolSpan> spans;
  typename InterpEngine<T>::EncodeResult res;
  {
    Tracer::Scope s(tr, "interp.encode", op);
    res = InterpEngine<T>::encode(work.data(), dims, rc.plan, eb, quant,
                                  rc.common.qp, false,
                                  tiles.active() ? &tiles : nullptr, &spans,
                                  pool);
  }
  ByteWriter& h = out.stage(StageId::kConfig);
  save_interp_common(h, eb, rc.common.radius, rc.common.qp);
  if (rc.has_predictor) h.put(static_cast<std::uint8_t>(rc.predictor));
  rc.plan.save(h);
  quant.save(h);
  out.set_tiling(tiles);

  std::vector<std::vector<std::uint8_t>> frames(spans.size());
  {
    Tracer::Scope s(tr, "huffman.encode", op);
    const std::span<const std::uint32_t> syms(res.symbols);
    fan_out(spans.size(), pool, [&](std::size_t i, ThreadPool* p) {
      Tracer::Scope c(tr, "huffman.encode_chunk", op);
      frames[i] = huffman_encode(syms.subspan(spans[i].begin, spans[i].count), p);
    });
  }
  std::size_t largest = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    largest = std::max(largest, spans[i].count);
    cnt.huffman_bytes += static_cast<double>(frames[i].size());
    out.add_chunk(spans[i].level, spans[i].tile, spans[i].count,
                  spans[i].outlier_count, std::move(frames[i]));
  }
  std::vector<std::uint8_t> arc;
  {
    Tracer::Scope s(tr, "container.seal", op);
    arc = out.seal(pool);
  }
  cnt.compress_ops += 1;
  cnt.encoded_symbols += static_cast<double>(res.symbols.size());
  if (!res.symbols.empty())
    cnt.max_chunk_share += static_cast<double>(largest) / static_cast<double>(res.symbols.size());
  return arc;
}

template <class T>
Field<T> replay_decompress(Tracer& tr, int op,
                           std::span<const std::uint8_t> archive,
                           const ReplayConfig& rc, ThreadPool* pool,
                           LayerCounts& cnt) {
  Tracer::Scope root(tr, "op.decompress", op);
  std::optional<ContainerReader> in;
  open_reader(tr, op, in, archive, rc, dtype_tag<T>(), pool);
  Loaded<T> l = load_config<T>(*in, rc);
  Field<T> out;
  {
    Tracer::Scope s(tr, "driver.output_alloc", op);
    out = Field<T>(in->dims());
  }
  const std::vector<std::uint32_t> symbols =
      read_chunks(tr, op, *in, in->chunk_count(), pool);
  {
    Tracer::Scope s(tr, "interp.decode", op);
    InterpEngine<T>::decode(symbols, in->dims(), l.plan, l.c.error_bound,
                            l.quant, l.c.qp, out.data(), archive_tiles(*in),
                            /*stop_level=*/1, pool);
  }
  cnt.read_share.push_back(static_cast<double>(in->payload_bytes_read()) /
                           static_cast<double>(archive.size()));
  return out;
}

template <class T>
Field<T> replay_region(Tracer& tr, int op, std::span<const std::uint8_t> archive,
                       const ReplayConfig& rc, const Box& box,
                       ThreadPool* pool, LayerCounts& cnt) {
  Tracer::Scope root(tr, "op.region", op);
  std::optional<ContainerReader> in;
  open_reader(tr, op, in, archive, rc, dtype_tag<T>(), pool);
  Loaded<T> l = load_config<T>(*in, rc);
  const TileLayout* tiles = archive_tiles(*in);
  if (!tiles) throw DecodeError("archive has no tile directory");
  const Dims& dims = in->dims();
  const Box b = validate_region(box, dims);
  const std::vector<ChunkEntry>& chunks = in->directory().chunks;
  std::size_t first_tiled = 0;
  while (first_tiled < chunks.size() && chunks[first_tiled].level > tiles->max_level)
    ++first_tiled;
  const std::vector<std::uint32_t> symbols =
      read_chunks(tr, op, *in, first_tiled, pool);
  Field<T> full;
  {
    Tracer::Scope s(tr, "driver.output_alloc", op);
    full = Field<T>(dims);
  }
  {
    Tracer::Scope s(tr, "interp.decode", op);
    InterpEngine<T>::decode(symbols, dims, l.plan, l.c.error_bound, l.quant,
                            l.c.qp, full.data(), tiles, tiles->max_level + 1,
                            pool);
  }
  const TileGrid grid(dims, tiles->tile_size);
  std::size_t band = first_tiled;
  while (band < chunks.size()) {
    std::size_t band_end = band;
    while (band_end < chunks.size() && chunks[band_end].level == chunks[band].level)
      ++band_end;
    std::vector<std::size_t> picked;
    for (std::size_t i = band; i < band_end; ++i) {
      const Box tb = grid.box(chunks[i].tile, dims);
      bool overlaps = true;
      for (int a = 0; a < dims.rank(); ++a)
        overlaps = overlaps && tb.lo[a] < b.hi[a] && b.lo[a] < tb.hi[a];
      if (overlaps) picked.push_back(i);
    }
    Tracer::Scope s(tr, "driver.tile_band", op);
    fan_out(picked.size(), pool, [&](std::size_t k, ThreadPool* p) {
      const ChunkEntry& ce = chunks[picked[k]];
      std::vector<std::uint8_t> frame;
      {
        Tracer::Scope c(tr, "container.chunk_bytes", op);
        frame = in->chunk_bytes(picked[k]);
      }
      std::vector<std::uint32_t> syms;
      {
        Tracer::Scope c(tr, "huffman.decode", op);
        syms = huffman_decode(frame, p);
      }
      LinearQuantizer<T> vq = LinearQuantizer<T>::view_of(l.quant);
      vq.set_outlier_cursor(ce.outlier_start);
      Tracer::Scope c(tr, "interp.tile_decode", op);
      InterpEngine<T>::decode_tile(syms, dims, l.plan, l.c.error_bound, vq,
                                   l.c.qp, full.data(), *tiles, ce.level,
                                   grid.box(ce.tile, dims));
    });
    band = band_end;
  }
  cnt.read_share.push_back(static_cast<double>(in->payload_bytes_read()) /
                           static_cast<double>(archive.size()));

  Tracer::Scope crop(tr, "driver.crop", op);
  std::size_t e[kMaxRank] = {1, 1, 1, 1};
  for (int a = 0; a < dims.rank(); ++a) e[a] = b.hi[a] - b.lo[a];
  Dims rd;
  switch (dims.rank()) {
    case 1: rd = Dims{e[0]}; break;
    case 2: rd = Dims{e[0], e[1]}; break;
    case 3: rd = Dims{e[0], e[1], e[2]}; break;
    default: rd = Dims{e[0], e[1], e[2], e[3]}; break;
  }
  Field<T> out(rd);
  std::array<std::size_t, kMaxRank> c2{};
  for (c2[0] = 0; c2[0] < e[0]; ++c2[0])
    for (c2[1] = 0; c2[1] < e[1]; ++c2[1])
      for (c2[2] = 0; c2[2] < e[2]; ++c2[2])
        for (c2[3] = 0; c2[3] < e[3]; ++c2[3])
          out.data()[rd.index(c2[0], c2[1], c2[2], c2[3])] =
              full.data()[dims.index(b.lo[0] + c2[0], b.lo[1] + c2[1],
                                     b.lo[2] + c2[2], b.lo[3] + c2[3])];
  return out;
}

template <class T>
Field<T> replay_preview(Tracer& tr, int op, std::span<const std::uint8_t> archive,
                        const ReplayConfig& rc, int level, ThreadPool* pool,
                        LayerCounts& cnt) {
  Tracer::Scope root(tr, "op.preview", op);
  std::optional<ContainerReader> in;
  open_reader(tr, op, in, archive, rc, dtype_tag<T>(), pool);
  Loaded<T> l = load_config<T>(*in, rc);
  const std::vector<ChunkEntry>& chunks = in->directory().chunks;
  std::size_t n = 0;
  while (n < chunks.size() && chunks[n].level >= level) ++n;
  const std::vector<std::uint32_t> symbols = read_chunks(tr, op, *in, n, pool);
  Field<T> full;
  {
    Tracer::Scope s(tr, "driver.output_alloc", op);
    full = Field<T>(in->dims());
  }
  {
    Tracer::Scope s(tr, "interp.decode", op);
    InterpEngine<T>::decode(symbols, in->dims(), l.plan, l.c.error_bound,
                            l.quant, l.c.qp, full.data(), archive_tiles(*in),
                            level, pool);
  }
  cnt.read_share.push_back(static_cast<double>(in->payload_bytes_read()) /
                           static_cast<double>(archive.size()));
  Tracer::Scope s(tr, "driver.decimate", op);
  return decimate_to_level(full.data(), in->dims(), level);
}

namespace {

/// The archive's payload frames, in directory order.
std::vector<std::span<const std::uint8_t>> payload_frames(
    std::span<const std::uint8_t> archive, const ContainerReader& in) {
  const std::span<const std::uint8_t> payload =
      archive.subspan(archive.size() - in.payload_bytes_available());
  std::vector<std::span<const std::uint8_t>> frames;
  for (const ChunkEntry& c : in.directory().chunks)
    frames.push_back(payload.subspan(static_cast<std::size_t>(c.offset),
                                     static_cast<std::size_t>(c.length)));
  return frames;
}

}  // namespace

void lzb_replay_encode(std::span<const std::uint8_t> archive, ThreadPool* pool,
                       LayerCounts& cnt) {
  const ContainerReader in(archive);
  const auto framed = payload_frames(archive, in);
  std::vector<std::vector<std::uint8_t>> raw(framed.size());
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = in.chunk_bytes(i);
  std::vector<std::vector<std::uint8_t>> out(raw.size());
  const double t0 = now_s();
  if (pool && raw.size() > 1) {
    pool->parallel_for(raw.size(), [&](std::size_t i) { out[i] = lzb_compress(raw[i], nullptr); });
  } else {
    for (std::size_t i = 0; i < raw.size(); ++i) out[i] = lzb_compress(raw[i], pool);
  }
  cnt.lzb_encode_s += now_s() - t0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (!std::equal(out[i].begin(), out[i].end(), framed[i].begin(), framed[i].end()))
      throw DecodeError("lzb replay does not reproduce the archive frame");
    cnt.lzb_in_bytes += static_cast<double>(raw[i].size());
    cnt.lzb_out_bytes += static_cast<double>(out[i].size());
    if (out[i].size() > raw[i].size()) cnt.lzb_grown += 1;
  }
}

void lzb_replay_decode(std::span<const std::uint8_t> archive, ThreadPool* pool,
                       LayerCounts& cnt) {
  const ContainerReader in(archive);
  const auto framed = payload_frames(archive, in);
  std::vector<std::size_t> sizes(framed.size());
  const double t0 = now_s();
  if (pool && framed.size() > 1) {
    pool->parallel_for(framed.size(), [&](std::size_t i) {
      sizes[i] = lzb_decompress(framed[i], std::numeric_limits<std::uint64_t>::max(), pool).size();
    });
  } else {
    for (std::size_t i = 0; i < framed.size(); ++i)
      sizes[i] = lzb_decompress(framed[i], std::numeric_limits<std::uint64_t>::max(), pool).size();
  }
  cnt.lzb_decode_s += now_s() - t0;
}

template std::vector<std::uint8_t> replay_compress<float>(Tracer&, int, const float*,
                                                          const Dims&, const ReplayConfig&,
                                                          ThreadPool*, LayerCounts&);
template Field<float> replay_decompress<float>(Tracer&, int, std::span<const std::uint8_t>,
                                               const ReplayConfig&, ThreadPool*, LayerCounts&);
template Field<float> replay_region<float>(Tracer&, int, std::span<const std::uint8_t>,
                                           const ReplayConfig&, const Box&, ThreadPool*,
                                           LayerCounts&);
template Field<float> replay_preview<float>(Tracer&, int, std::span<const std::uint8_t>,
                                            const ReplayConfig&, int, ThreadPool*, LayerCounts&);

}  // namespace pb
