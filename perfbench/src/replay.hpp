#pragma once

// Layer replays for the traced run. Each function repeats what the
// library's stage driver (compressors/core/driver.hpp) does for the
// standard interpolation archive layout, calling the same public layer
// functions with the same pool pattern, and wraps every layer call in a
// span:
//
//   InterpEngine<T>::encode / decode / decode_tile   -> interp.*
//   huffman_encode / huffman_decode per chunk        -> huffman.*
//   ContainerWriter::seal, ContainerReader, chunk_bytes -> container.*
//   input copy, output allocation, predictor sampling, crop -> driver.*
//
// Each replay is an operation's root span ("op.<kind>").
//
// The plan, bound, radius and QP configuration are read back from the
// archive the library produced, so a replay reproduces exactly the
// archive's bytes (compress) or decoded values (decode) — the caller
// checks that and reports a layer only when it does. LZB runs inside
// ContainerWriter::seal and ContainerReader::chunk_bytes and cannot be
// split from outside; lzb_replay_* re-run lzb_compress / lzb_decompress
// on the same frames with the same pool pattern and are reported as
// replays, not as spans of the operation.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "compressors/core/container.hpp"
#include "compressors/core/driver.hpp"
#include "compressors/interp_engine.hpp"
#include "compressors/plan.hpp"
#include "compressors/sz3.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace pb {

/// What a replay needs from the library's archive: the codec, its
/// interpolation configuration and the tile edge it committed.
struct ReplayConfig {
  qip::CompressorId codec{};
  qip::InterpCommon common;
  bool has_predictor = false;  ///< SZ3 layout: predictor byte after the prefix
  qip::SZ3Predictor predictor = qip::SZ3Predictor::kInterpolation;
  qip::InterpPlan plan;
  std::size_t tile_size = 0;
};

/// Counts gathered while replaying; summed over operations.
struct LayerCounts {
  double compress_ops = 0;
  double encoded_symbols = 0;  ///< symbols Huffman-coded by compress replays
  double huffman_bytes = 0;    ///< Huffman frame bytes those produced
  double max_chunk_share = 0;  ///< sum over compress ops of the largest chunk's share
  double lzb_in_bytes = 0;     ///< Huffman bytes framed by the LZB replay
  double lzb_out_bytes = 0;    ///< LZB frame bytes (payload)
  double lzb_grown = 0;        ///< frames LZB made larger than their input
  double lzb_encode_s = 0;
  double lzb_decode_s = 0;
  std::vector<double> read_share;  ///< payload bytes read / archive bytes, per decode
};

/// Parse the kConfig stage of an SZ3 or QoZ archive. Returns nullopt for other codecs and for SZ3 archives that
/// committed the Lorenzo fallback, which these replays do not cover.
std::optional<ReplayConfig> parse_replay_config(std::span<const std::uint8_t> archive);

/// Replay a compress of `data` under `rc`; returns the sealed archive.
template <class T>
std::vector<std::uint8_t> replay_compress(Tracer& tr, int op, const T* data,
                                          const qip::Dims& dims,
                                          const ReplayConfig& rc,
                                          qip::ThreadPool* pool,
                                          LayerCounts& cnt);

/// Replay the allocating full decode (codec_open + the codec's decode).
template <class T>
qip::Field<T> replay_decompress(Tracer& tr, int op,
                                std::span<const std::uint8_t> archive,
                                const ReplayConfig& rc, qip::ThreadPool* pool,
                                LayerCounts& cnt);

/// Replay interp_region_core.
template <class T>
qip::Field<T> replay_region(Tracer& tr, int op,
                            std::span<const std::uint8_t> archive,
                            const ReplayConfig& rc, const qip::Box& box,
                            qip::ThreadPool* pool, LayerCounts& cnt);

/// Replay interp_preview_core.
template <class T>
qip::Field<T> replay_preview(Tracer& tr, int op,
                             std::span<const std::uint8_t> archive,
                             const ReplayConfig& rc, int level,
                             qip::ThreadPool* pool, LayerCounts& cnt);

/// lzb_compress over each Huffman frame of `archive` with seal's pool
/// pattern, re-deriving the frames by decoding the archive's chunks.
/// Adds the wall time to cnt.lzb_encode_s and the byte counts to cnt.
void lzb_replay_encode(std::span<const std::uint8_t> archive,
                       qip::ThreadPool* pool, LayerCounts& cnt);

/// lzb_decompress over each payload frame with the driver's chunk-read
/// pool pattern; adds the wall time to cnt.lzb_decode_s.
void lzb_replay_decode(std::span<const std::uint8_t> archive,
                       qip::ThreadPool* pool, LayerCounts& cnt);

}  // namespace pb
