#pragma once

// Library calls shared by the workloads: the allocating full decode of
// SZ3 and QoZ with a pool, and the crop a region read must
// reproduce bit for bit.

#include <array>
#include <span>
#include <string>

#include "compressors/core/tiles.hpp"
#include "compressors/qoz.hpp"
#include "compressors/sz3.hpp"
#include "util/field.hpp"
#include "util/status.hpp"

namespace pb {

/// The codec's allocating decode (the `<codec>_decompress` users call)
/// with the pool handed to its stages.
template <class T>
qip::Field<T> decode_full(const std::string& codec,
                          std::span<const std::uint8_t> archive,
                          qip::ThreadPool* pool) {
  if (codec == "SZ3") return qip::sz3_decompress<T>(archive, pool);
  if (codec == "QoZ") return qip::qoz_decompress<T>(archive, pool);
  throw qip::DecodeError("perfbench: no allocating decode for " + codec);
}

/// The sub-box [b.lo, b.hi) of a rank-3 field.
template <class T>
qip::Field<T> crop3(const qip::Field<T>& f, const qip::Box& b) {
  const qip::Dims& d = f.dims();
  const qip::Dims rd{b.hi[0] - b.lo[0], b.hi[1] - b.lo[1], b.hi[2] - b.lo[2]};
  qip::Field<T> out(rd);
  for (std::size_t z = 0; z < rd.extent(0); ++z)
    for (std::size_t y = 0; y < rd.extent(1); ++y)
      for (std::size_t x = 0; x < rd.extent(2); ++x)
        out.data()[rd.index(z, y, x)] =
            f.data()[d.index(b.lo[0] + z, b.lo[1] + y, b.lo[2] + x)];
  return out;
}

}  // namespace pb
