// SpillCodec — the pluggable block codec behind on-disk trace segments.
//
// A segment file (segment.hpp) is framing: magic, header, then
// length-prefixed checksummed block payloads. The *codec* decides what the
// payload bytes are:
//
//   LMSG1  payload = a complete LMTR1 trace (binary_io) — row-major
//          delta/varint records. The original spill format; always
//          readable.
//   LMSG2  payload = per-column encoding of the sealed block: each column
//          is transformed (stream-delta, per-machine-delta or raw — see
//          spill_codec.cpp) into a token stream, then run-length + varint
//          coded. The block-local user table is written once and the
//          user_id column references it by index (dictionary reuse), as
//          do session flags. Typically ~3–5x smaller than LMSG1 on
//          simulated fleet traces because constant-delta columns (uptime,
//          boot_time, disk, SMART counters) collapse into runs.
//
// Codecs are stateless singletons safe to share across threads (encode
// scratch is thread-local), and both directions are loud about
// corruption: DecodeBlock validates every section length, token count and
// value range and fails with a diagnostic rather than truncating.
//
// Bit-fidelity contract: for any sealed block, Encode→Decode under either
// codec reproduces the exact sample values LMSG1 reproduces (cpu_idle_s
// goes through the same centisecond transform as LMTR1), so streams,
// hashes and analysis results are codec-independent and a checkpointed
// campaign may resume across codecs freely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "labmon/trace/block.hpp"
#include "labmon/util/expected.hpp"

namespace labmon::trace {

enum class SpillCodecId : std::uint8_t {
  kLmsg1 = 1,
  kLmsg2 = 2,
};

/// Codec used for newly written segments when the caller does not choose.
inline constexpr SpillCodecId kDefaultSpillCodec = SpillCodecId::kLmsg2;

/// "lmsg1" / "lmsg2" — the names accepted on the CLI and written into
/// checkpoint sidecars.
[[nodiscard]] const char* SpillCodecName(SpillCodecId id) noexcept;

/// Parses a codec name (as produced by SpillCodecName); nullopt when the
/// name is unknown.
[[nodiscard]] std::optional<SpillCodecId> ParseSpillCodecName(
    std::string_view name) noexcept;

/// Cumulative codec-side accounting, one direction (encode or decode).
/// `raw_bytes` is the in-memory columnar footprint of the blocks moved
/// (columns + user strings + iteration rows) — the denominator of the
/// compression ratio; `payload_bytes` is the encoded payload size
/// (excluding segment framing).
struct SpillCodecStats {
  std::uint64_t blocks = 0;
  std::uint64_t samples = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t ns = 0;  ///< thread CPU time spent encoding/decoding

  SpillCodecStats& operator+=(const SpillCodecStats& o) noexcept {
    blocks += o.blocks;
    samples += o.samples;
    raw_bytes += o.raw_bytes;
    payload_bytes += o.payload_bytes;
    ns += o.ns;
    return *this;
  }
};

/// In-memory columnar footprint of a block's contents — the "raw" side of
/// every compression ratio this module reports.
[[nodiscard]] std::uint64_t RawColumnBytes(const TraceStore& store) noexcept;
[[nodiscard]] std::uint64_t RawColumnBytes(const TraceBlock& block) noexcept;

class SpillCodec {
 public:
  virtual ~SpillCodec() = default;

  [[nodiscard]] virtual SpillCodecId id() const noexcept = 0;
  /// The 5-byte segment magic announcing this codec ("LMSG1"/"LMSG2").
  [[nodiscard]] virtual std::string_view magic() const noexcept = 0;

  /// Encodes one sealed block (samples + block-local user table +
  /// iteration rows) into `out` (cleared first). Pure in-memory transform;
  /// cannot fail.
  virtual void EncodeBlock(const TraceStore& block_store,
                           std::string& out) const = 0;

  /// Decodes one payload into `out` (cleared first). `machine_count` is
  /// the segment-header fleet size, used to bound machine ids. Iteration
  /// rows are numbered from zero within the payload (the segment reader
  /// restores stream-global numbering). Any structural problem — short or
  /// long sections, token counts that disagree with the header, values
  /// out of column range, trailing bytes — is an error, never silently
  /// short data.
  [[nodiscard]] virtual util::Result<bool> DecodeBlock(
      std::string_view payload, std::size_t machine_count,
      TraceBlock& out) const = 0;
};

/// The process-wide codec singleton for `id`.
[[nodiscard]] const SpillCodec& GetSpillCodec(SpillCodecId id) noexcept;

/// Codec whose segment magic is `magic`, or nullptr — how SegmentReader
/// dispatches on the bytes it finds, so spill directories may mix formats.
[[nodiscard]] const SpillCodec* FindSpillCodecByMagic(
    std::string_view magic) noexcept;

}  // namespace labmon::trace
