#include "labmon/trace/spill_codec.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "codec_detail.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/trace/binary_io.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::trace {

namespace {

constexpr std::string_view kLmsg1Magic = "LMSG1";
constexpr std::string_view kLmsg2Magic = "LMSG2";

// A corrupt count must fail fast, not drive a multi-gigabyte reserve. The
// user table and iteration rows bound their own counts by the bytes left
// (binary_io.hpp).
constexpr std::uint64_t kMaxSamples = std::uint64_t{1} << 32;

constexpr std::size_t kSpillColumnCount = [] {
  std::size_t n = 0;
  TraceStore::ForEachColumn([&n](auto) { ++n; });
  return n;
}();
// The LMSG2 transform tables below (EncodeBlock/DecodeBlock) are written
// out per column. If this fires, a column was added to (or removed from)
// TraceStore::Columns: give it a transform in both directions, a name in
// kColumnNames, and bump the LMSG2 version if old readers would misparse.
static_assert(kSpillColumnCount == 18,
              "TraceStore column set changed: update the LMSG2 spill codec");

constexpr const char* kColumnNames[kSpillColumnCount] = {
    "machine",          "iteration",
    "t",                "boot_time",
    "uptime_s",         "cpu_idle_s",
    "ram_mb",           "mem_load_pct",
    "swap_load_pct",    "disk_total_b",
    "disk_free_b",      "smart_power_on_hours",
    "smart_power_cycles", "net_sent_b",
    "net_recv_b",       "has_session",
    "session_logon",    "user_id"};

std::size_t VarintLen(std::uint64_t v) noexcept {
  std::size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

// ---------------------------------------------------------------------------
// Token-stream RLE layer. A column is first transformed into one u64 token
// per row, then coded as groups:
//   varint header h:  h & 1 == 1  ->  run of (h >> 1) copies of one
//                                     following varint token
//                     h & 1 == 0  ->  (h >> 1) literal varint tokens follow
// Groups are never empty; the decoder checks exact token counts and exact
// section byte counts, so a flipped length or header fails loudly.
// ---------------------------------------------------------------------------

constexpr std::size_t kMinRun = 3;

void RleEncode(const std::vector<std::uint64_t>& tokens, std::string& out) {
  const std::size_t n = tokens.size();
  const std::size_t hint = n + 16;  // ~1 byte/token once deltas collapse
  std::size_t lit_start = 0;
  const auto flush_literals = [&](std::size_t end) {
    if (end == lit_start) return;
    util::PutVarint(out, std::uint64_t{end - lit_start} << 1, hint);
    for (std::size_t k = lit_start; k < end; ++k) {
      util::PutVarint(out, tokens[k], hint);
    }
  };
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && tokens[j] == tokens[i]) ++j;
    if (j - i >= kMinRun) {
      flush_literals(i);
      util::PutVarint(out, (std::uint64_t{j - i} << 1) | 1, hint);
      util::PutVarint(out, tokens[i], hint);
      lit_start = j;
    }
    i = j;
  }
  flush_literals(n);
}

bool RleDecode(util::VarintReader& r, std::size_t expected,
               std::vector<std::uint64_t>& out, std::string& err) {
  out.clear();
  out.reserve(expected);
  while (out.size() < expected) {
    const auto header = r.Read();
    if (!header) {
      err = "truncated token group header";
      return false;
    }
    const std::uint64_t count = *header >> 1;
    if (count == 0 || count > expected - out.size()) {
      err = "token group overruns column";
      return false;
    }
    if (*header & 1) {
      const auto value = r.Read();
      if (!value) {
        err = "truncated run value";
        return false;
      }
      out.insert(out.end(), static_cast<std::size_t>(count), *value);
    } else {
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto value = r.Read();
        if (!value) {
          err = "truncated literal token";
          return false;
        }
        out.push_back(*value);
      }
    }
  }
  if (!r.AtEnd()) {
    err = "trailing bytes in column section";
    return false;
  }
  return true;
}

// Per-thread scratch so the stateless codec singletons stay shareable
// across shard workers without locking or steady-state allocation.
struct CodecScratch {
  std::vector<std::uint64_t> tokens;
  std::vector<std::uint64_t> prev;  ///< per-machine previous, u64 wrap domain
  std::string section;
};

CodecScratch& Scratch() {
  thread_local CodecScratch scratch;
  return scratch;
}

/// Bulk per-column byte accounting (encode side only; one pass per block).
void CountColumnBytes(const std::uint64_t (&raw)[kSpillColumnCount],
                      const std::uint64_t (&encoded)[kSpillColumnCount]) {
  obs::Registry& registry = obs::DefaultRegistry();
  for (std::size_t i = 0; i < kSpillColumnCount; ++i) {
    registry
        .GetCounter("labmon_spill_column_bytes_total",
                    "Per-column bytes through the LMSG2 spill encoder",
                    {{"column", kColumnNames[i]}, {"kind", "raw"}})
        .Increment(raw[i]);
    registry
        .GetCounter("labmon_spill_column_bytes_total",
                    "Per-column bytes through the LMSG2 spill encoder",
                    {{"column", kColumnNames[i]}, {"kind", "encoded"}})
        .Increment(encoded[i]);
    if (encoded[i] > 0) {
      registry
          .GetGauge("labmon_spill_column_ratio",
                    "Cumulative raw/encoded ratio per LMSG2 column",
                    {{"column", kColumnNames[i]}})
          .Set(static_cast<double>(raw[i]) / static_cast<double>(encoded[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// LMSG1: the original row-major LMTR1 payload, kept for compatibility.
// ---------------------------------------------------------------------------

class Lmsg1Codec final : public SpillCodec {
 public:
  [[nodiscard]] SpillCodecId id() const noexcept override {
    return SpillCodecId::kLmsg1;
  }
  [[nodiscard]] std::string_view magic() const noexcept override {
    return kLmsg1Magic;
  }

  void EncodeBlock(const TraceStore& block_store,
                   std::string& out) const override {
    out = SerializeTrace(block_store);
  }

  /// Decodes the payload straight into the block's columns (the payload
  /// header's machine count bounds the ids, as in DeserializeTrace).
  [[nodiscard]] util::Result<bool> DecodeBlock(
      std::string_view payload, std::size_t /*machine_count*/,
      TraceBlock& out) const override {
    const auto decoded = detail::DecodeLmtr1(payload, out);
    if (!decoded.ok()) return util::Result<bool>::Err(decoded.error());
    return true;
  }
};

// ---------------------------------------------------------------------------
// LMSG2: per-column transforms + RLE'd varint token streams.
//
// Payload layout:
//   varint sample_count, varint iteration_count, varint user_count
//   user table: { varint len, len bytes } x user_count
//   per column, in TraceStore::ForEachColumn order:
//     varint section_len, section bytes (RLE token groups, see above)
//   iteration rows: { zigzag d_start, zigzag d_end,
//                     varint attempts, varint successes } x iteration_count
//
// Column transforms (all delta arithmetic is u64 wraparound, so every
// 64-bit pattern round-trips without signed overflow):
//   machine, iteration, t           stream delta vs previous row (zigzag)
//   boot_time, uptime_s, ram_mb, mem_load_pct, swap_load_pct,
//   disk_total_b, disk_free_b, smart_power_on_hours, smart_power_cycles,
//   net_sent_b, net_recv_b, session_logon
//                                   delta vs the same machine's previous
//                                   row (zigzag); the machine column is
//                                   decoded first to rebuild the state
//   cpu_idle_s                      centiseconds (LMTR1's transform), then
//                                   per-machine delta
//   has_session                     raw 0/1 tokens
//   user_id                         raw, kNoUser -> 0, else id + 1
// ---------------------------------------------------------------------------

class Lmsg2Codec final : public SpillCodec {
 public:
  [[nodiscard]] SpillCodecId id() const noexcept override {
    return SpillCodecId::kLmsg2;
  }
  [[nodiscard]] std::string_view magic() const noexcept override {
    return kLmsg2Magic;
  }

  void EncodeBlock(const TraceStore& block_store,
                   std::string& out) const override;
  [[nodiscard]] util::Result<bool> DecodeBlock(
      std::string_view payload, std::size_t machine_count,
      TraceBlock& out) const override;
};

void Lmsg2Codec::EncodeBlock(const TraceStore& store, std::string& out) const {
  const TraceStore::Columns& c = store.columns();
  const std::size_t n = store.size();
  out.clear();
  out.reserve(n + 256);

  util::PutVarint(out, n);
  util::PutVarint(out, store.iterations().size());
  const std::span<const std::string> users = store.users();
  util::PutVarint(out, users.size());
  PutUserTable(out, users);

  CodecScratch& s = Scratch();
  std::uint32_t max_machine = 0;
  for (const std::uint32_t m : c.machine) max_machine = std::max(max_machine, m);

  std::uint64_t column_raw[kSpillColumnCount] = {};
  std::uint64_t column_encoded[kSpillColumnCount] = {};
  std::size_t col = 0;

  const auto emit = [&](std::size_t elem_size, auto&& fill) {
    s.tokens.clear();
    s.tokens.reserve(n);
    fill();
    s.section.clear();
    RleEncode(s.tokens, s.section);
    util::PutVarint(out, s.section.size(), s.section.size() + 16);
    out.append(s.section);
    column_raw[col] = n * elem_size;
    column_encoded[col] = s.section.size() + VarintLen(s.section.size());
    ++col;
  };

  const auto stream_delta = [&](const auto& v) {
    emit(sizeof(v[0]), [&] {
      std::uint64_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t cur = static_cast<std::uint64_t>(v[i]);
        s.tokens.push_back(
            util::ZigzagEncode(static_cast<std::int64_t>(cur - prev)));
        prev = cur;
      }
    });
  };
  const auto machine_delta_of = [&](std::size_t elem_size, auto&& value_of) {
    emit(elem_size, [&] {
      s.prev.assign(static_cast<std::size_t>(max_machine) + 1, 0);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t& prev = s.prev[c.machine[i]];
        const std::uint64_t cur = value_of(i);
        s.tokens.push_back(
            util::ZigzagEncode(static_cast<std::int64_t>(cur - prev)));
        prev = cur;
      }
    });
  };
  const auto machine_delta = [&](const auto& v) {
    machine_delta_of(sizeof(v[0]), [&](std::size_t i) {
      return static_cast<std::uint64_t>(v[i]);
    });
  };

  // Order must match TraceStore::ForEachColumn (see the static_assert).
  stream_delta(c.machine);
  stream_delta(c.iteration);
  stream_delta(c.t);
  machine_delta(c.boot_time);
  machine_delta(c.uptime_s);
  machine_delta_of(sizeof(double), [&](std::size_t i) {
    return static_cast<std::uint64_t>(
        detail::IdleCentiseconds(c.cpu_idle_s[i]));
  });
  machine_delta(c.ram_mb);
  machine_delta(c.mem_load_pct);
  machine_delta(c.swap_load_pct);
  machine_delta(c.disk_total_b);
  machine_delta(c.disk_free_b);
  machine_delta(c.smart_power_on_hours);
  machine_delta(c.smart_power_cycles);
  machine_delta(c.net_sent_b);
  machine_delta(c.net_recv_b);
  emit(sizeof(c.has_session[0]), [&] {
    for (std::size_t i = 0; i < n; ++i) {
      s.tokens.push_back(c.has_session[i]);
    }
  });
  machine_delta(c.session_logon);
  emit(sizeof(c.user_id[0]), [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t id = c.user_id[i];
      s.tokens.push_back(id == TraceStore::kNoUser
                             ? 0
                             : static_cast<std::uint64_t>(id) + 1);
    }
  });

  // Iteration rows, delta-coded against the previous row like LMTR1.
  PutIterationRows(out, store.iterations());

  CountColumnBytes(column_raw, column_encoded);
}

util::Result<bool> Lmsg2Codec::DecodeBlock(std::string_view payload,
                                           std::size_t machine_count,
                                           TraceBlock& out) const {
  using R = util::Result<bool>;
  out.Clear();
  util::VarintReader r(payload);

  const auto sample_count = r.Read();
  const auto iteration_count = r.Read();
  const auto user_count = r.Read();
  if (!sample_count || !iteration_count || !user_count) {
    return R::Err("truncated LMSG2 block header");
  }
  if (*sample_count > kMaxSamples) {
    return R::Err("implausible LMSG2 header counts");
  }
  const std::size_t n = static_cast<std::size_t>(*sample_count);

  auto users = ReadUserTable(r, *user_count);
  if (!users.ok()) return R::Err("LMSG2 " + users.error());
  out.users = std::move(users).value();

  CodecScratch& s = Scratch();
  std::size_t col = 0;
  std::string err;

  // Reads the next column's section into s.tokens (exactly n of them).
  const auto read_tokens = [&]() -> bool {
    const auto len = r.Read();
    if (!len) {
      err = "truncated section length";
      return false;
    }
    if (*len > r.remaining()) {
      err = "section overruns payload";
      return false;
    }
    util::VarintReader section(
        payload.substr(r.position(), static_cast<std::size_t>(*len)));
    if (!RleDecode(section, n, s.tokens, err)) return false;
    (void)r.Skip(static_cast<std::size_t>(*len));
    return true;
  };
  const auto column_error = [&]() {
    return R::Err(std::string("LMSG2 column '") + kColumnNames[col] + "': " +
                  err);
  };

  TraceStore::Columns& cols = out.cols;
  const std::uint64_t machine_bound = MachineIdBound(machine_count);

  // machine — decoded first: every per-machine delta column keys on it.
  if (!read_tokens()) return column_error();
  cols.machine.reserve(n);
  {
    std::uint64_t prev = 0;
    for (const std::uint64_t tok : s.tokens) {
      prev += static_cast<std::uint64_t>(util::ZigzagDecode(tok));
      if (prev >= machine_bound) {
        err = "machine id out of range";
        return column_error();
      }
      cols.machine.push_back(static_cast<std::uint32_t>(prev));
    }
  }
  ++col;
  std::uint32_t max_machine = 0;
  for (const std::uint32_t m : cols.machine) {
    max_machine = std::max(max_machine, m);
  }

  // Stream-delta column with an upper value bound (kNoLimit = any u64).
  constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};
  const auto stream_delta_into = [&](auto& dst, std::uint64_t max_value) {
    if (!read_tokens()) return false;
    dst.reserve(n);
    std::uint64_t prev = 0;
    for (const std::uint64_t tok : s.tokens) {
      prev += static_cast<std::uint64_t>(util::ZigzagDecode(tok));
      if (max_value != kNoLimit && prev > max_value) {
        err = "value out of column range";
        return false;
      }
      dst.push_back(
          static_cast<typename std::decay_t<decltype(dst)>::value_type>(prev));
    }
    ++col;
    return true;
  };
  // Per-machine-delta column; `store` converts the recovered u64 to the
  // column's value type (with range checking where the type is narrow).
  const auto machine_delta_into = [&](auto&& store_value) {
    if (!read_tokens()) return false;
    s.prev.assign(static_cast<std::size_t>(max_machine) + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t& prev = s.prev[cols.machine[i]];
      prev += static_cast<std::uint64_t>(util::ZigzagDecode(s.tokens[i]));
      if (!store_value(prev)) {
        err = "value out of column range";
        return false;
      }
    }
    ++col;
    return true;
  };
  const auto machine_delta_unsigned = [&](auto& dst, std::uint64_t max_value) {
    dst.reserve(n);
    return machine_delta_into([&](std::uint64_t v) {
      if (max_value != kNoLimit && v > max_value) return false;
      dst.push_back(
          static_cast<typename std::decay_t<decltype(dst)>::value_type>(v));
      return true;
    });
  };
  const auto machine_delta_signed = [&](std::vector<std::int64_t>& dst) {
    dst.reserve(n);
    return machine_delta_into([&](std::uint64_t v) {
      dst.push_back(static_cast<std::int64_t>(v));
      return true;
    });
  };

  if (!stream_delta_into(cols.iteration, 0xffffffffull)) {
    return column_error();
  }
  {  // t: signed, any 64-bit value
    if (!read_tokens()) return column_error();
    cols.t.reserve(n);
    std::uint64_t prev = 0;
    for (const std::uint64_t tok : s.tokens) {
      prev += static_cast<std::uint64_t>(util::ZigzagDecode(tok));
      cols.t.push_back(static_cast<std::int64_t>(prev));
    }
    ++col;
  }
  if (!machine_delta_signed(cols.boot_time)) return column_error();
  if (!machine_delta_signed(cols.uptime_s)) return column_error();
  {  // cpu_idle_s: centiseconds back to seconds (bit-identical to LMTR1)
    cols.cpu_idle_s.reserve(n);
    if (!machine_delta_into([&](std::uint64_t v) {
          cols.cpu_idle_s.push_back(
              static_cast<double>(static_cast<std::int64_t>(v)) / 100.0);
          return true;
        })) {
      return column_error();
    }
  }
  if (!machine_delta_unsigned(cols.ram_mb, 0xffffull)) return column_error();
  if (!machine_delta_unsigned(cols.mem_load_pct, 0xffull)) {
    return column_error();
  }
  if (!machine_delta_unsigned(cols.swap_load_pct, 0xffull)) {
    return column_error();
  }
  if (!machine_delta_unsigned(cols.disk_total_b, kNoLimit)) {
    return column_error();
  }
  if (!machine_delta_unsigned(cols.disk_free_b, kNoLimit)) {
    return column_error();
  }
  if (!machine_delta_unsigned(cols.smart_power_on_hours, kNoLimit)) {
    return column_error();
  }
  if (!machine_delta_unsigned(cols.smart_power_cycles, kNoLimit)) {
    return column_error();
  }
  if (!machine_delta_unsigned(cols.net_sent_b, kNoLimit)) {
    return column_error();
  }
  if (!machine_delta_unsigned(cols.net_recv_b, kNoLimit)) {
    return column_error();
  }
  {  // has_session: raw 0/1 tokens
    if (!read_tokens()) return column_error();
    cols.has_session.reserve(n);
    for (const std::uint64_t tok : s.tokens) {
      if (tok > 1) {
        err = "session flag out of range";
        return column_error();
      }
      cols.has_session.push_back(static_cast<std::uint8_t>(tok));
    }
    ++col;
  }
  if (!machine_delta_signed(cols.session_logon)) return column_error();
  {  // user_id: 0 = no session, else table index + 1
    if (!read_tokens()) return column_error();
    cols.user_id.reserve(n);
    for (std::size_t i = 0; i < s.tokens.size(); ++i) {
      const std::uint64_t tok = s.tokens[i];
      // A row has a user exactly when it has a session (as LMSG1 and
      // TraceStore::Append guarantee by construction).
      if ((tok == 0) != (cols.has_session[i] == 0)) {
        err = "session flag and user reference disagree";
        return column_error();
      }
      if (tok == 0) {
        cols.user_id.push_back(TraceStore::kNoUser);
      } else {
        if (tok > out.users.size()) {
          err = "dangling user reference";
          return column_error();
        }
        cols.user_id.push_back(static_cast<std::uint32_t>(tok - 1));
      }
    }
    ++col;
  }

  // Iteration rows (numbered from zero; the segment reader renumbers).
  auto iterations = ReadIterationRows(r, *iteration_count);
  if (!iterations.ok()) return R::Err("LMSG2 " + iterations.error());
  out.iterations = std::move(iterations).value();

  if (!r.AtEnd()) return R::Err("trailing bytes after LMSG2 block");
  return true;
}

}  // namespace

const char* SpillCodecName(SpillCodecId id) noexcept {
  switch (id) {
    case SpillCodecId::kLmsg1:
      return "lmsg1";
    case SpillCodecId::kLmsg2:
      return "lmsg2";
  }
  return "unknown";
}

std::optional<SpillCodecId> ParseSpillCodecName(std::string_view name) noexcept {
  if (name == "lmsg1") return SpillCodecId::kLmsg1;
  if (name == "lmsg2") return SpillCodecId::kLmsg2;
  return std::nullopt;
}

std::uint64_t RawColumnBytes(const TraceStore& store) noexcept {
  std::uint64_t bytes = 0;
  TraceStore::ForEachColumn([&](auto member) {
    const auto& column = store.columns().*member;
    bytes += column.size() * sizeof(column[0]);
  });
  for (const std::string& user : store.users()) bytes += user.size();
  bytes += store.iterations().size() * sizeof(IterationInfo);
  return bytes;
}

std::uint64_t RawColumnBytes(const TraceBlock& block) noexcept {
  std::uint64_t bytes = 0;
  TraceStore::ForEachColumn([&](auto member) {
    const auto& column = block.cols.*member;
    bytes += column.size() * sizeof(column[0]);
  });
  for (const std::string& user : block.users) bytes += user.size();
  bytes += block.iterations.size() * sizeof(IterationInfo);
  return bytes;
}

const SpillCodec& GetSpillCodec(SpillCodecId id) noexcept {
  static const Lmsg1Codec lmsg1;
  static const Lmsg2Codec lmsg2;
  return id == SpillCodecId::kLmsg1 ? static_cast<const SpillCodec&>(lmsg1)
                                    : static_cast<const SpillCodec&>(lmsg2);
}

const SpillCodec* FindSpillCodecByMagic(std::string_view magic) noexcept {
  if (magic == kLmsg1Magic) return &GetSpillCodec(SpillCodecId::kLmsg1);
  if (magic == kLmsg2Magic) return &GetSpillCodec(SpillCodecId::kLmsg2);
  return nullptr;
}

}  // namespace labmon::trace
