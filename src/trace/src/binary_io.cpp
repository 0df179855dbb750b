#include "labmon/trace/binary_io.hpp"

#include <algorithm>
#include <limits>

#include "codec_detail.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/obs/span.hpp"
#include "labmon/util/csv.hpp"

namespace labmon::trace {

namespace {

constexpr char kMagic[] = "LMTR1";
constexpr std::size_t kMagicLen = 5;
constexpr std::uint64_t kMaxUserLen = 4096;
/// An iteration row takes at least four bytes (one per field).
constexpr std::size_t kMinIterationRowBytes = 4;
/// Upper bound of one encoded sample: a 5-byte machine id, 15 10-byte
/// deltas and a 5-byte user reference.
constexpr std::size_t kMaxSampleBytes = 5 + 15 * 10 + 5;

/// Per-machine previous-sample state used for delta coding. Deltas are
/// taken in the u64 wrap domain, so every value pattern round-trips without
/// signed overflow; for in-range values the bytes equal plain signed
/// subtraction.
struct Previous {
  std::uint64_t iteration = 0;
  std::uint64_t t = 0;
  std::uint64_t boot_time = 0;
  std::uint64_t uptime_s = 0;
  std::uint64_t idle_cs = 0;  ///< idle seconds in centiseconds (exact: the
                              ///< probe emits 2 decimals)
  std::uint64_t ram_mb = 0;
  std::uint64_t mem = 0;
  std::uint64_t swap = 0;
  std::uint64_t disk_total = 0;
  std::uint64_t disk_free = 0;
  std::uint64_t poh = 0;
  std::uint64_t cycles = 0;
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::uint64_t logon = 0;
};

/// Appends varints through a raw cursor into `out`, growing it in large
/// steps (one capacity check per sample instead of one per field).
class RangeWriter {
 public:
  RangeWriter(std::string& out, std::size_t expected_bytes)
      : out_(out), pos_(out.size()) {
    out_.resize(pos_ + expected_bytes + kMaxSampleBytes);
  }
  RangeWriter(const RangeWriter&) = delete;
  RangeWriter& operator=(const RangeWriter&) = delete;
  ~RangeWriter() { out_.resize(pos_); }

  /// Makes room for one more sample.
  void EnsureSample() {
    if (out_.size() - pos_ < kMaxSampleBytes) {
      out_.resize(std::max(out_.size() * 2, pos_ + kMaxSampleBytes));
    }
  }
  void Put(std::uint64_t value) noexcept {
    char* p = out_.data() + pos_;
    while (value >= 0x80) {
      *p++ = static_cast<char>((value & 0x7f) | 0x80);
      value >>= 7;
    }
    *p++ = static_cast<char>(value);
    pos_ = static_cast<std::size_t>(p - out_.data());
  }
  /// Emits `cur - base` zigzag-coded and advances `base` to `cur`.
  void Delta(std::uint64_t& base, std::uint64_t cur) noexcept {
    Put(util::ZigzagEncode(static_cast<std::int64_t>(cur - base)));
    base = cur;
  }

 private:
  std::string& out_;
  std::size_t pos_;
};

/// Reads one LEB128 varint from [p, end) under VarintReader's exact
/// acceptance rules (truncated or overlong input fails).
inline bool ReadVarint(const std::uint8_t*& p, const std::uint8_t* end,
                       std::uint64_t& value) noexcept {
  if (p != end && *p < 0x80) {
    value = *p++;
    return true;
  }
  std::uint64_t v = 0;
  int shift = 0;
  while (p != end) {
    const std::uint8_t byte = *p++;
    if (shift >= 63 && byte > 1) return false;  // overlong
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      value = v;
      return true;
    }
    shift += 7;
    if (shift > 63) return false;
  }
  return false;  // truncated
}

/// Bulk-updates the default registry's trace I/O counters (one call per
/// serialise/parse, never per record, so the codec hot loop stays clean).
void CountTraceIo(const char* direction, std::uint64_t bytes,
                  std::uint64_t records) {
  obs::Registry& registry = obs::DefaultRegistry();
  registry
      .GetCounter("labmon_trace_io_bytes_total",
                  "Binary trace bytes moved through the LMTR1 codec",
                  {{"direction", direction}})
      .Increment(bytes);
  registry
      .GetCounter("labmon_trace_io_records_total",
                  "Sample records moved through the LMTR1 codec",
                  {{"direction", direction}})
      .Increment(records);
}

}  // namespace

void EncodeSampleRange(const TraceStore::Columns& c, std::size_t begin,
                       std::size_t end, std::string& out) {
  std::vector<Previous> prev;
  RangeWriter w(out, (end - begin) * 24);
  for (std::size_t i = begin; i < end; ++i) {
    w.EnsureSample();
    const std::uint32_t machine = c.machine[i];
    if (machine >= prev.size()) prev.resize(std::size_t{machine} + 1);
    Previous& p = prev[machine];
    w.Put(machine);
    w.Delta(p.iteration, c.iteration[i]);
    w.Delta(p.t, static_cast<std::uint64_t>(c.t[i]));
    w.Delta(p.boot_time, static_cast<std::uint64_t>(c.boot_time[i]));
    w.Delta(p.uptime_s, static_cast<std::uint64_t>(c.uptime_s[i]));
    w.Delta(p.idle_cs, static_cast<std::uint64_t>(
                           detail::IdleCentiseconds(c.cpu_idle_s[i])));
    w.Delta(p.ram_mb, c.ram_mb[i]);
    w.Delta(p.mem, c.mem_load_pct[i]);
    w.Delta(p.swap, c.swap_load_pct[i]);
    w.Delta(p.disk_total, c.disk_total_b[i]);
    w.Delta(p.disk_free, c.disk_free_b[i]);
    w.Delta(p.poh, c.smart_power_on_hours[i]);
    w.Delta(p.cycles, c.smart_power_cycles[i]);
    w.Delta(p.sent, c.net_sent_b[i]);
    w.Delta(p.recv, c.net_recv_b[i]);
    if (c.has_session[i] != 0) {
      w.Put(std::uint64_t{c.user_id[i]} + 1);
      w.Delta(p.logon, static_cast<std::uint64_t>(c.session_logon[i]));
    } else {
      w.Put(0);
    }
  }
}

util::Result<std::size_t> DecodeSampleRange(std::string_view bytes,
                                            std::uint64_t machine_bound,
                                            std::size_t user_count,
                                            TraceStore::Columns& c,
                                            std::size_t first,
                                            std::size_t count) {
  using R = util::Result<std::size_t>;
  const auto* const begin = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::uint8_t* const end = begin + bytes.size();
  const std::uint8_t* p = begin;
  std::vector<Previous> prev;
  for (std::size_t i = first; i < first + count; ++i) {
    std::uint64_t machine = 0;
    if (!ReadVarint(p, end, machine)) return R::Err("truncated sample stream");
    if (machine >= machine_bound) return R::Err("machine id out of range");
    if (machine >= prev.size()) {
      prev.resize(static_cast<std::size_t>(machine) + 1);
    }
    Previous& q = prev[static_cast<std::size_t>(machine)];
    // Field reads keep going past a failure (the cursor never passes
    // `end`), so the loop body has one error branch per sample.
    bool ok = true;
    const auto field = [&](std::uint64_t& base) {
      std::uint64_t zigzag = 0;
      ok &= ReadVarint(p, end, zigzag);
      base += static_cast<std::uint64_t>(util::ZigzagDecode(zigzag));
    };
    field(q.iteration);
    field(q.t);
    field(q.boot_time);
    field(q.uptime_s);
    field(q.idle_cs);
    field(q.ram_mb);
    field(q.mem);
    field(q.swap);
    field(q.disk_total);
    field(q.disk_free);
    field(q.poh);
    field(q.cycles);
    field(q.sent);
    field(q.recv);
    if (!ok) return R::Err("truncated sample fields");
    c.machine[i] = static_cast<std::uint32_t>(machine);
    c.iteration[i] = static_cast<std::uint32_t>(q.iteration);
    c.t[i] = static_cast<std::int64_t>(q.t);
    c.boot_time[i] = static_cast<std::int64_t>(q.boot_time);
    c.uptime_s[i] = static_cast<std::int64_t>(q.uptime_s);
    c.cpu_idle_s[i] =
        static_cast<double>(static_cast<std::int64_t>(q.idle_cs)) / 100.0;
    c.ram_mb[i] = static_cast<std::uint16_t>(q.ram_mb);
    c.mem_load_pct[i] = static_cast<std::uint8_t>(q.mem);
    c.swap_load_pct[i] = static_cast<std::uint8_t>(q.swap);
    c.disk_total_b[i] = q.disk_total;
    c.disk_free_b[i] = q.disk_free;
    c.smart_power_on_hours[i] = q.poh;
    c.smart_power_cycles[i] = q.cycles;
    c.net_sent_b[i] = q.sent;
    c.net_recv_b[i] = q.recv;

    std::uint64_t user_ref = 0;
    if (!ReadVarint(p, end, user_ref)) return R::Err("truncated session field");
    if (user_ref == 0) {
      c.has_session[i] = 0;
      c.session_logon[i] = 0;
      c.user_id[i] = TraceStore::kNoUser;
      continue;
    }
    if (user_ref > user_count) return R::Err("dangling user reference");
    field(q.logon);
    if (!ok) return R::Err("truncated logon field");
    c.has_session[i] = 1;
    c.session_logon[i] = static_cast<std::int64_t>(q.logon);
    c.user_id[i] = static_cast<std::uint32_t>(user_ref - 1);
  }
  return static_cast<std::size_t>(p - begin);
}

void PutUserTable(std::string& out, std::span<const std::string> users) {
  for (const std::string& user : users) {
    util::PutVarint(out, user.size());
    out.append(user);
  }
}

util::Result<std::vector<std::string>> ReadUserTable(util::VarintReader& in,
                                                     std::uint64_t count) {
  using R = util::Result<std::vector<std::string>>;
  // Each entry takes at least its length byte.
  if (count > in.remaining()) return R::Err("truncated user table");
  std::vector<std::string> users;
  users.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto len = in.Read();
    if (!len || *len > kMaxUserLen) return R::Err("garbled user table");
    auto name = in.ReadBytes(static_cast<std::size_t>(*len));
    if (!name) return R::Err("truncated user table");
    users.push_back(std::move(*name));
  }
  return users;
}

void PutIterationRows(std::string& out, std::span<const IterationInfo> rows) {
  std::int64_t prev_start = 0;
  std::int64_t prev_end = 0;
  // Deltas in the u64 wrap domain, like the sample fields.
  const auto delta = [](std::int64_t cur, std::int64_t base) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(cur) -
                                     static_cast<std::uint64_t>(base));
  };
  for (const IterationInfo& it : rows) {
    util::PutSignedVarint(out, delta(it.start_t, prev_start));
    util::PutSignedVarint(out, delta(it.end_t, prev_end));
    util::PutVarint(out, it.attempts);
    util::PutVarint(out, it.successes);
    prev_start = it.start_t;
    prev_end = it.end_t;
  }
}

util::Result<std::vector<IterationInfo>> ReadIterationRows(
    util::VarintReader& in, std::uint64_t count) {
  using R = util::Result<std::vector<IterationInfo>>;
  if (count > in.remaining() / kMinIterationRowBytes) {
    return R::Err("truncated iteration metadata");
  }
  std::vector<IterationInfo> rows;
  rows.reserve(static_cast<std::size_t>(count));
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto ds = in.Read();
    const auto de = in.Read();
    const auto attempts = in.Read();
    const auto successes = in.Read();
    if (!ds || !de || !attempts || !successes) {
      return R::Err("truncated iteration metadata");
    }
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    if (*attempts > kU32 || *successes > kU32) {
      return R::Err("implausible iteration counts");
    }
    start += static_cast<std::uint64_t>(util::ZigzagDecode(*ds));
    end += static_cast<std::uint64_t>(util::ZigzagDecode(*de));
    IterationInfo info;
    info.iteration = i;
    info.start_t = static_cast<std::int64_t>(start);
    info.end_t = static_cast<std::int64_t>(end);
    info.attempts = static_cast<std::uint32_t>(*attempts);
    info.successes = static_cast<std::uint32_t>(*successes);
    rows.push_back(info);
  }
  return rows;
}

std::string SerializeTrace(const TraceStore& store) {
  obs::Span span("trace.serialize");
  std::string out;
  out.reserve(store.size() * 24 + 64);
  out.append(kMagic, kMagicLen);
  // The store's interned user table is already in first-appearance order.
  util::PutVarint(out, store.machine_count());
  util::PutVarint(out, store.size());
  util::PutVarint(out, store.iterations().size());
  util::PutVarint(out, store.users().size());
  PutUserTable(out, store.users());
  EncodeSampleRange(store.columns(), 0, store.size(), out);
  PutIterationRows(out, store.iterations());
  CountTraceIo("write", out.size(), store.size());
  return out;
}

namespace detail {

util::Result<std::size_t> DecodeLmtr1(std::string_view bytes,
                                      TraceBlock& out) {
  using R = util::Result<std::size_t>;
  out.Clear();
  if (bytes.size() < kMagicLen ||
      bytes.compare(0, kMagicLen, kMagic, kMagicLen) != 0) {
    return R::Err("not a LMTR1 trace (bad magic)");
  }
  util::VarintReader reader(bytes);
  (void)reader.Skip(kMagicLen);

  const auto machine_count = reader.Read();
  const auto sample_count = reader.Read();
  const auto iteration_count = reader.Read();
  const auto user_count = reader.Read();
  if (!machine_count || !sample_count || !iteration_count || !user_count) {
    return R::Err("truncated header");
  }
  // Counts are bounded by the bytes that could hold them, so a corrupt
  // header fails here instead of driving a huge allocation.
  if (*machine_count > kMaxTraceMachines ||
      *sample_count > reader.remaining() / kMinSampleBytes) {
    return R::Err("implausible header counts");
  }

  auto users = ReadUserTable(reader, *user_count);
  if (!users.ok()) return R::Err(users.error());
  out.users = std::move(users).value();

  const auto n = static_cast<std::size_t>(*sample_count);
  TraceStore::ForEachColumn([&](auto member) { (out.cols.*member).resize(n); });
  const auto used = DecodeSampleRange(
      bytes.substr(reader.position()), MachineIdBound(*machine_count),
      out.users.size(), out.cols, 0, n);
  if (!used.ok()) return R::Err(used.error());
  (void)reader.Skip(used.value());

  auto iterations = ReadIterationRows(reader, *iteration_count);
  if (!iterations.ok()) return R::Err(iterations.error());
  out.iterations = std::move(iterations).value();
  return static_cast<std::size_t>(*machine_count);
}

}  // namespace detail

util::Result<TraceStore> DeserializeTrace(std::string_view bytes) {
  obs::Span span("trace.deserialize");
  using R = util::Result<TraceStore>;
  TraceBlock decoded;
  const auto machine_count = detail::DecodeLmtr1(bytes, decoded);
  if (!machine_count.ok()) return R::Err(machine_count.error());
  auto store = TraceStore::Adopt(machine_count.value(), std::move(decoded.cols),
                                 std::move(decoded.users),
                                 std::move(decoded.iterations));
  if (store.ok()) CountTraceIo("read", bytes.size(), store.value().size());
  return store;
}

util::Result<bool> WriteTraceFile(const std::string& path,
                                  const TraceStore& store) {
  return util::WriteTextFile(path, SerializeTrace(store));
}

util::Result<TraceStore> ReadTraceFile(const std::string& path) {
  auto bytes = util::ReadTextFile(path);
  if (!bytes.ok()) return util::Result<TraceStore>::Err(bytes.error());
  return DeserializeTrace(bytes.value());
}

}  // namespace labmon::trace
