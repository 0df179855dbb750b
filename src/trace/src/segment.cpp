#include "labmon/trace/segment.hpp"

#include <ctime>
#include <utility>

#include "labmon/obs/registry.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::trace {

namespace {

constexpr std::size_t kMagicLen = 5;
constexpr std::uint64_t kVersion = 1;
/// Hard sanity bound on one block payload (a 64k-sample block is a few MB
/// encoded; anything near this is a corrupt length prefix).
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;

std::uint64_t Fnv1a(const std::string& bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The calling thread's CPU clock, so codec timings count encode/decode
/// work and not the time a shard worker spends preempted on a shared core.
std::uint64_t ThreadCpuNs() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Reads one LEB128 varint byte-at-a-time from the stream. Returns false
/// on EOF before the first byte (clean end) with *clean_eof = true, or on
/// truncation/overlong input with *clean_eof = false.
bool ReadVarint(std::istream& in, std::uint64_t& value, bool& clean_eof) {
  value = 0;
  clean_eof = false;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    const int c = in.get();
    if (c == EOF) {
      clean_eof = i == 0;
      return false;
    }
    value |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

/// Bulk-updates the registry's spill codec counters, one call per
/// Append/Next so the encode/decode hot loops stay clean (the per-column
/// breakdown is counted inside the LMSG2 codec itself).
void CountSpillIo(const SpillCodec& codec, const char* direction,
                  const SpillCodecStats& delta) {
  obs::Registry& registry = obs::DefaultRegistry();
  const char* name = SpillCodecName(codec.id());
  registry
      .GetCounter("labmon_spill_raw_bytes_total",
                  "In-memory columnar bytes moved through the spill codecs",
                  {{"codec", name}, {"direction", direction}})
      .Increment(delta.raw_bytes);
  registry
      .GetCounter("labmon_spill_payload_bytes_total",
                  "Encoded payload bytes moved through the spill codecs",
                  {{"codec", name}, {"direction", direction}})
      .Increment(delta.payload_bytes);
  registry
      .GetCounter("labmon_spill_codec_ns_total",
                  "Thread CPU nanoseconds spent in spill encode/decode",
                  {{"codec", name}, {"direction", direction}})
      .Increment(delta.ns);
  registry
      .GetCounter("labmon_spill_codec_samples_total",
                  "Samples moved through the spill codecs",
                  {{"codec", name}, {"direction", direction}})
      .Increment(delta.samples);
}

}  // namespace

util::Result<SegmentWriter> SegmentWriter::Open(const std::string& path,
                                                std::size_t machine_count,
                                                SpillCodecId codec) {
  using R = util::Result<SegmentWriter>;
  SegmentWriter writer;
  writer.path_ = path;
  writer.codec_ = &GetSpillCodec(codec);
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_) return R::Err("cannot open segment for write: " + path);
  std::string header(writer.codec_->magic());
  util::PutVarint(header, kVersion);
  util::PutVarint(header, machine_count);
  writer.out_.write(header.data(),
                    static_cast<std::streamsize>(header.size()));
  writer.bytes_written_ += header.size();
  if (!writer.out_) return R::Err("segment header write failed: " + path);
  return writer;
}

util::Result<bool> SegmentWriter::Append(const TraceStore& block_store) {
  using R = util::Result<bool>;
  if (!out_) return R::Err("segment writer not open: " + path_);
  const std::uint64_t t0 = ThreadCpuNs();
  codec_->EncodeBlock(block_store, payload_);
  SpillCodecStats delta;
  delta.blocks = 1;
  delta.samples = block_store.size();
  delta.raw_bytes = RawColumnBytes(block_store);
  delta.payload_bytes = payload_.size();
  delta.ns = ThreadCpuNs() - t0;
  stats_ += delta;
  CountSpillIo(*codec_, "write", delta);
  std::string frame;
  util::PutVarint(frame, payload_.size());
  const std::uint64_t checksum = Fnv1a(payload_);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  char sum[8];
  for (int i = 0; i < 8; ++i) {
    sum[i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  out_.write(sum, 8);
  if (!out_) return R::Err("segment block write failed: " + path_);
  bytes_written_ += frame.size() + payload_.size() + 8;
  ++blocks_;
  return true;
}

util::Result<bool> SegmentWriter::Finish() {
  using R = util::Result<bool>;
  out_.flush();
  if (!out_) return R::Err("segment flush failed: " + path_);
  out_.close();
  if (out_.fail()) return R::Err("segment close failed: " + path_);
  return true;
}

util::Result<SegmentReader> SegmentReader::Open(const std::string& path) {
  using R = util::Result<SegmentReader>;
  SegmentReader reader;
  reader.path_ = path;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) return R::Err("cannot open segment for read: " + path);
  char magic[kMagicLen];
  reader.in_.read(magic, kMagicLen);
  if (reader.in_.gcount() != static_cast<std::streamsize>(kMagicLen)) {
    return R::Err("bad segment magic: " + path);
  }
  reader.codec_ = FindSpillCodecByMagic(std::string_view(magic, kMagicLen));
  if (reader.codec_ == nullptr) {
    return R::Err("bad segment magic: " + path);
  }
  std::uint64_t version = 0;
  std::uint64_t machines = 0;
  bool clean = false;
  if (!ReadVarint(reader.in_, version, clean) || version != kVersion) {
    return R::Err("unsupported segment version: " + path);
  }
  if (!ReadVarint(reader.in_, machines, clean)) {
    return R::Err("truncated segment header: " + path);
  }
  reader.machine_count_ = static_cast<std::size_t>(machines);
  reader.first_block_pos_ = reader.in_.tellg();
  return reader;
}

void SegmentReader::Reset() {
  error_.clear();
  in_.clear();
  in_.seekg(first_block_pos_);
  next_iteration_ = 0;
}

const TraceBlock* SegmentReader::Next() {
  if (!error_.empty()) return nullptr;
  std::uint64_t payload_len = 0;
  bool clean_eof = false;
  if (!ReadVarint(in_, payload_len, clean_eof)) {
    if (!clean_eof) error_ = "truncated block length prefix: " + path_;
    return nullptr;
  }
  if (payload_len > kMaxPayloadBytes) {
    error_ = "implausible block length (corrupt prefix): " + path_;
    return nullptr;
  }
  payload_.resize(static_cast<std::size_t>(payload_len));
  in_.read(payload_.data(), static_cast<std::streamsize>(payload_len));
  if (in_.gcount() != static_cast<std::streamsize>(payload_len)) {
    error_ = "truncated block payload: " + path_;
    return nullptr;
  }
  char sum[8];
  in_.read(sum, 8);
  if (in_.gcount() != 8) {
    error_ = "truncated block checksum: " + path_;
    return nullptr;
  }
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(static_cast<unsigned char>(sum[i]))
              << (8 * i);
  }
  if (stored != Fnv1a(payload_)) {
    error_ = "block checksum mismatch: " + path_;
    return nullptr;
  }
  const std::uint64_t t0 = ThreadCpuNs();
  auto decoded = codec_->DecodeBlock(payload_, machine_count_, scratch_);
  if (!decoded.ok()) {
    error_ = "block payload decode failed (" + decoded.error() + "): " + path_;
    return nullptr;
  }
  SpillCodecStats delta;
  delta.blocks = 1;
  delta.samples = scratch_.size();
  delta.raw_bytes = RawColumnBytes(scratch_);
  delta.payload_bytes = payload_.size();
  delta.ns = ThreadCpuNs() - t0;
  stats_ += delta;
  CountSpillIo(*codec_, "read", delta);
  // Payloads number iteration rows from zero; a segment's blocks cover the
  // lab's iterations contiguously in order, so restore the stream-global
  // numbering the merge keys on.
  for (IterationInfo& info : scratch_.iterations) {
    info.iteration = next_iteration_++;
  }
  return &scratch_;
}

}  // namespace labmon::trace
