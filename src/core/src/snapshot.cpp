#include "labmon/core/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "labmon/trace/binary_io.hpp"
#include "labmon/util/csv.hpp"
#include "labmon/util/function_ref.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::core {

namespace {

constexpr char kMagic[] = "LMSS1";
constexpr std::size_t kMagicLen = 5;

// ---------------------------------------------------------------------------
// Config fingerprint: FNV-1a over a canonical field stream. Every
// behaviour-affecting field is mixed in explicit order; adding a config
// field without mixing it here would alias configs, so keep this list in
// sync with workload/config.hpp, CoordinatorConfig and PriorLifeModel.
// ---------------------------------------------------------------------------
class Fingerprinter {
 public:
  void Mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void MixInt(std::int64_t v) noexcept { Mix(static_cast<std::uint64_t>(v)); }
  void MixDouble(double v) noexcept { Mix(std::bit_cast<std::uint64_t>(v)); }
  void MixBool(bool v) noexcept { Mix(v ? 1 : 0); }
  void MixString(const std::string& s) noexcept {
    Mix(s.size());
    for (const char c : s) Mix(static_cast<unsigned char>(c));
  }

  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

void MixCampus(Fingerprinter& fp, const workload::CampusConfig& c) {
  fp.MixInt(c.days);
  fp.Mix(c.seed);
  fp.MixInt(c.scale_labs);

  fp.MixInt(c.hours.open_hour);
  fp.MixInt(c.hours.weekday_close_hour);
  fp.MixInt(c.hours.saturday_close_hour);
  fp.MixBool(c.hours.sunday_open);

  fp.MixDouble(c.timetable.weekday_slot_prob);
  fp.MixDouble(c.timetable.saturday_slot_prob);
  fp.MixDouble(c.timetable.popularity_skew);
  fp.MixDouble(c.timetable.class_occupancy);
  fp.MixDouble(c.timetable.keep_walkin_in_class);
  fp.MixDouble(c.timetable.heavy_class_occupancy);
  fp.MixInt(c.timetable.heavy_class_lab);
  fp.MixInt(c.timetable.heavy_class_start_hour);
  fp.MixInt(c.timetable.heavy_class_hours);

  fp.MixDouble(c.arrivals.weekday_peak_per_hour);
  fp.MixDouble(c.arrivals.morning_factor);
  fp.MixDouble(c.arrivals.midday_factor);
  fp.MixDouble(c.arrivals.afternoon_factor);
  fp.MixDouble(c.arrivals.evening_factor);
  fp.MixDouble(c.arrivals.night_factor);
  fp.MixDouble(c.arrivals.saturday_factor);
  fp.MixDouble(c.arrivals.popularity_bias);
  fp.MixBool(c.arrivals.prefer_off_machines);
  fp.MixDouble(c.arrivals.session_minutes_mean);
  fp.MixDouble(c.arrivals.session_minutes_sigma);
  fp.MixDouble(c.arrivals.session_minutes_cap);
  fp.MixDouble(c.arrivals.long_stay_prob);
  fp.MixDouble(c.arrivals.long_stay_hours_lo);
  fp.MixDouble(c.arrivals.long_stay_hours_hi);

  fp.MixDouble(c.activity.background_busy);
  fp.MixDouble(c.activity.boot_busy);
  fp.MixDouble(c.activity.boot_busy_seconds);
  fp.MixDouble(c.activity.phase_minutes_mean);
  fp.MixDouble(c.activity.light_prob);
  fp.MixDouble(c.activity.light_busy_lo);
  fp.MixDouble(c.activity.light_busy_hi);
  fp.MixDouble(c.activity.medium_prob);
  fp.MixDouble(c.activity.medium_busy_lo);
  fp.MixDouble(c.activity.medium_busy_hi);
  fp.MixDouble(c.activity.heavy_busy_lo);
  fp.MixDouble(c.activity.heavy_busy_hi);
  fp.MixDouble(c.activity.heavy_class_busy_lo);
  fp.MixDouble(c.activity.heavy_class_busy_hi);
  fp.MixDouble(c.activity.compute_server_fraction);
  fp.MixDouble(c.activity.compute_server_busy_lo);
  fp.MixDouble(c.activity.compute_server_busy_hi);

  fp.MixDouble(c.memory.base_load_512mb);
  fp.MixDouble(c.memory.base_load_256mb);
  fp.MixDouble(c.memory.base_load_128mb);
  fp.MixDouble(c.memory.base_jitter);
  fp.MixDouble(c.memory.app_mb_mean);
  fp.MixDouble(c.memory.app_mb_sigma);
  fp.MixDouble(c.memory.swap_base_512mb);
  fp.MixDouble(c.memory.swap_base_256mb);
  fp.MixDouble(c.memory.swap_base_128mb);
  fp.MixDouble(c.memory.swap_jitter);
  fp.MixDouble(c.memory.swap_app_points_mean);

  fp.MixDouble(c.disk.jitter_gb);
  fp.MixDouble(c.disk.student_temp_mb_lo);
  fp.MixDouble(c.disk.student_temp_mb_hi);
  fp.MixDouble(c.disk.image_gb_large);
  fp.MixDouble(c.disk.image_gb_medium);
  fp.MixDouble(c.disk.image_gb_small);
  fp.MixDouble(c.disk.image_gb_tiny);
  fp.MixDouble(c.disk.image_gb_mini);

  fp.MixDouble(c.network.background_sent_bps);
  fp.MixDouble(c.network.background_recv_bps);
  fp.MixDouble(c.network.background_jitter);
  fp.MixDouble(c.network.active_recv_bps_mean);
  fp.MixDouble(c.network.active_recv_bps_sigma);
  fp.MixDouble(c.network.active_sent_ratio_lo);
  fp.MixDouble(c.network.active_sent_ratio_hi);

  fp.MixBool(c.power.sweeps_enabled);
  fp.MixDouble(c.power.off_after_walkin);
  fp.MixDouble(c.power.off_after_class);
  fp.MixDouble(c.power.off_after_evening);
  fp.MixInt(c.power.evening_hour);
  fp.MixDouble(c.power.sweep_kill_floor);
  fp.MixDouble(c.power.sweep_kill_scale);
  fp.MixDouble(c.power.ghost_kill_multiplier);
  fp.MixDouble(c.power.weekend_kill_floor);
  fp.MixDouble(c.power.weekend_kill_scale);
  fp.MixDouble(c.power.sticky_fraction);
  fp.MixDouble(c.power.sticky_stay_on_lo);
  fp.MixDouble(c.power.sticky_stay_on_hi);
  fp.MixDouble(c.power.normal_stay_on_lo);
  fp.MixDouble(c.power.normal_stay_on_hi);
  fp.MixDouble(c.power.class_start_reboot_prob);
  fp.MixDouble(c.power.short_cycles_per_day);
  fp.MixDouble(c.power.short_cycle_minutes_lo);
  fp.MixDouble(c.power.short_cycle_minutes_hi);

  fp.MixDouble(c.forgotten.forget_prob_walkin);
  fp.MixDouble(c.forgotten.forget_prob_class);
  fp.MixDouble(c.forgotten.forget_prob_at_close);
  fp.MixDouble(c.forgotten.abandon_tail_minutes);
}

void MixCollector(Fingerprinter& fp, const ddc::CoordinatorConfig& c) {
  // metrics/tracer and the structured fast path are output-invariant and
  // deliberately excluded.
  fp.MixInt(c.period);
  fp.MixInt(static_cast<int>(c.mode));
  fp.MixInt(c.workers);
  fp.MixDouble(c.exec_policy.success_latency_mean_s);
  fp.MixDouble(c.exec_policy.success_latency_sigma_s);
  fp.MixDouble(c.exec_policy.success_latency_min_s);
  fp.MixDouble(c.exec_policy.offline_timeout_mean_s);
  fp.MixDouble(c.exec_policy.offline_timeout_sigma_s);
  fp.MixDouble(c.exec_policy.offline_timeout_min_s);
  fp.MixDouble(c.exec_policy.transient_failure_prob);
  fp.MixInt(c.retry.max_attempts);
  fp.MixDouble(c.retry.backoff_initial_s);
  fp.MixDouble(c.retry.backoff_multiplier);
  fp.MixDouble(c.retry.backoff_max_s);
  fp.MixDouble(c.retry.jitter_fraction);
  fp.MixDouble(c.retry.iteration_budget_s);
  fp.MixBool(c.retry.retry_timeouts);
  fp.MixBool(c.retry.retry_rejects);
  fp.Mix(c.seed);
}

void MixFaultPlan(Fingerprinter& fp, const faultsim::FaultPlan& p) {
  // An inert plan still mixes its (default) fields, which is fine: every
  // zero-fault config mixes the same constants. Any scenario or knob edit
  // keys a different snapshot, so faulted runs never alias clean ones.
  fp.MixBool(p.enabled);
  fp.Mix(p.seed);
  fp.MixDouble(p.timeout_latency_mean_s);
  fp.MixDouble(p.timeout_latency_sigma_s);
  fp.MixDouble(p.timeout_latency_min_s);
  fp.MixDouble(p.error_latency_mean_s);
  fp.MixDouble(p.error_latency_sigma_s);
  fp.MixDouble(p.error_latency_min_s);
  const auto& s = p.stochastic;
  fp.MixDouble(s.transient_error_prob);
  fp.MixDouble(s.hang_prob);
  fp.MixDouble(s.hang_seconds_mean);
  fp.MixDouble(s.hang_seconds_sigma);
  fp.MixDouble(s.straggler_prob);
  fp.MixDouble(s.straggler_multiplier_lo);
  fp.MixDouble(s.straggler_multiplier_hi);
  fp.MixDouble(s.wire_truncation_prob);
  fp.MixDouble(s.wire_corruption_prob);
  fp.MixInt(s.wire_corruption_max_bytes);
  fp.MixDouble(s.nic_reset_prob);
  fp.MixDouble(s.archive_write_failure_prob);
  fp.Mix(p.outages.size());
  for (const auto& o : p.outages) {
    fp.MixString(o.lab);
    fp.MixInt(o.start);
    fp.MixInt(o.end);
  }
  fp.Mix(p.crashes.size());
  for (const auto& c : p.crashes) {
    fp.Mix(c.machine);
    fp.MixInt(c.at);
    fp.MixInt(c.down_seconds);
  }
  fp.Mix(p.nic_resets.size());
  for (const auto& n : p.nic_resets) {
    fp.Mix(n.machine);
    fp.MixInt(n.at);
  }
}

void MixPriorLife(Fingerprinter& fp, const winsim::PriorLifeModel& m) {
  fp.MixDouble(m.min_age_years);
  fp.MixDouble(m.max_age_years);
  fp.MixDouble(m.hours_per_cycle_mean);
  fp.MixDouble(m.hours_per_cycle_sigma);
  fp.MixDouble(m.duty_cycle_mean);
  fp.MixDouble(m.duty_cycle_sigma);
}

// ---------------------------------------------------------------------------
// File layout (v3):
//   magic "LMSS1", varint version, varint fingerprint
//   varint head_len, u64 head checksum (FNV-1a over the head bytes)
//   head (head_len bytes):
//     sidecar: run stats, ground truth, hardware, perf indices, labs
//     varint machine_count, sample_count, iteration_count, user_count,
//            chunk_count
//     user table (LMTR1's)
//     chunk directory: per chunk { varint first_sample, varint samples,
//                                  varint bytes, u64 FNV-1a of the body }
//     iteration rows (LMTR1's)
//   chunk bodies, back to back in directory order, up to the end of file
//
// A chunk body is one LMTR1 sample range (trace/binary_io.hpp) over
// kSnapshotChunkSamples rows (fewer in the last chunk), with per-machine
// delta state reset at the chunk start and user references into the
// head's table. The head checksum covers the directory, which carries the
// body checksums, so every byte of the file is covered.
// ---------------------------------------------------------------------------

void PutU64(std::string& out, std::uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string& out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

/// FNV-1a over raw bytes — the head and chunk checksums. Any flipped/cut
/// byte in the covered region changes it.
std::uint64_t ChecksumBytes(std::string_view data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void PutString(std::string& out, const std::string& s) {
  util::PutVarint(out, s.size());
  out += s;
}

struct SidecarReader {
  util::VarintReader reader;
  bool failed = false;

  explicit SidecarReader(std::string_view bytes) : reader(bytes) {}

  std::uint64_t U64() {
    if (const auto v = reader.Read(); v && !failed) return *v;
    failed = true;
    return 0;
  }
  std::int64_t I64() {
    if (const auto v = reader.ReadSigned(); v && !failed) return *v;
    failed = true;
    return 0;
  }
  std::uint64_t RawU64() {
    const auto bytes = reader.ReadBytes(8);
    if (!bytes || failed) {
      failed = true;
      return 0;
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, bytes->data(), 8);
    return bits;
  }
  double F64() { return std::bit_cast<double>(RawU64()); }
  std::string Str() {
    const auto len = U64();
    if (failed) return {};
    auto bytes = reader.ReadBytes(static_cast<std::size_t>(len));
    if (!bytes) {
      failed = true;
      return {};
    }
    return std::move(*bytes);
  }
};

void PutSidecar(std::string& out, const ExperimentResult& result) {
  util::PutSignedVarint(out, result.days);
  util::PutVarint(out, result.parse_failures);
  util::PutVarint(out, result.crosscheck_mismatches);

  const auto& rs = result.run_stats;
  util::PutVarint(out, rs.iterations);
  util::PutVarint(out, rs.attempts);
  util::PutVarint(out, rs.successes);
  util::PutVarint(out, rs.timeouts);
  util::PutVarint(out, rs.errors);
  util::PutVarint(out, rs.missing);
  util::PutVarint(out, rs.corrupt);
  util::PutVarint(out, rs.recovered_after_retry);
  util::PutVarint(out, rs.retry_attempts);
  util::PutVarint(out, rs.retried_collections);
  util::PutVarint(out, rs.faults_injected);
  PutF64(out, rs.total_span_s);
  PutF64(out, rs.max_iteration_s);
  PutF64(out, rs.mean_iteration_s);

  const auto& gt = result.ground_truth;
  util::PutVarint(out, gt.boots);
  util::PutVarint(out, gt.shutdowns);
  util::PutVarint(out, gt.reboots);
  util::PutVarint(out, gt.short_cycles);
  util::PutVarint(out, gt.class_logins);
  util::PutVarint(out, gt.walkin_logins);
  util::PutVarint(out, gt.forgotten_sessions);
  util::PutVarint(out, gt.lost_arrivals);
  util::PutVarint(out, gt.sweep_shutdowns);

  PutF64(out, result.hardware.ram_gb);
  PutF64(out, result.hardware.disk_tb);
  PutF64(out, result.hardware.sum_int_index);
  PutF64(out, result.hardware.sum_fp_index);

  util::PutVarint(out, result.perf_index.size());
  for (const double v : result.perf_index) PutF64(out, v);

  util::PutVarint(out, result.labs.size());
  for (const auto& lab : result.labs) {
    PutString(out, lab.name);
    util::PutVarint(out, lab.machine_count);
    PutString(out, lab.cpu_model);
    PutF64(out, lab.cpu_ghz);
    util::PutSignedVarint(out, lab.ram_mb);
    PutF64(out, lab.disk_gb);
    PutF64(out, lab.int_index);
    PutF64(out, lab.fp_index);
  }
}

/// Reads the sidecar into everything of `result` but the trace; false on
/// truncation.
bool ReadSidecar(SidecarReader& in, ExperimentResult& result) {
  result.days = static_cast<int>(in.I64());
  result.parse_failures = in.U64();
  result.crosscheck_mismatches = in.U64();

  result.run_stats.iterations = in.U64();
  result.run_stats.attempts = in.U64();
  result.run_stats.successes = in.U64();
  result.run_stats.timeouts = in.U64();
  result.run_stats.errors = in.U64();
  result.run_stats.missing = in.U64();
  result.run_stats.corrupt = in.U64();
  result.run_stats.recovered_after_retry = in.U64();
  result.run_stats.retry_attempts = in.U64();
  result.run_stats.retried_collections = in.U64();
  result.run_stats.faults_injected = in.U64();
  result.run_stats.total_span_s = in.F64();
  result.run_stats.max_iteration_s = in.F64();
  result.run_stats.mean_iteration_s = in.F64();

  result.ground_truth.boots = in.U64();
  result.ground_truth.shutdowns = in.U64();
  result.ground_truth.reboots = in.U64();
  result.ground_truth.short_cycles = in.U64();
  result.ground_truth.class_logins = in.U64();
  result.ground_truth.walkin_logins = in.U64();
  result.ground_truth.forgotten_sessions = in.U64();
  result.ground_truth.lost_arrivals = in.U64();
  result.ground_truth.sweep_shutdowns = in.U64();

  result.hardware.ram_gb = in.F64();
  result.hardware.disk_tb = in.F64();
  result.hardware.sum_int_index = in.F64();
  result.hardware.sum_fp_index = in.F64();

  const std::uint64_t perf_count = in.U64();
  if (in.failed || perf_count > in.reader.remaining()) return false;
  result.perf_index.reserve(static_cast<std::size_t>(perf_count));
  for (std::uint64_t i = 0; i < perf_count; ++i) {
    result.perf_index.push_back(in.F64());
  }

  const std::uint64_t lab_count = in.U64();
  if (in.failed || lab_count > in.reader.remaining()) return false;
  result.labs.reserve(static_cast<std::size_t>(lab_count));
  for (std::uint64_t i = 0; i < lab_count; ++i) {
    LabSummary lab;
    lab.name = in.Str();
    lab.machine_count = static_cast<std::size_t>(in.U64());
    lab.cpu_model = in.Str();
    lab.cpu_ghz = in.F64();
    lab.ram_mb = static_cast<int>(in.I64());
    lab.disk_gb = in.F64();
    lab.int_index = in.F64();
    lab.fp_index = in.F64();
    result.labs.push_back(std::move(lab));
  }
  return !in.failed;
}

/// A serialised snapshot in two parts, so Store can write the chunk bodies
/// without first concatenating them.
struct EncodedSnapshot {
  std::string head;                 ///< every byte before the chunk bodies
  std::vector<std::string> chunks;  ///< chunk bodies, in directory order
};

EncodedSnapshot EncodeSnapshot(const ExperimentResult& result,
                               std::uint64_t fingerprint) {
  const trace::TraceStore& trace = result.trace;
  const std::size_t n = trace.size();
  const std::size_t chunk_count =
      (n + kSnapshotChunkSamples - 1) / kSnapshotChunkSamples;

  EncodedSnapshot encoded;
  encoded.chunks.resize(chunk_count);
  std::vector<std::uint64_t> checksums(chunk_count);
  util::ParallelFor(chunk_count, [&](std::size_t k) {
    const std::size_t begin = k * kSnapshotChunkSamples;
    const std::size_t end = std::min(n, begin + kSnapshotChunkSamples);
    trace::EncodeSampleRange(trace.columns(), begin, end, encoded.chunks[k]);
    checksums[k] = ChecksumBytes(encoded.chunks[k]);
  });

  std::string head;
  PutSidecar(head, result);
  util::PutVarint(head, trace.machine_count());
  util::PutVarint(head, n);
  util::PutVarint(head, trace.iterations().size());
  util::PutVarint(head, trace.users().size());
  util::PutVarint(head, chunk_count);
  trace::PutUserTable(head, trace.users());
  for (std::size_t k = 0; k < chunk_count; ++k) {
    const std::size_t begin = k * kSnapshotChunkSamples;
    util::PutVarint(head, begin);
    util::PutVarint(head, std::min(kSnapshotChunkSamples, n - begin));
    util::PutVarint(head, encoded.chunks[k].size());
    PutU64(head, checksums[k]);
  }
  trace::PutIterationRows(head, trace.iterations());

  encoded.head.reserve(head.size() + 32);
  encoded.head.append(kMagic, kMagicLen);
  util::PutVarint(encoded.head, kSnapshotFormatVersion);
  util::PutVarint(encoded.head, fingerprint);
  util::PutVarint(encoded.head, head.size());
  PutU64(encoded.head, ChecksumBytes(head));
  encoded.head += head;
  return encoded;
}

constexpr std::size_t kColumnCount = [] {
  std::size_t count = 0;
  trace::TraceStore::ForEachColumn([&count](auto) { ++count; });
  return count;
}();

/// Sizes column `k` (in ForEachColumn order) of `cols` to `n` rows.
void ResizeColumn(trace::TraceStore::Columns& cols, std::size_t k,
                  std::size_t n) {
  std::size_t column = 0;
  trace::TraceStore::ForEachColumn([&](auto member) {
    if (column++ == k) (cols.*member).resize(n);
  });
}

/// Runs task(k) for every k in [0, count) on util::DefaultWorkerCount()
/// workers, each taking the next task as it frees up — for task lists
/// whose costs differ widely.
void RunTasks(std::size_t count, util::FunctionRef<void(std::size_t)> task) {
  std::atomic<std::size_t> next{0};
  util::ParallelFor(std::min(count, util::DefaultWorkerCount()),
                    [&](std::size_t) {
                      for (std::size_t k = next++; k < count; k = next++) {
                        task(k);
                      }
                    });
}

/// One chunk directory entry, with its body's offset resolved.
struct ChunkEntry {
  std::size_t first = 0;
  std::size_t samples = 0;
  std::size_t offset = 0;  ///< into the body region
  std::size_t bytes = 0;
  std::uint64_t checksum = 0;
};

}  // namespace

std::uint64_t FingerprintConfig(const ExperimentConfig& config) {
  Fingerprinter fp;
  fp.Mix(kSnapshotFormatVersion);
  // The RNG draw protocol determines the simulated trace as much as any
  // config field; note ExperimentConfig::shards is deliberately NOT mixed —
  // every shard count replays the same snapshot.
  fp.Mix(kRngSchemeVersion);
  MixCampus(fp, config.campus);
  MixCollector(fp, config.collector);
  MixPriorLife(fp, config.prior_life);
  MixFaultPlan(fp, config.fault_plan);
  return fp.hash();
}

std::string SerializeExperimentResult(const ExperimentResult& result,
                                      std::uint64_t fingerprint) {
  EncodedSnapshot encoded = EncodeSnapshot(result, fingerprint);
  std::size_t size = encoded.head.size();
  for (const std::string& chunk : encoded.chunks) size += chunk.size();
  std::string out = std::move(encoded.head);
  out.reserve(size);
  for (const std::string& chunk : encoded.chunks) out += chunk;
  return out;
}

util::Result<ExperimentResult> DeserializeExperimentResult(
    std::string_view bytes, std::uint64_t expected_fingerprint) {
  using R = util::Result<ExperimentResult>;
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kMagic, kMagicLen) != 0) {
    return R::Err("not a labmon snapshot (bad magic)");
  }
  SidecarReader frame(bytes.substr(kMagicLen));
  const std::uint64_t version = frame.U64();
  if (frame.failed) return R::Err("truncated snapshot header");
  if (version != kSnapshotFormatVersion) {
    return R::Err("stale snapshot format (version " + std::to_string(version) +
                  ", expected " + std::to_string(kSnapshotFormatVersion) + ")");
  }
  const std::uint64_t fingerprint = frame.U64();
  if (frame.failed) return R::Err("truncated snapshot header");
  if (fingerprint != expected_fingerprint) {
    return R::Err("snapshot fingerprint mismatch (different config)");
  }
  const std::uint64_t head_len = frame.U64();
  const std::uint64_t head_checksum = frame.RawU64();
  if (frame.failed || head_len > frame.reader.remaining()) {
    return R::Err("truncated snapshot header");
  }
  const std::size_t head_offset = kMagicLen + frame.reader.position();
  const std::string_view head =
      bytes.substr(head_offset, static_cast<std::size_t>(head_len));
  const std::string_view body = bytes.substr(head_offset + head.size());
  if (ChecksumBytes(head) != head_checksum) {
    return R::Err("snapshot head checksum mismatch (corrupt file)");
  }

  ExperimentResult result;
  SidecarReader in(head);
  if (!ReadSidecar(in, result)) return R::Err("truncated snapshot sidecar");

  const std::uint64_t machine_count = in.U64();
  const std::uint64_t sample_count = in.U64();
  const std::uint64_t iteration_count = in.U64();
  const std::uint64_t user_count = in.U64();
  const std::uint64_t chunk_count = in.U64();
  if (in.failed) return R::Err("truncated snapshot trace header");
  if (machine_count > trace::kMaxTraceMachines ||
      sample_count > body.size() / trace::kMinSampleBytes ||
      chunk_count != (sample_count + kSnapshotChunkSamples - 1) /
                         kSnapshotChunkSamples) {
    return R::Err("implausible snapshot trace header");
  }
  const auto n = static_cast<std::size_t>(sample_count);

  auto users = trace::ReadUserTable(in.reader, user_count);
  if (!users.ok()) return R::Err("snapshot " + users.error());

  std::vector<ChunkEntry> chunks(static_cast<std::size_t>(chunk_count));
  std::size_t body_offset = 0;
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    ChunkEntry& chunk = chunks[k];
    chunk.first = static_cast<std::size_t>(in.U64());
    chunk.samples = static_cast<std::size_t>(in.U64());
    const std::uint64_t chunk_bytes = in.U64();
    chunk.checksum = in.RawU64();
    if (in.failed) return R::Err("truncated snapshot chunk directory");
    if (chunk.first != k * kSnapshotChunkSamples ||
        chunk.samples != std::min(kSnapshotChunkSamples, n - chunk.first)) {
      return R::Err("snapshot chunk directory out of order");
    }
    if (chunk_bytes > body.size() - body_offset) {
      return R::Err("truncated snapshot trace");
    }
    chunk.offset = body_offset;
    chunk.bytes = static_cast<std::size_t>(chunk_bytes);
    body_offset += chunk.bytes;
  }
  auto iterations = trace::ReadIterationRows(in.reader, iteration_count);
  if (!iterations.ok()) return R::Err("snapshot " + iterations.error());
  if (!in.reader.AtEnd()) return R::Err("trailing bytes in snapshot head");
  if (body_offset != body.size()) {
    return R::Err("trailing bytes after snapshot trace");
  }

  // Size the columns (the zero-fill page faults are ~100 bytes per sample)
  // while checksumming the chunks, then decode every chunk straight into
  // its disjoint row range.
  trace::TraceStore::Columns cols;
  std::vector<std::string> errors(chunks.size());
  const auto chunk_view = [&](std::size_t k) {
    return body.substr(chunks[k].offset, chunks[k].bytes);
  };
  RunTasks(kColumnCount + chunks.size(), [&](std::size_t task) {
    if (task < kColumnCount) {
      ResizeColumn(cols, task, n);
    } else if (const std::size_t k = task - kColumnCount;
               ChecksumBytes(chunk_view(k)) != chunks[k].checksum) {
      errors[k] = "snapshot chunk " + std::to_string(k) +
                  " checksum mismatch (corrupt file)";
    }
  });
  const auto first_error = [&]() -> const std::string* {
    for (const std::string& error : errors) {
      if (!error.empty()) return &error;
    }
    return nullptr;
  };
  if (const std::string* error = first_error()) return R::Err(*error);
  util::ParallelFor(chunks.size(), [&](std::size_t k) {
    const std::string_view data = chunk_view(k);
    const auto used = trace::DecodeSampleRange(
        data, trace::MachineIdBound(machine_count), users.value().size(), cols,
        chunks[k].first, chunks[k].samples);
    if (!used.ok()) {
      errors[k] = "snapshot chunk " + std::to_string(k) + ": " + used.error();
    } else if (used.value() != data.size()) {
      errors[k] = "trailing bytes in snapshot chunk " + std::to_string(k);
    }
  });
  if (const std::string* error = first_error()) return R::Err(*error);

  auto store = trace::TraceStore::Adopt(
      static_cast<std::size_t>(machine_count), std::move(cols),
      std::move(users).value(), std::move(iterations).value());
  if (!store.ok()) return R::Err("snapshot trace: " + store.error());
  result.trace = std::move(store).value();
  return result;
}

SnapshotCache::SnapshotCache(std::string directory)
    : directory_(std::move(directory)) {}

std::string SnapshotCache::PathFor(std::uint64_t fingerprint) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.lmsnap",
                static_cast<unsigned long long>(fingerprint));
  return directory_ + "/" + name;
}

bool SnapshotCache::Contains(std::uint64_t fingerprint) const {
  std::error_code ec;
  return std::filesystem::exists(PathFor(fingerprint), ec);
}

util::Result<ExperimentResult> SnapshotCache::Load(
    std::uint64_t fingerprint) const {
  auto bytes = util::ReadTextFile(PathFor(fingerprint));
  if (!bytes.ok()) {
    return util::Result<ExperimentResult>::Err(bytes.error());
  }
  return DeserializeExperimentResult(bytes.value(), fingerprint);
}

util::Result<bool> SnapshotCache::Store(std::uint64_t fingerprint,
                                        const ExperimentResult& result) const {
  using R = util::Result<bool>;
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    return R::Err("cannot create snapshot dir " + directory_ + ": " +
                  ec.message());
  }
  const std::string path = PathFor(fingerprint);
  const std::string tmp = path + ".tmp";
  const EncodedSnapshot encoded = EncodeSnapshot(result, fingerprint);
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return R::Err("cannot open for write: " + tmp);
    out.write(encoded.head.data(),
              static_cast<std::streamsize>(encoded.head.size()));
    for (const std::string& chunk : encoded.chunks) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    }
    out.close();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return R::Err("write failed: " + tmp);
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return R::Err("cannot publish snapshot " + path + ": " + ec.message());
  }
  return true;
}

}  // namespace labmon::core
