// stream_fleet — streamed-vs-materialised campaign bench.
//
// Measures the streaming engine (core::StreamingExperiment: lockstep
// shard collection, staging ring, merge frontier and analysis fold running
// concurrently, spilling per-lab segments to disk) against the
// materialised engine (core::Experiment) on the same campus and seed:
//
//   * wall time and machine-samples/s per mode
//   * peak RSS per mode — the streaming engine's whole point is that its
//     footprint is bounded by block size, ring capacity and per-machine
//     analysis state, not by the simulated horizon
//   * the merged sample-stream hash, which must be identical between the
//     streamed and the materialised run (bit-identical streaming)
//
// Peak RSS (getrusage ru_maxrss) is a process-wide high-water mark, so a
// single process cannot measure two configurations. The parent therefore
// re-execs itself once per mode (`stream_fleet --measure <mode> <out>`)
// and each child reports its own numbers as a JSON fragment; the parent
// assembles BENCH_stream.json, which bench/stream_gate checks in CI.
//
// Modes:
//   materialized    Experiment::Run at LABMON_STREAM_DAYS (default 14),
//                   sample-stream hash computed over the materialised store.
//   streamed        StreamingExperiment::Run at the same horizon, spilling
//                   per-lab segments (default codec, LMSG2) to a scratch
//                   directory.
//   streamed_lmsg1  the streamed run spilling uncompressed LMSG1 segments
//                   — same horizon, so its segment bytes against
//                   `streamed` measure the LMSG2 compression ratio and its
//                   hash pins cross-codec stream identity.
//   streamed_2x     the streamed run at twice the horizon — its peak RSS
//                   must stay flat vs `streamed` (O(block) memory claim).
//
// The parent summarises the codec comparison in a "compression" section
// of BENCH_stream.json (lmsg1 vs lmsg2 on-disk bytes and their ratio),
// which bench/stream_gate holds to a minimum band in CI.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/util/csv.hpp"
#include "labmon/util/json.hpp"
#include "labmon/util/strings.hpp"

namespace {

using namespace labmon;

int StreamDays() {
  if (const char* env = std::getenv("LABMON_STREAM_DAYS")) {
    const auto days = util::ParseInt64(env);
    if (days && *days > 0 && *days <= 5000) {
      return static_cast<int>(*days);
    }
    std::cerr << "warning: ignoring malformed LABMON_STREAM_DAYS=\"" << env
              << "\" (want an integer in [1, 5000]); using 14\n";
  }
  return 14;
}

// The bench spills with smaller blocks than the 64k production default:
// at bench horizons a whole lab fits in one 64k block, which would make
// "O(block) memory" degenerate into "O(lab trace) memory" and tell us
// nothing. 8k blocks force multiple seals per lab, so the RSS numbers
// actually measure the bounded-footprint claim.
std::size_t StreamBlockSamples() {
  if (const char* env = std::getenv("LABMON_STREAM_BLOCK")) {
    const auto block = util::ParseInt64(env);
    if (block && *block >= 256 && *block <= 1 << 20) {
      return static_cast<std::size_t>(*block);
    }
    std::cerr << "warning: ignoring malformed LABMON_STREAM_BLOCK=\"" << env
              << "\" (want an integer in [256, 1048576]); using 8192\n";
  }
  return 8192;
}

std::string HexHash(std::uint64_t h) {
  std::ostringstream hex;
  hex << std::hex << h;
  return hex.str();
}

core::ExperimentConfig StreamConfig(int days) {
  core::ExperimentConfig config;
  config.campus.days = days;
  config.campus.seed = bench::BenchSeed();
  return config;
}

/// One measurement in a child process; writes a JSON fragment to `out`.
int Measure(const std::string& mode, const std::string& out_path) {
  const int base_days = StreamDays();
  const int days = mode == "streamed_2x" ? 2 * base_days : base_days;
  const auto start = std::chrono::steady_clock::now();

  std::uint64_t attempts = 0;
  std::uint64_t samples = 0;
  std::uint64_t merged_blocks = 0;
  std::uint64_t stream_hash = 0;
  core::SpillCompressionStats spill_stats;

  if (mode == "materialized") {
    const auto result = core::Experiment::Run(StreamConfig(days));
    attempts = result.run_stats.attempts;
    samples = result.trace.size();
    trace::StoreReader reader(result.trace);
    stream_hash = trace::HashSampleStream(reader);
  } else if (mode == "streamed" || mode == "streamed_2x" ||
             mode == "streamed_lmsg1") {
    const std::filesystem::path spill =
        std::filesystem::path("stream_fleet_spill") / mode;
    std::error_code ec;
    std::filesystem::remove_all(spill, ec);
    core::StreamingOptions options;
    options.block_samples = StreamBlockSamples();
    options.spill_dir = spill.string();
    if (mode == "streamed_lmsg1") {
      options.spill_codec = trace::SpillCodecId::kLmsg1;
    }
    const auto result =
        core::StreamingExperiment::Run(StreamConfig(days), options);
    if (!result.errors.empty()) {
      for (const auto& error : result.errors) {
        std::cerr << "stream error: " << error << "\n";
      }
      return 1;
    }
    attempts = result.run_stats.attempts;
    samples = result.samples;
    merged_blocks = result.merged_blocks;
    stream_hash = result.stream_hash;
    spill_stats = result.spill;
    std::filesystem::remove_all(spill, ec);
  } else {
    std::cerr << "unknown mode \"" << mode << "\"\n";
    return 2;
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double samples_per_s =
      wall_s > 0.0 ? static_cast<double>(attempts) / wall_s : 0.0;
  const std::uint64_t peak_rss = bench::PeakRssBytes();
  const bool rss_supported = peak_rss != 0;
  if (!rss_supported) {
    std::cerr << "warning: peak RSS not measurable on this platform "
                 "(getrusage and /proc/self/status both unavailable); "
                 "reporting peak_rss_supported=false\n";
  }

  const double encode_mb_per_s =
      spill_stats.encode_s > 0.0
          ? static_cast<double>(spill_stats.raw_bytes_encoded) /
                spill_stats.encode_s / 1.0e6
          : 0.0;
  const double decode_mb_per_s =
      spill_stats.decode_s > 0.0
          ? static_cast<double>(spill_stats.raw_bytes_decoded) /
                spill_stats.decode_s / 1.0e6
          : 0.0;

  // The hash is emitted as a hex string: JSON numbers round-trip through
  // doubles in the gate's parser and would silently lose low bits.
  std::ostringstream json;
  json << "{\n"
       << "      \"mode\": \"" << mode << "\",\n"
       << "      \"days\": " << days << ",\n"
       << "      \"wall_s\": " << util::FormatFixed(wall_s, 6) << ",\n"
       << "      \"attempts\": " << attempts << ",\n"
       << "      \"samples\": " << samples << ",\n"
       << "      \"machine_samples_per_s\": "
       << util::FormatFixed(samples_per_s, 1) << ",\n"
       << "      \"merged_blocks\": " << merged_blocks << ",\n"
       << "      \"peak_rss_bytes\": " << peak_rss << ",\n"
       << "      \"peak_rss_supported\": "
       << (rss_supported ? "true" : "false") << ",\n"
       << "      \"spill_codec\": \"" << spill_stats.codec << "\",\n"
       << "      \"spill_segment_bytes\": " << spill_stats.segment_bytes
       << ",\n"
       << "      \"spill_raw_bytes\": " << spill_stats.raw_bytes_encoded
       << ",\n"
       << "      \"spill_payload_bytes\": "
       << spill_stats.payload_bytes_encoded << ",\n"
       << "      \"compression_ratio\": "
       << util::FormatFixed(spill_stats.CompressionRatio(), 3) << ",\n"
       << "      \"encode_ns_per_sample\": "
       << util::FormatFixed(spill_stats.EncodeNsPerSample(), 1) << ",\n"
       << "      \"decode_ns_per_sample\": "
       << util::FormatFixed(spill_stats.DecodeNsPerSample(), 1) << ",\n"
       << "      \"encode_mb_per_s\": "
       << util::FormatFixed(encode_mb_per_s, 1) << ",\n"
       << "      \"decode_mb_per_s\": "
       << util::FormatFixed(decode_mb_per_s, 1) << ",\n"
       << "      \"stream_hash\": \"" << HexHash(stream_hash) << "\"\n"
       << "    }";
  if (const auto written = util::WriteTextFile(out_path, json.str());
      !written.ok()) {
    std::cerr << "failed to write " << out_path << ": " << written.error()
              << "\n";
    return 1;
  }

  std::cout << mode << ": " << days << " day(s), "
            << util::FormatFixed(wall_s, 3) << " s, "
            << util::FormatFixed(samples_per_s, 0) << " machine-samples/s, "
            << merged_blocks << " merged block(s), peak rss "
            << util::FormatFixed(static_cast<double>(peak_rss) /
                                     (1024.0 * 1024.0),
                                 1)
            << " MiB, stream hash " << HexHash(stream_hash) << "\n";
  if (!spill_stats.codec.empty()) {
    std::cout << "  spill " << spill_stats.codec << ": "
              << spill_stats.segment_bytes << " bytes on disk ("
              << util::FormatFixed(spill_stats.CompressionRatio(), 2)
              << "x raw), encode "
              << util::FormatFixed(spill_stats.EncodeNsPerSample(), 1)
              << " ns/sample @ " << util::FormatFixed(encode_mb_per_s, 0)
              << " MB/s, decode "
              << util::FormatFixed(spill_stats.DecodeNsPerSample(), 1)
              << " ns/sample @ " << util::FormatFixed(decode_mb_per_s, 0)
              << " MB/s\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--measure") {
    return Measure(argv[2], argv[3]);
  }
  if (argc != 1) {
    std::cerr << "usage: stream_fleet\n"
              << "       stream_fleet --measure <mode> <out.json>\n";
    return 2;
  }

  const int days = StreamDays();
  std::cout << std::string(72, '=') << '\n'
            << "stream_fleet: streamed vs materialised campaign\n"
            << "(169 machines, " << days << " simulated day(s), block size "
            << StreamBlockSamples()
            << " samples; one child process per mode for clean RSS)\n"
            << std::string(72, '=') << "\n\n";

  const std::string self = argv[0];
  const char* modes[] = {"materialized", "streamed", "streamed_lmsg1",
                         "streamed_2x"};
  constexpr std::size_t kModeCount = std::size(modes);
  // lmsg1 vs lmsg2 on-disk bytes for the parent's compression summary.
  double lmsg1_bytes = 0.0;
  double lmsg2_bytes = 0.0;
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"stream_fleet\",\n"
       << "  \"days\": " << days << ",\n"
       << "  \"block_samples\": " << StreamBlockSamples() << ",\n"
       << "  \"modes\": {\n";
  for (std::size_t i = 0; i < kModeCount; ++i) {
    const std::string fragment =
        std::string("stream_fleet_") + modes[i] + ".part.json";
    const std::string command =
        "\"" + self + "\" --measure " + modes[i] + " \"" + fragment + "\"";
    if (std::system(command.c_str()) != 0) {
      std::cerr << "FAIL: child \"" << command << "\" failed\n";
      return 1;
    }
    const auto part = util::ReadTextFile(fragment);
    if (!part.ok()) {
      std::cerr << "failed to read " << fragment << ": " << part.error()
                << "\n";
      return 1;
    }
    std::error_code ec;
    std::filesystem::remove(fragment, ec);
    if (const auto parsed = util::json::Parse(part.value()); parsed.ok()) {
      const double bytes = parsed.value().Number("spill_segment_bytes", 0.0);
      const std::string& codec = parsed.value()["spill_codec"].AsString();
      if (codec == "lmsg1") lmsg1_bytes = bytes;
      // streamed_2x also spills lmsg2 but at a different horizon; only the
      // base-horizon run is comparable against streamed_lmsg1.
      if (codec == "lmsg2" && std::string(modes[i]) == "streamed") {
        lmsg2_bytes = bytes;
      }
    }
    json << "    \"" << modes[i] << "\": " << part.value()
         << (i + 1 < kModeCount ? "," : "") << "\n";
  }
  json << "  },\n"
       << "  \"compression\": {\n"
       << "    \"lmsg1_segment_bytes\": "
       << static_cast<std::uint64_t>(lmsg1_bytes) << ",\n"
       << "    \"lmsg2_segment_bytes\": "
       << static_cast<std::uint64_t>(lmsg2_bytes) << ",\n"
       << "    \"segment_ratio\": "
       << util::FormatFixed(
              lmsg2_bytes > 0.0 ? lmsg1_bytes / lmsg2_bytes : 0.0, 3)
       << "\n"
       << "  }\n}\n";
  std::cout << "\ncompression: lmsg1 "
            << static_cast<std::uint64_t>(lmsg1_bytes) << " bytes vs lmsg2 "
            << static_cast<std::uint64_t>(lmsg2_bytes) << " bytes ("
            << util::FormatFixed(
                   lmsg2_bytes > 0.0 ? lmsg1_bytes / lmsg2_bytes : 0.0, 2)
            << "x)\n";

  if (const auto written =
          util::WriteTextFile("BENCH_stream.json", json.str());
      !written.ok()) {
    std::cerr << "failed to write BENCH_stream.json: " << written.error()
              << "\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_stream.json (run bench/stream_gate on it)\n";
  return 0;
}
