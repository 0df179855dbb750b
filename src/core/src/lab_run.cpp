#include "lab_run.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "labmon/core/snapshot.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/winsim/paper_specs.hpp"

namespace labmon::core::detail {

namespace {

winsim::Fleet BuildFleet(const ExperimentConfig& config) {
  obs::Span build_span("experiment.build_fleet");
  obs::prof::PhaseScope prof_scope(obs::prof::Phase::kBuildFleet);
  util::Rng rng(config.campus.seed);
  return winsim::MakePaperFleet(rng, config.prior_life,
                                config.campus.scale_labs);
}

workload::CampusProfile BuildProfile(const winsim::Fleet& fleet,
                                     const workload::CampusConfig& campus) {
  obs::prof::PhaseScope prof_scope(obs::prof::Phase::kBuildFleet);
  return workload::CampusProfile::Build(fleet, campus);
}

/// The lab's own fault substream, so fault draws are independent of how
/// labs are grouped into shards.
faultsim::FaultPlan LabFaultPlan(const ExperimentConfig& config,
                                 std::size_t lab) {
  faultsim::FaultPlan plan = config.fault_plan;
  plan.seed = util::DeriveSeed(config.fault_plan.seed,
                               util::seed_stream::kFaults, lab);
  return plan;
}

}  // namespace

LabTally& LabTally::operator+=(const LabTally& other) noexcept {
  stats.attempts += other.stats.attempts;
  stats.successes += other.stats.successes;
  stats.timeouts += other.stats.timeouts;
  stats.errors += other.stats.errors;
  stats.missing += other.stats.missing;
  stats.corrupt += other.stats.corrupt;
  stats.recovered_after_retry += other.stats.recovered_after_retry;
  stats.retry_attempts += other.stats.retry_attempts;
  stats.retried_collections += other.stats.retried_collections;
  stats.faults_injected += other.stats.faults_injected;
  truth += other.truth;
  parse_failures += other.parse_failures;
  crosscheck_mismatches += other.crosscheck_mismatches;
  return *this;
}

Campaign::Campaign(const ExperimentConfig& config)
    : config(config),
      fleet(BuildFleet(config)),
      profile(BuildProfile(fleet, config.campus)) {}

std::size_t ClampWorkers(int shards, std::size_t lab_count) {
  const std::size_t requested = shards > 0 ? static_cast<std::size_t>(shards)
                                           : util::DefaultWorkerCount();
  return std::max<std::size_t>(1, std::min(lab_count, requested));
}

LabRun::LabRun(Campaign& campaign, std::size_t lab, BlockSealer& sealer)
    : end_(campaign.config.campus.EndTime()),
      parser_(sealer.parser()),
      driver_(campaign.fleet, campaign.config.campus, campaign.profile, lab,
              lab + 1),
      injector_(LabFaultPlan(campaign.config, lab),
                campaign.config.collector.metrics),
      coordinator_(campaign.fleet, probe_, Collector(campaign, lab), sealer,
                   ddc::Coordinator::AdvanceFn(advance_)) {}

ddc::CoordinatorConfig LabRun::Collector(Campaign& campaign,
                                         std::size_t lab) {
  const ExperimentConfig& config = campaign.config;
  const winsim::LabInfo& info = campaign.fleet.labs()[lab];
  ddc::CoordinatorConfig collector = config.collector;
  collector.structured_fast_path = config.structured_fast_path;
  collector.first_machine = info.first;
  collector.machine_count = info.count;
  collector.aligned_schedule = true;
  collector.seed = util::DeriveSeed(config.collector.seed,
                                    util::seed_stream::kCollector, lab);
  if (injector_.active()) {
    injector_.BindFleet(campaign.fleet);
    collector.faults = &injector_;
  }
  return collector;
}

void LabRun::Advance::operator()(util::SimTime t) const {
  // Hot path (one call per machine-sample): sampled, not timed in full, to
  // stay inside the profiler's overhead budget.
  obs::prof::SampledPhaseScope prof_scope(obs::prof::Phase::kSimulate);
  driver->AdvanceTo(t);
}

LabTally LabRun::Finish() {
  LabTally tally;
  tally.stats = coordinator_.Finish();
  driver_.FinishAt(end_);
  tally.truth = driver_.ground_truth();
  tally.parse_failures = parser_.parse_failures();
  tally.crosscheck_mismatches = parser_.crosscheck_mismatches();
  return tally;
}

BlockSealer::BlockSealer(std::size_t machine_count, std::size_t block_samples,
                         std::size_t reserve, const std::string& segment_path,
                         trace::SpillCodecId codec, Publish publish)
    : store_(machine_count),
      block_samples_(std::max<std::size_t>(1, block_samples)),
      publish_(std::move(publish)) {
  store_.Reserve(reserve);
  if (segment_path.empty()) return;
  auto opened = trace::SegmentWriter::Open(segment_path, machine_count, codec);
  if (opened.ok()) {
    segment_.emplace(std::move(opened).value());
  } else {
    error_ = opened.error();
  }
}

void BlockSealer::OnIterationEnd(std::uint64_t iteration,
                                 util::SimTime start_time,
                                 util::SimTime end_time) {
  parser_.OnIterationEnd(iteration, start_time, end_time);
  if (store_.size() >= block_samples_) Seal();
}

void BlockSealer::SealPending() {
  if (store_.size() > 0 || !store_.iterations().empty()) Seal();
}

void BlockSealer::Seal() {
  if (segment_) {
    if (auto appended = segment_->Append(store_);
        !appended.ok() && error_.empty()) {
      error_ = appended.error();
    }
  }
  publish_(store_);
  ++blocks_sealed_;
  store_.ClearSamples();
}

bool WriteSidecar(const std::string& path, std::uint64_t fingerprint,
                  std::size_t lab, const LabCheckpoint& cp) {
  std::ostringstream out;
  out << kSidecarMagic << ' ' << kSidecarVersion << '\n';
  out << "fingerprint " << fingerprint << '\n';
  out << "lab " << lab << '\n';
  out << "codec " << trace::SpillCodecName(cp.codec) << '\n';
  out << "blocks " << cp.blocks << '\n';
  out << "parse_failures " << cp.parse_failures << '\n';
  out << "crosscheck_mismatches " << cp.crosscheck_mismatches << '\n';
  const ddc::RunStats& s = cp.stats;
  out << "stats " << s.attempts << ' ' << s.successes << ' ' << s.timeouts
      << ' ' << s.errors << ' ' << s.missing << ' ' << s.corrupt << ' '
      << s.recovered_after_retry << ' ' << s.retry_attempts << ' '
      << s.retried_collections << ' ' << s.faults_injected << '\n';
  const workload::GroundTruth& t = cp.truth;
  out << "truth " << t.boots << ' ' << t.shutdowns << ' ' << t.reboots << ' '
      << t.short_cycles << ' ' << t.class_logins << ' ' << t.walkin_logins
      << ' ' << t.forgotten_sessions << ' ' << t.lost_arrivals << ' '
      << t.sweep_shutdowns << '\n';

  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return false;
    const std::string bytes = out.str();
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    file.flush();
    if (!file) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool LoadSidecar(const std::string& path, std::uint64_t fingerprint,
                 std::size_t lab, LabCheckpoint& cp) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  std::string magic;
  std::uint64_t version = 0;
  std::uint64_t stored_fingerprint = 0;
  std::uint64_t stored_lab = 0;
  std::string key;
  if (!(file >> magic >> version) || magic != kSidecarMagic ||
      version != kSidecarVersion) {
    return false;
  }
  if (!(file >> key >> stored_fingerprint) || key != "fingerprint" ||
      stored_fingerprint != fingerprint) {
    return false;
  }
  if (!(file >> key >> stored_lab) || key != "lab" || stored_lab != lab) {
    return false;
  }
  std::string codec_name;
  if (!(file >> key >> codec_name) || key != "codec") return false;
  const auto codec = trace::ParseSpillCodecName(codec_name);
  if (!codec.has_value()) return false;
  cp.codec = *codec;
  if (!(file >> key >> cp.blocks) || key != "blocks") return false;
  if (!(file >> key >> cp.parse_failures) || key != "parse_failures") {
    return false;
  }
  if (!(file >> key >> cp.crosscheck_mismatches) ||
      key != "crosscheck_mismatches") {
    return false;
  }
  ddc::RunStats& s = cp.stats;
  if (!(file >> key >> s.attempts >> s.successes >> s.timeouts >> s.errors >>
        s.missing >> s.corrupt >> s.recovered_after_retry >>
        s.retry_attempts >> s.retried_collections >> s.faults_injected) ||
      key != "stats") {
    return false;
  }
  workload::GroundTruth& t = cp.truth;
  if (!(file >> key >> t.boots >> t.shutdowns >> t.reboots >>
        t.short_cycles >> t.class_logins >> t.walkin_logins >>
        t.forgotten_sessions >> t.lost_arrivals >> t.sweep_shutdowns) ||
      key != "truth") {
    return false;
  }
  return true;
}

void SetIterationAggregates(ddc::RunStats& stats,
                            std::span<const trace::IterationInfo> its) {
  double sum_s = 0.0;
  double max_s = 0.0;
  for (const trace::IterationInfo& it : its) {
    const double duration = static_cast<double>(it.end_t - it.start_t);
    sum_s += duration;
    max_s = std::max(max_s, duration);
  }
  const std::size_t n = its.size();
  stats.iterations = n;
  stats.max_iteration_s = max_s;
  stats.mean_iteration_s = n ? sum_s / static_cast<double>(n) : 0.0;
  stats.total_span_s = n ? static_cast<double>(its.back().end_t) : 0.0;
}

void WarnCrosscheckMismatches(std::uint64_t mismatches) {
  if (mismatches == 0) return;
  util::log::Warn(std::to_string(mismatches) +
                  " structured/text cross-check mismatches — the fast-path "
                  "codec diverged from the wire format");
}

CampaignRun::CampaignRun(const ExperimentConfig& config,
                         const StreamingOptions& options)
    : campaign(config),
      options(options),
      spill(!options.spill_dir.empty()),
      fingerprint(FingerprintConfig(config)),
      checkpoints(campaign.fleet.lab_count()),
      resumed(campaign.fleet.lab_count(), 0) {
  if (spill) spill_stats.codec = trace::SpillCodecName(options.spill_codec);
}

bool CampaignRun::Prepare() {
  if (!spill) return true;
  std::error_code ec;
  std::filesystem::create_directories(options.spill_dir, ec);
  if (ec) return Fail("cannot create spill dir: " + options.spill_dir);
  if (!options.resume) return true;
  for (std::size_t lab = 0; lab < checkpoints.size(); ++lab) {
    LabCheckpoint cp;
    if (!LoadSidecar(SidecarPath(options.spill_dir, lab), fingerprint, lab,
                     cp)) {
      continue;
    }
    // The sidecar is only written after a complete segment, but guard
    // against the segment being deleted or clobbered since.
    auto reader =
        trace::SegmentReader::Open(SegmentPath(options.spill_dir, lab));
    if (!reader.ok() ||
        reader.value().machine_count() != campaign.fleet.size()) {
      continue;
    }
    checkpoints[lab] = cp;
    resumed[lab] = 1;
    ++labs_resumed;
  }
  return true;
}

SealedLab::SealedLab(CampaignRun& run, std::size_t lab, std::size_t reserve,
                     BlockSealer::Publish publish)
    : sealer(run.campaign.fleet.size(), run.options.block_samples, reserve,
             run.spill ? SegmentPath(run.options.spill_dir, lab) : "",
             run.options.spill_codec, std::move(publish)),
      collector(run.campaign, lab, sealer) {}

bool CampaignRun::Commit(std::size_t lab, BlockSealer& sealer,
                        const LabTally& tally) {
  sealer.SealPending();
  if (!sealer.error().empty()) return Fail(sealer.error());
  LabCheckpoint& cp = checkpoints[lab];
  cp = LabCheckpoint{tally, sealer.blocks_sealed(), options.spill_codec};
  if (!spill) return true;
  trace::SegmentWriter& segment = *sealer.segment();
  if (auto finished = segment.Finish(); !finished.ok()) {
    return Fail(finished.error());
  }
  {
    const trace::SpillCodecStats& stats = segment.codec_stats();
    const std::scoped_lock lock(mutex_);
    SpillCompressionStats& out = spill_stats;
    ++out.segments;
    out.segment_bytes += segment.bytes_written();
    out.blocks_encoded += stats.blocks;
    out.samples_encoded += stats.samples;
    out.raw_bytes_encoded += stats.raw_bytes;
    out.payload_bytes_encoded += stats.payload_bytes;
    out.encode_s += static_cast<double>(stats.ns) * 1e-9;
  }
  if (!WriteSidecar(SidecarPath(options.spill_dir, lab), fingerprint, lab,
                    cp)) {
    // A failed sidecar only costs a re-simulation on resume.
    util::log::Warn("checkpoint sidecar write failed for lab " +
                    std::to_string(lab));
  }
  return true;
}

bool CampaignRun::Fail(std::string message) {
  const std::scoped_lock lock(mutex_);
  errors.push_back(std::move(message));
  return false;
}

void CampaignRun::AddDecodeStats(const trace::SegmentReader& reader) {
  const trace::SpillCodecStats& stats = reader.codec_stats();
  const std::scoped_lock lock(mutex_);
  SpillCompressionStats& out = spill_stats;
  out.blocks_decoded += stats.blocks;
  out.samples_decoded += stats.samples;
  out.raw_bytes_decoded += stats.raw_bytes;
  out.payload_bytes_decoded += stats.payload_bytes;
  out.decode_s += static_cast<double>(stats.ns) * 1e-9;
}

LabTally CampaignRun::Total() const {
  LabTally total;
  for (const LabCheckpoint& cp : checkpoints) total += cp;
  return total;
}

}  // namespace labmon::core::detail
