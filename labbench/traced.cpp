// Traced run: drives each workload through the public functions of every
// layer (winsim, workload, ddc, trace, analysis, core, harvest) with spans
// recorded around the calls, and derives the per-layer metrics from the
// spans and the counts taken at the same boundaries.
//
// The campaign workloads rebuild the sharded engine's per-lab loop from
// public calls (fleet, campus profile, one driver + coordinator + probe +
// sink per lab, MergeTraces), with timing decorators on the probe, the
// sink and the advance callback. Each traced pass first runs the untraced
// workload in the same process: the rebuilt pass must reproduce its
// sample-stream hash (so both measure the same program), and the ratio of
// the two wall times is the tracing overhead.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "labmon/analysis/passes.hpp"
#include "labmon/analysis/pipeline.hpp"
#include "labmon/analysis/stream_fold.hpp"
#include "labmon/core/snapshot.hpp"
#include "labmon/ddc/w32_probe.hpp"
#include "labmon/faultsim/fault_injector.hpp"
#include "labmon/trace/derived_trace.hpp"
#include "labmon/trace/merge.hpp"
#include "labmon/trace/segment.hpp"
#include "labmon/trace/sink.hpp"
#include "labmon/trace/stream_merge.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/util/rng.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/profile.hpp"
#include "spans.hpp"

namespace labbench {
namespace {

using namespace labmon;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;

class Stopwatch {
 public:
  explicit Stopwatch(CallTimer& timer) : timer_(&timer), t0_(Clock::now()) {}
  ~Stopwatch() {
    timer_->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0_)
                      .count();
    ++timer_->calls;
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  CallTimer* timer_;
  Clock::time_point t0_;
};

/// What one Stopwatch costs, from timing empty ones: `inside_s` is the part
/// its own interval records (it inflates the timed layer), `outside_s` the
/// part that falls outside it, into the enclosing span's self time.
struct StopwatchCost {
  double inside_s = 0.0;
  double outside_s = 0.0;
};

StopwatchCost CalibrateStopwatch() {
  constexpr int kRounds = 5;
  constexpr std::uint64_t kCalls = 200000;
  std::vector<double> inside;
  std::vector<double> outside;
  for (int round = 0; round < kRounds; ++round) {
    CallTimer timer;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      Stopwatch watch(timer);
    }
    const double total_s = SecondsSince(t0);
    inside.push_back(timer.seconds() / kCalls);
    outside.push_back(std::max(0.0, total_s - timer.seconds()) / kCalls);
  }
  return {Median(inside), Median(outside)};
}

/// Times every probe execution, structured or text.
class TimedProbe final : public ddc::Probe {
 public:
  TimedProbe(ddc::Probe& inner, CallTimer& timer)
      : inner_(&inner), timer_(&timer) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::string Execute(winsim::Machine& machine,
                                    util::SimTime t) override {
    Stopwatch watch(*timer_);
    return inner_->Execute(machine, t);
  }
  [[nodiscard]] bool ExecuteInto(winsim::Machine& machine, util::SimTime t,
                                 ddc::W32Sample* out) override {
    Stopwatch watch(*timer_);
    return inner_->ExecuteInto(machine, t, out);
  }

 private:
  ddc::Probe* inner_;
  CallTimer* timer_;
};

/// Times every delivery into the post-collect sink.
class TimedSink final : public ddc::SampleSink {
 public:
  TimedSink(ddc::SampleSink& inner, CallTimer& timer)
      : inner_(&inner), timer_(&timer) {}

  ddc::SampleVerdict OnSample(const ddc::CollectedSample& sample) override {
    Stopwatch watch(*timer_);
    return inner_->OnSample(sample);
  }
  void OnIterationEnd(std::uint64_t iteration, util::SimTime start_time,
                      util::SimTime end_time) override {
    Stopwatch watch(*timer_);
    inner_->OnIterationEnd(iteration, start_time, end_time);
  }

 private:
  ddc::SampleSink* inner_;
  CallTimer* timer_;
};

/// Times each block pulled from a reader (segment decode).
class TimedReader final : public trace::TraceReader {
 public:
  TimedReader(trace::TraceReader& inner, CallTimer& timer)
      : inner_(&inner), timer_(&timer) {}
  const trace::TraceBlock* Next() override {
    Stopwatch watch(*timer_);
    return inner_->Next();
  }
  void Reset() override { inner_->Reset(); }

 private:
  trace::TraceReader* inner_;
  CallTimer* timer_;
};

using Metrics = std::map<std::string, double>;

/// What the rebuilt collect loop produces.
struct Collected {
  std::vector<trace::TraceStore> lab_traces;
  ddc::RunStats stats;
  std::uint64_t parse_failures = 0;
  std::uint64_t crosscheck_mismatches = 0;
  std::uint64_t events = 0;
};

/// The sharded engine's per-lab loop (core::Experiment::Run), rebuilt from
/// public calls with every layer boundary timed. Shards run on real
/// threads exactly as in the engine, so per-layer seconds are summed over
/// shard threads.
Collected TracedCollect(const core::ExperimentConfig& config,
                        winsim::Fleet& fleet,
                        const workload::CampusProfile& profile,
                        SpanRecorder& rec, std::uint32_t parent) {
  const std::size_t lab_count = fleet.lab_count();
  const std::vector<core::LabShard> shards = core::PartitionLabsByMachines(
      fleet, std::min(lab_count, static_cast<std::size_t>(config.shards)));
  const util::SimTime end = config.campus.EndTime();
  Collected out;
  out.lab_traces.resize(lab_count);
  std::vector<Collected> per_shard(shards.size());
  ScopedSpan collect(rec, "core.collect", parent);
  auto run_shard = [&](std::size_t s) {
    ScopedSpan shard_span(rec, "core.shard", collect.id());
    Collected& acc = per_shard[s];
    for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
         ++lab) {
      ScopedSpan lab_span(rec, "core.lab", shard_span.id());
      const winsim::LabInfo& info = fleet.labs()[lab];
      const std::uint32_t init_id = rec.Begin("workload.driver_init",
                                              lab_span.id());
      workload::WorkloadDriver driver(fleet, config.campus, profile, lab,
                                      lab + 1);
      rec.End(init_id);
      trace::TraceStore& store = out.lab_traces[lab];
      store.set_machine_count(fleet.size());
      store.Reserve(static_cast<std::size_t>(config.campus.days) * 96 / 2 *
                    info.count);
      trace::TraceStoreSink sink(store);
      ddc::W32Probe probe;
      CallTimer advance_t;
      CallTimer probe_t;
      CallTimer sink_t;
      TimedProbe timed_probe(probe, probe_t);
      TimedSink timed_sink(sink, sink_t);
      ddc::CoordinatorConfig collector = config.collector;
      collector.structured_fast_path = config.structured_fast_path;
      collector.first_machine = info.first;
      collector.machine_count = info.count;
      collector.aligned_schedule = true;
      collector.seed = util::DeriveSeed(config.collector.seed,
                                        util::seed_stream::kCollector, lab);
      faultsim::FaultPlan plan = config.fault_plan;
      plan.seed = util::DeriveSeed(config.fault_plan.seed,
                                   util::seed_stream::kFaults, lab);
      faultsim::FaultInjector injector(plan, collector.metrics);
      if (injector.active()) {
        injector.BindFleet(fleet);
        collector.faults = &injector;
      }
      auto advance = [&driver, &advance_t](util::SimTime t) {
        Stopwatch watch(advance_t);
        driver.AdvanceTo(t);
      };
      ddc::Coordinator coordinator(fleet, timed_probe, collector, timed_sink,
                                   advance);
      ddc::RunStats stats;
      {
        ScopedSpan run_span(rec, "ddc.collect", lab_span.id());
        stats = coordinator.Run(0, end);
        rec.Aggregate("workload.advance", run_span.id(), advance_t);
        rec.Aggregate("ddc.probe", run_span.id(), probe_t);
        rec.Aggregate("trace.sink", run_span.id(), sink_t);
      }
      {
        ScopedSpan finish_span(rec, "workload.finish", lab_span.id());
        driver.FinishAt(end);
      }
      acc.stats.attempts += stats.attempts;
      acc.stats.successes += stats.successes;
      acc.stats.timeouts += stats.timeouts;
      acc.parse_failures += sink.parse_failures();
      acc.crosscheck_mismatches += sink.crosscheck_mismatches();
      acc.events += driver.dispatched_events();
    }
  };
  util::ParallelFor(shards.size(), run_shard, shards.size());
  for (const Collected& acc : per_shard) {
    out.stats.attempts += acc.stats.attempts;
    out.stats.successes += acc.stats.successes;
    out.stats.timeouts += acc.stats.timeouts;
    out.parse_failures += acc.parse_failures;
    out.crosscheck_mismatches += acc.crosscheck_mismatches;
    out.events += acc.events;
  }
  rec.Count("ddc.attempts", static_cast<double>(out.stats.attempts));
  rec.Count("ddc.successes", static_cast<double>(out.stats.successes));
  rec.Count("ddc.timeouts", static_cast<double>(out.stats.timeouts));
  rec.Count("workload.events", static_cast<double>(out.events));
  return out;
}

/// Builds fleet and campus profile under spans, then runs the traced
/// collect loop.
Collected TracedCampaign(const core::ExperimentConfig& config,
                         SpanRecorder& rec, std::uint32_t parent,
                         std::vector<double>* perf_index,
                         std::vector<analysis::LabKey>* labs) {
  const std::uint32_t build_id = rec.Begin("winsim.build", parent);
  util::Rng rng(config.campus.seed);
  winsim::Fleet fleet = winsim::MakePaperFleet(rng, config.prior_life,
                                               config.campus.scale_labs);
  rec.End(build_id);
  const std::uint32_t profile_id = rec.Begin("workload.profile", parent);
  const workload::CampusProfile profile =
      workload::CampusProfile::Build(fleet, config.campus);
  rec.End(profile_id);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    perf_index->push_back(fleet.machine(i).spec().CombinedIndex());
  }
  for (const winsim::LabInfo& lab : fleet.labs()) {
    labs->push_back(analysis::LabKey{lab.name, lab.first, lab.count});
  }
  return TracedCollect(config, fleet, profile, rec, parent);
}

/// core::Report's derivation + analysis sweep, rebuilt from public calls.
void TracedReport(const trace::TraceStore& trace,
                  const std::vector<double>& perf_index,
                  std::vector<analysis::LabKey> labs, int days,
                  SpanRecorder& rec, std::uint32_t parent) {
  const std::uint32_t derive_id = rec.Begin("trace.derive", parent);
  const trace::DerivedTrace derived(
      trace, trace::DerivedTraceOptions{{}, kWorkers, nullptr});
  rec.End(derive_id);
  ScopedSpan report(rec, "analysis.report", parent);
  analysis::AnalysisPipeline pipeline(
      analysis::PipelineOptions{kWorkers, 8, nullptr});
  pipeline.Emplace<analysis::AggregatePass>();
  pipeline.Emplace<analysis::AvailabilityPass>();
  pipeline.Emplace<analysis::SessionHoursPass>();
  pipeline.Emplace<analysis::WeeklyPass>();
  pipeline.Emplace<analysis::EquivalencePass>(perf_index, 15,
                                              trace::kNoForgottenThreshold);
  pipeline.Emplace<analysis::StabilityPass>(days);
  pipeline.Emplace<analysis::PerLabPass>(std::move(labs));
  pipeline.Emplace<analysis::CapacityPass>();
  (void)pipeline.Run(derived);
}

/// Metrics read off the recorder's spans and counts; the workload functions
/// add the ones they take from results.
///
/// The per-call decorators' own cost is taken out with the calibrated
/// Stopwatch cost: its inside part from each aggregate layer, its outside
/// part from the self time of the span the calls were made in. What stays
/// in is the decorator's virtual hop, a few ns per call.
void CollectMetrics(const SpanRecorder& rec, const StopwatchCost& cost,
                    Metrics& m) {
  const auto timed_total = [&](const char* name) {
    const double calls = static_cast<double>(rec.Calls(name));
    return std::max(0.0, rec.Total(name) - cost.inside_s * calls);
  };
  const auto self_total = [&](const char* name) {
    const double calls = static_cast<double>(rec.ChildCalls(name));
    return std::max(0.0, rec.SelfTotal(name) - cost.outside_s * calls);
  };
  m["winsim.build_s"] = rec.Total("winsim.build");
  m["workload.profile_s"] = rec.Total("workload.profile");
  m["workload.advance_s"] = timed_total("workload.advance");
  m["workload.advance_calls"] =
      static_cast<double>(rec.Calls("workload.advance"));
  m["workload.events"] = rec.CountValue("workload.events");
  m["ddc.collect_self_s"] = self_total("ddc.collect");
  m["ddc.probe_s"] = timed_total("ddc.probe");
  m["ddc.probe_calls"] = static_cast<double>(rec.Calls("ddc.probe"));
  m["ddc.attempts"] = rec.CountValue("ddc.attempts");
  m["ddc.timeouts"] = rec.CountValue("ddc.timeouts");
  const double attempts = rec.CountValue("ddc.attempts");
  m["ddc.success_ratio"] =
      attempts > 0 ? rec.CountValue("ddc.successes") / attempts : 0.0;
  m["trace.sink_s"] = timed_total("trace.sink");
  m["trace.merge_s"] = rec.Total("trace.merge");
  m["trace.derive_s"] = rec.Total("trace.derive");
  m["analysis.report_s"] = rec.Total("analysis.report");
  m["core.snapshot_load_s"] = rec.Total("core.snapshot_load");
  m["trace.decode_s"] = timed_total("trace.decode");
  m["trace.stream_merge_s"] = self_total("trace.stream_merge");
  m["analysis.fold_s"] = timed_total("analysis.fold");
  m["analysis.finish_s"] = rec.Total("analysis.finish");
  m["harvest.run_s"] = rec.Total("harvest.run");
  m["harvest.self_s"] =
      std::max(0.0, m["harvest.run_s"] - m["workload.advance_s"]);
  const std::vector<double> shards = rec.Durations("core.shard");
  if (!shards.empty()) {
    double max_s = 0.0;
    double sum_s = 0.0;
    for (const double s : shards) {
      max_s = std::max(max_s, s);
      sum_s += s;
    }
    m["core.shard_imbalance"] =
        max_s / (sum_s / static_cast<double>(shards.size()));
  }
}

/// Runs the untraced workload twice and returns the wall seconds the second
/// run reports for the stages the traced pass also times: the first run
/// pays the process's cold page faults and allocator growth, which the
/// traced pass that follows would not.
template <typename Fn>
double WarmWallSeconds(Fn&& run) {
  (void)run();
  return run();
}

std::vector<std::string> HashCheck(const char* what, std::uint64_t got,
                                   std::uint64_t want) {
  if (got == want) return {};
  return {std::string(what) + " hash " + Hex(got) + " != untraced " +
          Hex(want)};
}

void Append(std::vector<std::string>& to, std::vector<std::string> from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ---------------------------------------------------------------------------

std::vector<std::string> TraceBatch(std::uint64_t seed, SpanRecorder& rec,
                                    double* untraced_wall_s,
                                    double* traced_wall_s) {
  const core::ExperimentConfig config =
      CampaignConfig(Workload::kBatchCampus, seed);
  std::uint64_t untraced_hash = 0;
  *untraced_wall_s = WarmWallSeconds([&] {
    const MaterialisedRun run =
        TimeMaterialised(Workload::kBatchCampus, config, "");
    untraced_hash = StoreHash(run.result.trace);
    return run.timed.wall_s;
  });

  std::vector<std::string> errors;
  const auto t0 = Clock::now();
  ScopedSpan root(rec, "bench.traced_run", SpanRecorder::kNoParent);
  std::vector<double> perf_index;
  std::vector<analysis::LabKey> labs;
  Collected collected =
      TracedCampaign(config, rec, root.id(), &perf_index, &labs);
  const std::uint32_t merge_id = rec.Begin("trace.merge", root.id());
  const trace::TraceStore merged = trace::MergeTraces(collected.lab_traces);
  rec.End(merge_id);
  collected.lab_traces.clear();
  TracedReport(merged, perf_index, std::move(labs), config.campus.days, rec,
               root.id());
  *traced_wall_s = SecondsSince(t0);

  Append(errors, CheckCampaign(collected.parse_failures,
                               collected.crosscheck_mismatches, {},
                               merged.size()));
  Append(errors, HashCheck("traced batch", StoreHash(merged), untraced_hash));
  return errors;
}

std::vector<std::string> TraceReplay(std::uint64_t seed,
                                     const std::string& work_dir,
                                     SpanRecorder& rec, Metrics& m,
                                     double* untraced_wall_s,
                                     double* traced_wall_s) {
  const core::ExperimentConfig config =
      CampaignConfig(Workload::kSnapshotReplay, seed);
  SnapshotSetup setup;
  {
    ScopedSpan span(rec, "bench.setup", SpanRecorder::kNoParent);
    setup = WriteSnapshot(seed, work_dir);
  }
  if (!setup.errors.empty()) return setup.errors;
  std::uint64_t untraced_hash = 0;
  *untraced_wall_s = WarmWallSeconds([&] {
    const MaterialisedRun run = TimeMaterialised(Workload::kSnapshotReplay,
                                                 config, SnapshotDir(work_dir));
    untraced_hash = StoreHash(run.result.trace);
    return run.timed.wall_s;
  });

  std::vector<std::string> errors;
  const core::SnapshotCache cache(SnapshotDir(work_dir));
  const auto t0 = Clock::now();
  ScopedSpan root(rec, "bench.traced_run", SpanRecorder::kNoParent);
  const std::uint32_t load_id = rec.Begin("core.snapshot_load", root.id());
  auto loaded = cache.Load(core::FingerprintConfig(config));
  rec.End(load_id);
  if (!loaded.ok()) return {"snapshot load failed: " + loaded.error()};
  const core::ExperimentResult& result = loaded.value();
  std::vector<analysis::LabKey> labs;
  std::size_t first = 0;
  for (const core::LabSummary& lab : result.labs) {
    labs.push_back(analysis::LabKey{lab.name, first, lab.machine_count});
    first += lab.machine_count;
  }
  TracedReport(result.trace, result.perf_index, std::move(labs), result.days,
               rec, root.id());
  *traced_wall_s = SecondsSince(t0);

  Append(errors, CheckCampaign(result.parse_failures,
                               result.crosscheck_mismatches, {},
                               result.trace.size()));
  Append(errors, HashCheck("loaded snapshot", StoreHash(result.trace),
                           untraced_hash));
  Append(errors, HashCheck("written snapshot", setup.hash, untraced_hash));
  m["core.snapshot_mib"] = static_cast<double>(setup.bytes) / kMiB;
  return errors;
}

std::vector<std::string> TraceStream(std::uint64_t seed,
                                     const std::string& work_dir,
                                     SpanRecorder& rec, Metrics& m,
                                     double* untraced_wall_s,
                                     double* traced_wall_s) {
  const core::ExperimentConfig config =
      CampaignConfig(Workload::kStreamLongHorizon, seed);
  const std::string spill_dir = work_dir + "/spill";
  std::vector<std::string> errors;

  // The measured engine run leaves its spill dir behind for re-streaming.
  core::StreamingExperimentResult engine;
  *untraced_wall_s = WarmWallSeconds([&] {
    StreamRun run = TimeStream(config, spill_dir);
    engine = std::move(run.result);
    return run.timed.wall_s;
  });
  Append(errors, CheckCampaign(engine.parse_failures,
                               engine.crosscheck_mismatches, engine.errors,
                               engine.samples));
  const core::PipelineStats& p = engine.pipeline;
  m["core.ring_push_wait_s"] = p.ring_push_wait_s;
  m["core.ring_pop_wait_s"] = p.ring_pop_wait_s;
  m["core.ring_push_stalls"] = static_cast<double>(p.ring_push_stalls);
  m["core.ring_pop_stalls"] = static_cast<double>(p.ring_pop_stalls);
  m["core.merge_lag_peak_blocks"] =
      static_cast<double>(p.merge_lag_peak_blocks);
  m["core.arena_reuse_ratio"] = p.arena_reuse_ratio;
  m["core.serial_fraction"] = p.serial_fraction;
  const core::SpillCompressionStats& spill = engine.spill;
  m["trace.encode_s"] = spill.encode_s;
  m["trace.encode_ns_per_sample"] = spill.EncodeNsPerSample();
  m["trace.compression_ratio"] = spill.CompressionRatio();
  m["trace.segment_mib"] = static_cast<double>(spill.segment_bytes) / kMiB;

  const auto t0 = Clock::now();
  ScopedSpan root(rec, "bench.traced_run", SpanRecorder::kNoParent);
  // (a) Re-stream the engine's spill dir: decode, merge, fold, finish.
  {
    std::vector<std::string> paths;
    for (const auto& entry : fs::directory_iterator(spill_dir)) {
      if (entry.path().extension() == ".lmsg") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    std::vector<trace::SegmentReader> readers;
    for (const std::string& path : paths) {
      auto opened = trace::SegmentReader::Open(path);
      if (!opened.ok()) return {"segment open failed: " + opened.error()};
      readers.push_back(std::move(opened).value());
    }
    const std::size_t machine_count = engine.summary.machine_count();
    analysis::StreamingAnalysisConfig fold_config;
    fold_config.machine_count = machine_count;
    fold_config.perf_index = engine.perf_index;
    std::size_t first = 0;
    for (const core::LabSummary& lab : engine.labs) {
      fold_config.labs.push_back(
          analysis::LabKey{lab.name, first, lab.machine_count});
      first += lab.machine_count;
    }
    fold_config.experiment_days = config.campus.days;
    analysis::StreamingAnalysis fold(std::move(fold_config));

    CallTimer decode_t;
    CallTimer fold_t;
    std::vector<TimedReader> timed;
    timed.reserve(readers.size());
    std::vector<trace::TraceReader*> parts;
    for (auto& reader : readers) {
      timed.emplace_back(reader, decode_t);
      parts.push_back(&timed.back());
    }
    std::uint64_t hash = trace::kSampleStreamHashSeed;
    trace::StreamMergeResult merged;
    {
      ScopedSpan merge(rec, "trace.stream_merge", root.id());
      merged = trace::StreamMergeBlocks(
          parts, machine_count, trace::kDefaultBlockSamples,
          [&](const trace::TraceBlock& block) {
            hash = trace::HashBlockSamples(hash, block);
            Stopwatch watch(fold_t);
            fold.Accept(block);
          });
      rec.Aggregate("trace.decode", merge.id(), decode_t);
      rec.Aggregate("analysis.fold", merge.id(), fold_t);
    }
    for (const auto& reader : readers) {
      if (reader.failed()) errors.push_back("segment: " + reader.error());
    }
    trace::TraceStore summary(machine_count);
    for (const trace::IterationInfo& info : merged.iterations) {
      summary.AppendIteration(info);
    }
    {
      ScopedSpan finish(rec, "analysis.finish", root.id());
      (void)fold.Finish(summary);
    }
    Append(errors, HashCheck("re-streamed spill", hash, engine.stream_hash));
  }
  // (b) The per-lab collect loop rebuilt from public calls.
  {
    ScopedSpan rebuild(rec, "bench.rebuilt_collect", root.id());
    std::vector<double> perf_index;
    std::vector<analysis::LabKey> labs;
    Collected collected =
        TracedCampaign(config, rec, rebuild.id(), &perf_index, &labs);
    Append(errors, CheckCampaign(collected.parse_failures,
                                 collected.crosscheck_mismatches, {},
                                 collected.stats.successes));
    // Each lab's trace becomes one sealed block (samples, users and
    // iteration metadata), freeing the store as it goes.
    std::vector<std::vector<trace::TraceBlock>> lab_blocks(
        collected.lab_traces.size());
    std::vector<trace::BlockVectorReader> readers;
    readers.reserve(lab_blocks.size());
    std::vector<trace::TraceReader*> parts;
    for (std::size_t lab = 0; lab < lab_blocks.size(); ++lab) {
      lab_blocks[lab].emplace_back().AssignFrom(collected.lab_traces[lab]);
      collected.lab_traces[lab] = trace::TraceStore();
      readers.emplace_back(lab_blocks[lab]);
      parts.push_back(&readers.back());
    }
    std::uint64_t hash = trace::kSampleStreamHashSeed;
    (void)trace::StreamMergeBlocks(
        parts, engine.summary.machine_count(), trace::kDefaultBlockSamples,
        [&](const trace::TraceBlock& block) {
          hash = trace::HashBlockSamples(hash, block);
        });
    Append(errors, HashCheck("rebuilt collect", hash, engine.stream_hash));
  }
  *traced_wall_s = SecondsSince(t0);
  fs::remove_all(spill_dir);
  return errors;
}

std::vector<std::string> TraceHarvest(std::uint64_t seed, SpanRecorder& rec,
                                      Metrics& m, double* untraced_wall_s,
                                      double* traced_wall_s) {
  std::uint64_t untraced_hash = 0;
  *untraced_wall_s = WarmWallSeconds([&] {
    const HarvestInputs in = BuildHarvestInputs(seed);
    harvest::DagScheduler scheduler(*in.fleet, *in.driver, HarvestPolicy());
    const HarvestRun run = TimeHarvest(scheduler, in);
    untraced_hash = run.result.ResultHash();
    return run.timed.wall_s;
  });

  const workload::CampusConfig campus = HarvestCampus(seed);
  const util::SimTime end = campus.EndTime();
  ScopedSpan root(rec, "bench.traced_run", SpanRecorder::kNoParent);
  const std::uint32_t build_id = rec.Begin("winsim.build", root.id());
  winsim::Fleet fleet = BuildHarvestFleet(seed);
  rec.End(build_id);
  const std::uint32_t profile_id = rec.Begin("workload.profile", root.id());
  workload::WorkloadDriver driver(fleet, campus);
  rec.End(profile_id);
  const std::uint32_t dag_id = rec.Begin("harvest.dag_build", root.id());
  const harvest::JobDag dag = BuildHarvestDag(seed);
  rec.End(dag_id);
  const harvest::DagPolicy policy = HarvestPolicy();
  harvest::DagScheduler scheduler(fleet, driver, policy);
  const auto t0 = Clock::now();
  const std::uint32_t run_id = rec.Begin("harvest.run", root.id());
  const harvest::DagResult result = scheduler.Run(dag, 0, end);
  rec.End(run_id);
  *traced_wall_s = SecondsSince(t0);

  // Driver-only pass over the same horizon at the scheduler's step: the
  // behavioural simulation's share of the harvest run.
  {
    ScopedSpan pass(rec, "bench.driver_only", root.id());
    winsim::Fleet bare = BuildHarvestFleet(seed);
    workload::WorkloadDriver bare_driver(bare, campus);
    CallTimer advance_t;
    for (util::SimTime t = 0; t < end; t += policy.grid.scheduler_step_s) {
      Stopwatch watch(advance_t);
      bare_driver.AdvanceTo(t);
    }
    {
      Stopwatch watch(advance_t);
      bare_driver.AdvanceTo(end);
    }
    rec.Aggregate("workload.advance", pass.id(), advance_t);
  }
  rec.Count("workload.events", static_cast<double>(driver.dispatched_events()));

  std::vector<std::string> errors = CheckHarvest(result, fleet.size());
  Append(errors, HashCheck("traced harvest", result.ResultHash(),
                           untraced_hash));
  m["harvest.evictions"] = static_cast<double>(
      result.evictions_login + result.evictions_poweroff +
      result.evictions_chaos);
  m["harvest.retries"] = static_cast<double>(result.retries);
  m["harvest.waste_ratio"] = result.WasteFraction();
  m["harvest.equiv_ratio"] = EquivalenceRatio(result, fleet.size());
  return errors;
}

}  // namespace

int RunTraced(Workload workload, std::uint64_t seed,
              const std::string& work_dir, const std::string& spans_out) {
  SpanRecorder rec(seed);
  Metrics m;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::vector<std::string> errors;
  switch (workload) {
    case Workload::kBatchCampus:
      errors = TraceBatch(seed, rec, &untraced_wall_s, &traced_wall_s);
      break;
    case Workload::kSnapshotReplay:
      errors = TraceReplay(seed, work_dir, rec, m, &untraced_wall_s,
                           &traced_wall_s);
      break;
    case Workload::kStreamLongHorizon:
      errors = TraceStream(seed, work_dir, rec, m, &untraced_wall_s,
                           &traced_wall_s);
      break;
    case Workload::kHarvestMonth:
      errors = TraceHarvest(seed, rec, m, &untraced_wall_s, &traced_wall_s);
      break;
  }
  CollectMetrics(rec, CalibrateStopwatch(), m);
  m["bench.trace_overhead_ratio"] =
      untraced_wall_s > 0.0 ? traced_wall_s / untraced_wall_s - 1.0 : 0.0;
  if (!spans_out.empty() && !rec.WriteJson(spans_out)) {
    errors.push_back("cannot write " + spans_out);
  }

  obs::JsonlWriter& out = BeginResult(errors)
                              .Field("untraced_wall_s", untraced_wall_s)
                              .Field("traced_wall_s", traced_wall_s);
  for (const auto& [name, value] : m) out.Field(name, value);
  out.End();
  return 0;
}

}  // namespace labbench
