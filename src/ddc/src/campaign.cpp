#include "labmon/ddc/campaign.hpp"

#include <algorithm>
#include <cmath>

#include "labmon/obs/prof.hpp"

namespace labmon::ddc {

CampaignResult RunCampaign(winsim::Fleet& fleet, Probe& probe,
                           const CampaignConfig& config, util::SimTime start,
                           util::FunctionRef<void(util::SimTime)> advance) {
  CampaignResult result;
  result.outputs.assign(fleet.size(), std::nullopt);

  RemoteExecutor executor(config.exec_policy, config.seed, config.faults);
  std::vector<std::size_t> pending(fleet.size());
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;

  obs::Counter* pass_counter = nullptr;
  obs::Counter* attempt_counter = nullptr;
  obs::Counter* completed_counter = nullptr;
  obs::Gauge* coverage_gauge = nullptr;
  if (config.metrics) {
    pass_counter = &config.metrics->GetCounter(
        "labmon_campaign_passes_total", "Sweeps over the pending machine set");
    attempt_counter = &config.metrics->GetCounter(
        "labmon_campaign_attempts_total", "Probe executions attempted");
    completed_counter = &config.metrics->GetCounter(
        "labmon_campaign_completed_total", "Machines captured");
    coverage_gauge = &config.metrics->GetGauge(
        "labmon_campaign_coverage_fraction", "Fraction of the fleet captured");
  }

  util::SimTime pass_start = start;
  while (!pending.empty() && pass_start < config.deadline) {
    obs::Span pass_span("campaign.pass");
    ++result.passes;
    if (pass_counter) pass_counter->Increment();
    util::SimTime now = pass_start;
    std::vector<std::size_t> still_pending;
    still_pending.reserve(pending.size());
    for (const std::size_t i : pending) {
      if (advance) advance(now);
      ++result.attempts;
      if (attempt_counter) attempt_counter->Increment();
      const auto outcome = executor.Execute(probe, fleet.machine(i), now);
      if (outcome.ok()) {
        result.outputs[i] = outcome.stdout_text;
        ++result.completed;
        if (completed_counter) completed_counter->Increment();
        result.finished_at = now;
      } else {
        still_pending.push_back(i);
      }
      now += static_cast<util::SimTime>(std::llround(outcome.latency_s));
    }
    pending = std::move(still_pending);
    pass_span.SetSimRange(pass_start, now);
    if (coverage_gauge) coverage_gauge->Set(result.CoverageFraction());
    // Next pass at the period boundary (or immediately after an overrun).
    pass_start = std::max(pass_start + config.pass_period, now);
  }
  result.complete = pending.empty();
  return result;
}

}  // namespace labmon::ddc
