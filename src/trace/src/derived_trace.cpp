#include "labmon/trace/derived_trace.hpp"

#include <memory>
#include <utility>

#include "labmon/obs/prof.hpp"
#include "labmon/util/parallel.hpp"

namespace labmon::trace {

namespace {

/// Per-machine session/span bucket; filled during the sequential scan,
/// concatenated in machine order afterwards so the flat vectors match the
/// serial ReconstructSessions/ReconstructInteractiveSpans output.
/// Intervals skip the bucket: the scan counts them exactly, so every
/// machine writes straight into its final slice of the flat buffer.
struct MachineDerivation {
  std::vector<MachineSession> sessions;
  std::vector<InteractiveSpan> spans;
};

template <typename T>
void Flatten(std::vector<MachineDerivation>& buckets,
             std::vector<T> MachineDerivation::* member,
             std::vector<T>& flat, std::vector<std::size_t>& offsets) {
  offsets.assign(buckets.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t m = 0; m < buckets.size(); ++m) {
    offsets[m] = total;
    total += (buckets[m].*member).size();
  }
  offsets[buckets.size()] = total;
  flat.clear();
  flat.reserve(total);
  for (auto& bucket : buckets) {
    auto& part = bucket.*member;
    flat.insert(flat.end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
}

/// One sequential pass over the rows (append order) that does all the
/// cheap derivation work at once: bakes each sample's login class at the
/// derivation threshold, counts the valid intervals per machine (the
/// integer-only prefix of the EmitInterval conditions, producing the
/// machine-major fenceposts), reconstructs machine sessions, and
/// reconstructs interactive spans. Reading every column linearly here is
/// far cheaper than three per-machine gathers through the index; the
/// expensive interval arithmetic stays in the per-machine fill pass,
/// which the fenceposts let us run serially or in parallel over disjoint
/// output slices.
void ScanTrace(const TraceStore& trace, const IntervalOptions& options,
               std::vector<std::size_t>& interval_offsets,
               std::vector<MachineDerivation>& buckets,
               std::vector<std::uint8_t>& sample_classes) {
  constexpr std::uint32_t kNone = 0xffffffffu;
  const TraceStore::Columns& c = trace.columns();
  const std::size_t machines = buckets.size();
  const std::int64_t threshold = options.forgotten_threshold_s;

  sample_classes.resize(trace.size());
  std::vector<std::size_t> counts(machines, 0);
  std::vector<std::uint32_t> prev(machines, kNone);
  std::vector<std::uint8_t> session_open(machines, 0);
  std::vector<std::uint8_t> span_open(machines, 0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint32_t m = c.machine[i];
    MachineDerivation& bucket = buckets[m];

    // Classification needs only has_session/t/session_logon — columns this
    // scan streams anyway, so baking the byte here costs one store.
    sample_classes[i] =
        static_cast<std::uint8_t>(trace.Classify(i, threshold));

    const std::uint32_t ia = prev[m];
    prev[m] = static_cast<std::uint32_t>(i);
    if (ia != kNone && c.boot_time[ia] == c.boot_time[i] &&
        c.uptime_s[i] > c.uptime_s[ia]) {
      const std::int64_t dt = c.t[i] - c.t[ia];
      if (dt > 0 && dt <= options.max_interval_s) ++counts[m];
    }

    // Machine sessions: new boot epoch when the boot time changed or the
    // uptime went backwards (same rule as AppendMachineSessions).
    if (!session_open[m] ||
        c.boot_time[i] != bucket.sessions.back().boot_time ||
        c.uptime_s[i] < bucket.sessions.back().last_uptime_s) {
      MachineSession session;
      session.machine = m;
      session.boot_time = c.boot_time[i];
      session.first_sample_t = c.t[i];
      session.last_sample_t = c.t[i];
      session.last_uptime_s = c.uptime_s[i];
      session.sample_count = 1;
      bucket.sessions.push_back(session);
      session_open[m] = 1;
    } else {
      auto& session = bucket.sessions.back();
      session.last_sample_t = c.t[i];
      session.last_uptime_s = c.uptime_s[i];
      ++session.sample_count;
    }

    // Interactive spans: keyed by logon instant, broken by session-free
    // samples (same rule as AppendMachineInteractiveSpans).
    if (!c.has_session[i]) {
      span_open[m] = 0;
    } else if (!span_open[m] ||
               c.session_logon[i] != bucket.spans.back().logon_time) {
      InteractiveSpan span;
      span.machine = m;
      span.logon_time = c.session_logon[i];
      span.last_sample_t = c.t[i];
      span.sample_count = 1;
      bucket.spans.push_back(span);
      span_open[m] = 1;
    } else {
      auto& span = bucket.spans.back();
      span.last_sample_t = c.t[i];
      ++span.sample_count;
    }
  }

  interval_offsets.assign(machines + 1, 0);
  std::size_t total = 0;
  for (std::size_t m = 0; m < machines; ++m) {
    interval_offsets[m] = total;
    total += counts[m];
  }
  interval_offsets[machines] = total;
}

}  // namespace

DerivedTrace::DerivedTrace(const TraceStore& trace,
                           const DerivedTraceOptions& options)
    : trace_(&trace), options_(options) {
  obs::Span span("trace.derive");

  const std::size_t machines = trace.machine_count();
  const std::size_t workers = options_.workers != 0
                                  ? options_.workers
                                  : util::DefaultWorkerCount();

  // One sequential scan bakes the per-sample login classes, counts
  // intervals per machine, and reconstructs sessions and spans; then
  // every machine fills its own disjoint slice of the uninitialized
  // columns. Serial and parallel fills visit the same (ia, ib) pairs
  // through the same emit template and write each interval to the same
  // slot, so the derived columns are bitwise identical for any worker
  // count (pinned by tests).
  std::vector<MachineDerivation> buckets(machines);
  ScanTrace(trace, options_.intervals, interval_offsets_, buckets,
            sample_classes_);
  interval_columns_ = IntervalColumns(interval_offsets_.back());
  // The baked byte column holds exactly what Classify returns at the
  // derivation threshold, so classifying endpoints from it emits the same
  // intervals as ForEachMachineInterval while skipping the three-column
  // re-derivation per endpoint (the same "either endpoint occupied" rule
  // as ClassifyInterval).
  const auto classify = [this](std::uint32_t a, std::uint32_t b) noexcept {
    const auto class_b = static_cast<LoginClass>(sample_classes_[b]);
    if (class_b == LoginClass::kWithLogin) return class_b;
    const auto class_a = static_cast<LoginClass>(sample_classes_[a]);
    return class_a == LoginClass::kWithLogin ? class_a : class_b;
  };
  const TraceStore::Columns& c = trace.columns();
  IntervalColumns& iv = interval_columns_;
  // The emitted record lives in registers after inlining; its fields
  // scatter straight into the column streams at the given slot.
  const auto write_interval = [&iv](const SampleInterval& interval,
                                    std::size_t pos) {
    std::construct_at(iv.machine.data() + pos, interval.machine);
    std::construct_at(iv.start_index.data() + pos, interval.start_index);
    std::construct_at(iv.end_index.data() + pos, interval.end_index);
    std::construct_at(iv.start_t.data() + pos, interval.start_t);
    std::construct_at(iv.end_t.data() + pos, interval.end_t);
    std::construct_at(iv.cpu_idle_pct.data() + pos, interval.cpu_idle_pct);
    std::construct_at(iv.sent_bps.data() + pos, interval.sent_bps);
    std::construct_at(iv.recv_bps.data() + pos, interval.recv_bps);
    std::construct_at(iv.login_class.data() + pos,
                      static_cast<std::uint8_t>(interval.login_class));
  };
  if (workers <= 1 || machines <= 1) {
    // Append-order fill: the closing sample is the linear scan position
    // and the opening one was streamed machine_count rows earlier (still
    // cached), so the emit columns are read sequentially instead of
    // gathered per machine through the index. Each machine advances its
    // own cursor inside its disjoint slice — the same (ia, ib) pairs and
    // the same slots as the per-machine walk, in a different order.
    constexpr std::uint32_t kNone = 0xffffffffu;
    std::vector<std::size_t> cursor(interval_offsets_.begin(),
                                    interval_offsets_.end() - 1);
    std::vector<std::uint32_t> prev(machines, kNone);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::uint32_t m = c.machine[i];
      const std::uint32_t ia = prev[m];
      prev[m] = static_cast<std::uint32_t>(i);
      if (ia == kNone) continue;
      detail::EmitIntervalClassified(
          c, m, ia, static_cast<std::uint32_t>(i), options_.intervals,
          classify, [&](const SampleInterval& interval) {
            write_interval(interval, cursor[m]++);
          });
    }
  } else {
    util::ParallelFor(
        machines,
        [&](std::size_t m) {
          const auto indices = trace.MachineSamples(m);
          std::size_t pos = interval_offsets_[m];
          for (std::size_t k = 1; k < indices.size(); ++k) {
            detail::EmitIntervalClassified(
                c, static_cast<std::uint32_t>(m), indices[k - 1], indices[k],
                options_.intervals, classify,
                [&](const SampleInterval& interval) {
                  write_interval(interval, pos++);
                });
          }
        },
        options_.workers);
  }

  Flatten(buckets, &MachineDerivation::sessions, sessions_, session_offsets_);
  Flatten(buckets, &MachineDerivation::spans, spans_, span_offsets_);

  if (options_.metrics != nullptr) {
    options_.metrics
        ->GetCounter("labmon_trace_derive_intervals_total",
                     "Intervals derived by DerivedTrace construction")
        .Increment(interval_columns_.size());
    options_.metrics
        ->GetCounter("labmon_trace_derive_sessions_total",
                     "Machine sessions reconstructed by DerivedTrace")
        .Increment(sessions_.size());
    options_.metrics
        ->GetCounter("labmon_trace_derive_spans_total",
                     "Interactive spans reconstructed by DerivedTrace")
        .Increment(spans_.size());
  }
}

}  // namespace labmon::trace
