// Exporters — turn a Registry / profiler Report into external formats:
//  * Prometheus text exposition (metrics scrape / file inspection),
//  * Chrome trace_event JSON (open in chrome://tracing or Perfetto),
//  * JSONL event stream (spans + metrics as line-delimited JSON).
#pragma once

#include <ostream>

#include "labmon/obs/jsonl.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/obs/registry.hpp"

namespace labmon::obs {

/// Prometheus text exposition format 0.0.4: # HELP/# TYPE headers, one line
/// per series, histograms as cumulative le="" buckets plus _sum/_count.
/// Deterministic: families in name order, series in label order.
void WritePrometheus(const Registry& registry, std::ostream& out);

/// Chrome trace_event JSON. Every timeline record becomes an "X"
/// (complete) event on two synthetic processes: pid 1 carries the
/// wall-clock timeline, and records with a sim range are mirrored on pid 2
/// where 1 simulated second is rendered as 1 second (ts/dur in
/// microseconds). A Span keeps its name; a phase record is named
/// "prof.<phase>", with "/shardN" when it ran inside a shard. Load the
/// file in chrome://tracing or https://ui.perfetto.dev.
void WriteChromeTrace(const prof::Report& report, std::ostream& out);

/// Appends every timeline record, named as above, as a
/// {"type":"span",...} event.
void WriteSpansJsonl(const prof::Report& report, JsonlWriter& writer);

/// Appends the registry snapshot as {"type":"metric",...} events
/// (histograms dump count/sum/mean, not individual buckets).
void WriteMetricsJsonl(const Registry& registry, JsonlWriter& writer);

}  // namespace labmon::obs
