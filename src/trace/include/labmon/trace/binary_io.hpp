// Compact binary trace format ("LMTR1") and the columnar range codec under
// it.
//
// A 77-day trace holds ~580 k samples; as CSV that is ~70 MB. This format
// delta-encodes every numeric field against the machine's previous sample
// (timestamps, cumulative counters and near-constant levels all shrink to
// one or two bytes) and interns usernames in a string table, giving ~10x
// smaller files with exact round-trip fidelity.
//
// Layout:
//   magic "LMTR1"
//   varint machine_count, sample_count, iteration_count, user_count
//   user table: per user { varint len, bytes }
//   samples (in global append order): one sample range, see below
//   iterations: delta-coded metadata rows
//
// A *sample range* is the encoding of rows [begin, end) of a store's
// columns: per sample, varint machine id, then zigzag deltas of iteration,
// t, boot_time, uptime_s, idle centiseconds, ram_mb, mem_load_pct,
// swap_load_pct, disk_total_b, disk_free_b, smart_power_on_hours,
// smart_power_cycles, net_sent_b, net_recv_b against the same machine's
// previous sample *in the range* (state starts at zero at `begin`), then a
// varint user reference (0 = no session, else user_id + 1 into the
// store's table) and, with a session, the zigzag session_logon delta.
// LMTR1 is the one-range case; an experiment snapshot (core/snapshot.hpp)
// stores many fixed-size ranges that encode and decode in parallel. Both
// read and write the columns directly — no SampleRecord row, no string
// copy, no re-interning.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "labmon/trace/trace_store.hpp"
#include "labmon/util/expected.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::trace {

/// Serialises the full store (samples + iteration metadata).
[[nodiscard]] std::string SerializeTrace(const TraceStore& store);

/// Parses a binary trace; verifies magic, bounds and counts. Machine ids
/// must lie below the header's machine count (or kMaxTraceMachines when
/// the header count is 0); corrupt input fails, it never throws.
[[nodiscard]] util::Result<TraceStore> DeserializeTrace(
    std::string_view bytes);

/// Writes/reads a binary trace file.
[[nodiscard]] util::Result<bool> WriteTraceFile(const std::string& path,
                                                const TraceStore& store);
[[nodiscard]] util::Result<TraceStore> ReadTraceFile(const std::string& path);

// --- Range codec building blocks (LMTR1 and experiment snapshots) --------

/// Every encoded sample takes at least this many bytes: the machine id,
/// 14 field deltas and the user reference, one byte each. Decoders bound
/// untrusted sample counts by the bytes that remain.
inline constexpr std::size_t kMinSampleBytes = 16;

/// Largest machine id bound a decoder accepts; also the fallback bound
/// when a header carries no machine count.
inline constexpr std::uint64_t kMaxTraceMachines = std::uint64_t{1} << 26;

/// Machine-id bound for a header machine count (0 = unknown fleet).
[[nodiscard]] constexpr std::uint64_t MachineIdBound(
    std::uint64_t header_machines) noexcept {
  return header_machines > 0 ? header_machines : kMaxTraceMachines;
}

/// Appends rows [begin, end) of `cols` to `out` as one sample range.
void EncodeSampleRange(const TraceStore::Columns& cols, std::size_t begin,
                       std::size_t end, std::string& out);

/// Decodes one sample range of `count` samples from the front of `bytes`
/// into rows [first, first + count) of `cols`, whose columns must already
/// hold at least first + count rows (disjoint row ranges may be decoded
/// concurrently). Machine ids must be below `machine_bound` and user
/// references at most `user_count`. Returns the bytes consumed; fails on
/// truncation or an out-of-range id.
[[nodiscard]] util::Result<std::size_t> DecodeSampleRange(
    std::string_view bytes, std::uint64_t machine_bound,
    std::size_t user_count, TraceStore::Columns& cols, std::size_t first,
    std::size_t count);

/// LMTR1's user table: per user { varint len, bytes }.
void PutUserTable(std::string& out, std::span<const std::string> users);
/// Reads `count` user table entries; fails on truncation or a name longer
/// than 4096 bytes.
[[nodiscard]] util::Result<std::vector<std::string>> ReadUserTable(
    util::VarintReader& in, std::uint64_t count);

/// LMTR1's iteration rows: { zigzag d_start, zigzag d_end, varint
/// attempts, varint successes } against the previous row.
void PutIterationRows(std::string& out, std::span<const IterationInfo> rows);
/// Reads `count` iteration rows, numbered from zero.
[[nodiscard]] util::Result<std::vector<IterationInfo>> ReadIterationRows(
    util::VarintReader& in, std::uint64_t count);

}  // namespace labmon::trace
