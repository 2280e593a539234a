#pragma once
/// \file wire.hpp
/// \brief Decoding of `stamp-serve/v1` sweep_chunk responses into
///        `sweep::SweepRecord`s the coordinator can journal.
///
/// The fleet coordinator's byte-identity contract rests on this file: a
/// worker's wire point is only accepted when its index lies inside the
/// dispatched shard and its axis values match the coordinator's own grid
/// under the artifacts' canonical number format, `report::format_number`
/// (the same check the journal's resume path applies). Accepted records are
/// re-anchored to the grid's exact doubles, so what gets journaled — and
/// later replayed into the merged artifact — is bit-for-bit what a
/// single-node sweep would have produced, regardless of which worker
/// evaluated the point.

#include "report/json_parse.hpp"
#include "sweep/sweep.hpp"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace stamp::dist {

/// One decoded sweep_chunk response.
struct ChunkResult {
  std::uint64_t id = 0;   ///< echoed request id
  int status = 0;         ///< HTTP-style status from the wire
  std::string error;      ///< error message for non-200 statuses
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::vector<sweep::SweepRecord> records;  ///< exactly end - begin on 200
};

/// Thrown when a response parses as JSON but violates the protocol or
/// contradicts the coordinator's grid — a misbehaving worker must be loud.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Extract the `id` field from a raw response line without a full decode;
/// nullopt when the line is not an object with a numeric id. Used to match
/// pipelined responses to outstanding shards before committing to a parse.
[[nodiscard]] std::optional<std::uint64_t> response_id(const std::string& line);

/// Decode one response line against the sweep configuration. For status 200
/// the points are validated (index within [begin, end), every index present
/// exactly once, axis values format_number-equal to the grid's) and
/// re-anchored to the grid's exact doubles. Throws WireError on any
/// violation; non-200 statuses decode to a ChunkResult carrying the status
/// and error message.
[[nodiscard]] ChunkResult decode_sweep_chunk(const std::string& line,
                                             const sweep::SweepConfig& cfg);

}  // namespace stamp::dist
