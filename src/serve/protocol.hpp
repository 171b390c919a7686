// Request/reply vocabulary of the qhdl_serve wire protocol (DESIGN.md §15).
//
// Transport: TCP, one length-prefixed JSON frame per message — the exact
// framing the worker pool speaks to its workers (search/worker_protocol.hpp),
// including the 16MB cap and the truncation/oversize error behaviour. A
// connection carries one request and receives exactly one *terminal* reply
// frame, then the server closes it. A study request that sets
// "progress": true additionally receives zero or more {"type":"progress"}
// frames before the terminal reply — one per committed unit, with
// family/features/repetition/units_done/total_units and the last evaluated
// spec; clients must keep reading until a non-progress frame arrives.
//
// Requests:
//   {"type":"ping"}
//   {"type":"stats"}
//   {"type":"study","family":<name>,"config":<sweep_config_to_json>}
//   {"type":"train","config":<sweep config>,"features":F,
//    "repetition":R,"candidate":K,"spec":<model_spec_to_json>}
//                             (trains the spec on the split and run streams
//                              the sweep gives candidate K of search (F, R),
//                              so it reproduces that unit's bytes when the
//                              spec is the search's K-th in FLOPs order.
//                              "repetition" and "candidate" default to 0; a
//                              K that is not a non-negative integer below
//                              the most candidates a search can have (the
//                              largest family space, capped by
//                              max_candidates) gets an error reply)
//   {"type":"sleep","ms":N}   (diagnostic job that occupies an executor
//                              slot; used by the admission-control tests
//                              and the load bench)
// Replies:
//   {"type":"pong","version":1}
//   {"type":"stats", ...counters...}           (serve/server.hpp)
//   {"type":"result", ...}                     (study: "sweep" + "cache";
//                                               train: "unit"; sleep: {})
//   {"type":"rejected","reason":"overloaded"|"draining"}
//   {"type":"cancelled","reason":<why>}
//   {"type":"error","message":<what>}
#pragma once

#include <string>

#include "search/experiment.hpp"
#include "util/json.hpp"

namespace qhdl::serve {

inline constexpr int kServeProtocolVersion = 1;

/// Inverse of search::family_name. Throws std::invalid_argument naming the
/// valid spellings on an unknown family.
search::Family family_from_name(const std::string& name);

util::Json make_error(const std::string& message);
util::Json make_rejected(const std::string& reason);
util::Json make_cancelled(const std::string& reason);

/// Builds a study request for `family` with the given sweep config.
util::Json make_study_request(search::Family family,
                              const search::SweepConfig& config);

}  // namespace qhdl::serve
