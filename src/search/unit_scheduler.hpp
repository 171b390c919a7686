// One deterministic unit scheduler for every search (DESIGN.md §7).
//
// A search is one (level, repetition) of the paper's FLOPs-ordered,
// threshold-gated protocol: train candidates cheapest first and stop at the
// first one whose averaged accuracies reach the threshold. The scheduler
// owns every search of one call and hands their candidate units to W lanes:
//
//   1. Non-speculative work first: the next uncommitted candidate of each
//      open search (ties by search order), then candidate 0 of the next
//      unopened search.
//   2. Only when nothing non-speculative is waiting does an idle lane
//      speculate, at most one candidate past a search's commit frontier,
//      lowest FLOPs first.
//   3. Results commit strictly in FLOPs order within each search, so the
//      committed sequence, and where each search stops, is the serial
//      walk's. A search closes at its winner or at its candidate limit; a
//      unit still running past that point finishes and is discarded unseen.
//
// Streams: each level's repetition streams are split from Rng{seed} in
// repetition order; a search's data split, then each candidate's run
// streams, are drawn from its repetition stream in FLOPs order at dispatch.
// These are the serial walk's draws, so results are bit-identical for any
// lane count and either executor: `config.threads` in-process lanes, or a
// WorkerPool kept worker_count() units deep through WorkerPool::submit.
//
// Memory: a search opens when its first unit is dispatched. Its level's
// dataset is built then (once per level) and released once the level's
// last split is built; the search's split is released when it closes. At
// one lane the walk is level 0 rep 0, level 0 rep 1, level 1 rep 0, ...,
// holding one dataset and one split at a time.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "search/grid_search.hpp"

namespace qhdl::search {

/// The searches of one complexity level: `repetitions` of them over one
/// dataset.
struct SearchLevel {
  std::size_t features = 0;  ///< keys the level's units
  /// The candidates in any order; sorted by FLOPs when the level opens.
  /// Not owned; must outlive UnitScheduler::run.
  const std::vector<ModelSpec>* space = nullptr;
  /// Builds (or lends) the level dataset when its first search opens.
  std::function<std::shared_ptr<const data::Dataset>()> dataset;
};

class UnitScheduler {
 public:
  /// `resume` supplies what every search shares: the checkpoint, family,
  /// pool (with its sweep config), cancel token, progress sink and tally.
  /// Throws std::invalid_argument when a pool comes without its sweep.
  UnitScheduler(const SearchConfig& config, const ResumeContext& resume);
  ~UnitScheduler();

  UnitScheduler(const UnitScheduler&) = delete;
  UnitScheduler& operator=(const UnitScheduler&) = delete;

  /// Adds config.repetitions searches over `level`.
  void add_level(SearchLevel level);

  /// Adds one search over a prepared split; its run streams are drawn from
  /// `rng`, which must outlive run(). Units key on `resume.features`.
  void add_search(const std::vector<ModelSpec>& sorted_specs,
                  const data::TrainValSplit& split, util::Rng& rng,
                  std::size_t repetition);

  /// Runs every search to its winner or limit; outcomes come back in the
  /// order the searches were added. Polls util::throw_if_interrupted and
  /// the cancel token at every dispatch. The first error (a unit's, a
  /// commit's, or a poll's) stops every lane and is rethrown here once all
  /// of them have returned.
  std::vector<SearchOutcome> run();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Aggregates repetition outcomes: winner means and the smallest winner.
RepeatedSearchResult summarize_repetitions(
    std::vector<SearchOutcome> repetitions);

}  // namespace qhdl::search
