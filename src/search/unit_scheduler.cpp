#include "search/unit_scheduler.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "flops/profiler.hpp"
#include "search/checkpoint.hpp"
#include "search/worker_pool.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qhdl::search {

namespace {

struct Level {
  SearchLevel plan;
  std::shared_ptr<const data::Dataset> dataset;
  std::vector<ModelSpec> sorted;
  std::size_t searches = 0;
  std::size_t splits_built = 0;
};

struct Finished {
  CandidateResult result;
  bool replayed = false;
};

struct Search {
  Level* level = nullptr;  ///< null for a prepared search (add_search)
  std::size_t features = 0;
  std::size_t repetition = 0;
  util::Rng own_stream{0};
  util::Rng* lent_stream = nullptr;
  const std::vector<ModelSpec>* sorted = nullptr;
  std::shared_ptr<const data::TrainValSplit> split;
  bool opened = false;
  bool closed = false;
  std::size_t limit = 0;
  std::size_t dispatched = 0;  ///< candidates handed out, in FLOPs order
  /// Finished units past the commit frontier (at most one).
  std::map<std::size_t, Finished> finished;
  SearchOutcome outcome;

  util::Rng& stream() { return lent_stream != nullptr ? *lent_stream : own_stream; }
  std::size_t committed() const { return outcome.evaluated.size(); }
};

/// One dispatched candidate. The split is shared so a speculative unit
/// still running when its search closes keeps the data it trains on.
struct Unit {
  std::size_t search = 0;
  std::size_t candidate = 0;
  const ModelSpec* spec = nullptr;
  std::shared_ptr<const data::TrainValSplit> split;
  std::vector<util::Rng> streams;
};

/// A shared_ptr that lends `object` without owning it.
template <typename T>
std::shared_ptr<const T> lend(const T& object) {
  return std::shared_ptr<const T>(std::shared_ptr<const void>{}, &object);
}

}  // namespace

struct UnitScheduler::State {
  SearchConfig config;
  SearchConfig lane_config;  ///< width 1: the scheduler owns the width
  ResumeContext resume;
  std::vector<std::unique_ptr<Level>> levels;
  std::vector<Search> searches;
  std::size_t closed = 0;

  std::mutex mutex;
  std::condition_variable wake;
  std::size_t in_flight = 0;
  std::exception_ptr error;
  /// Pool completions, committed by the calling thread.
  std::deque<std::pair<std::shared_ptr<Unit>, CandidateResult>> completed;

  bool all_closed() const { return closed == searches.size(); }

  void fail_locked(std::exception_ptr failure) {
    if (error == nullptr) error = std::move(failure);
    wake.notify_all();
  }

  UnitKey key_of(const Search& search, std::size_t candidate) const {
    return UnitKey{resume.family, search.features, search.repetition,
                   candidate};
  }

  void close_locked(Search& search) {
    search.closed = true;
    search.outcome.candidates_trained = search.committed();
    search.split.reset();
    search.finished.clear();
    ++closed;
  }

  /// Builds the search's split and stream (and, for the level's first
  /// search, its dataset and FLOPs order).
  void open_locked(Search& search) {
    search.opened = true;
    if (search.level != nullptr) {
      Level& level = *search.level;
      if (level.splits_built == 0) {
        if (!resume.family.empty()) {
          util::log_info("sweep[" + resume.family +
                         "]: features=" + std::to_string(level.plan.features));
        }
        level.dataset = level.plan.dataset();
        level.sorted = sort_by_flops(*level.plan.space,
                                     level.dataset->features(),
                                     level.dataset->classes, config);
      }
      SearchSplit drawn =
          draw_search_split(*level.dataset, config, search.repetition);
      search.split = std::move(drawn.split);
      search.own_stream = drawn.stream;
      search.sorted = &level.sorted;
      if (++level.splits_built == level.searches) level.dataset.reset();
    }
    search.limit = search.sorted->size();
    if (config.max_candidates > 0) {
      search.limit = std::min(search.limit, config.max_candidates);
    }
    if (search.limit == 0) close_locked(search);
  }

  double candidate_flops(const Search& search, std::size_t candidate) const {
    return flops::profile_layers(
               spec_layer_infos((*search.sorted)[candidate],
                                search.split->train.features(),
                                search.split->train.classes,
                                config.classical_activation),
               config.cost_model)
        .total();
  }

  /// The search whose unit goes next, or null when every candidate that
  /// may run is already running.
  Search* choose_locked() {
    for (Search& search : searches) {
      if (search.opened && !search.closed &&
          search.dispatched == search.committed()) {
        return &search;
      }
    }
    for (Search& search : searches) {
      if (search.opened) continue;
      open_locked(search);
      if (!search.closed) return &search;
    }
    Search* best = nullptr;
    double best_flops = 0.0;
    for (Search& search : searches) {
      if (search.closed || search.dispatched != search.committed() + 1 ||
          search.dispatched >= search.limit) {
        continue;
      }
      const double flops = candidate_flops(search, search.dispatched);
      if (best == nullptr || flops < best_flops) {
        best = &search;
        best_flops = flops;
      }
    }
    return best;
  }

  /// Next unit to train. Checkpointed units are replayed (and committed
  /// when at the frontier) right here, without a lane.
  std::shared_ptr<Unit> next_locked() {
    util::throw_if_interrupted();
    util::throw_if_cancelled(resume.cancel);
    while (Search* search = choose_locked()) {
      auto unit = std::make_shared<Unit>();
      unit->search = static_cast<std::size_t>(search - searches.data());
      unit->candidate = search->dispatched++;
      unit->spec = &(*search->sorted)[unit->candidate];
      unit->split = search->split;
      // Drawn whether the unit is replayed or trained: a resumed search
      // consumes the stream sequence of an uninterrupted one.
      unit->streams = split_run_rngs(config, search->stream());
      if (resume.checkpoint != nullptr) {
        if (std::optional<CandidateResult> replayed = resume.checkpoint->find(
                key_of(*search, unit->candidate))) {
          finish_locked(*unit, std::move(*replayed), /*replayed=*/true);
          continue;
        }
      }
      return unit;
    }
    return nullptr;
  }

  void finish_locked(const Unit& unit, CandidateResult result,
                     bool replayed) {
    Search& search = searches[unit.search];
    if (search.closed) return;  // trained past the winner: discarded
    search.finished.emplace(unit.candidate,
                            Finished{std::move(result), replayed});
    commit_locked(search);
  }

  /// Commits the search's finished units that reach its frontier, in FLOPs
  /// order: unit boundary, checkpoint record, log line, winner check; then
  /// one flush, and only then the progress events, so a handler never
  /// hears of a unit a crash could take back.
  void commit_locked(Search& search) {
    const std::size_t first = search.committed();
    bool recorded = false;
    while (!search.closed) {
      const auto next = search.finished.find(search.committed());
      if (next == search.finished.end()) break;
      Finished unit = std::move(next->second);
      search.finished.erase(next);
      const UnitKey key = key_of(search, search.committed());
      util::FaultInjector::instance().on_unit_boundary(key.to_string());
      if (resume.checkpoint != nullptr && !unit.replayed) {
        resume.checkpoint->record(key, unit.result);
        recorded = true;
      }
      if (resume.tally != nullptr) {
        (unit.replayed ? resume.tally->hits : resume.tally->misses) += 1;
      }
      const CandidateResult& result = unit.result;
      util::log_info("search: " + result.spec.to_string() + " flops=" +
                     std::to_string(result.flops) + " train_acc=" +
                     std::to_string(result.avg_best_train_accuracy) +
                     " val_acc=" +
                     std::to_string(result.avg_best_val_accuracy) +
                     (result.meets_threshold ? "  <- winner" : "") +
                     (unit.replayed ? "  (from checkpoint)" : ""));
      search.outcome.evaluated.push_back(std::move(unit.result));
      if (search.outcome.evaluated.back().meets_threshold) {
        search.outcome.winner = search.outcome.evaluated.back();
        close_locked(search);
      } else if (search.committed() == search.limit) {
        close_locked(search);
      }
    }
    if (recorded) resume.checkpoint->flush();
    if (resume.progress == nullptr || *resume.progress == nullptr) return;
    for (std::size_t done = first; done < search.committed(); ++done) {
      const CandidateResult& result = search.outcome.evaluated[done];
      ProgressEvent event;
      event.family = resume.family;
      event.features = search.features;
      event.repetition = search.repetition;
      event.units_done = done + 1;
      event.total_units = search.limit;
      event.last_spec = result.spec.to_string();
      event.last_val_accuracy = result.avg_best_val_accuracy;
      event.winner_found = result.meets_threshold;
      (*resume.progress)(event);
    }
  }

  /// In-process lane: trains units until every search is closed or an
  /// error stops the call. An idle lane waits for a unit to finish.
  void lane() {
    std::unique_lock<std::mutex> lock(mutex);
    while (error == nullptr && !all_closed()) {
      std::shared_ptr<Unit> unit;
      try {
        unit = next_locked();
      } catch (...) {
        fail_locked(std::current_exception());
        break;
      }
      if (unit == nullptr) {
        if (all_closed()) break;
        if (in_flight == 0) {
          // Every open search has its frontier unit in flight.
          fail_locked(std::make_exception_ptr(
              std::logic_error("UnitScheduler: no unit in flight")));
          break;
        }
        wake.wait(lock);
        continue;
      }
      ++in_flight;
      lock.unlock();
      CandidateResult result;
      std::exception_ptr failure;
      try {
        result = evaluate_candidate(*unit->spec, *unit->split, lane_config,
                                    unit->streams);
      } catch (...) {
        failure = std::current_exception();
      }
      lock.lock();
      --in_flight;
      if (failure != nullptr) {
        fail_locked(failure);
      } else {
        try {
          finish_locked(*unit, std::move(result), /*replayed=*/false);
        } catch (...) {
          fail_locked(std::current_exception());
        }
      }
      wake.notify_all();
    }
    wake.notify_all();
  }

  void run_lanes() {
    const std::size_t lanes = std::min(std::max<std::size_t>(1, config.threads),
                                       2 * searches.size());
    util::parallel_for(0, lanes, lanes, [this](std::size_t) { lane(); });
  }

  /// Pool executor: the calling thread keeps worker_count() units in
  /// flight and commits their results as the pool reports them.
  void run_pool() {
    WorkerPool& pool = *resume.pool;
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      while (!completed.empty()) {
        auto [unit, result] = std::move(completed.front());
        completed.pop_front();
        if (error != nullptr) continue;
        try {
          finish_locked(*unit, std::move(result), /*replayed=*/false);
        } catch (...) {
          fail_locked(std::current_exception());
        }
      }
      while (error == nullptr && in_flight < pool.worker_count()) {
        std::shared_ptr<Unit> unit;
        try {
          unit = next_locked();
        } catch (...) {
          fail_locked(std::current_exception());
          break;
        }
        if (unit == nullptr) break;
        WorkUnit work;
        work.key = key_of(searches[unit->search], unit->candidate);
        work.spec = *unit->spec;
        work.streams = unit->streams;
        ++in_flight;
        lock.unlock();
        try {
          pool.submit(*resume.sweep, std::move(work),
                      [this, unit](CandidateResult result,
                                   std::exception_ptr failure) {
                        std::lock_guard<std::mutex> guard(mutex);
                        --in_flight;
                        if (failure != nullptr) {
                          fail_locked(failure);
                        } else {
                          completed.emplace_back(unit, std::move(result));
                        }
                        wake.notify_all();
                      });
          lock.lock();
        } catch (...) {
          lock.lock();
          --in_flight;
          fail_locked(std::current_exception());
        }
      }
      if (in_flight == 0 && completed.empty()) {
        if (error != nullptr || all_closed()) break;
        // Every open search has its frontier unit in flight.
        throw std::logic_error("UnitScheduler: no unit in flight");
      }
      wake.wait(lock, [this] { return !completed.empty() || in_flight == 0; });
    }
  }
};

UnitScheduler::UnitScheduler(const SearchConfig& config,
                             const ResumeContext& resume)
    : state_(std::make_unique<State>()) {
  if (resume.pool != nullptr && resume.sweep == nullptr) {
    throw std::invalid_argument("UnitScheduler: a pool needs its sweep config");
  }
  state_->config = config;
  state_->lane_config = config;
  state_->lane_config.threads = 1;
  state_->resume = resume;
}

UnitScheduler::~UnitScheduler() = default;

void UnitScheduler::add_level(SearchLevel level) {
  auto& stored = state_->levels.emplace_back(std::make_unique<Level>());
  stored->plan = std::move(level);
  stored->searches = state_->config.repetitions;
  for (std::size_t rep = 0; rep < state_->config.repetitions; ++rep) {
    Search& search = state_->searches.emplace_back();
    search.level = stored.get();
    search.features = stored->plan.features;
    search.repetition = rep;
  }
}

void UnitScheduler::add_search(const std::vector<ModelSpec>& sorted_specs,
                               const data::TrainValSplit& split,
                               util::Rng& rng, std::size_t repetition) {
  Search& search = state_->searches.emplace_back();
  search.features = state_->resume.features;
  search.repetition = repetition;
  search.lent_stream = &rng;
  search.sorted = &sorted_specs;
  search.split = lend(split);
}

std::vector<SearchOutcome> UnitScheduler::run() {
  State& state = *state_;
  if (state.resume.pool != nullptr) {
    state.run_pool();
  } else {
    state.run_lanes();
  }
  if (state.error != nullptr) std::rethrow_exception(state.error);
  std::vector<SearchOutcome> outcomes;
  outcomes.reserve(state.searches.size());
  for (Search& search : state.searches) {
    outcomes.push_back(std::move(search.outcome));
  }
  return outcomes;
}

RepeatedSearchResult summarize_repetitions(
    std::vector<SearchOutcome> repetitions) {
  RepeatedSearchResult result;
  result.repetitions = std::move(repetitions);
  double flops_sum = 0.0;
  double param_sum = 0.0;
  for (const SearchOutcome& outcome : result.repetitions) {
    if (!outcome.winner.has_value()) continue;
    ++result.successful_repetitions;
    flops_sum += outcome.winner->flops;
    param_sum += static_cast<double>(outcome.winner->parameter_count);
    if (!result.smallest_winner.has_value() ||
        outcome.winner->flops < result.smallest_winner->flops) {
      result.smallest_winner = outcome.winner;
    }
  }
  if (result.successful_repetitions > 0) {
    const double n = static_cast<double>(result.successful_repetitions);
    result.mean_winner_flops = flops_sum / n;
    result.mean_winner_parameters = param_sum / n;
  }
  return result;
}

}  // namespace qhdl::search
