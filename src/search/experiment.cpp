#include "search/experiment.hpp"

#include <stdexcept>

#include "data/synthetic.hpp"
#include "search/unit_scheduler.hpp"

namespace qhdl::search {

std::string family_name(Family family) {
  switch (family) {
    case Family::Classical: return "classical";
    case Family::HybridBel: return "hybrid-bel";
    case Family::HybridSel: return "hybrid-sel";
  }
  return "?";
}

std::vector<ModelSpec> family_search_space(Family family) {
  switch (family) {
    case Family::Classical:
      return paper_classical_space();
    case Family::HybridBel:
      return paper_hybrid_space(qnn::AnsatzKind::BasicEntangler);
    case Family::HybridSel:
      return paper_hybrid_space(qnn::AnsatzKind::StronglyEntangling);
  }
  throw std::logic_error("family_search_space: unknown family");
}

data::Dataset level_dataset(std::size_t features, const SweepConfig& config) {
  // Mix the feature size into the seed so levels differ but remain
  // reproducible; families share the seed and therefore the dataset.
  const std::uint64_t seed =
      config.dataset_seed * 0x100000001b3ULL + features;
  if (config.geometry == BaseGeometry::Spiral) {
    return data::make_complexity_dataset(features, config.spiral, seed);
  }
  // Rings: same augmentation + noise schedule on a different base geometry.
  util::Rng rng{seed};
  const double noise = data::noise_for_features(features);
  const data::Dataset base =
      data::make_rings(config.spiral.points, config.spiral.classes,
                       noise * data::kAngleNoiseFactor, rng);
  return data::augment_features(base, features,
                                noise * data::kDerivedNoiseFactor, rng);
}

SweepResult run_complexity_sweep(Family family, const SweepConfig& config,
                                 StudyCheckpoint* checkpoint,
                                 WorkerPool* pool,
                                 const util::CancelToken* cancel,
                                 const ProgressFn* progress,
                                 ReplayTally* tally) {
  if (config.feature_sizes.empty()) {
    throw std::invalid_argument("run_complexity_sweep: no feature sizes");
  }
  const std::vector<ModelSpec> specs = family_search_space(family);

  ResumeContext resume;
  resume.checkpoint = checkpoint;
  resume.family = family_name(family);
  resume.pool = pool;
  resume.sweep = &config;
  resume.cancel = cancel;
  resume.progress = progress;
  resume.tally = tally;
  // Every (level, repetition) is one search of one scheduler, so levels and
  // repetitions share the lanes; each level's dataset is built when its
  // first search opens.
  UnitScheduler scheduler{config.search, resume};
  for (const std::size_t features : config.feature_sizes) {
    scheduler.add_level(SearchLevel{features, &specs, [&config, features] {
                                      return std::make_shared<const data::Dataset>(
                                          level_dataset(features, config));
                                    }});
  }
  std::vector<SearchOutcome> outcomes = scheduler.run();

  SweepResult result;
  result.family = family;
  auto next = outcomes.begin();
  for (const std::size_t features : config.feature_sizes) {
    LevelResult level;
    level.features = features;
    const auto end = next + static_cast<std::ptrdiff_t>(config.search.repetitions);
    level.search = summarize_repetitions(std::vector<SearchOutcome>(
        std::make_move_iterator(next), std::make_move_iterator(end)));
    next = end;
    result.levels.push_back(std::move(level));
  }
  return result;
}

}  // namespace qhdl::search
