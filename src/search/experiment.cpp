#include "search/experiment.hpp"

#include <stdexcept>

#include "data/synthetic.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

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

  SweepResult result;
  result.family = family;
  // Levels are fully independent (each derives its dataset seed from its
  // feature size and re-seeds its search from config.search.seed), so they
  // parallelize with bit-identical results; slots are pre-sized and filled
  // by index to keep the output order fixed.
  result.levels.resize(config.feature_sizes.size());
  util::parallel_for(
      0, config.feature_sizes.size(), config.search.threads,
      [&](std::size_t i) {
        const std::size_t features = config.feature_sizes[i];
        util::throw_if_cancelled(cancel);
        util::log_info("sweep[" + family_name(family) +
                       "]: features=" + std::to_string(features));
        LevelResult level;
        level.features = features;
        const data::Dataset dataset = level_dataset(features, config);
        ResumeContext resume;
        resume.checkpoint = checkpoint;
        resume.family = family_name(family);
        resume.features = features;
        resume.pool = pool;
        resume.sweep = &config;
        resume.cancel = cancel;
        resume.progress = progress;
        resume.tally = tally;
        level.search =
            run_repeated_search(specs, dataset, config.search, resume);
        result.levels[i] = std::move(level);
      });
  return result;
}

}  // namespace qhdl::search
