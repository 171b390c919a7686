#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "search/worker_protocol.hpp"
#include "test_helpers.hpp"

namespace qhdl::serve {
namespace {

TEST(ServeProtocol, FamilyNamesRoundTrip) {
  EXPECT_EQ(family_from_name("classical"), search::Family::Classical);
  EXPECT_EQ(family_from_name("hybrid-bel"), search::Family::HybridBel);
  EXPECT_EQ(family_from_name("hybrid-sel"), search::Family::HybridSel);
  for (const search::Family family :
       {search::Family::Classical, search::Family::HybridBel,
        search::Family::HybridSel}) {
    EXPECT_EQ(family_from_name(search::family_name(family)), family);
  }
}

TEST(ServeProtocol, UnknownFamilyNamesValidSpellings) {
  try {
    (void)family_from_name("quantum");
    FAIL() << "unknown family accepted";
  } catch (const std::invalid_argument& e) {
    // The error must teach the caller the valid vocabulary.
    const std::string what = e.what();
    EXPECT_NE(what.find("quantum"), std::string::npos) << what;
    EXPECT_NE(what.find("classical"), std::string::npos) << what;
    EXPECT_NE(what.find("hybrid-bel"), std::string::npos) << what;
    EXPECT_NE(what.find("hybrid-sel"), std::string::npos) << what;
  }
}

TEST(ServeProtocol, ReplyBuildersCarryTypeAndDetail) {
  const util::Json error = make_error("boom");
  EXPECT_EQ(error.at("type").as_string(), "error");
  EXPECT_EQ(error.at("message").as_string(), "boom");

  const util::Json rejected = make_rejected("overloaded");
  EXPECT_EQ(rejected.at("type").as_string(), "rejected");
  EXPECT_EQ(rejected.at("reason").as_string(), "overloaded");

  const util::Json cancelled = make_cancelled("deadline exceeded");
  EXPECT_EQ(cancelled.at("type").as_string(), "cancelled");
  EXPECT_EQ(cancelled.at("reason").as_string(), "deadline exceeded");
}

TEST(ServeProtocol, StudyRequestRoundTripsTheConfig) {
  const search::SweepConfig config = core::test_scale();
  const util::Json request =
      make_study_request(search::Family::HybridBel, config);
  EXPECT_EQ(request.at("type").as_string(), "study");
  EXPECT_EQ(request.at("family").as_string(), "hybrid-bel");
  // The embedded config must hash identically after the wire round-trip:
  // that hash is the result-cache key, so any drift would split the cache.
  const search::SweepConfig back =
      search::sweep_config_from_json(request.at("config"));
  EXPECT_EQ(search::sweep_config_hash(back), search::sweep_config_hash(config));

  // Field by field: the hash separates every result-affecting field
  // (CheckpointResumeTest.ConfigHashSeparatesProtocols), so an equal hash
  // after the round trip means each non-default value arrived. Workers get
  // their config the same way, inside every unit frame.
  for (const testing::ConfigPerturbation& perturbation :
       testing::result_affecting_perturbations()) {
    search::SweepConfig changed = config;
    perturbation.apply(changed);
    const search::SweepConfig changed_back = search::sweep_config_from_json(
        make_study_request(search::Family::Classical, changed).at("config"));
    EXPECT_EQ(search::sweep_config_hash(changed_back),
              search::sweep_config_hash(changed))
        << perturbation.field;
  }
  // threads leaves the hash alone but still crosses the wire.
  search::SweepConfig parallel = config;
  parallel.search.threads = 7;
  const search::SweepConfig parallel_back = search::sweep_config_from_json(
      make_study_request(search::Family::Classical, parallel).at("config"));
  EXPECT_EQ(parallel_back.search.threads, 7u);
}

}  // namespace
}  // namespace qhdl::serve
