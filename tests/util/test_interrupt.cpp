#include "util/interrupt.hpp"

#include <gtest/gtest.h>

#include "util/subprocess.hpp"

namespace qhdl::util {
namespace {

TEST(Interrupt, CooperativeFlagRoundTrip) {
  clear_interrupt();
  EXPECT_FALSE(interrupt_requested());
  EXPECT_NO_THROW(throw_if_interrupted());
  request_interrupt();
  EXPECT_TRUE(interrupt_requested());
  EXPECT_THROW(throw_if_interrupted(), Interrupted);
  clear_interrupt();
  EXPECT_FALSE(interrupt_requested());
}

// Signal-delivery semantics need a process of their own. The child is a
// fresh exec of this binary (tests/test_main.cpp runs --interrupt-probe),
// not a bare fork: ThreadSanitizer stops intercepting in a child forked
// from a multithreaded parent, so there raise() is not delivered
// synchronously and a signal can stay pending until the child exits.
ExitStatus run_interrupt_probe(const char* mode) {
  return Subprocess::spawn(
             {current_executable_path(), "--interrupt-probe", mode})
      .wait();
}

// The first SIGINT must only set the flag, the second must force an
// immediate exit with status 130 even if the cooperative path is wedged.
TEST(Interrupt, SecondSigintForcesExit130) {
  if (!subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const ExitStatus status = run_interrupt_probe("sigint-twice");
  ASSERT_TRUE(status.exited) << status.to_string();
  EXPECT_EQ(status.exit_code, 130);
}

TEST(Interrupt, RepeatedSigtermStaysCooperative) {
  // Only a second SIGINT escalates; schedulers often send several SIGTERMs
  // and those must keep honoring the save-and-exit path.
  if (!subprocess_supported()) GTEST_SKIP() << "no subprocess support";
  const ExitStatus status = run_interrupt_probe("sigterm-twice");
  ASSERT_TRUE(status.exited) << status.to_string();
  EXPECT_EQ(status.exit_code, 42);
}

}  // namespace
}  // namespace qhdl::util
