// Strict parsing of the GEMM switches MERSIT_GEMM, MERSIT_PREPACK and
// MERSIT_FOLD_BN: unset, empty, 0 and 1 are accepted; anything else throws
// naming the variable instead of silently keeping the default.
//
// Each switch is read once per process, so every case runs in a fresh child
// (a "threadsafe" death test re-executes this binary) that sets the
// variable before the first read.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "nn/gemm/gemm.h"

namespace mersit::nn::gemm {
namespace {

/// Sets `name=value`, reads the switch once and exits 0 with its value
/// printed, or 3 with the exception message on stderr.
[[noreturn]] void read_in_child(const char* name, const char* value,
                                bool (*read)()) {
  setenv(name, value, /*overwrite=*/1);
  try {
    std::fprintf(stderr, "value=%d\n", read() ? 1 : 0);
    std::exit(0);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(3);
  }
}

struct Knob {
  const char* name;
  bool (*read)();
  bool fallback;
};

const Knob kKnobs[] = {
    {"MERSIT_GEMM", [] { return enabled(); }, true},
    {"MERSIT_PREPACK", [] { return prepack_enabled(); }, true},
    {"MERSIT_FOLD_BN", [] { return fold_bn_enabled(); }, false},
};

TEST(GemmKnobs, MalformedSwitchValuesThrowNamingTheVariable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const Knob& k : kKnobs) {
    for (const char* bad : {"false", "true", "2", "-1", "on", "1x"}) {
      EXPECT_EXIT(read_in_child(k.name, bad, k.read),
                  ::testing::ExitedWithCode(3),
                  std::string(k.name) + "='" + bad + "'")
          << k.name << "=" << bad;
    }
  }
}

TEST(GemmKnobs, ZeroOneAndEmptyAreAccepted) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const Knob& k : kKnobs) {
    EXPECT_EXIT(read_in_child(k.name, "0", k.read),
                ::testing::ExitedWithCode(0), "value=0")
        << k.name;
    EXPECT_EXIT(read_in_child(k.name, "1", k.read),
                ::testing::ExitedWithCode(0), "value=1")
        << k.name;
    EXPECT_EXIT(read_in_child(k.name, "", k.read),
                ::testing::ExitedWithCode(0),
                k.fallback ? "value=1" : "value=0")
        << k.name;
  }
}

}  // namespace
}  // namespace mersit::nn::gemm
