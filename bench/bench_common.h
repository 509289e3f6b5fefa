// Shared helpers for the experiment-regeneration benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env.h"
#include "nn/data.h"
#include "nn/models.h"
#include "nn/train.h"

namespace mersit::bench {

/// Experiment sizing; MERSIT_BENCH_FAST=1 shrinks everything for smoke runs,
/// including the per-sample dimensions (img, seq), not just sample counts.
struct Sizes {
  int train = 1280;
  int test = 320;
  int calib = 256;  ///< mirrors the paper's small calibration subset
  int epochs = 5;
  int img = 12;
  int vocab = 48;
  int seq = 18;
  int bert_train = 2048;
  int bert_test = 384;
  int bert_epochs = 6;
  bool fast = false;

  /// "fast" / "full" — stamp bench output so smoke numbers are never
  /// mistaken for the committed full-size runs.
  [[nodiscard]] const char* mode() const { return fast ? "fast" : "full"; }

  /// Unset, empty or 0 = full sizing, 1 = fast; anything else exits the
  /// bench with status 2 and core::env_int's message, so a typo never runs
  /// the wrong sizing silently.
  static Sizes from_env() {
    long fast = 0;
    try {
      fast = core::env_int("MERSIT_BENCH_FAST", 0, 0, 1);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
    Sizes s;
    if (fast == 1) {
      s.fast = true;
      s.train = 320;
      s.test = 128;
      s.calib = 96;
      s.epochs = 3;
      s.img = 8;   // must stay a multiple of 4 for the VGG classifier head
      s.seq = 12;
      s.bert_train = 384;
      s.bert_test = 128;
      s.bert_epochs = 2;
    }
    return s;
  }
};

/// Staleness guard for a committed JSON report: every key the current bench
/// emits must appear in the file at `path`, so adding a field forces the
/// report to be regenerated instead of silently drifting from the schema
/// EXPERIMENTS.md describes.  Prints each missing key to stderr under
/// `who`; returns the process exit code (0 = current).
inline int check_report(const char* path, const char* who,
                        std::initializer_list<const char*> keys) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "%s: cannot read %s\n", who, path);
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string s = buf.str();
  int missing = 0;
  for (const char* key : keys)
    if (s.find(key) == std::string::npos) {
      std::fprintf(stderr, "%s: %s is stale: missing %s\n", who, path, key);
      ++missing;
    }
  if (missing == 0) std::printf("%s matches the current schema\n", path);
  return missing == 0 ? 0 : 1;
}

inline void print_rule(int width = 118) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Train one vision model on the standard synthetic task.
inline void train_vision_model(nn::Module& model, const nn::Dataset& train,
                               int epochs, unsigned seed) {
  nn::TrainOptions opt;
  opt.epochs = epochs;
  opt.batch = 32;
  opt.lr = 2e-3f;
  opt.shuffle_seed = seed;
  (void)nn::train_classifier(model, train, opt);
}

}  // namespace mersit::bench
