// Regenerates Table 2: PTQ accuracy of FP32 / INT8 / FP8 / Posit8 / MERSIT8
// across the eight vision-model analogues and the four GLUE-style tasks.
//
// Shape to reproduce (paper Section 4.2):
//  * Posit(8,1) and MERSIT(8,2) stay near the FP32 baseline everywhere;
//  * FP(8,2) and Posit(8,0) (small dynamic range) collapse on the
//    MobileNet/EfficientNet-class models;
//  * FP(8,5) and Posit(8,3) (2-bit fractions) degrade noticeably;
//  * INT8 drops on the hard models and on CoLA.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "ptq/sweep.h"

using namespace mersit;

namespace {

void print_header(const std::vector<std::shared_ptr<const formats::Format>>& fmts) {
  std::printf("%-22s %7s", "Model", "FP32");
  for (const auto& f : fmts) std::printf(" %11s", f->name().c_str());
  std::printf("\n");
  bench::print_rule(30 + 12 * static_cast<int>(fmts.size()));
}

void print_row(const std::string& name, float fp32, const std::vector<float>& cols) {
  std::printf("%-22s %7.2f", name.c_str(), fp32);
  for (const float v : cols) std::printf(" %11.2f", v);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main() {
  const auto sizes = bench::Sizes::from_env();
  const auto fmts = core::table2_formats();

  std::printf("=== Table 2: PTQ accuracy (synthetic-task analogues; percent) ===\n");
  std::printf("(thread pool: %d worker(s); override with MERSIT_THREADS)\n\n",
              core::global_pool().size());
  std::printf("Image classification (10-class synthetic, %d train / %d test, "
              "%d calibration samples; %s sizing, img=%d)\n\n",
              sizes.train, sizes.test, sizes.calib, sizes.mode(), sizes.img);

  const nn::Dataset train = nn::make_vision_dataset(sizes.train, 3, sizes.img, 101);
  const nn::Dataset test = nn::make_vision_dataset(sizes.test, 3, sizes.img, 102);
  const nn::Dataset calib = nn::make_vision_dataset(sizes.calib, 3, sizes.img, 103);

  // Rows run across the pool (each owns its model); results keep zoo order.
  ptq::SweepRunner vision;
  auto zoo = nn::make_vision_zoo(3, 10, 2024, sizes.img);
  for (auto& entry : zoo) {
    vision.add_row([&entry, &train, &test, &calib, &fmts, &sizes] {
      bench::train_vision_model(*entry.model, train, sizes.epochs, 55);
      nn::fold_all_batchnorms(*entry.model);
      ptq::SweepRowResult row;
      row.name = entry.name;
      row.fp32 = ptq::evaluate_fp32(*entry.model, test, ptq::Metric::kAccuracy);
      row.metrics = ptq::run_format_sweep(*entry.model, calib, test, fmts);
      return row;
    });
  }
  // Progress goes to stderr: rows complete in pool order, and stdout (the
  // table artifact) must diff clean run to run.
  vision.on_row_done([](const ptq::SweepRowResult& row) {
    std::fprintf(stderr, "  [done] %s\n", row.name.c_str());
  });
  const auto vision_rows = vision.run();
  std::printf("\n");
  print_header(fmts);
  for (const auto& row : vision_rows) print_row(row.name, row.fp32, row.metrics);

  std::printf("\nGLUE-style benchmark with BERT-mini (%d train / %d test)\n\n",
              sizes.bert_train, sizes.bert_test);

  ptq::SweepRunner glue;
  const nn::GlueTask tasks[] = {nn::GlueTask::kCola, nn::GlueTask::kMnliMM,
                                nn::GlueTask::kMrpc, nn::GlueTask::kSst2};
  for (const auto task : tasks) {
    glue.add_row([task, &fmts, &sizes] {
      const nn::Dataset btrain =
          nn::make_glue_dataset(task, sizes.bert_train, sizes.vocab, sizes.seq, 201);
      const nn::Dataset btest =
          nn::make_glue_dataset(task, sizes.bert_test, sizes.vocab, sizes.seq, 202);
      const nn::Dataset bcalib =
          nn::make_glue_dataset(task, sizes.calib, sizes.vocab, sizes.seq, 203);
      std::mt19937 rng(300 + static_cast<unsigned>(task));
      auto bert = nn::make_bert_mini(sizes.vocab, sizes.seq + 2, 32, 4, 2, 64,
                                     nn::glue_num_classes(task), rng);
      nn::TrainOptions opt;
      opt.epochs = sizes.bert_epochs;
      opt.batch = 32;
      opt.lr = 1.5e-3f;
      (void)nn::train_classifier(*bert, btrain, opt);

      ptq::PtqOptions popt;
      popt.quantize_input = false;  // token ids
      popt.metric = task == nn::GlueTask::kCola ? ptq::Metric::kMatthews
                                                : ptq::Metric::kAccuracy;
      ptq::SweepRowResult row;
      row.name = nn::glue_task_name(task);
      row.fp32 = ptq::evaluate_fp32(*bert, btest, popt.metric);
      row.metrics = ptq::run_format_sweep(*bert, bcalib, btest, fmts, popt);
      return row;
    });
  }
  glue.on_row_done([](const ptq::SweepRowResult& row) {
    std::fprintf(stderr, "  [done] %s\n", row.name.c_str());
  });
  const auto glue_rows = glue.run();
  std::printf("\n");
  print_header(fmts);
  for (const auto& row : glue_rows) print_row(row.name, row.fp32, row.metrics);

  std::printf("\n(CoLA reports Matthews correlation, the rest accuracy, "
              "mirroring the paper.)\n");
  return 0;
}
