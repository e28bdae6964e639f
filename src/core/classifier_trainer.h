#ifndef RISGRAPH_CORE_CLASSIFIER_TRAINER_H_
#define RISGRAPH_CORE_CLASSIFIER_TRAINER_H_

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/hybrid_parallel.h"

namespace risgraph {

/// Online training of the Hybrid Parallel Mode classifier.
///
/// The paper trains the linear classifier offline on UK-2007 and notes
/// "online training would bring additional overhead, so we choose to fix the
/// parameters first and leave online training as our future work" (Section
/// 5). This module implements that future work:
///
///  * An epsilon-greedy explorer occasionally forces the mode the classifier
///    would NOT pick, so both modes keep being measured across the
///    (active-vertices, active-edges) plane as the workload drifts.
///  * Observations are bucketed into log-space cells. A cell becomes a
///    labeled sample once both modes have enough measurements and their mean
///    times differ by more than `min_margin` (the paper filters out results
///    "where the difference is [less] significant than 20%").
///  * Every `refit_interval` observations, the boundary is refit by the same
///    least-squares procedure used offline (HybridClassifier).
///
/// The overhead per step is one hash-map update — small compared to a push
/// step that crossed the engine's sequential threshold (the only steps the
/// engine consults the trainer for).
class OnlineClassifierTrainer {
 public:
  struct Options {
    /// Fraction of steps diverted to the non-preferred mode for exploration.
    double explore_fraction = 0.05;
    /// Observations between refit attempts.
    uint64_t refit_interval = 512;
    /// Minimum relative difference between mode means for a cell to vote
    /// (the paper's 20% significance filter).
    double min_margin = 0.2;
    /// Minimum measurements of each mode before a cell may vote.
    uint64_t min_samples_per_cell = 3;
    uint64_t seed = 0x5eed;
  };

  OnlineClassifierTrainer() : OnlineClassifierTrainer(Options{}) {}
  explicit OnlineClassifierTrainer(Options options,
                                   HybridClassifier initial = {})
      : options_(options), classifier_(initial), rng_(options.seed) {}

  const HybridClassifier& classifier() const { return classifier_; }
  uint64_t refit_count() const { return refit_count_; }
  uint64_t explore_count() const { return explore_count_; }
  /// Step durations fed back through Observe (valid ones only).
  uint64_t observations() const { return observations_; }
  size_t labeled_cells() const {
    size_t n = 0;
    for (const auto& [key, cell] : cells_) {
      if (CellLabel(cell) != 0) n++;
    }
    return n;
  }

  /// Chooses the mode for the next push step with shape (nv, ne).
  ParallelMode ChooseMode(uint64_t nv, uint64_t ne) {
    ParallelMode preferred = classifier_.Decide(nv, ne);
    if (rng_.NextBool(options_.explore_fraction)) {
      explore_count_++;
      return preferred == ParallelMode::kVertexParallel
                 ? ParallelMode::kEdgeParallel
                 : ParallelMode::kVertexParallel;
    }
    return preferred;
  }

  /// Feeds back the measured duration of a step executed in `mode`.
  void Observe(uint64_t nv, uint64_t ne, ParallelMode mode, int64_t nanos) {
    if (mode == ParallelMode::kHybrid || nanos <= 0) return;
    Cell& cell = cells_[KeyFor(nv, ne)];
    int m = mode == ParallelMode::kEdgeParallel ? 1 : 0;
    cell.sum_ns[m] += static_cast<double>(nanos);
    cell.count[m]++;
    if (++observations_ % options_.refit_interval == 0) Refit();
  }

  /// Forces a refit from everything observed so far. Returns true if the
  /// boundary changed (i.e. enough non-degenerate labeled cells exist).
  bool Refit() {
    std::vector<HybridClassifier::LabeledSample> samples;
    for (const auto& [key, cell] : cells_) {
      int label = CellLabel(cell);
      if (label == 0) continue;
      auto [nv, ne] = ShapeFor(key);
      samples.push_back({nv, ne, label > 0});
    }
    // Least squares needs both classes; a one-sided sample set would push
    // the boundary to infinity.
    bool has_edge = false;
    bool has_vertex = false;
    for (const auto& s : samples) {
      (s.edge_parallel_wins ? has_edge : has_vertex) = true;
    }
    if (!has_edge || !has_vertex) return false;
    if (!classifier_.TrainLeastSquares(samples)) return false;
    refit_count_++;
    return true;
  }

 private:
  struct Cell {
    double sum_ns[2] = {0, 0};  // [vertex-parallel, edge-parallel]
    uint64_t count[2] = {0, 0};
  };

  // +1 = edge-parallel wins, -1 = vertex-parallel wins, 0 = no verdict.
  int CellLabel(const Cell& cell) const {
    if (cell.count[0] < options_.min_samples_per_cell ||
        cell.count[1] < options_.min_samples_per_cell) {
      return 0;
    }
    double vmean = cell.sum_ns[0] / static_cast<double>(cell.count[0]);
    double emean = cell.sum_ns[1] / static_cast<double>(cell.count[1]);
    if (emean < vmean * (1.0 - options_.min_margin)) return 1;
    if (vmean < emean * (1.0 - options_.min_margin)) return -1;
    return 0;
  }

  // Cells are half-log2-sized: shape (nv, ne) -> (round(2*log2), packed).
  static uint64_t KeyFor(uint64_t nv, uint64_t ne) {
    auto bucket = [](uint64_t x) {
      return static_cast<uint64_t>(
          std::lround(2.0 * std::log2(static_cast<double>(x) + 1.0)));
    };
    return (bucket(nv) << 32) | bucket(ne);
  }

  // Cell key -> representative shape at the cell center.
  static std::pair<uint64_t, uint64_t> ShapeFor(uint64_t key) {
    auto unbucket = [](uint64_t b) {
      return static_cast<uint64_t>(
          std::llround(std::exp2(static_cast<double>(b) / 2.0)));
    };
    return {unbucket(key >> 32), unbucket(key & 0xffffffffULL)};
  }

  Options options_;
  HybridClassifier classifier_;
  Rng rng_;
  std::unordered_map<uint64_t, Cell> cells_;
  uint64_t observations_ = 0;
  uint64_t refit_count_ = 0;
  uint64_t explore_count_ = 0;
};

}  // namespace risgraph

#endif  // RISGRAPH_CORE_CLASSIFIER_TRAINER_H_
