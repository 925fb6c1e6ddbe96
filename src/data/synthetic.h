// Synthetic CIFAR-like dataset generator.
//
// The paper trains ResNet32/CIFAR-10 and ResNet50/CIFAR-100.  We do not have
// those datasets or GPUs, and none of the paper's claims depend on vision
// specifics — they depend on optimization behaviour (see DESIGN.md §2).  This
// generator produces a classification task with the properties that matter:
//
//  * classes are unions of several Gaussian "modes" (class manifolds), so a
//    linear model underfits and an MLP improves over training, giving the
//    characteristic accuracy-vs-steps learning curve;
//  * label noise sets a test-accuracy ceiling below 100%, so BSP can reach a
//    lower *training* loss than hybrid schedules while both plateau at the
//    same *test* accuracy (the paper's Remark A.2 phenomenon);
//  * a "100-class" variant with more classes/modes and lower separation
//    mimics CIFAR-100's harder, longer training.
#pragma once

#include <cstddef>
#include <cstdint>

#include "data/dataset.h"

namespace ss {

/// Parameters of the synthetic class-manifold task.
struct SyntheticSpec {
  int num_classes = 10;
  std::size_t feature_dim = 64;
  std::size_t train_size = 16384;
  std::size_t test_size = 4096;
  int modes_per_class = 3;        ///< Gaussian modes forming each class manifold.
  double class_separation = 2.2;  ///< Distance scale between mode centers.
  double within_stddev = 1.0;     ///< Sample spread around a mode center.
  double label_noise = 0.06;      ///< Probability a train label is resampled uniformly.
  std::uint64_t seed = 1234;

  bool operator==(const SyntheticSpec&) const = default;

  /// CIFAR-10-like default (used by experiment setups 1 and 3).
  [[nodiscard]] static SyntheticSpec cifar10_like();
  /// CIFAR-100-like: 100 classes, lower separation, larger model needed
  /// (experiment setup 2).
  [[nodiscard]] static SyntheticSpec cifar100_like();
};

/// Generate a reproducible train/test split from the spec.  Test labels are
/// noise-free (noise only corrupts training labels), matching common
/// synthetic-benchmark practice: the ceiling comes from class overlap plus
/// training noise.  Throws ConfigError on a spec that would generate
/// non-finite or empty data.
DataSplit make_synthetic(const SyntheticSpec& spec);

/// Train rows [begin, end) of `make_synthetic(spec)`, bit for bit, in a
/// Dataset of `spec.train_size` logical rows that holds only those rows.
/// Rows before `begin` are skipped by drawing the values they consume, so
/// the cost is generating rows [0, end) minus their Box-Muller math.
Dataset make_synthetic_train(const SyntheticSpec& spec, std::size_t begin, std::size_t end);

/// The test split of `make_synthetic(spec)`, bit for bit, without building
/// the train split.
Dataset make_synthetic_test(const SyntheticSpec& spec);

}  // namespace ss
