// Model zoo: the scaled-down stand-ins for the paper's workloads.
//
// "resnet32_lite" and "resnet50_lite" are MLPs sized so that (a) they train
// in seconds on one CPU core, (b) the 50-variant has meaningfully more
// parameters/compute than the 32-variant (the paper's ResNet50 has longer
// per-batch time), and (c) both underfit a linear baseline, so the accuracy-
// vs-steps curve has the CIFAR-like shape the policies key off.
// "convnet_tiny" exercises the Conv2D/MaxPool path for image-shaped inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.h"
#include "nn/model.h"

namespace ss {

/// Workload identifiers used across benches and EXPERIMENTS.md.
enum class ModelArch {
  kResNet32Lite,   ///< stands in for ResNet32 (setups 1, 3)
  kResNet50Lite,   ///< stands in for ResNet50 (setup 2)
  kLinear,         ///< linear softmax baseline (tests)
  kConvNetTiny,    ///< small CNN over (C,H,W) inputs (example / tests)
  kResNet32BnLite, ///< ResNet32 stand-in with BatchNorm + residual skip
  kResNet50BnLite, ///< ResNet50 stand-in with BatchNorm + residual skips
};

/// Name used in reports.
std::string arch_name(ModelArch arch);

/// The arch whose arch_name() is `name`; nullopt for anything else.
std::optional<ModelArch> parse_arch(const std::string& name);

/// Build a model for `input_dim` features and `num_classes` outputs.
/// For kConvNetTiny, input must be 3x16x16 = 768 features.
Model make_model(ModelArch arch, std::size_t input_dim, int num_classes, Rng& rng);

/// Per-step compute cost proxy (multiply-accumulate count for a batch-1
/// forward+backward).  The cluster simulator turns this into virtual
/// compute time.
std::size_t model_flops_proxy(ModelArch arch, std::size_t input_dim, int num_classes);

}  // namespace ss
