#include "nn/zoo.h"

#include "common/error.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "nn/residual.h"

namespace ss {

std::string arch_name(ModelArch arch) {
  switch (arch) {
    case ModelArch::kResNet32Lite:
      return "resnet32_lite";
    case ModelArch::kResNet50Lite:
      return "resnet50_lite";
    case ModelArch::kLinear:
      return "linear";
    case ModelArch::kConvNetTiny:
      return "convnet_tiny";
    case ModelArch::kResNet32BnLite:
      return "resnet32_bn_lite";
    case ModelArch::kResNet50BnLite:
      return "resnet50_bn_lite";
  }
  return "unknown";
}

std::optional<ModelArch> parse_arch(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(ModelArch::kResNet50BnLite); ++i)
    if (arch_name(static_cast<ModelArch>(i)) == name) return static_cast<ModelArch>(i);
  return std::nullopt;
}

Model make_model(ModelArch arch, std::size_t input_dim, int num_classes, Rng& rng) {
  Model m;
  const auto classes = static_cast<std::size_t>(num_classes);
  switch (arch) {
    case ModelArch::kResNet32Lite:
      m.add(std::make_unique<Dense>(input_dim, 96, rng))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<Dense>(96, 64, rng))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<Dense>(64, classes, rng));
      break;
    case ModelArch::kResNet50Lite:
      m.add(std::make_unique<Dense>(input_dim, 96, rng))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<Dense>(96, 96, rng))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<Dense>(96, 96, rng))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<Dense>(96, classes, rng));
      break;
    case ModelArch::kLinear:
      m.add(std::make_unique<Dense>(input_dim, classes, rng));
      break;
    case ModelArch::kConvNetTiny: {
      if (input_dim != 3 * 16 * 16)
        throw ConfigError("convnet_tiny expects 3x16x16 = 768 input features");
      auto conv1 = std::make_unique<Conv2D>(3, 16, 16, 8, 3, 3, 1, rng);
      auto pool1 = std::make_unique<MaxPool2x2>(8, 16, 16);
      const std::size_t f1 = pool1->out_features();  // 8*8*8
      m.add(std::move(conv1)).add(std::make_unique<ReLU>()).add(std::move(pool1));
      m.add(std::make_unique<Dense>(f1, 64, rng))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<Dense>(64, classes, rng));
      break;
    }
    case ModelArch::kResNet32BnLite:
      // The 32-lite stem with one BN residual block: the skip connection and
      // normalization give the smoother landscape of the real ResNet32.
      m.add(std::make_unique<Dense>(input_dim, 96, rng))
          .add(std::make_unique<BatchNorm>(96))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<ResidualBlock>(96, rng))
          .add(std::make_unique<Dense>(96, 64, rng))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<Dense>(64, classes, rng));
      break;
    case ModelArch::kResNet50BnLite:
      m.add(std::make_unique<Dense>(input_dim, 96, rng))
          .add(std::make_unique<BatchNorm>(96))
          .add(std::make_unique<ReLU>())
          .add(std::make_unique<ResidualBlock>(96, rng))
          .add(std::make_unique<ResidualBlock>(96, rng))
          .add(std::make_unique<Dense>(96, classes, rng));
      break;
  }
  return m;
}

std::size_t model_flops_proxy(ModelArch arch, std::size_t input_dim, int num_classes) {
  // 3x the forward MAC count approximates fwd+bwd cost.
  const auto classes = static_cast<std::size_t>(num_classes);
  std::size_t macs = 0;
  switch (arch) {
    case ModelArch::kResNet32Lite:
      macs = input_dim * 96 + 96 * 64 + 64 * classes;
      break;
    case ModelArch::kResNet50Lite:
      macs = input_dim * 96 + 96 * 96 + 96 * 96 + 96 * classes;
      break;
    case ModelArch::kLinear:
      macs = input_dim * classes;
      break;
    case ModelArch::kConvNetTiny:
      macs = 8 * 3 * 3 * 3 * 16 * 16 + (8 * 8 * 8) * 64 + 64 * classes;
      break;
    case ModelArch::kResNet32BnLite:
      macs = input_dim * 96 + 2 * 96 * 96 + 96 * 64 + 64 * classes;
      break;
    case ModelArch::kResNet50BnLite:
      macs = input_dim * 96 + 4 * 96 * 96 + 96 * classes;
      break;
  }
  return 3 * macs;
}

}  // namespace ss
