#include "compress/spec.h"

#include "common/error.h"
#include "compress/qsgd.h"
#include "compress/terngrad.h"
#include "compress/topk.h"

namespace ss {

std::string codec_kind_name(CodecKind k) {
  switch (k) {
    case CodecKind::kNone:
      return "none";
    case CodecKind::kTopK:
      return "topk";
    case CodecKind::kTernGrad:
      return "terngrad";
    case CodecKind::kQsgd:
      return "qsgd";
  }
  return "?";
}

std::optional<CodecKind> parse_codec_kind(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(CodecKind::kQsgd); ++i)
    if (codec_kind_name(static_cast<CodecKind>(i)) == name) return static_cast<CodecKind>(i);
  return std::nullopt;
}

CompressionSpec CompressionSpec::topk(double fraction) {
  CompressionSpec s;
  s.kind = CodecKind::kTopK;
  s.topk_fraction = fraction;
  return s;
}

CompressionSpec CompressionSpec::terngrad(double clip_sigma) {
  CompressionSpec s;
  s.kind = CodecKind::kTernGrad;
  s.terngrad_clip_sigma = clip_sigma;
  return s;
}

CompressionSpec CompressionSpec::qsgd(int levels) {
  CompressionSpec s;
  s.kind = CodecKind::kQsgd;
  s.qsgd_levels = levels;
  return s;
}

std::string CompressionSpec::label() const {
  switch (kind) {
    case CodecKind::kNone:
      return "none";
    case CodecKind::kTopK:
      return TopKCodec(topk_fraction).name();
    case CodecKind::kTernGrad:
      return TernGradCodec(terngrad_clip_sigma).name();
    case CodecKind::kQsgd:
      return QsgdCodec(qsgd_levels).name();
  }
  return "?";
}

std::optional<CompressorBank> CompressionSpec::make_bank(std::size_t num_workers) const {
  std::shared_ptr<GradientCodec> codec;
  switch (kind) {
    case CodecKind::kNone:
      return std::nullopt;
    case CodecKind::kTopK:
      codec = std::make_shared<TopKCodec>(topk_fraction);
      break;
    case CodecKind::kTernGrad:
      codec = std::make_shared<TernGradCodec>(terngrad_clip_sigma);
      break;
    case CodecKind::kQsgd:
      codec = std::make_shared<QsgdCodec>(qsgd_levels);
      break;
  }
  if (!codec) throw ConfigError("CompressionSpec: unknown codec kind");
  return CompressorBank::with_default_feedback(std::move(codec), num_workers);
}

}  // namespace ss
