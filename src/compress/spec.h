// Declarative compression configuration for training sessions.
//
// `RunRequest` (core/session.h) carries a `CompressionSpec` value instead of
// a live codec so run requests stay copyable, hashable into cache keys, and
// serializable.  `make_bank` instantiates the actual codec + per-worker
// error-feedback state when the session starts.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "compress/bank.h"

namespace ss {

enum class CodecKind {
  kNone,      ///< full fp32 pushes (the default)
  kTopK,      ///< top-k sparsification + error feedback (Aji & Heafield)
  kTernGrad,  ///< ternary quantization (Wen et al.)
  kQsgd,      ///< stochastic level quantization (Alistarh et al.)
};

std::string codec_kind_name(CodecKind k);

/// The kind whose codec_kind_name() is `name`; nullopt for anything else.
std::optional<CodecKind> parse_codec_kind(const std::string& name);

struct CompressionSpec {
  CodecKind kind = CodecKind::kNone;
  double topk_fraction = 0.01;  ///< for kTopK
  int qsgd_levels = 15;         ///< for kQsgd
  double terngrad_clip_sigma = 2.5;

  [[nodiscard]] static CompressionSpec none() { return {}; }
  [[nodiscard]] static CompressionSpec topk(double fraction);
  [[nodiscard]] static CompressionSpec terngrad(double clip_sigma = 2.5);
  [[nodiscard]] static CompressionSpec qsgd(int levels);

  [[nodiscard]] bool enabled() const noexcept { return kind != CodecKind::kNone; }

  /// Canonical short string for cache keys and table labels, e.g.
  /// "topk(1%)" or "none".
  [[nodiscard]] std::string label() const;

  /// Instantiate the codec + bank for `num_workers` workers (error feedback
  /// enabled exactly when the codec is biased).  nullopt when disabled.
  [[nodiscard]] std::optional<CompressorBank> make_bank(std::size_t num_workers) const;
};

}  // namespace ss
