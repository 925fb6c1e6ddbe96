// Weight initializers.
//
// Deterministic given the Rng: every worker replica and every re-run of a
// bench configuration sees bit-identical starting weights, which is what
// lets the run cache (core/run_cache.h) treat a RunRequest hash as a full
// description of the training outcome.
#pragma once

#include "common/rng.h"
#include "tensor/tensor.h"

namespace ss {

/// He/Kaiming normal init for ReLU networks: N(0, sqrt(2/fan_in)).
void he_init(Tensor& w, std::size_t fan_in, Rng& rng);

}  // namespace ss
