// The tests' one VerifyRequest builder: every test reaches the verifier
// through verify(VerifyRequest), and this fills in the fields a test
// varies -- the problem, the instance, count or early-exit verify, the lane
// count and the tier pin. Fields it does not take (grain, pool, window)
// are set on the returned request.
#pragma once

#include <span>
#include <type_traits>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/verify_api.hpp"

namespace lclgrid {

/// A request for `lcl` over `instance`: a Torus2D (GridLcl) or TorusD
/// (GridLclD) carrying `labels` -- one labelling or a back-to-back batch --
/// or an open StreamLabelling, which takes empty `labels`. `count` asks
/// for the exact violation total instead of an early-exit verdict.
template <typename Instance, typename Lcl>
VerifyRequest verifyRequest(const Instance& instance, const Lcl& lcl,
                            std::span<const int> labels, bool count,
                            int threads = 1, TierPin pin = TierPin::kAuto) {
  VerifyRequest request;
  if constexpr (std::is_same_v<Lcl, GridLcl>) {
    request.problem = &lcl;
  } else {
    request.problemD = &lcl;
  }
  if constexpr (std::is_same_v<Instance, StreamLabelling>) {
    request.file = &instance;
  } else if constexpr (std::is_same_v<Instance, Torus2D>) {
    request.torus = &instance;
  } else {
    request.torusD = &instance;
  }
  request.labels = labels;
  request.options.countViolations = count;
  request.options.engine.threads = threads;
  request.options.tier = pin;
  return request;
}

}  // namespace lclgrid
