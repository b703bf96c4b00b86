// The tests' one VerifyRequest builder: every test reaches the verifier
// through verify(VerifyRequest), and this fills in the fields a test
// varies -- the problem, the instance, count or early-exit verify, the lane
// count and the tier pin. Fields it does not take (grain, pool, window)
// are set on the returned request. asD() names either front end's problem
// as the engine's GridLclD.
#pragma once

#include <span>
#include <type_traits>

#include "grid/torus2d.hpp"
#include "grid/torusd.hpp"
#include "lcl/grid_lcl.hpp"
#include "lcl/grid_lcl_d.hpp"
#include "lcl/verify_api.hpp"

namespace lclgrid {

/// Either front end's problem as the engine's GridLclD.
inline const GridLclD& asD(const GridLcl& lcl) { return lcl.asD(); }
inline const GridLclD& asD(const GridLclD& lcl) { return lcl; }

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
