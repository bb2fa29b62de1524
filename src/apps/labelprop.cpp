#include "apps/labelprop.hpp"

#include "apps/push_engine.hpp"

namespace lcr::apps {

std::vector<std::uint32_t> run_labelprop(abelian::HostEngine& eng,
                                         rt::RecoveryCtx* rec) {
  return run_push<LabelPropTraits>(
      eng, /*source=*/0, RoundLoop::kNoCap, rec);
}

}  // namespace lcr::apps
