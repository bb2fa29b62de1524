#include "apps/sssp.hpp"

#include "apps/push_engine.hpp"

namespace lcr::apps {

std::vector<std::uint32_t> run_sssp(abelian::HostEngine& eng,
                                    graph::VertexId source,
                                    rt::RecoveryCtx* rec) {
  return run_push<SsspTraits>(
      eng, source, RoundLoop::kNoCap, rec);
}

}  // namespace lcr::apps
