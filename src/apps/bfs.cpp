#include "apps/bfs.hpp"

#include "apps/push_engine.hpp"

namespace lcr::apps {

std::vector<std::uint32_t> run_bfs(abelian::HostEngine& eng,
                                   graph::VertexId source,
                                   rt::RecoveryCtx* rec) {
  return run_push<BfsTraits>(
      eng, source, RoundLoop::kNoCap, rec);
}

}  // namespace lcr::apps
