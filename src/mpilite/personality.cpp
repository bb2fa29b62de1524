#include "mpilite/personality.hpp"

#include <stdexcept>

namespace lcr::mpi {

Personality default_personality() { return Personality{}; }

Personality intelmpi_like() {
  Personality p;
  p.name = "intelmpi";
  p.call_overhead_ns = 30;
  p.match_cost_ns = 14;     // optimized matching path
  p.probe_cost_ns = 140;    // probe walks a separate unexpected structure
  p.lock_cost_ns = 55;
  p.rma_put_cost_ns = 40;   // best RMA in the paper's Table IV
  p.rma_sync_cost_ns = 220;
  p.eager_limit = 8 * 1024;
  return p;
}

Personality mvapich_like() {
  Personality p;
  p.name = "mvapich";
  p.call_overhead_ns = 35;
  p.match_cost_ns = 28;     // slower queue scan
  p.probe_cost_ns = 70;     // cheap probe
  p.lock_cost_ns = 70;
  p.rma_put_cost_ns = 60;
  p.rma_sync_cost_ns = 420; // heavier PSCW
  p.eager_limit = 8 * 1024;
  return p;
}

Personality openmpi_like() {
  Personality p;
  p.name = "openmpi";
  p.call_overhead_ns = 55;  // component stack (PML/BTL) per-call cost
  p.match_cost_ns = 20;
  p.probe_cost_ns = 100;
  p.lock_cost_ns = 95;      // opal lock contention
  p.rma_put_cost_ns = 70;
  p.rma_sync_cost_ns = 330;
  p.eager_limit = 4 * 1024;
  return p;
}

Personality personality_by_name(const std::string& name) {
  if (name == "default") return default_personality();
  if (name == "intelmpi") return intelmpi_like();
  if (name == "mvapich") return mvapich_like();
  if (name == "openmpi") return openmpi_like();
  throw std::invalid_argument("unknown MPI personality: " + name);
}

}  // namespace lcr::mpi
