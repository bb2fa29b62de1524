#include "comm/backend.hpp"

#include <cstdlib>
#include <cstring>

#include "comm/lci_backend.hpp"
#include "comm/mpi_probe_backend.hpp"
#include "comm/mpi_rma_backend.hpp"

namespace lcr::comm {

BufferLease Backend::acquire(int /*dst*/, std::size_t max_bytes) {
  return BufferLease::on_heap(max_bytes);
}

void Backend::abandon(BufferLease& lease) { lease = BufferLease{}; }

// Direct-write defaults: unsupported. Engines probe supports_direct_write()
// before relying on any of these, so the defaults only need to be inert.
DirectRegion Backend::register_direct_region(int /*src*/, std::byte* /*base*/,
                                             std::size_t /*bytes*/,
                                             std::uint32_t /*generation*/) {
  return DirectRegion{};
}

void Backend::release_direct_region(int /*src*/,
                                    const DirectRegion& /*region*/) {}

DirectPutStatus Backend::direct_put(int /*dst*/, const DirectRegion& /*r*/,
                                    const void* /*payload*/,
                                    std::size_t /*bytes*/,
                                    std::uint32_t /*phase_id*/,
                                    std::uint32_t /*pattern_key*/) {
  return DirectPutStatus::Unavailable;
}

bool Backend::poll_direct(DirectSignal& /*out*/) { return false; }

const char* to_string(DirectWriteMode m) {
  switch (m) {
    case DirectWriteMode::Off: return "off";
    case DirectWriteMode::Auto: return "auto";
    case DirectWriteMode::Forced: return "forced";
  }
  return "?";
}

DirectWriteMode resolve_direct_write(DirectWriteMode cfg) {
  const char* env = std::getenv("LCR_DIRECT_WRITE");
  if (env == nullptr) return cfg;
  if (std::strcmp(env, "off") == 0) return DirectWriteMode::Off;
  if (std::strcmp(env, "auto") == 0) return DirectWriteMode::Auto;
  if (std::strcmp(env, "forced") == 0 || std::strcmp(env, "on") == 0)
    return DirectWriteMode::Forced;
  return cfg;  // unparsable override: keep the configured mode
}

const char* to_string(BackendKind k) {
  switch (k) {
    case BackendKind::Lci: return "lci";
    case BackendKind::MpiProbe: return "mpi-probe";
    case BackendKind::MpiRma: return "mpi-rma";
  }
  return "?";
}

std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      fabric::Fabric& fabric, int rank,
                                      const BackendOptions& options) {
  switch (kind) {
    case BackendKind::Lci:
      return std::make_unique<LciBackend>(fabric, rank, options);
    case BackendKind::MpiProbe:
      return std::make_unique<MpiProbeBackend>(fabric, rank, options);
    case BackendKind::MpiRma:
      return std::make_unique<MpiRmaBackend>(fabric, rank, options);
  }
  return nullptr;
}

}  // namespace lcr::comm
