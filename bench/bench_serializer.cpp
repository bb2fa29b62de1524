// Serializer microbench: encode/decode throughput and wire bytes of the
// adaptive formats (sparse / varint / dense) across dirty densities, for
// 4-byte and 8-byte labels (DESIGN.md §11).
//
// Shape to check: sparse wins far below ~1/64 density, varint in the middle
// band, dense from ~1/8 up; at full density dense ships exactly half the
// sparse bytes for u32 labels (bitmap elided). The auto row must track the
// cheapest format's bytes at every density.
//
// `--json-out <file>` (or env LCR_BENCH_JSON) writes the measurements as a
// JSON artifact for CI history.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_support/table.hpp"
#include "comm/message.hpp"
#include "comm/serializer.hpp"
#include "runtime/bitset.hpp"
#include "runtime/rng.hpp"

using namespace lcr;

namespace {

struct Measurement {
  std::string type;
  std::string mode;
  double density = 0.0;
  comm::WireFormat format = comm::WireFormat::Sparse;  // format actually used
  std::size_t records = 0;
  double bytes_per_record = 0.0;
  double encode_mrps = 0.0;  // million records per second
  double decode_mrps = 0.0;
};

const char* format_name(comm::WireFormat f) {
  switch (f) {
    case comm::WireFormat::Sparse: return "sparse";
    case comm::WireFormat::Varint: return "varint";
    case comm::WireFormat::Dense: return "dense";
    default: return "raw";
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Encode + decode one (type, density, mode) cell, repeated until enough
/// records have moved to drown out clock granularity.
template <typename T>
Measurement run_cell(const char* type_name, double density,
                     std::optional<comm::WireFormat> mode, rt::Rng& rng) {
  constexpr std::uint32_t n = 1u << 16;
  std::vector<graph::VertexId> shared(n);
  for (std::uint32_t i = 0; i < n; ++i) shared[i] = i;
  rt::ConcurrentBitset dirty(n);
  std::vector<T> labels(n);
  const auto threshold =
      static_cast<std::uint64_t>(density * 1000000.0 + 0.5);
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t raw = rng();
    std::memcpy(&labels[i], &raw, sizeof(T));
    if (rng.below(1000000) < threshold) {
      dirty.set(i);
      ++count;
    }
  }

  Measurement m;
  m.type = type_name;
  m.mode = mode ? format_name(*mode) : "auto";
  m.density = density;
  m.records = count;
  if (count == 0) return m;

  comm::set_wire_format_override(mode);
  std::vector<std::byte> payload;
  const int reps =
      static_cast<int>(std::max<std::size_t>(1, (1u << 22) / count));

  comm::EncodedChunk enc;
  const double enc_start = now_s();
  for (int r = 0; r < reps; ++r) {
    enc = comm::encode_dirty_range<T>(shared, dirty, labels.data(), 0, n,
                                      [&](std::size_t need) {
                                        payload.resize(need);
                                        return payload.data();
                                      });
  }
  const double enc_s = now_s() - enc_start;
  comm::set_wire_format_override(std::nullopt);

  comm::ChunkHeader header;
  header.payload_bytes = static_cast<std::uint32_t>(enc.bytes);
  header.base_pos = 0;
  header.span = n;
  header.format = static_cast<std::uint8_t>(enc.format);
  if (enc.format == comm::WireFormat::Dense && enc.all_set)
    header.flags = comm::kFlagDenseFull;
  header.finalize();

  std::uint64_t sink = 0;
  const double dec_start = now_s();
  for (int r = 0; r < reps; ++r) {
    comm::decode_chunk<T>(header, payload.data(), n,
                          [&](std::uint32_t pos, const T& value) {
                            std::uint64_t bits = 0;
                            std::memcpy(&bits, &value, sizeof(T));
                            sink += pos ^ bits;
                          });
  }
  const double dec_s = now_s() - dec_start;
  if (sink == 0xDEADBEEF) std::printf("(unlikely)\n");  // keep `sink` live

  const double total_records =
      static_cast<double>(count) * static_cast<double>(reps);
  m.format = enc.format;
  m.bytes_per_record = static_cast<double>(enc.bytes) / count;
  m.encode_mrps = total_records / std::max(enc_s, 1e-12) * 1e-6;
  m.decode_mrps = total_records / std::max(dec_s, 1e-12) * 1e-6;
  return m;
}

/// The seed data path this PR replaced: gather into a growable record
/// vector, copy the slice into a per-chunk buffer, copy the chunk into the
/// backend's wire buffer. Measured here so the zero-copy speedup stays an
/// observable number instead of folklore.
template <typename T>
Measurement run_legacy_cell(const char* type_name, double density,
                            rt::Rng& rng) {
  constexpr std::uint32_t n = 1u << 16;
  std::vector<graph::VertexId> shared(n);
  for (std::uint32_t i = 0; i < n; ++i) shared[i] = i;
  rt::ConcurrentBitset dirty(n);
  std::vector<T> labels(n);
  const auto threshold =
      static_cast<std::uint64_t>(density * 1000000.0 + 0.5);
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t raw = rng();
    std::memcpy(&labels[i], &raw, sizeof(T));
    if (rng.below(1000000) < threshold) {
      dirty.set(i);
      ++count;
    }
  }

  Measurement m;
  m.type = type_name;
  m.mode = "legacy";
  m.density = density;
  m.records = count;
  if (count == 0) return m;

  const int reps =
      static_cast<int>(std::max<std::size_t>(1, (1u << 22) / count));
  std::vector<std::byte> records;
  std::vector<std::byte> chunk;
  std::vector<std::byte> wire;
  const double enc_start = now_s();
  for (int r = 0; r < reps; ++r) {
    records.clear();
    records.reserve(1024);  // the seed's guess-sized reservation
    comm::gather_records<T>(shared, dirty, labels.data(), records);
    chunk.assign(records.begin(), records.end());  // per-chunk slice copy
    wire.resize(chunk.size());                     // backend wire copy
    std::memcpy(wire.data(), chunk.data(), chunk.size());
  }
  const double enc_s = now_s() - enc_start;

  std::uint64_t sink = 0;
  const double dec_start = now_s();
  for (int r = 0; r < reps; ++r) {
    comm::scatter_records<T>(wire.data(), wire.size(),
                             [&](std::uint32_t pos, T value) {
                               std::uint64_t bits = 0;
                               std::memcpy(&bits, &value, sizeof(T));
                               sink += pos ^ bits;
                             });
  }
  const double dec_s = now_s() - dec_start;
  if (sink == 0xDEADBEEF) std::printf("(unlikely)\n");

  const double total_records =
      static_cast<double>(count) * static_cast<double>(reps);
  m.format = comm::WireFormat::Sparse;
  m.bytes_per_record = static_cast<double>(wire.size()) / count;
  m.encode_mrps = total_records / std::max(enc_s, 1e-12) * 1e-6;
  m.decode_mrps = total_records / std::max(dec_s, 1e-12) * 1e-6;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_out(argc, argv);
  rt::Rng rng(0xB355EDu);

  std::printf("=== Serializer: adaptive wire formats, %u-entry shared list "
              "===\n\n", 1u << 16);

  const double densities[] = {0.001, 0.01, 0.1, 0.5, 0.95, 1.0};
  const std::optional<comm::WireFormat> modes[] = {
      std::nullopt, comm::WireFormat::Sparse, comm::WireFormat::Varint,
      comm::WireFormat::Dense};

  bench::Table table({"type", "density", "mode", "chosen", "records",
                      "bytes/rec", "enc Mrec/s", "dec Mrec/s"});
  std::vector<Measurement> all;
  for (const double density : densities) {
    for (int cell = 0; cell < 5; ++cell) {
      for (int type = 0; type < 2; ++type) {
        Measurement m;
        if (cell == 4) {
          m = type == 0 ? run_legacy_cell<std::uint32_t>("u32", density, rng)
                        : run_legacy_cell<double>("f64", density, rng);
        } else {
          const auto& mode = modes[cell];
          m = type == 0 ? run_cell<std::uint32_t>("u32", density, mode, rng)
                        : run_cell<double>("f64", density, mode, rng);
        }
        all.push_back(m);
        char dens[16], bpr[16], encs[16], decs[16];
        std::snprintf(dens, sizeof(dens), "%.3f%%", 100.0 * density);
        std::snprintf(bpr, sizeof(bpr), "%.2f", m.bytes_per_record);
        std::snprintf(encs, sizeof(encs), "%.1f", m.encode_mrps);
        std::snprintf(decs, sizeof(decs), "%.1f", m.decode_mrps);
        table.add_row({m.type, dens, m.mode, format_name(m.format),
                       std::to_string(m.records), bpr, encs, decs});
      }
    }
  }
  table.print(std::cout);
  std::printf("\nshape to check: auto's bytes/rec tracks the cheapest mode "
              "at every density; dense at 100%% ships half of sparse for "
              "u32.\n");

  // Zero-copy speedup vs the seed path (record vector + chunk copy + wire
  // copy), per density: encode-rate ratio of "auto" over "legacy".
  std::printf("\nserialization speedup vs seed (copying) path:\n");
  for (const double density : densities) {
    for (const char* type : {"u32", "f64"}) {
      const Measurement* auto_m = nullptr;
      const Measurement* legacy_m = nullptr;
      for (const Measurement& m : all) {
        if (m.density != density || m.type != type) continue;
        if (m.mode == "auto") auto_m = &m;
        if (m.mode == "legacy") legacy_m = &m;
      }
      if (auto_m == nullptr || legacy_m == nullptr ||
          legacy_m->encode_mrps <= 0.0)
        continue;
      std::printf("  %s @ %7.3f%%: %.2fx encode, %.2fx wire bytes\n", type,
                  100.0 * density,
                  auto_m->encode_mrps / legacy_m->encode_mrps,
                  legacy_m->bytes_per_record /
                      std::max(auto_m->bytes_per_record, 1e-9));
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = bench::open_json(json_path);
    std::fprintf(f, "{\n  \"bench\": \"serializer\",\n  \"entries\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Measurement& m = all[i];
      std::fprintf(f,
                   "    {\"type\": \"%s\", \"density\": %.4f, \"mode\": "
                   "\"%s\", \"chosen\": \"%s\", \"records\": %zu, "
                   "\"bytes_per_record\": %.4f, \"encode_mrps\": %.3f, "
                   "\"decode_mrps\": %.3f}%s\n",
                   m.type.c_str(), m.density, m.mode.c_str(),
                   format_name(m.format), m.records, m.bytes_per_record,
                   m.encode_mrps, m.decode_mrps,
                   i + 1 < all.size() ? "," : "");
    }
    bench::close_json(f, json_path);
  }
  return 0;
}
