// Shared helpers for the benches: the large-s grid cells that
// parallel_rounds --grid runs, and the BENCH_*.json writer (Field, Record)
// that parallel_rounds and paper share.
#pragma once

#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.h"

namespace stableshard::bench {

/// One cell of the ROADMAP large-s grid (bench/parallel_rounds --grid):
/// s in {256, 512, 1024} on line (fds), ring (fds) and uniform (bds) — BDS
/// is specified for the uniform model only.
struct LargeGridCell {
  net::TopologyKind topology;
  const char* scheduler;
  ShardId shards;
};

inline std::vector<LargeGridCell> LargeScaleGrid() {
  std::vector<LargeGridCell> cells;
  const std::pair<net::TopologyKind, const char*> topologies[] = {
      {net::TopologyKind::kLine, "fds"},
      {net::TopologyKind::kRing, "fds"},
      {net::TopologyKind::kUniform, "bds"}};
  for (const auto& [topology, scheduler] : topologies) {
    for (const ShardId s : {256u, 512u, 1024u}) {
      cells.push_back({topology, scheduler, s});
    }
  }
  return cells;
}

/// Hierarchy rule for the benches: the paper's Figure-3 line-shifted
/// construction for line-like metrics, the generic sparse cover for rings.
inline core::HierarchyKind HierarchyFor(net::TopologyKind topology) {
  return topology == net::TopologyKind::kRing
             ? core::HierarchyKind::kSparseCover
             : core::HierarchyKind::kLineShifted;
}

/// Base config for one large-grid cell. Non-uniform cells run the
/// radius-bounded local workload: with uniform-random destinations over a
/// 1024-shard line almost every transaction's x-neighborhood spans the
/// top-layer cluster, whose epochs are thousands of rounds — nothing
/// commits in a bench-sized run and one mega-leader sees ~99% of traffic.
/// A local workload exercises the low layers (commits flow) and is also
/// the regime where the lazy ring's O(live destinations) footprint shows.
inline core::SimConfig LargeGridConfig(const LargeGridCell& cell, double rho,
                                       double burst, Round rounds,
                                       Distance radius) {
  core::SimConfig config;
  config.scheduler = cell.scheduler;
  config.topology = cell.topology;
  config.hierarchy = HierarchyFor(cell.topology);
  config.shards = cell.shards;
  config.accounts = cell.shards;
  config.account_assignment = core::AccountAssignment::kRoundRobin;
  config.k = 8;
  config.rho = rho;
  config.burstiness = burst;
  config.rounds = rounds;
  if (cell.topology != net::TopologyKind::kUniform) {
    config.strategy = "local";
    config.local_radius = radius;
  }
  return config;
}

/// One named value of a record header or row, rendered as JSON: booleans
/// as true/false, integers exactly, doubles with six decimals, anything
/// else as a string.
struct Field {
  template <typename T>
  Field(const char* field_name, const T& value) : name(field_name) {
    if constexpr (std::is_same_v<T, bool>) {
      json = value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      json = std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      char text[64];
      std::snprintf(text, sizeof text, "%.6f", value);
      json = text;
    } else {
      json = '"' + std::string(value) + '"';
    }
  }
  const char* name;
  std::string json;
};
using Fields = std::vector<Field>;

/// The BENCH_*.json writer. A mode opens it before its first run, so an
/// unwritable path exits 2 at once instead of after minutes of wall clock.
/// Write puts the header fields one per line, then "rows" with one object
/// per line.
class Record {
 public:
  Record() = default;
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;
  ~Record() {
    if (file_ != nullptr) std::fclose(file_);
  }

  bool Open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                   path.c_str());
    }
    return file_ != nullptr;
  }

  void Write(const Fields& header, const std::vector<Fields>& rows) {
    std::fprintf(file_, "{\n");
    for (const Field& field : header) {
      std::fprintf(file_, "  \"%s\": %s,\n", field.name, field.json.c_str());
    }
    std::fprintf(file_, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(file_, "    {");
      for (std::size_t j = 0; j < rows[i].size(); ++j) {
        std::fprintf(file_, "%s\"%s\": %s", j > 0 ? ", " : "",
                     rows[i][j].name, rows[i][j].json.c_str());
      }
      std::fprintf(file_, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(file_, "  ]\n}\n");
    std::fclose(file_);
    file_ = nullptr;
  }

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace stableshard::bench
