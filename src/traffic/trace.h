// Versioned text trace format: the injection stream of a run as data.
//
// A trace is the arrival-time + shape record of every injected transaction,
// so a live run can be replayed bit-identically (the `trace_replay`
// strategy + the trace arrival schedule re-derive the exact same
// transactions in the exact same order) and production-shaped workloads
// (diurnal curves, flash crowds, migrating skew — tools/gen_trace.py) can
// be generated offline and driven through the open-loop injector.
//
// Text form (version 1):
//
//   sshard-trace v1
//   meta shards=<s> accounts=<n> records=<k> checksum=<16-hex fnv1a>
//   <round> <home> <amount> <account>[!] [<account>[!] ...]
//   ...
//
// One record per line, exactly `records` of them, rounds non-decreasing
// (records are consumed in file order; the round is the wall round the
// transaction *arrives*, which may lie past SimConfig::rounds — open-loop
// arrivals continue into what used to be pure drain rounds). Every listed
// account is written with a balance-neutral deposit of `amount`; a `!`
// suffix poisons the access with an unsatisfiable condition, so the
// transaction aborts at commit time (the abort-path shape the in-tree
// strategies emit under --abort-prob). The checksum is the 64-bit FNV-1a
// of the record region's exact bytes (every record line including its
// '\n'), so truncation, reordering and bit rot are all detected before a
// single transaction is built.
//
// Like the fault-plan grammar, parsing is strict and the CLI contract is
// exit 2 with one "invalid trace: ..." line (ValidateTraceFile); the
// engine re-checks with SSHARD_CHECK for non-CLI embedders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/ops.h"
#include "common/types.h"
#include "txn/txn_factory.h"

namespace stableshard::traffic {

/// One account touch inside a trace record.
struct TraceAccess {
  AccountId account = 0;
  bool poisoned = false;  ///< carries an unsatisfiable condition (aborts)
};

/// One injected transaction: arrival wall round, home shard, the
/// balance-neutral deposit amount shared by its accesses, and the touched
/// accounts in access order (order is part of the replay contract — the
/// factory groups accesses per shard in first-seen order).
struct TraceRecord {
  Round round = 0;
  ShardId home = 0;
  chain::Balance amount = 0;
  std::vector<TraceAccess> accesses;
};

struct Trace {
  ShardId shards = 0;     ///< must equal SimConfig::shards at replay time
  AccountId accounts = 0; ///< must equal SimConfig::accounts at replay time
  std::vector<TraceRecord> records;  ///< non-decreasing `round`
};

/// Parse the full text form. On failure returns false and, when `error` is
/// non-null, stores a one-line reason (the "invalid trace: ..." payload).
bool ParseTrace(const std::string& text, Trace* trace, std::string* error);

/// Canonical text form (the exact bytes ParseTrace accepts; serialize →
/// parse is the identity).
std::string SerializeTrace(const Trace& trace);

/// File wrappers. Load fails on unreadable files with the same one-line
/// error contract as ParseTrace; Write fails only on I/O errors.
bool LoadTraceFile(const std::string& path, Trace* trace, std::string* error);
bool WriteTraceFile(const std::string& path, const Trace& trace,
                    std::string* error);

/// CLI-shared validation: true when `path` loads, parses, and matches the
/// run's shard/account counts; otherwise prints one "invalid trace: ..."
/// line to stderr and returns false so the caller can exit 2 (the
/// cli_invalid_trace_exits_2 ctest greps it). The engine constructor
/// re-checks as an aborting invariant.
bool ValidateTraceFile(const std::string& path, ShardId shards,
                       AccountId accounts);

/// Records a live injection stream (closed- or open-loop) into a Trace.
/// Driven exclusively from the engine's serial generation phase — one
/// Record call per admitted transaction, in injection order — so recording
/// is race-free even under the pooled epilogue. Only touch-shaped
/// accesses are recordable (write + uniform deposit, optionally the
/// standard unsatisfiable-threshold poison); anything else aborts, because
/// a trace that cannot round-trip would silently break replay.
class TraceWriter {
 public:
  TraceWriter(ShardId shards, AccountId accounts);

  void Record(Round round, ShardId home,
              const std::vector<txn::AccessSpec>& accesses);

  const Trace& trace() const { return trace_; }

 private:
  Trace trace_;
};

}  // namespace stableshard::traffic
