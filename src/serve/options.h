#ifndef DEHEALTH_SERVE_OPTIONS_H_
#define DEHEALTH_SERVE_OPTIONS_H_

#include "common/flag_catalog.h"
#include "common/flags.h"
#include "core/de_health.h"
#include "serve/server.h"

namespace dehealth {

/// Single source of truth for the attack-shaping command-line flags shared
/// by dehealth_cli and dehealth_serve (--k, --engine, --learner,
/// --threads, --idf, --simd, --index, --index-path, --filter, --job-dir,
/// --shard-size, --shard-index, --shard-count).
/// Keeping one mapping is what lets the smoke test compare
/// the two binaries bit for bit: a flag both accept must configure both
/// identically — including the checkpoint store, so a serve warm start can
/// resume shards a CLI run committed.
StatusOr<DeHealthConfig> ParseAttackFlags(const FlagParser& flags);

/// The serving knobs of dehealth_serve (--host, --port, --queue, --batch,
/// --timeout-ms, --stats-period).
StatusOr<ServerConfig> ParseServerFlags(const FlagParser& flags);

// AttackBooleanFlags() — the valueless flags ParseAttackFlags understands,
// derived from FlagCatalog() — comes from common/flag_catalog.h.

}  // namespace dehealth

#endif  // DEHEALTH_SERVE_OPTIONS_H_
