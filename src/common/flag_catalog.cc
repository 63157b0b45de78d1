#include "common/flag_catalog.h"

#include <algorithm>

#include "common/string_utils.h"

namespace dehealth {

const std::vector<FlagDoc>& FlagCatalog() {
  static const std::vector<FlagDoc>* catalog = new std::vector<FlagDoc>{
      {"allow-epoch-skew", "router, ingest rollout", true,
       "Accept a fleet whose backends report different ingest epochs "
       "(mid-rollout); merged answers are transitional, not "
       "bitwise-reproducible"},
      {"anon-out", "cli split", false,
       "Output path for the anonymized-side dataset"},
      {"anonymized", "cli attack, serve", false,
       "Anonymized-side forum dataset (JSONL)"},
      {"auto-seal-posts", "serve", false,
       "With --ingest: seal a new epoch automatically once this many "
       "staged posts accumulate (0 = off, the default)"},
      {"auto-seal-secs", "serve", false,
       "With --ingest: seal a new epoch automatically once the oldest "
       "staged segment is this many seconds old (0 = off, the default)"},
      {"aux-fraction", "cli split", false,
       "Fraction of each user's posts routed to the auxiliary side "
       "(closed world; default 0.5)"},
      {"aux-out", "cli split", false,
       "Output path for the auxiliary-side dataset"},
      {"auxiliary", "cli attack, serve", false,
       "Auxiliary-side forum dataset (JSONL)"},
      {"backends", "router, ingest rollout", false,
       "Shard backends to fan out to: ',' separates shard groups, '|' "
       "separates replicas within a group (each replica one "
       "dehealth_serve)"},
      {"base", "ingest", false,
       "Base forum dataset (JSONL) a delta segment chain builds on — must "
       "match the --auxiliary the servers were started with"},
      {"batch", "router, serve", false,
       "Largest number of queued requests coalesced into one engine batch "
       "(default 16)"},
      {"dataset", "cli split", false, "Input forum dataset to split"},
      {"engine", "cli attack, serve", false,
       "Phase-1 attack engine: structural (default; the paper's attack), "
       "blind (seed-free Lee et al.), or community (community-matched "
       "Onaran et al.) — see docs/ENGINES.md"},
      {"engines", "cli evaluate", false,
       "Comma-separated engines to run head-to-head over the same "
       "forums/truth (default: structural,blind,community)"},
      {"fault-spec", "cli, ingest, router, serve", false,
       "Deterministic fault injection spec '<site>:<kind>:<hit>,...' "
       "(testing only)"},
      {"filter", "cli attack, serve", true,
       "Enable phase-1c candidate filtering (Algorithm 2)"},
      {"hedge-ms", "router", false,
       "Hedged reads: fire a scatter leg that has not answered within "
       "this many ms at a healthy sibling replica and take the first "
       "answer (0 = off, the default)"},
      {"host", "query, router, serve", false,
       "Server address (default 127.0.0.1)"},
      {"idf", "cli attack, serve", true,
       "IDF-weight attribute similarity"},
      {"index-path", "cli attack, serve", false,
       "DHIX snapshot path of the structural engine's candidate index: "
       "load it when fresh, else rebuild and persist it"},
      {"ingest", "serve", true,
       "Enable streaming ingestion: accept load-segment/seal-epoch admin "
       "requests and swap epochs without dropping in-flight queries"},
      {"job-dir", "cli attack, serve", false,
       "Run through the crash-safe job runner, checkpointing shards into "
       "this directory"},
      {"k", "cli attack, serve, query", false,
       "Top-K candidate set size (default 10; query: 0 = server default)"},
      {"ks", "cli evaluate", false,
       "Comma-separated ascending K values of the evaluate success-rate/"
       "rank-CDF curve (default 1,2,5,10,20,50)"},
      {"learner", "cli attack, serve", false,
       "Phase-2 learner: smo (default), knn, rlsc, centroid"},
      {"metrics-out", "cli attack", false,
       "Write the run's metrics registry to this file (Prometheus text "
       "format)"},
      {"no-seal", "ingest rollout", true,
       "Stage --segments on every backend without sealing (a later "
       "seal-only rollout or auto-seal performs the epoch swap)"},
      {"out", "cli generate/split/attack, query, ingest", false,
       "Output path (dataset, predictions CSV, query answers, or DHSG "
       "segment)"},
      {"overlap", "cli split", false,
       "Open-world user overlap fraction; > 0 selects the open-world "
       "split"},
      {"port", "query, router, serve", false,
       "TCP port (serve/router: 0 binds an ephemeral port)"},
      {"port-file", "router, serve", false,
       "Write the bound port to this file once listening (for scripts "
       "using --port 0)"},
      {"preset", "cli generate", false,
       "Synthetic forum preset: webmd (default) or hb"},
      {"queue", "router, serve", false,
       "Admission bound: requests beyond this many queued are rejected "
       "OVERLOADED (default 64)"},
      {"require-all-shards", "router", true,
       "Fail-closed routing: any unreachable shard makes the whole query "
       "UNAVAILABLE instead of a PARTIAL merge of the live shards"},
      {"retries", "query, router, ingest rollout", false,
       "Retry budget for transient failures (connection refused, "
       "overload)"},
      {"seed", "cli generate/split", false,
       "RNG seed (default 1); same seed => same dataset/split"},
      {"segment", "query load-segment", false,
       "DHSG delta-segment path to stage (a path on the SERVER's "
       "filesystem)"},
      {"segments", "ingest", false,
       "Comma-separated chain of already-cut DHSG segments to replay "
       "before --tail (segment), to merge (compact), or to push fleet-wide "
       "(rollout; paths on the backends' filesystem)"},
      {"shard-count", "serve, ingest", false,
       "Serve ONE slice of a router-fronted fleet: total number of shards "
       "the auxiliary universe is split into (default 1 = unsharded)"},
      {"shard-index", "serve, ingest", false,
       "Which contiguous shard of --shard-count this process owns "
       "(default 0)"},
      {"shard-size", "cli attack, serve", false,
       "Users per checkpoint shard under --job-dir (default 64)"},
      {"simd", "cli attack, serve", false,
       "Score-kernel instruction set: auto (default; DEHEALTH_SIMD env, "
       "then cpuid), avx2, or scalar — all tiers score identically"},
      {"stats-period", "router, serve", false,
       "Seconds between periodic stats lines on stderr (0 = off)"},
      {"tail", "ingest", false,
       "JSONL file whose new posts (beyond --tail-offset) become the next "
       "delta segment — typically the live append-only forum log"},
      {"tail-offset", "ingest", false,
       "Posts of --tail already covered by --base plus --segments; the "
       "segment starts after them (default: computed from base+segments)"},
      {"threads", "cli attack, serve", false,
       "Worker threads (0 = all hardware threads); results are identical "
       "for any value"},
      {"timeout-ms", "cli attack, serve, router, query", false,
       "Server-side queue-wait deadline per request (0 = none)"},
      {"trace-out", "cli attack, serve", false,
       "Record a span trace of the run to this file (.json = Chrome "
       "trace_event, else JSONL)"},
      {"truth", "cli attack", false,
       "Truth CSV from `split` to evaluate predictions against"},
      {"truth-out", "cli split", false,
       "Output path for the ground-truth mapping CSV"},
      {"users", "cli generate, query", false,
       "generate: number of users; query: comma-separated anonymized user "
       "ids"},
  };
  return *catalog;
}

namespace {

/// True when the first word of some comma-separated item of
/// `doc.binaries` is `binary`: "cli attack, serve" applies to cli and serve.
bool AppliesTo(const FlagDoc& doc, std::string_view binary) {
  for (const std::string& item : SplitString(doc.binaries, ",")) {
    const std::string_view words = TrimAscii(item);
    if (words.substr(0, words.find(' ')) == binary) return true;
  }
  return false;
}

}  // namespace

Status RejectUnknownFlags(const FlagParser& flags, std::string_view binary) {
  const std::vector<FlagDoc>& catalog = FlagCatalog();
  for (const std::string& name : flags.names()) {
    const auto doc =
        std::find_if(catalog.begin(), catalog.end(),
                     [&name](const FlagDoc& doc) { return name == doc.name; });
    if (doc == catalog.end())
      return Status::InvalidArgument("unknown flag --" + name +
                                     " (see docs/OPERATIONS.md)");
    if (!AppliesTo(*doc, binary))
      return Status::InvalidArgument(
          "unknown flag --" + name + " for dehealth_" + std::string(binary) +
          " (it applies to: " + doc->binaries + "; see docs/OPERATIONS.md)");
  }
  return flags.status();
}

std::set<std::string> BooleanFlags() {
  std::set<std::string> flags;
  for (const FlagDoc& doc : FlagCatalog())
    if (doc.boolean) flags.insert(doc.name);
  return flags;
}

}  // namespace dehealth
