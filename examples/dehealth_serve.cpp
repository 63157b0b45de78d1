// dehealth_serve: the long-lived De-Health query service. Loads the
// auxiliary forum and candidate state ONCE, then answers Top-K / refined /
// filtered queries over the DHQP protocol until SIGTERM (or a client's
// shutdown request) drains it — amortizing the expensive global phases
// across every query instead of redoing them per dehealth_cli run.
//
//   dehealth_serve --anonymized anon.jsonl --auxiliary aux.jsonl
//                  [--k 10 --engine structural --learner smo --threads 0
//                  --idf --filter]
//                  [--index] [--index-path idx.dhix]
//                  [--job-dir dir] [--shard-size N] [--ingest]
//                  [--host 127.0.0.1] [--port 0] [--queue 64] [--batch 16]
//                  [--timeout-ms 0] [--stats-period 0] [--port-file path]
//                  [--trace-out trace.json]
//
// Attack flags mean exactly what they mean to `dehealth_cli attack` (same
// parser — see serve/options.h), so served answers are bitwise-identical
// to the one-shot pipeline. --port 0 binds an ephemeral port; --port-file
// writes the bound port (atomically) for scripts to discover. --job-dir
// makes the phase-1 warm start durable: restarts load the checkpointed
// shards (possibly written by a dehealth_cli run with the same flags)
// instead of recomputing, and a SIGTERM during warm start checkpoints and
// exits cleanly.
//
// --ingest enables streaming ingestion: the server additionally accepts
// `dehealth_query load-segment --segment delta.dhsg` (stage a DHSG delta
// cut by dehealth_ingest) and `dehealth_query seal-epoch` (rebuild the
// engine over the accumulated posts and swap it in without dropping
// in-flight queries). Until a seal, answers stay bitwise-identical to
// boot. See docs/OPERATIONS.md "Epoch swap runbook".
//
// --auto-seal-posts N / --auto-seal-secs T (with --ingest) seal
// automatically: N staged posts trigger a seal inside the load that
// crosses the threshold; T seconds after the oldest staged segment
// arrived, the serving loop seals. Either 0 (the default) disables that
// trigger; manual seal-epoch keeps working alongside both.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/shutdown.h"
#include "ingest/epoch.h"
#include "io/file_util.h"
#include "io/forum_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/options.h"
#include "serve/server.h"

using namespace dehealth;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv, 1, AttackBooleanFlags());
  if (Status st = RejectUnknownFlags(flags); !st.ok())
    return Fail(st.ToString());

  const std::string anon_path = flags.Get("anonymized");
  const std::string aux_path = flags.Get("auxiliary");
  if (anon_path.empty() || aux_path.empty())
    return Fail("dehealth_serve requires --anonymized and --auxiliary");

  auto attack_config = ParseAttackFlags(flags);
  if (!attack_config.ok()) return Fail(attack_config.status().ToString());
  auto server_config = ParseServerFlags(flags);
  if (!server_config.ok()) return Fail(server_config.status().ToString());

  // Deterministic fault injection (tests only) — see
  // src/common/fault_injection.h for the grammar.
  const std::string fault_spec = flags.Get("fault-spec");
  if (!fault_spec.empty()) {
    Status st = FaultInjector::Global().Configure(fault_spec);
    if (!st.ok()) return Fail(st.ToString());
  }

  // The served registry is the process-global one so the `metrics` query
  // exports warm-start core/index/job counters alongside serve counters.
  server_config->registry = &obs::Registry::Global();

  const std::string trace_out = flags.Get("trace-out");
  if (!trace_out.empty()) {
    Status st = obs::Tracer::Global().Start(trace_out);
    if (!st.ok()) return Fail(st.ToString());
  }
  // Flush the trace on every exit path — including a checkpointed warm
  // start and startup failures.
  struct TraceFlusher {
    ~TraceFlusher() {
      Status st = obs::Tracer::Global().Stop();
      if (!st.ok())
        std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
    }
  } trace_flusher;

  auto anon_data = LoadForumDataset(anon_path);
  if (!anon_data.ok()) return Fail(anon_data.status().ToString());
  auto aux_data = LoadForumDataset(aux_path);
  if (!aux_data.ok()) return Fail(aux_data.status().ToString());

  std::printf("loading: building UDA graphs (%zu + %zu posts)...\n",
              anon_data->posts.size(), aux_data->posts.size());
  UdaGraph anon = BuildUdaGraph(*anon_data, attack_config->num_threads);

  // Handlers go in BEFORE the (possibly long) warm start: with --job-dir a
  // SIGTERM mid-warm-start checkpoints the current shard and exits 0, and
  // the next launch resumes where this one stopped.
  InstallShutdownSignalHandlers();

  // --ingest wraps the engine in the epoch layer: same boot semantics
  // (EpochHandler::Create runs the identical QueryEngine::Create), plus
  // the load-segment/seal-epoch admin surface.
  const bool ingest = flags.Has("ingest");
  auto auto_seal_posts = flags.GetInt("auto-seal-posts", 0);
  if (!auto_seal_posts.ok()) return Fail(auto_seal_posts.status().ToString());
  auto auto_seal_secs = flags.GetInt("auto-seal-secs", 0);
  if (!auto_seal_secs.ok()) return Fail(auto_seal_secs.status().ToString());
  if (*auto_seal_posts < 0 || *auto_seal_secs < 0)
    return Fail("--auto-seal-posts/--auto-seal-secs must be >= 0");
  if (!ingest && (*auto_seal_posts > 0 || *auto_seal_secs > 0))
    return Fail("--auto-seal-posts/--auto-seal-secs require --ingest");
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<ingest::EpochHandler> epoch;
  if (ingest) {
    auto created = ingest::EpochHandler::Create(
        std::move(anon), std::move(*aux_data), *attack_config);
    if (!created.ok() &&
        created.status().code() == StatusCode::kCancelled) {
      std::printf("checkpointed: %s\n", created.status().message().c_str());
      return 0;
    }
    if (!created.ok()) return Fail(created.status().ToString());
    epoch = std::move(created).value();
    if (*auto_seal_posts > 0 || *auto_seal_secs > 0) {
      ingest::AutoSealPolicy policy;
      policy.posts_threshold = *auto_seal_posts;
      policy.secs_threshold = *auto_seal_secs;
      epoch->ConfigureAutoSeal(std::move(policy));
    }
  } else {
    UdaGraph aux = BuildUdaGraph(*aux_data, attack_config->num_threads);
    auto created = QueryEngine::Create(std::move(anon), std::move(aux),
                                       *attack_config);
    if (!created.ok() &&
        created.status().code() == StatusCode::kCancelled) {
      std::printf("checkpointed: %s\n", created.status().message().c_str());
      return 0;
    }
    if (!created.ok()) return Fail(created.status().ToString());
    engine = std::move(created).value();
  }
  const QueryHandler& handler =
      ingest ? static_cast<const QueryHandler&>(*epoch)
             : static_cast<const QueryHandler&>(*engine);

  QueryServer server(handler, *server_config);
  Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());

  const std::string port_file = flags.Get("port-file");
  if (!port_file.empty()) {
    Status written = WriteStringToFileAtomic(
        std::to_string(server.port()) + "\n", port_file);
    if (!written.ok()) return Fail(written.ToString());
  }
  std::printf("serving on %s:%d (%d anonymized users, K=%d%s)\n",
              server_config->host.c_str(), server.port(),
              handler.num_anonymized(), handler.default_top_k(),
              ingest ? ", ingest" : "");
  std::fflush(stdout);

  // SIGTERM/SIGINT flip a flag; the drain itself runs here, on a normal
  // thread — in-flight requests are answered before the process exits.
  // The same loop ticks the age-triggered auto-seal (a no-op without
  // --auto-seal-secs or with nothing staged).
  while (!ProcessShutdownRequested() && !server.ShuttingDown()) {
    if (epoch != nullptr) {
      StatusOr<bool> sealed = epoch->MaybeAutoSeal();
      if (!sealed.ok())
        std::fprintf(stderr, "warning: auto-seal failed: %s\n",
                     sealed.status().ToString().c_str());
      else if (*sealed)
        std::printf("auto-sealed epoch %llu\n",
                    static_cast<unsigned long long>(epoch->epoch_seq()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining...\n");
  std::fflush(stdout);
  server.Shutdown();
  server.Wait();
  std::fprintf(stderr, "%s\n", FormatStatsLine(server.Stats()).c_str());
  return 0;
}
