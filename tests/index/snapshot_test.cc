// Snapshot format round-trip and error-path coverage: every malformed
// input must come back as a Status (NotFound / InvalidArgument /
// Unimplemented), never a crash, and a loaded index must answer queries
// byte-identically to the index it was saved from.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/candidate_index.h"
#include "index/indexed_source.h"
#include "index/pipeline.h"
#include "index/snapshot.h"
#include "io/file_util.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"
#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace {

struct Scenario {
  UdaGraph anonymized;
  UdaGraph auxiliary;
};

Scenario MakeScenario(int num_users, uint64_t seed) {
  ForumConfig config;
  config.num_users = num_users;
  config.seed = seed;
  config.style.vocabulary_size = 300;
  auto forum = GenerateForum(config);
  EXPECT_TRUE(forum.ok());
  auto split = MakeClosedWorldScenario(forum->dataset, 0.5, 5);
  EXPECT_TRUE(split.ok());
  return {BuildUdaGraph(split->anonymized), BuildUdaGraph(split->auxiliary)};
}

CandidateIndex BuildIndex(const Scenario& s, bool idf) {
  SimilarityConfig sim;
  sim.idf_weight_attributes = idf;
  auto index = LoadOrBuildIndex("", s.auxiliary, sim);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

TEST(IndexSnapshotTest, RoundTripPreservesDataAndAnswers) {
  const Scenario s = MakeScenario(40, 17);
  const CandidateIndex original = BuildIndex(s, /*idf=*/true);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_roundtrip.dhix");
  ASSERT_TRUE(SaveIndexSnapshot(original, file).ok());

  auto loaded = LoadIndexSnapshot(file);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CandidateIndexData& a = original.data();
  const CandidateIndexData& b = loaded->data();
  EXPECT_EQ(a.c1, b.c1);
  EXPECT_EQ(a.c2, b.c2);
  EXPECT_EQ(a.c3, b.c3);
  EXPECT_EQ(a.num_landmarks, b.num_landmarks);
  EXPECT_EQ(a.idf_weight_attributes, b.idf_weight_attributes);
  EXPECT_EQ(a.auxiliary_fingerprint, b.auxiliary_fingerprint);
  EXPECT_EQ(a.idf.weights, b.idf.weights);
  EXPECT_EQ(a.idf.default_weight, b.idf.default_weight);
  ASSERT_EQ(a.users.size(), b.users.size());
  for (size_t v = 0; v < a.users.size(); ++v) {
    EXPECT_EQ(a.users[v].degree, b.users[v].degree);
    EXPECT_EQ(a.users[v].weighted_degree, b.users[v].weighted_degree);
    EXPECT_EQ(a.users[v].ncs, b.users[v].ncs);
    EXPECT_EQ(a.users[v].hop, b.users[v].hop);
    EXPECT_EQ(a.users[v].weighted_hop, b.users[v].weighted_hop);
    EXPECT_EQ(a.users[v].attributes, b.users[v].attributes);
  }

  const IndexedCandidateSource from_original(s.anonymized, original);
  const IndexedCandidateSource from_loaded(s.anonymized, *loaded);
  auto sets_original = from_original.TopK(5, 1);
  auto sets_loaded = from_loaded.TopK(5, 1);
  ASSERT_TRUE(sets_original.ok());
  ASSERT_TRUE(sets_loaded.ok());
  EXPECT_EQ(*sets_original, *sets_loaded);
}

/// FNV-1a over raw bytes, continuing from `h`.
uint64_t Fnv1a(const void* data, size_t n,
               uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

TEST(IndexSnapshotTest, FeatureBytesMatchPinnedValues) {
  // The dense matrix and the index share one feature builder, so their
  // equivalence tests cannot notice the features themselves changing.
  // These literals (computed by the build that still had two builders)
  // pin both: a change strands the DHIX files already on disk and splits
  // mixed-version fleets. The slice literals (shard 1 of 3) were computed
  // by the build that still sliced a whole built index, so they hold the
  // direct slice build to the same bytes.
  const Scenario s = MakeScenario(60, 29);
  struct Pinned {
    bool idf;
    uint64_t snapshot;
    uint64_t slice;
    uint64_t matrix;
  };
  for (const Pinned& pinned :
       {Pinned{false, 0x13d2c92f8a3a365aULL, 0x7f206e780a2e2da5ULL,
               0x2886b33153869029ULL},
        Pinned{true, 0x67e428dbe45fb3d3ULL, 0x4ac8c262aa107954ULL,
               0x3757d636f238734eULL}}) {
    SCOPED_TRACE(pinned.idf ? "idf=on" : "idf=off");
    const std::string bytes = EncodeIndexSnapshot(BuildIndex(s, pinned.idf));
    EXPECT_EQ(Fnv1a(bytes.data(), bytes.size()), pinned.snapshot);

    SimilarityConfig sim;
    sim.idf_weight_attributes = pinned.idf;
    sim.num_threads = 2;
    auto slice = LoadOrBuildIndex("", s.auxiliary, sim, 1, 3);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    const std::string slice_bytes = EncodeIndexSnapshot(*slice);
    EXPECT_EQ(Fnv1a(slice_bytes.data(), slice_bytes.size()), pinned.slice);

    uint64_t matrix_hash = Fnv1a(nullptr, 0);
    for (const std::vector<double>& row :
         StructuralSimilarity(s.anonymized, s.auxiliary, sim).ComputeMatrix())
      for (const double score : row) {
        const uint64_t bits = std::bit_cast<uint64_t>(score);
        matrix_hash = Fnv1a(&bits, sizeof(bits), matrix_hash);
      }
    EXPECT_EQ(matrix_hash, pinned.matrix);
  }
}

TEST(IndexSnapshotTest, MissingFileIsNotFound) {
  const ScopedTempDir tmp;
  auto r = LoadIndexSnapshot(tmp.File("definitely_missing_dehealth.dhix"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(IndexSnapshotTest, RejectsBadMagic) {
  const std::string bogus = "NOPE" + std::string(64, '\0');
  auto r = DecodeIndexSnapshot(bogus);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Every decode error carries the byte offset where parsing stopped.
  EXPECT_NE(r.status().message().find("(byte 0)"), std::string::npos)
      << r.status().ToString();
}

TEST(IndexSnapshotTest, RejectsTooShortFile) {
  auto r = DecodeIndexSnapshot("DHIX");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("byte "), std::string::npos);
}

TEST(IndexSnapshotTest, RejectsFutureVersion) {
  const Scenario s = MakeScenario(16, 1);
  std::string bytes = EncodeIndexSnapshot(BuildIndex(s, false));
  bytes[4] = 9;  // version field, little-endian low byte
  auto r = DecodeIndexSnapshot(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST(IndexSnapshotTest, RejectsVersionZeroAndOlderVersions) {
  // A zeroed version field is a damaged file, and no build reads v1 any
  // more (LoadOrBuildIndex rebuilds it): neither is parsed as v2.
  const Scenario s = MakeScenario(16, 1);
  const std::string bytes = EncodeIndexSnapshot(BuildIndex(s, false));
  for (char version : {0, 1}) {
    std::string old = bytes;
    old[4] = version;
    auto r = DecodeIndexSnapshot(old, "old.dhix");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("'old.dhix' (byte 4)"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(IndexSnapshotTest, RejectsTruncationAtEveryPrefix) {
  const Scenario s = MakeScenario(16, 2);
  const std::string bytes = EncodeIndexSnapshot(BuildIndex(s, true));
  // Every strict prefix must fail cleanly: either the header/footer size
  // check or the checksum catches it.
  for (size_t len : {size_t{0}, size_t{7}, size_t{15}, size_t{40},
                     bytes.size() / 2, bytes.size() - 1}) {
    auto r = DecodeIndexSnapshot(bytes.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix length " << len;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("byte "), std::string::npos)
        << "prefix length " << len << ": " << r.status().ToString();
  }
}

TEST(IndexSnapshotTest, RejectsCorruptedPayload) {
  const Scenario s = MakeScenario(16, 3);
  std::string bytes = EncodeIndexSnapshot(BuildIndex(s, false));
  bytes[bytes.size() / 2] ^= 0x5A;
  auto r = DecodeIndexSnapshot(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("byte "), std::string::npos);
}

TEST(IndexSnapshotTest, DecodeErrorFromDiskNamesTheFile) {
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_named_error.dhix");
  ASSERT_TRUE(
      WriteStringToFile("NOPE" + std::string(64, '\0'), file).ok());
  auto r = LoadIndexSnapshot(file);
  ASSERT_FALSE(r.ok());
  // Loading through a path must name that path in the error, so a failure
  // among several snapshot files is attributable.
  EXPECT_NE(r.status().message().find(file), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("byte "), std::string::npos);
}

TEST(IndexLoadOrBuildTest, BuildsAndPersistsWhenMissing) {
  const Scenario s = MakeScenario(24, 4);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_loadorbuild.dhix");
  const SimilarityConfig sim;
  auto built = LoadOrBuildIndex(file, s.auxiliary, sim);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  // The snapshot was written and now loads on its own.
  auto loaded = LoadIndexSnapshot(file);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->data().auxiliary_fingerprint,
            built->data().auxiliary_fingerprint);
}

TEST(IndexLoadOrBuildTest, RebuildsOnConfigMismatch) {
  const Scenario s = MakeScenario(24, 4);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_configmismatch.dhix");
  SimilarityConfig sim;
  ASSERT_TRUE(LoadOrBuildIndex(file, s.auxiliary, sim).ok());

  sim.idf_weight_attributes = true;  // score-shaping change
  auto rebuilt = LoadOrBuildIndex(file, s.auxiliary, sim);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->data().idf_weight_attributes);
  // The snapshot on disk was refreshed to the new config.
  auto loaded = LoadIndexSnapshot(file);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->data().idf_weight_attributes);
}

TEST(IndexLoadOrBuildTest, RefusesAStaleSnapshotFromItsHeader) {
  // An --idf load of a snapshot written without IDF: the header's config
  // field already says the file is stale, so only the rebuild packs a
  // feature store.
  const Scenario s = MakeScenario(24, 4);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_stale.dhix");
  SimilarityConfig sim;
  ASSERT_TRUE(LoadOrBuildIndex(file, s.auxiliary, sim).ok());
  sim.idf_weight_attributes = true;
  obs::Tracer::Global().StartForTest();
  auto rebuilt = LoadOrBuildIndex(file, s.auxiliary, sim);
  const std::vector<obs::TraceEvent> events =
      obs::Tracer::Global().DrainForTest();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->data().idf_weight_attributes);
  int store_builds = 0;
  for (const obs::TraceEvent& event : events)
    if (std::string(event.category) == "core" &&
        std::string(event.name) == "feature_store_build")
      ++store_builds;
  EXPECT_EQ(store_builds, 1);
  EXPECT_FALSE(ReadFileToString(file + ".quarantined").ok());
}

TEST(IndexLoadOrBuildTest, RebuildsOnAuxiliaryChange) {
  const Scenario s1 = MakeScenario(24, 5);
  const Scenario s2 = MakeScenario(30, 6);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_auxmismatch.dhix");
  const SimilarityConfig sim;
  auto first = LoadOrBuildIndex(file, s1.auxiliary, sim);
  ASSERT_TRUE(first.ok());
  auto second = LoadOrBuildIndex(file, s2.auxiliary, sim);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->data().auxiliary_fingerprint,
            second->data().auxiliary_fingerprint);
  EXPECT_EQ(second->num_auxiliary(), s2.auxiliary.num_users());
}

TEST(IndexLoadOrBuildTest, RecoversFromCorruptSnapshot) {
  const Scenario s = MakeScenario(24, 7);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_corrupt.dhix");
  const SimilarityConfig sim;
  ASSERT_TRUE(LoadOrBuildIndex(file, s.auxiliary, sim).ok());
  auto bytes = ReadFileToString(file);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 3] ^= 0xFF;
  ASSERT_TRUE(WriteStringToFile(corrupted, file).ok());
  // LoadOrBuild treats the corrupt file as stale: rebuilds and rewrites.
  // A whole index is shard 0 of 1, so its quarantine counts where every
  // DHIX quarantine does.
  const uint64_t quarantines =
      obs::GetShardMetrics().snapshot_quarantines->Value();
  auto recovered = LoadOrBuildIndex(file, s.auxiliary, sim);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(obs::GetShardMetrics().snapshot_quarantines->Value(),
            quarantines + 1);
  EXPECT_TRUE(LoadIndexSnapshot(file).ok());
  // ...after moving the corrupt bytes aside for a post-mortem.
  auto quarantined = ReadFileToString(file + ".quarantined");
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  EXPECT_EQ(*quarantined, corrupted);
}

TEST(IndexLoadOrBuildTest, RecoversFromBitFlipAnywhereInSnapshot) {
  // Flip one bit at positions sampled across the whole file — magic,
  // version, payload, checksum — and prove load-or-rebuild recovers every
  // time: the flip is either detected (bad magic / future version /
  // checksum mismatch) and the index rebuilt, or it never reaches the
  // caller. After each recovery the on-disk snapshot is valid again.
  const Scenario s = MakeScenario(16, 9);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_bitflip_loop.dhix");
  const SimilarityConfig sim;
  ASSERT_TRUE(LoadOrBuildIndex(file, s.auxiliary, sim).ok());
  auto clean = ReadFileToString(file);
  ASSERT_TRUE(clean.ok());
  const std::string bytes = *clean;
  const size_t stride = bytes.size() / 12 + 1;
  for (size_t pos = 0; pos < bytes.size(); pos += stride) {
    for (int bit : {0, 7}) {
      std::string corrupted = bytes;
      corrupted[pos] ^= static_cast<char>(1 << bit);
      ASSERT_TRUE(WriteStringToFile(corrupted, file).ok());
      auto recovered = LoadOrBuildIndex(file, s.auxiliary, sim);
      ASSERT_TRUE(recovered.ok())
          << "byte " << pos << " bit " << bit << ": "
          << recovered.status().ToString();
      EXPECT_EQ(recovered->num_auxiliary(), s.auxiliary.num_users());
      auto reloaded = ReadFileToString(file);
      ASSERT_TRUE(reloaded.ok());
      EXPECT_EQ(*reloaded, bytes)
          << "byte " << pos << " bit " << bit
          << ": rebuild did not restore a byte-identical snapshot";
    }
  }
}

TEST(IndexLoadOrBuildTest, RecoversFromInjectedLoadFaults) {
  const Scenario s = MakeScenario(16, 10);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_faultload.dhix");
  const SimilarityConfig sim;
  ASSERT_TRUE(LoadOrBuildIndex(file, s.auxiliary, sim).ok());
  // A torn read or in-flight corruption of the snapshot bytes is caught by
  // framing/checksum and answered by a rebuild, not an error or a crash.
  for (const char* spec :
       {"snapshot.load.data:flip:1", "snapshot.load.data:short:1",
        "file.read:fail:1", "snapshot.load:fail:1"}) {
    ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
    auto recovered = LoadOrBuildIndex(file, s.auxiliary, sim);
    FaultInjector::Global().Reset();
    ASSERT_TRUE(recovered.ok())
        << spec << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered->num_auxiliary(), s.auxiliary.num_users());
  }
  // Save-side faults are surfaced (the caller asked for persistence), and
  // the index that was built is still returned.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("snapshot.save:enospc:1").ok());
  std::remove(file.c_str());
  Status saved;
  auto unsaved = LoadOrBuildIndex(file, s.auxiliary, sim, 0, 1, &saved);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(unsaved.ok()) << unsaved.status().ToString();
  EXPECT_EQ(unsaved->num_auxiliary(), s.auxiliary.num_users());
  EXPECT_EQ(saved.code(), StatusCode::kInternal) << saved.ToString();
}

TEST(IndexLoadOrBuildTest, QuarantinesAndRebuildsDataTheKernelCannotScore) {
  // Well-framed snapshots whose data the score kernel's attribute walk
  // cannot reproduce bitwise (DESIGN.md "Score kernel"): each decodes to
  // InvalidArgument, and load-or-rebuild quarantines it and rebuilds.
  const Scenario s = MakeScenario(24, 11);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_unwalkable.dhix");
  SimilarityConfig sim;
  sim.idf_weight_attributes = true;
  auto built = LoadOrBuildIndex(file, s.auxiliary, sim);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto clean = ReadFileToString(file);
  ASSERT_TRUE(clean.ok());
  const CandidateIndexData& good = built->data();
  ASSERT_GE(good.users[0].attributes.size(), 2u);
  ASSERT_GE(good.idf.weights.size(), 2u);

  using Defect = void (*)(CandidateIndexData*);
  const struct {
    const char* what;
    Defect apply;
  } defects[] = {
      {"duplicate attribute id",
       [](CandidateIndexData* d) {
         auto& a = d->users[0].attributes;
         a[1].first = a[0].first;
       }},
      {"negative attribute id",
       [](CandidateIndexData* d) { d->users[0].attributes[0].first = -1; }},
      {"attribute id past the feature space",
       [](CandidateIndexData* d) {
         d->users[0].attributes.back().first = 1758;
       }},
      {"negative weight",
       [](CandidateIndexData* d) { d->users[0].attributes[0].second = -1.0; }},
      {"NaN weight",
       [](CandidateIndexData* d) {
         d->users[0].attributes[0].second =
             std::numeric_limits<double>::quiet_NaN();
       }},
      {"infinite weight",
       [](CandidateIndexData* d) {
         d->users[0].attributes[0].second =
             std::numeric_limits<double>::infinity();
       }},
      {"-0.0 weight",
       [](CandidateIndexData* d) { d->users[0].attributes[0].second = -0.0; }},
      {"idf ids not strictly ascending",
       [](CandidateIndexData* d) {
         auto& w = d->idf.weights;
         w[1].first = w[0].first;
         w[1].second = w[0].second + 1.0;  // still sorted as pairs
       }},
  };
  for (const auto& defect : defects) {
    SCOPED_TRACE(defect.what);
    CandidateIndexData data = good;
    defect.apply(&data);
    const std::string bytes = EncodeIndexSnapshot(data);
    auto decoded = DecodeIndexSnapshot(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << decoded.status().ToString();

    ASSERT_TRUE(WriteStringToFile(bytes, file).ok());
    auto recovered = LoadOrBuildIndex(file, s.auxiliary, sim);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->num_auxiliary(), s.auxiliary.num_users());
    auto quarantined = ReadFileToString(file + ".quarantined");
    ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
    EXPECT_EQ(*quarantined, bytes);
    auto rebuilt = ReadFileToString(file);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(*rebuilt, *clean);
  }
}

TEST(IndexLoadOrBuildTest, UnwritablePathSurfacesError) {
  const Scenario s = MakeScenario(16, 8);
  Status saved;
  auto r = LoadOrBuildIndex("/nonexistent_dir/idx.dhix", s.auxiliary,
                            SimilarityConfig{}, 0, 1, &saved);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_auxiliary(), s.auxiliary.num_users());
  EXPECT_EQ(saved.code(), StatusCode::kNotFound) << saved.ToString();
}

TEST(IndexLoadOrBuildTest, UnwritablePathBuildsTheIndexOnce) {
  // The score source keeps the index whose save failed instead of
  // building it a second time in memory.
  const Scenario s = MakeScenario(16, 8);
  DeHealthConfig config;
  config.top_k = 5;
  config.index_snapshot_path = "/nonexistent_dir/idx.dhix";
  const uint64_t rebuilds = obs::GetIndexMetrics().snapshot_rebuilds->Value();
  auto bundle = BuildAttackScoreSource(s.anonymized, s.auxiliary, config);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(obs::GetIndexMetrics().snapshot_rebuilds->Value(), rebuilds + 1);
  EXPECT_EQ((*bundle)->source->num_auxiliary(), s.auxiliary.num_users());
}

/// Writes `data` as the snapshot at `file`, then checks that
/// LoadOrBuildIndex refuses it as the whole index: it rebuilds all of
/// `s.auxiliary` and rewrites `file` as `clean`. The file decodes, so it
/// is stale rather than damaged and is not quarantined.
void ExpectWholeIndexRebuiltFrom(const CandidateIndexData& data,
                                 const Scenario& s, const std::string& file,
                                 const std::string& clean) {
  const std::string bytes = EncodeIndexSnapshot(data);
  ASSERT_TRUE(DecodeIndexSnapshot(bytes).ok());
  ASSERT_TRUE(WriteStringToFile(bytes, file).ok());
  const uint64_t loads = obs::GetIndexMetrics().snapshot_loads->Value();
  auto r = LoadOrBuildIndex(file, s.auxiliary, SimilarityConfig{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(obs::GetIndexMetrics().snapshot_loads->Value(), loads);
  EXPECT_EQ(r->num_auxiliary(), s.auxiliary.num_users());
  EXPECT_EQ(r->data().shard_begin, 0u);
  auto rewritten = ReadFileToString(file);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(*rewritten, clean);
  EXPECT_FALSE(ReadFileToString(file + ".quarantined").ok());
}

TEST(IndexLoadOrBuildTest, RebuildsAWholeIndexMissingItsLastUser) {
  // Same config, fingerprint and shard 0 of 1, but one user short: the
  // last auxiliary user could never be a candidate.
  const Scenario s = MakeScenario(24, 4);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_short.dhix");
  auto built = LoadOrBuildIndex(file, s.auxiliary, SimilarityConfig{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto clean = ReadFileToString(file);
  ASSERT_TRUE(clean.ok());
  CandidateIndexData data = built->data();
  data.users.pop_back();
  ExpectWholeIndexRebuiltFrom(data, s, file, *clean);
}

TEST(IndexLoadOrBuildTest, RebuildsAWholeIndexWithNonzeroShardBegin) {
  // Shard 0 of 1 whose users start at global id 1: every local id would
  // name the wrong auxiliary user.
  const Scenario s = MakeScenario(24, 4);
  const ScopedTempDir tmp;
  const std::string file = tmp.File("dehealth_index_offset.dhix");
  auto built = LoadOrBuildIndex(file, s.auxiliary, SimilarityConfig{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto clean = ReadFileToString(file);
  ASSERT_TRUE(clean.ok());
  CandidateIndexData data = built->data();
  data.shard_begin = 1;
  data.users.erase(data.users.begin());
  ExpectWholeIndexRebuiltFrom(data, s, file, *clean);
}

}  // namespace
}  // namespace dehealth
