// Snapshot format round-trip and error-path coverage: every malformed
// input must come back as a Status (NotFound / InvalidArgument /
// Unimplemented), never a crash, and a loaded index must answer queries
// byte-identically to the index it was saved from.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/candidate_index.h"
#include "index/indexed_source.h"
#include "index/snapshot.h"
#include "io/file_util.h"
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
  auto index = CandidateIndex::Build(s.auxiliary, sim);
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
  EXPECT_EQ(a.idf_table, b.idf_table);
  EXPECT_EQ(a.default_idf, b.default_idf);
  ASSERT_EQ(a.users.size(), b.users.size());
  for (size_t v = 0; v < a.users.size(); ++v) {
    EXPECT_EQ(a.users[v].degree, b.users[v].degree);
    EXPECT_EQ(a.users[v].weighted_degree, b.users[v].weighted_degree);
    EXPECT_EQ(a.users[v].ncs, b.users[v].ncs);
    EXPECT_EQ(a.users[v].hop, b.users[v].hop);
    EXPECT_EQ(a.users[v].weighted_hop, b.users[v].weighted_hop);
    EXPECT_EQ(a.users[v].attributes, b.users[v].attributes);
  }

  const IndexedCandidateSource from_original(s.anonymized, {original});
  const IndexedCandidateSource from_loaded(s.anonymized, {*loaded});
  auto sets_original = from_original.TopK(5, 1);
  auto sets_loaded = from_loaded.TopK(5, 1);
  ASSERT_TRUE(sets_original.ok());
  ASSERT_TRUE(sets_loaded.ok());
  EXPECT_EQ(*sets_original, *sets_loaded);
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
  auto recovered = LoadOrBuildIndex(file, s.auxiliary, sim);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(LoadIndexSnapshot(file).ok());
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
  // Save-side faults are surfaced (the caller asked for persistence).
  ASSERT_TRUE(
      FaultInjector::Global().Configure("snapshot.save:enospc:1").ok());
  std::remove(file.c_str());
  auto failed = LoadOrBuildIndex(file, s.auxiliary, sim);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
}

TEST(IndexLoadOrBuildTest, UnwritablePathSurfacesError) {
  const Scenario s = MakeScenario(16, 8);
  auto r = LoadOrBuildIndex("/nonexistent_dir/idx.dhix", s.auxiliary,
                            SimilarityConfig{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dehealth
