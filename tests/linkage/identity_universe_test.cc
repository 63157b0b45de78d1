#include "linkage/identity_universe.h"

#include <gtest/gtest.h>

namespace dehealth {
namespace {

TEST(BuildIdentityUniverseTest, RejectsInvalidConfigs) {
  UniverseConfig c;
  c.num_persons = 0;
  EXPECT_FALSE(BuildIdentityUniverse(c).ok());
  c = UniverseConfig{};
  c.p_social = 1.5;
  EXPECT_FALSE(BuildIdentityUniverse(c).ok());
  c = UniverseConfig{};
  c.p_username_reuse = 0.8;
  c.p_username_mutation = 0.5;  // sums > 1
  EXPECT_FALSE(BuildIdentityUniverse(c).ok());
  c = UniverseConfig{};
  c.p_has_avatar = -0.1;
  EXPECT_FALSE(BuildIdentityUniverse(c).ok());
}

TEST(BuildIdentityUniverseTest, PopulationShape) {
  UniverseConfig c;
  c.num_persons = 500;
  auto u = BuildIdentityUniverse(c);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->persons.size(), 500u);
  EXPECT_FALSE(u->accounts.empty());
  EXPECT_EQ(u->accounts_by_service.size(),
            static_cast<size_t>(kNumServices));
  // Membership probabilities roughly respected.
  const double health_rate =
      static_cast<double>(u->AccountsOf(Service::kHealthForum).size()) /
      500.0;
  EXPECT_NEAR(health_rate, c.p_health_forum, 0.08);
}

TEST(BuildIdentityUniverseTest, AccountsIndexedCorrectly) {
  UniverseConfig c;
  c.num_persons = 200;
  auto u = BuildIdentityUniverse(c);
  ASSERT_TRUE(u.ok());
  for (int s = 0; s < kNumServices; ++s)
    for (int idx : u->AccountsOf(static_cast<Service>(s)))
      EXPECT_EQ(u->accounts[static_cast<size_t>(idx)].service,
                static_cast<Service>(s));
}

TEST(BuildIdentityUniverseTest, PersonFieldsPopulated) {
  UniverseConfig c;
  c.num_persons = 50;
  auto u = BuildIdentityUniverse(c);
  ASSERT_TRUE(u.ok());
  for (const Person& p : u->persons) {
    EXPECT_FALSE(p.full_name.empty());
    EXPECT_FALSE(p.base_username.empty());
    EXPECT_GE(p.birth_year, 1945);
    EXPECT_LE(p.birth_year, 2000);
    EXPECT_GE(p.photo_id, 0);
  }
}

TEST(BuildIdentityUniverseTest, UsernameReuseHappens) {
  UniverseConfig c;
  c.num_persons = 400;
  c.p_username_reuse = 0.9;
  c.p_username_mutation = 0.05;
  auto u = BuildIdentityUniverse(c);
  ASSERT_TRUE(u.ok());
  int reused = 0, total = 0;
  for (const Account& a : u->accounts) {
    ++total;
    if (a.username ==
        u->persons[static_cast<size_t>(a.person_id)].base_username)
      ++reused;
  }
  EXPECT_GT(static_cast<double>(reused) / total, 0.75);
}

TEST(BuildIdentityUniverseTest, AvatarKindsConsistent) {
  UniverseConfig c;
  c.num_persons = 400;
  auto u = BuildIdentityUniverse(c);
  ASSERT_TRUE(u.ok());
  for (const Account& a : u->accounts) {
    if (a.avatar_kind == AvatarKind::kNone) {
      EXPECT_EQ(a.avatar_id, -1);
    } else {
      EXPECT_GE(a.avatar_id, 0);
    }
  }
}

TEST(BuildIdentityUniverseTest, SelfPhotoReuseSharesPhotoId) {
  UniverseConfig c;
  c.num_persons = 600;
  c.p_avatar_reuse_health = 1.0;  // always reuse
  c.p_avatar_reuse_social = 1.0;
  c.p_has_avatar = 1.0;
  auto u = BuildIdentityUniverse(c);
  ASSERT_TRUE(u.ok());
  for (const Account& a : u->accounts) {
    if (a.avatar_kind == AvatarKind::kHumanSelf) {
      EXPECT_EQ(a.avatar_id,
                u->persons[static_cast<size_t>(a.person_id)].photo_id);
    }
  }
}

TEST(BuildIdentityUniverseTest, Deterministic) {
  UniverseConfig c;
  c.num_persons = 100;
  c.seed = 77;
  auto a = BuildIdentityUniverse(c);
  auto b = BuildIdentityUniverse(c);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->accounts.size(), b->accounts.size());
  for (size_t i = 0; i < a->accounts.size(); ++i)
    EXPECT_EQ(a->accounts[i].username, b->accounts[i].username);
}

}  // namespace
}  // namespace dehealth
