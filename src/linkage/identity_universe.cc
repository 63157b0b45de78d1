#include "linkage/identity_universe.h"

#include "common/string_utils.h"
#include "linkage/username.h"

namespace dehealth {

namespace {

constexpr const char* kFirstNames[] = {
    "james", "mary",  "john",   "linda", "robert", "susan",
    "david", "karen", "daniel", "nancy", "paul",   "lisa",
    "mark",  "betty", "steven", "helen", "kevin",  "donna",
};
constexpr const char* kLastNames[] = {
    "smith",  "johnson", "williams", "brown", "jones",  "garcia",
    "miller", "davis",   "martinez", "lopez", "wilson", "anderson",
    "thomas", "taylor",  "moore",    "white", "harris", "clark",
};
constexpr const char* kCities[] = {
    "springfield", "riverton",  "lakewood", "fairview", "georgetown",
    "clinton",     "madison",   "salem",    "bristol",  "ashland",
};

std::string MutateUsername(const std::string& base, Rng& rng) {
  std::string out = base;
  switch (rng.NextBounded(3)) {
    case 0: {  // append digits
      const int digits = static_cast<int>(rng.NextInt(1, 3));
      for (int d = 0; d < digits; ++d)
        out += static_cast<char>('0' + rng.NextBounded(10));
      break;
    }
    case 1:  // underscore prefix
      out = "_" + out;
      break;
    default:  // append a short suffix
      out += rng.NextBool(0.5) ? "x" : "99";
      break;
  }
  return out;
}

AvatarKind SampleAvatarKind(const UniverseConfig& c, const Person& person,
                            Rng& rng) {
  if (!person.sets_avatars) return AvatarKind::kNone;
  // A small chance any given account is left without an avatar anyway.
  if (!rng.NextBool(0.85)) return AvatarKind::kNone;
  if (person.uses_self_photo) return AvatarKind::kHumanSelf;
  if (rng.NextBool(c.p_avatar_default)) return AvatarKind::kDefault;
  // Remaining mass split across the excluded categories.
  switch (rng.NextBounded(3)) {
    case 0: return AvatarKind::kNonHuman;
    case 1: return AvatarKind::kFictitious;
    default: return AvatarKind::kKids;
  }
}

}  // namespace

StatusOr<IdentityUniverse> BuildIdentityUniverse(const UniverseConfig& c) {
  if (c.num_persons <= 0)
    return Status::InvalidArgument(
        "BuildIdentityUniverse: num_persons must be > 0");
  for (double p :
       {c.p_health_forum, c.p_other_health_forum, c.p_social,
        c.p_username_reuse, c.p_username_mutation, c.p_has_avatar,
        c.p_avatar_human, c.p_avatar_default, c.p_avatar_reuse_health,
        c.p_avatar_reuse_social,
        c.p_style_common, c.p_style_name_number}) {
    if (p < 0.0 || p > 1.0)
      return Status::InvalidArgument(
          "BuildIdentityUniverse: probabilities must be in [0, 1]");
  }
  if (c.p_username_reuse + c.p_username_mutation > 1.0)
    return Status::InvalidArgument(
        "BuildIdentityUniverse: reuse + mutation probability exceeds 1");

  Rng rng(c.seed);
  IdentityUniverse universe;
  universe.persons.reserve(static_cast<size_t>(c.num_persons));
  universe.accounts_by_service.resize(static_cast<size_t>(kNumServices));

  int next_photo_id = 0;
  int next_fresh_avatar_id = 1'000'000;  // non-reused images are unique

  for (int i = 0; i < c.num_persons; ++i) {
    Person person;
    person.id = i;
    person.full_name = StrFormat(
        "%s %s",
        kFirstNames[rng.NextBounded(sizeof(kFirstNames) /
                                    sizeof(kFirstNames[0]))],
        kLastNames[rng.NextBounded(sizeof(kLastNames) /
                                   sizeof(kLastNames[0]))]);
    person.birth_year = static_cast<int>(rng.NextInt(1945, 2000));
    person.phone = StrFormat("555-%04d", static_cast<int>(rng.NextInt(0, 9999)));
    person.city =
        kCities[rng.NextBounded(sizeof(kCities) / sizeof(kCities[0]))];
    person.photo_id = next_photo_id++;
    person.sets_avatars = rng.NextBool(c.p_has_avatar);
    person.uses_self_photo =
        person.sets_avatars && rng.NextBool(c.p_avatar_human);

    UsernameStyle style;
    const double sr = rng.NextDouble();
    if (sr < c.p_style_common) {
      style = UsernameStyle::kCommonWord;
    } else if (sr < c.p_style_common + c.p_style_name_number) {
      style = UsernameStyle::kNameAndNumber;
    } else {
      style = UsernameStyle::kHandle;
    }
    person.base_username = GenerateUsername(style, rng);

    // Create accounts.
    const struct {
      Service service;
      double prob;
    } memberships[] = {
        {Service::kHealthForum, c.p_health_forum},
        {Service::kOtherHealthForum, c.p_other_health_forum},
        {Service::kSocialA, c.p_social},
        {Service::kSocialB, c.p_social},
        {Service::kSocialC, c.p_social},
        {Service::kDirectory, 0.8},  // most people appear in directories
    };
    for (const auto& m : memberships) {
      if (!rng.NextBool(m.prob)) continue;
      Account account;
      account.person_id = i;
      account.service = m.service;
      const double ur = rng.NextDouble();
      if (ur < c.p_username_reuse) {
        account.username = person.base_username;
      } else if (ur < c.p_username_reuse + c.p_username_mutation) {
        account.username = MutateUsername(person.base_username, rng);
      } else {
        account.username = GenerateUsername(style, rng);
      }
      account.avatar_kind = SampleAvatarKind(c, person, rng);
      if (account.avatar_kind == AvatarKind::kHumanSelf) {
        const double reuse_prob = m.service == Service::kHealthForum
                                      ? c.p_avatar_reuse_health
                                      : c.p_avatar_reuse_social;
        account.avatar_id = rng.NextBool(reuse_prob)
                                ? person.photo_id
                                : next_fresh_avatar_id++;
      } else if (account.avatar_kind != AvatarKind::kNone) {
        // Non-self avatars: drawn from a small shared pool (stock images),
        // so they can collide across unrelated people.
        account.avatar_id =
            2'000'000 + static_cast<int>(rng.NextBounded(500));
      }
      universe.accounts_by_service[static_cast<size_t>(m.service)]
          .push_back(static_cast<int>(universe.accounts.size()));
      universe.accounts.push_back(std::move(account));
    }
    universe.persons.push_back(std::move(person));
  }
  return universe;
}

}  // namespace dehealth
