#ifndef DEHEALTH_LINKAGE_IDENTITY_UNIVERSE_H_
#define DEHEALTH_LINKAGE_IDENTITY_UNIVERSE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace dehealth {

/// Internet services in the synthetic universe. kHealthForum plays WebMD
/// (the DA target); kOtherHealthForum plays HealthBoards (the NameLink
/// aggregation target); the socials play Facebook/Twitter/LinkedIn
/// (AvatarLink targets); kDirectory plays Whitepages.
enum class Service {
  kHealthForum = 0,
  kOtherHealthForum,
  kSocialA,
  kSocialB,
  kSocialC,
  kDirectory,
  kServiceCount
};

inline constexpr int kNumServices = static_cast<int>(Service::kServiceCount);

/// What an account's avatar depicts — the AvatarLink pre-filter excludes
/// everything but kHumanSelf (the paper's four exclusion conditions).
enum class AvatarKind {
  kNone,       // no avatar set
  kDefault,    // stock/default image
  kHumanSelf,  // a real photo of the account owner
  kNonHuman,   // pets, scenery, logos
  kFictitious, // cartoon / fictional person
  kKids,       // children only
};

/// A real-world person behind one or more accounts.
struct Person {
  int id = 0;
  std::string full_name;
  int birth_year = 0;
  std::string phone;
  std::string city;
  /// The person's preferred base username and how identifying it is.
  std::string base_username;
  /// Photo identity: two accounts showing the same photo share this id.
  int photo_id = -1;
  /// Avatar habits are a per-person trait: someone who uses their own
  /// photo tends to do it on every service (this correlation is what makes
  /// the paper's cross-network AvatarLink matches possible).
  bool sets_avatars = false;
  bool uses_self_photo = false;
};

/// One account on one service.
struct Account {
  int person_id = 0;
  Service service = Service::kHealthForum;
  std::string username;
  AvatarKind avatar_kind = AvatarKind::kNone;
  int avatar_id = -1;  // equal ids <=> visually identical images
};

/// Knobs of the synthetic population. Defaults are tuned so the linkage
/// attack reproduces the paper's Section-VI shape (≈12% of filtered targets
/// avatar-linkable, a large NameLink∩AvatarLink overlap).
struct UniverseConfig {
  int num_persons = 6000;
  uint64_t seed = 11;

  /// Probability a person holds an account on each service.
  double p_health_forum = 0.5;
  double p_other_health_forum = 0.35;
  double p_social = 0.55;  // per social service

  /// Username habits (Perito et al.): probability of reusing the base
  /// username exactly on a service, vs. mutating it, vs. a fresh one.
  double p_username_reuse = 0.55;
  double p_username_mutation = 0.2;

  /// Avatar habits. The first two are per-person traits; the last two are
  /// per-account draws conditioned on those traits.
  double p_has_avatar = 0.6;     // person sets avatars at all
  double p_avatar_human = 0.45;  // avatar-setting person uses own photo
  double p_avatar_default = 0.3;  // non-self-photo account: default image
  /// Self-photo accounts reuse THE canonical photo with different rates on
  /// the health forum (people are warier there) vs. social networks —
  /// this asymmetry produces the paper's "12.4% linkable, but 33% of those
  /// on 2+ networks" pattern.
  double p_avatar_reuse_health = 0.22;
  double p_avatar_reuse_social = 0.65;

  /// Username style mix across the population.
  double p_style_common = 0.35;
  double p_style_name_number = 0.4;  // rest are high-entropy handles
};

/// The generated population with per-service account indexes.
struct IdentityUniverse {
  std::vector<Person> persons;
  std::vector<Account> accounts;
  /// accounts_by_service[s] = indexes into `accounts`.
  std::vector<std::vector<int>> accounts_by_service;

  /// All accounts of a service.
  const std::vector<int>& AccountsOf(Service s) const {
    return accounts_by_service[static_cast<size_t>(s)];
  }
};

/// Builds the universe. Deterministic in config.seed. Fails on invalid
/// probabilities or a non-positive population.
StatusOr<IdentityUniverse> BuildIdentityUniverse(const UniverseConfig& c);

}  // namespace dehealth

#endif  // DEHEALTH_LINKAGE_IDENTITY_UNIVERSE_H_
