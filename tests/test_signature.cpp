#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/signature.hpp"

namespace hgp {
namespace {

ScaledDemands make_scaled(std::vector<DemandUnits> capacity,
                          DemandUnits total) {
  ScaledDemands sd;
  sd.capacity = std::move(capacity);
  sd.total = total;
  sd.units_per_capacity = sd.capacity.back();
  return sd;
}

TEST(SignatureSpace, CountsTuplesTimesPresenceH1) {
  // h=1, bound 5 → demand tuples (0),(1),…,(5); presence ∈ {0,1}.
  const ScaledDemands sd = make_scaled({20, 5}, 100);
  const SignatureSpace space(sd, 1);
  EXPECT_EQ(space.size(), 6u * 2u);
}

TEST(SignatureSpace, CountsTuplesTimesPresenceH2) {
  // h=2, bounds (3, 2): monotone tuples = 9 (see the enumeration in the
  // merge tests); presence slots = 3.
  const ScaledDemands sd = make_scaled({12, 3, 2}, 100);
  const SignatureSpace space(sd, 2);
  EXPECT_EQ(space.size(), 9u * 3u);
}

TEST(SignatureSpace, TotalDemandTightensBounds) {
  const ScaledDemands sd = make_scaled({40, 10}, 4);
  const SignatureSpace space(sd, 1);
  EXPECT_EQ(space.level_bound(1), 4);
}

TEST(SignatureSpace, IdOfRoundTripsThroughAccessors) {
  const ScaledDemands sd = make_scaled({24, 6, 3}, 100);
  const SignatureSpace space(sd, 2);
  const std::size_t id = space.id_of({4, 2}, 2);
  ASSERT_NE(id, SignatureSpace::npos);
  EXPECT_EQ(space.level(id, 1), 4);
  EXPECT_EQ(space.level(id, 2), 2);
  EXPECT_EQ(space.present(id), 2);
  EXPECT_EQ(space.support(id), 2);
}

TEST(SignatureSpace, IdOfRejectsInvalidTuples) {
  const ScaledDemands sd = make_scaled({24, 6, 3}, 100);
  const SignatureSpace space(sd, 2);
  EXPECT_EQ(space.id_of({2, 3}, 2), SignatureSpace::npos);   // increasing
  EXPECT_EQ(space.id_of({7, 1}, 2), SignatureSpace::npos);   // over capacity
  EXPECT_EQ(space.id_of({-1, -1}, 2), SignatureSpace::npos); // negative
  EXPECT_EQ(space.id_of({1}, 1), SignatureSpace::npos);      // wrong arity
  // Presence below the demand support is inconsistent.
  EXPECT_EQ(space.id_of({2, 1}, 1), SignatureSpace::npos);
  EXPECT_EQ(space.id_of({2, 0}, 0), SignatureSpace::npos);
  EXPECT_EQ(space.id_of({0, 0}, 3), SignatureSpace::npos);   // p > h
}

TEST(SignatureSpace, PhantomPresenceIsDistinctState) {
  // D = (0,0) with p ∈ {0,1,2} are three different signatures: absent,
  // region at level 1 only, regions at both levels.
  const ScaledDemands sd = make_scaled({24, 6, 3}, 100);
  const SignatureSpace space(sd, 2);
  const auto absent = space.id_of({0, 0}, 0);
  const auto shallow = space.id_of({0, 0}, 1);
  const auto deep = space.id_of({0, 0}, 2);
  ASSERT_NE(absent, SignatureSpace::npos);
  ASSERT_NE(shallow, SignatureSpace::npos);
  ASSERT_NE(deep, SignatureSpace::npos);
  EXPECT_NE(absent, shallow);
  EXPECT_NE(shallow, deep);
  EXPECT_EQ(space.zero_id(), absent);
}

TEST(SignatureSpace, UniformIdIsFullyPresent) {
  const ScaledDemands sd = make_scaled({24, 6, 3}, 100);
  const SignatureSpace space(sd, 2);
  const auto u2 = space.uniform_id(2);
  ASSERT_NE(u2, SignatureSpace::npos);
  EXPECT_EQ(space.level(u2, 1), 2);
  EXPECT_EQ(space.level(u2, 2), 2);
  EXPECT_EQ(space.present(u2), 2);
  EXPECT_EQ(space.uniform_id(5), SignatureSpace::npos);  // exceeds level-2 cap
}

TEST(SignatureSpace, MergeAddsKeptLevels) {
  const ScaledDemands sd = make_scaled({40, 10, 5}, 100);
  const SignatureSpace space(sd, 2);
  const auto a = space.id_of({3, 2}, 2);
  const auto b = space.id_of({4, 1}, 2);
  ASSERT_NE(a, SignatureSpace::npos);
  ASSERT_NE(b, SignatureSpace::npos);
  // Keep both children fully: sums at both levels.
  const auto full = space.merge(a, 2, b, 2, 2);
  ASSERT_NE(full, SignatureSpace::npos);
  EXPECT_EQ(space.level(full, 1), 7);
  EXPECT_EQ(space.level(full, 2), 3);
  // Cut child b above level 1: its level-2 region closes.
  const auto partial = space.merge(a, 2, b, 1, 2);
  ASSERT_NE(partial, SignatureSpace::npos);
  EXPECT_EQ(space.level(partial, 1), 7);
  EXPECT_EQ(space.level(partial, 2), 2);
  // Cut child b everywhere.
  const auto solo = space.merge(a, 2, b, 0, 2);
  ASSERT_NE(solo, SignatureSpace::npos);
  EXPECT_EQ(space.level(solo, 1), 3);
  EXPECT_EQ(space.level(solo, 2), 2);
}

TEST(SignatureSpace, MergePresenceRules) {
  const ScaledDemands sd = make_scaled({40, 10, 5}, 100);
  const SignatureSpace space(sd, 2);
  const auto a = space.id_of({3, 2}, 2);
  const auto b = space.id_of({4, 0}, 1);
  // Parent presence below a kept child's presence is invalid.
  EXPECT_EQ(space.merge(a, 2, b, 1, 1), SignatureSpace::npos);
  // Kept prefixes: a fully (p=2), b at level 1 → base 2.
  const auto m = space.merge(a, 2, b, 1, 2);
  ASSERT_NE(m, SignatureSpace::npos);
  EXPECT_EQ(space.level(m, 1), 7);
  EXPECT_EQ(space.level(m, 2), 2);
  EXPECT_EQ(space.present(m), 2);
  // Phantom extension: both children cut entirely, parent presence 2.
  const auto ph = space.merge(a, 0, b, 0, 2);
  ASSERT_NE(ph, SignatureSpace::npos);
  EXPECT_EQ(space.level(ph, 1), 0);
  EXPECT_EQ(space.present(ph), 2);
}

TEST(SignatureSpace, MergeDetectsCapacityOverflow) {
  const ScaledDemands sd = make_scaled({8, 4, 2}, 100);
  const SignatureSpace space(sd, 2);
  const auto a = space.id_of({3, 1}, 2);
  const auto b = space.id_of({2, 2}, 2);
  // level-1 sum 5 > capacity 4 → invalid.
  EXPECT_EQ(space.merge(a, 2, b, 2, 2), SignatureSpace::npos);
  // but cutting b at level 0 drops its contribution.
  EXPECT_NE(space.merge(a, 2, b, 0, 2), SignatureSpace::npos);
}

TEST(SignatureSpace, LiftMasksAboveCutLevel) {
  const ScaledDemands sd = make_scaled({40, 10, 5}, 100);
  const SignatureSpace space(sd, 2);
  const auto a = space.id_of({4, 3}, 2);
  const auto lifted = space.lift(a, 1, 1);
  ASSERT_NE(lifted, SignatureSpace::npos);
  EXPECT_EQ(space.level(lifted, 1), 4);
  EXPECT_EQ(space.level(lifted, 2), 0);
  EXPECT_EQ(space.present(lifted), 1);
  // Phantom extension above the kept prefix.
  const auto ghost = space.lift(a, 0, 2);
  ASSERT_NE(ghost, SignatureSpace::npos);
  EXPECT_EQ(space.level(ghost, 1), 0);
  EXPECT_EQ(space.present(ghost), 2);
  // Presence below the kept prefix is invalid.
  EXPECT_EQ(space.lift(a, 2, 1), SignatureSpace::npos);
}

TEST(SignatureSpace, MergeIsCommutative) {
  const ScaledDemands sd = make_scaled({40, 10, 5}, 100);
  const SignatureSpace space(sd, 2);
  for (std::size_t a = 0; a < space.size(); a += 5) {
    for (std::size_t b = 0; b < space.size(); b += 5) {
      for (int j1 = 0; j1 <= 2; ++j1) {
        for (int j2 = 0; j2 <= 2; ++j2) {
          EXPECT_EQ(space.merge(a, j1, b, j2, 2),
                    space.merge(b, j2, a, j1, 2));
        }
      }
    }
  }
}

// Definition 9 merge with the tuples materialized: children a (cut above
// j1) and b (cut above j2) keep their first min(j, p) levels, the parent's
// demand is the sum of the kept prefixes, and its presence pv must cover
// both kept prefixes.  npos when the result is not a signature.
std::size_t reference_merge(const SignatureSpace& space, std::size_t a, int j1,
                            std::size_t b, int j2, int pv) {
  const int h = space.height();
  const int kept1 = std::min(j1, space.present(a));
  const int kept2 = std::min(j2, space.present(b));
  if (pv < std::max(kept1, kept2) || pv > h) return SignatureSpace::npos;
  Signature d(static_cast<std::size_t>(h), 0);
  for (int k = 1; k <= h; ++k) {
    d[static_cast<std::size_t>(k - 1)] =
        (k <= kept1 ? space.level(a, k) : 0) +
        (k <= kept2 ? space.level(b, k) : 0);
  }
  return space.id_of(d, pv);
}

std::size_t reference_lift(const SignatureSpace& space, std::size_t a, int j1,
                           int pv) {
  return reference_merge(space, a, j1, space.zero_id(), 0, pv);
}

// Small spaces (h = 2 and 3, one with the demand total tightening the level
// bounds) on which every (a, j1, b, j2, pv) is enumerated.
std::vector<ScaledDemands> exhaustive_spaces() {
  return {make_scaled({12, 4, 3}, 100), make_scaled({12, 5, 3}, 4),
          make_scaled({24, 4, 3, 2}, 100)};
}

TEST(SignatureSpace, MergedTupleMatchesMaterializedMergeExhaustively) {
  for (const ScaledDemands& sd : exhaustive_spaces()) {
    const int h = narrow<int>(sd.capacity.size()) - 1;
    const SignatureSpace space(sd, h);
    SCOPED_TRACE(::testing::Message() << "h=" << h << " |Sig|="
                                      << space.size());
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    for (std::size_t a = 0; a < space.size(); ++a) {
      for (std::size_t b = 0; b < space.size(); ++b) {
        for (int j1 = 0; j1 <= h; ++j1) {
          for (int j2 = 0; j2 <= h; ++j2) {
            const int kept1 = std::min(j1, space.present(a));
            const int kept2 = std::min(j2, space.present(b));
            const int base = std::max(kept1, kept2);
            const std::size_t tuple = space.merged_tuple(
                space.tuple_of(a), kept1, space.tuple_of(b), kept2);
            std::vector<std::size_t> ref(static_cast<std::size_t>(h) + 1);
            for (int pv = 0; pv <= h; ++pv) {
              ref[static_cast<std::size_t>(pv)] =
                  reference_merge(space, a, j1, b, j2, pv);
              const std::size_t kernel =
                  tuple == SignatureSpace::npos || pv < base
                      ? SignatureSpace::npos
                      : space.compose(tuple, pv);
              mismatches += kernel != ref[static_cast<std::size_t>(pv)];
              mismatches += space.merge(a, j1, b, j2, pv) !=
                            ref[static_cast<std::size_t>(pv)];
              ++checked;
            }
            // The DP kernel adds rejected merges per presence range
            // [lo, hi] arithmetically: all of it on a capacity overflow,
            // else the part below the kept prefixes.
            for (int lo = 0; lo <= h; ++lo) {
              for (int hi = lo; hi <= h; ++hi) {
                std::size_t npos_count = 0;
                for (int pv = lo; pv <= hi; ++pv) {
                  npos_count += ref[static_cast<std::size_t>(pv)] ==
                                SignatureSpace::npos;
                }
                const auto range = static_cast<std::size_t>(hi - lo + 1);
                const std::size_t counted =
                    tuple == SignatureSpace::npos
                        ? range
                        : static_cast<std::size_t>(
                              std::clamp(base - lo, 0, hi - lo + 1));
                mismatches += counted != npos_count;
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
    const auto h1 = static_cast<std::size_t>(h + 1);
    EXPECT_EQ(checked, space.size() * space.size() * h1 * h1 * h1);
  }
}

TEST(SignatureSpace, LiftedTupleMatchesMaterializedLiftExhaustively) {
  for (const ScaledDemands& sd : exhaustive_spaces()) {
    const int h = narrow<int>(sd.capacity.size()) - 1;
    const SignatureSpace space(sd, h);
    SCOPED_TRACE(::testing::Message() << "h=" << h);
    std::size_t mismatches = 0;
    for (std::size_t a = 0; a < space.size(); ++a) {
      for (int j1 = 0; j1 <= h; ++j1) {
        const int kept = std::min(j1, space.present(a));
        const std::size_t tuple = space.lifted_tuple(space.tuple_of(a), kept);
        ASSERT_NE(tuple, SignatureSpace::npos);
        for (int pv = 0; pv <= h; ++pv) {
          const std::size_t ref = reference_lift(space, a, j1, pv);
          const std::size_t kernel =
              pv < kept ? SignatureSpace::npos : space.compose(tuple, pv);
          mismatches += kernel != ref;
          mismatches += space.lift(a, j1, pv) != ref;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(SignatureSpace, ComposeInvertsTupleAndPresence) {
  const SignatureSpace space(make_scaled({24, 4, 3, 2}, 100), 3);
  for (std::size_t id = 0; id < space.size(); ++id) {
    EXPECT_EQ(space.compose(space.tuple_of(id), space.present(id)), id);
  }
}

TEST(SignatureSpace, OversizedSpaceRejected) {
  ScaledDemands sd =
      make_scaled({1 << 20, 1 << 20, 1 << 20, 1 << 20}, 1 << 30);
  EXPECT_THROW(SignatureSpace(sd, 3), CheckError);
}

}  // namespace
}  // namespace hgp
