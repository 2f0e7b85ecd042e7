#include "core/signature.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "util/contracts.hpp"

namespace hgp {

SignatureSpace::SignatureSpace(const ScaledDemands& scaled, int height)
    : height_(height) {
  HGP_CHECK(height >= 1);
  HGP_CHECK(narrow<int>(scaled.capacity.size()) == height + 1);
  bound_.resize(static_cast<std::size_t>(height));
  for (int j = 1; j <= height; ++j) {
    bound_[static_cast<std::size_t>(j - 1)] =
        std::min(scaled.capacity[static_cast<std::size_t>(j)], scaled.total);
    HGP_CHECK(bound_[static_cast<std::size_t>(j - 1)] >= 0);
  }
  // Mixed-radix packing of the demand tuple: key = Σ_j D^(j) · stride[j].
  stride_.resize(static_cast<std::size_t>(height));
  std::size_t span = 1;
  for (int j = height; j >= 1; --j) {
    stride_[static_cast<std::size_t>(j - 1)] =
        static_cast<DemandUnits>(span);
    span *=
        static_cast<std::size_t>(bound_[static_cast<std::size_t>(j - 1)]) + 1;
    HGP_CHECK_MSG(span < (std::size_t{1} << 36),
                  "signature space too large; lower the demand resolution "
                  "(larger epsilon or explicit units_override)");
  }
  // Enumerate all non-increasing tuples within the bounds (depth-first).
  // Two passes: count first, then fill the arena-backed interned tables
  // with exactly-sized allocations (the arena hands out contiguous blocks,
  // so the hot-path lookups walk dense, cache-friendly memory).
  Signature cur(static_cast<std::size_t>(height), 0);
  auto rec = [&](auto&& self, int level, DemandUnits upper,
                 auto&& emit) -> void {
    if (level > height) {
      emit(cur);
      return;
    }
    const DemandUnits cap =
        std::min(upper, bound_[static_cast<std::size_t>(level - 1)]);
    for (DemandUnits d = 0; d <= cap; ++d) {
      cur[static_cast<std::size_t>(level - 1)] = d;
      self(self, level + 1, d, emit);
    }
  };
  std::size_t tuple_count = 0;
  rec(rec, 1, std::numeric_limits<DemandUnits>::max(),
      [&](const Signature&) { ++tuple_count; });

  const auto h_sz = static_cast<std::size_t>(height);
  demands_ = arena_.allocate<DemandUnits>(tuple_count * h_sz);
  support_ = arena_.allocate<int>(tuple_count);
  prefix_key_ = arena_.allocate<std::size_t>(tuple_count * (h_sz + 1));
  pack_to_tuple_ = arena_.allocate_filled<std::size_t>(span, npos);

  std::size_t next = 0;
  rec(rec, 1, std::numeric_limits<DemandUnits>::max(),
      [&](const Signature& d) {
        const std::size_t t = next++;
        pack_to_tuple_[pack(d)] = t;
        int support = 0;
        std::size_t key = 0;
        prefix_key_[t * (h_sz + 1)] = 0;
        for (int k = 1; k <= height; ++k) {
          const DemandUnits x = d[static_cast<std::size_t>(k - 1)];
          if (x > 0) support = k;
          demands_[t * h_sz + static_cast<std::size_t>(k - 1)] = x;
          key += static_cast<std::size_t>(x) *
                 static_cast<std::size_t>(
                     stride_[static_cast<std::size_t>(k - 1)]);
          prefix_key_[t * (h_sz + 1) + static_cast<std::size_t>(k)] = key;
        }
        support_[t] = support;
      });
  HGP_ASSERT(next == tuple_count);
  count_ = tuple_count * static_cast<std::size_t>(height + 1);
  zero_id_ = id_of(Signature(static_cast<std::size_t>(height), 0), 0);
  HGP_CHECK(zero_id_ != npos);
}

std::size_t SignatureSpace::pack(const Signature& d) const {
  std::size_t key = 0;
  for (int j = 1; j <= height_; ++j) {
    key += static_cast<std::size_t>(d[static_cast<std::size_t>(j - 1)]) *
           static_cast<std::size_t>(stride_[static_cast<std::size_t>(j - 1)]);
  }
  return key;
}

std::size_t SignatureSpace::id_of(const Signature& d, int present) const {
  if (narrow<int>(d.size()) != height_) return npos;
  if (present < 0 || present > height_) return npos;
  DemandUnits prev = std::numeric_limits<DemandUnits>::max();
  int support = 0;
  for (int j = 1; j <= height_; ++j) {
    const DemandUnits x = d[static_cast<std::size_t>(j - 1)];
    if (x < 0 || x > bound_[static_cast<std::size_t>(j - 1)] || x > prev) {
      return npos;
    }
    if (x > 0) support = j;
    prev = x;
  }
  if (present < support) return npos;
  const std::size_t tuple = pack_to_tuple_[pack(d)];
  HGP_ASSERT(tuple != npos);
  return compose(tuple, present);
}

std::size_t SignatureSpace::uniform_id(DemandUnits units) const {
  return id_of(Signature(static_cast<std::size_t>(height_), units), height_);
}

std::size_t SignatureSpace::merge(std::size_t a, int j1, std::size_t b,
                                  int j2, int present) const {
  // Definition 9 preconditions: both children are interned signatures and
  // the cut levels lie within the hierarchy.
  HGP_PRECONDITION_MSG(a < count_ && b < count_,
                       "merge children must be interned signature ids");
  HGP_PRECONDITION_MSG(j1 >= 0 && j1 <= height_ && j2 >= 0 && j2 <= height_,
                       "merge cut levels must lie in [0, h]");
  const int kept1 = std::min(j1, this->present(a));
  const int kept2 = std::min(j2, this->present(b));
  if (present < std::max(kept1, kept2) || present > height_) return npos;
  const std::size_t tuple =
      merged_tuple(tuple_of(a), kept1, tuple_of(b), kept2);
  if (tuple == npos) return npos;
  const std::size_t merged = compose(tuple, present);
  // Definition 9 postcondition: a successful (j1,j2)-consistent merge is
  // itself a valid signature — monotone, within capacity, presence deep
  // enough for its support.  (The tuple is materialized only when the
  // contract layer is compiled in.)
  HGP_POSTCONDITION_MSG(
      [&] {
        Signature out(static_cast<std::size_t>(height_), 0);
        for (int k = 1; k <= height_; ++k) {
          out[static_cast<std::size_t>(k - 1)] =
              (k <= kept1 ? level(a, k) : 0) + (k <= kept2 ? level(b, k) : 0);
        }
        return id_of(out, present) == merged;
      }(),
      "consistent merge produced an invalid signature");
  return merged;
}

std::size_t SignatureSpace::lift(std::size_t a, int j1, int present) const {
  HGP_PRECONDITION_MSG(a < count_,
                       "lift child must be an interned signature id");
  HGP_PRECONDITION_MSG(j1 >= 0 && j1 <= height_,
                       "lift cut level must lie in [0, h]");
  const int kept = std::min(j1, this->present(a));
  if (present < kept || present > height_) return npos;
  const std::size_t tuple = lifted_tuple(tuple_of(a), kept);
  HGP_ASSERT(tuple != npos);
  const std::size_t lifted = compose(tuple, present);
  HGP_POSTCONDITION_MSG(
      [&] {
        Signature out(static_cast<std::size_t>(height_), 0);
        for (int k = 1; k <= kept; ++k) {
          out[static_cast<std::size_t>(k - 1)] = level(a, k);
        }
        return id_of(out, present) == lifted;
      }(),
      "lift produced an invalid signature");
  return lifted;
}

void SignatureSpace::validate(const Signature& d, int present) const {
  if (narrow<int>(d.size()) != height_) {
    throw SolveError(StatusCode::kInternal,
                     "signature invariant violated: tuple must have h=" +
                         std::to_string(height_) + " levels, got " +
                         std::to_string(d.size()));
  }
  if (present < 0 || present > height_) {
    throw SolveError(StatusCode::kInternal,
                     "signature invariant violated: presence depth " +
                         std::to_string(present) + " outside [0, h]");
  }
  DemandUnits prev = std::numeric_limits<DemandUnits>::max();
  int support = 0;
  for (int j = 1; j <= height_; ++j) {
    const DemandUnits x = d[static_cast<std::size_t>(j - 1)];
    if (x < 0) {
      throw SolveError(StatusCode::kInternal,
                       "signature invariant violated: negative demand at "
                       "level " +
                           std::to_string(j));
    }
    if (x > bound_[static_cast<std::size_t>(j - 1)]) {
      throw SolveError(StatusCode::kInternal,
                       "signature invariant violated: demand " +
                           std::to_string(x) + " exceeds capacity bound at "
                           "level " +
                           std::to_string(j));
    }
    if (x > prev) {
      throw SolveError(StatusCode::kInternal,
                       "signature invariant violated: Corollary 1 "
                       "monotonicity fails at level " +
                           std::to_string(j) + " (D rises " +
                           std::to_string(prev) + " -> " +
                           std::to_string(x) + ")");
    }
    if (x > 0) support = j;
    prev = x;
  }
  if (present < support) {
    throw SolveError(StatusCode::kInternal,
                     "signature invariant violated: presence depth " +
                         std::to_string(present) + " shallower than demand "
                         "support " +
                         std::to_string(support));
  }
}

void SignatureSpace::validate(std::size_t id) const {
  if (id >= count_) {
    throw SolveError(StatusCode::kInternal,
                     "signature invariant violated: id " +
                         std::to_string(id) + " out of range (space size " +
                         std::to_string(count_) + ")");
  }
  Signature d(static_cast<std::size_t>(height_), 0);
  for (int j = 1; j <= height_; ++j) {
    d[static_cast<std::size_t>(j - 1)] = level(id, j);
  }
  validate(d, present(id));
}

}  // namespace hgp
