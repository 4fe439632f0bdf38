// The one FNV-1a implementation.
//
// Every stable identity in the system — store::AttackKeyHash, the
// flow-options hash, store::PortfolioHash, synthetic-benchmark seeds —
// is FNV-1a over a canonical string, and those values partition the
// persistent result store and gate shard merges. Keeping a single
// definition makes "identical across processes, platforms and call
// sites" a property of the code rather than a convention; the golden
// tests in test_store.cpp pin the resulting values.
#pragma once

#include <cstdint>
#include <string_view>

namespace splitlock::util {

inline constexpr uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace splitlock::util
