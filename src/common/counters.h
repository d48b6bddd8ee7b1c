// Named counter lists. A struct of std::uint64_t counters names every member
// once, with its metric name and in declaration order, in a static
// `kCounters` array; totals, metrics export, fingerprints and per-org reports
// walk that one list instead of copying the fields.
#pragma once

#include <cstdint>
#include <iterator>

namespace orderless {

template <typename Stats>
struct NamedCounter {
  const char* name;  // metric name, e.g. "catchup.ckpt_sealed"
  std::uint64_t Stats::*member;
};

/// Adds every listed counter of `part` into `total`.
template <typename Stats>
void AddCounters(Stats& total, const Stats& part) {
  for (const NamedCounter<Stats>& c : Stats::kCounters) {
    total.*c.member += part.*c.member;
  }
}

/// True when `Stats` holds nothing but its listed counters, so a counter
/// added to the struct without a list entry fails the static_assert that
/// follows each list.
template <typename Stats>
constexpr bool ListsEveryCounter() {
  return sizeof(Stats) ==
         std::size(Stats::kCounters) * sizeof(std::uint64_t);
}

}  // namespace orderless
