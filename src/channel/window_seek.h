// asyncmac/channel/window_seek.h
//
// The one seek channel::Ledger and live::LiveChannel use to find where a
// query's neighborhood starts in their begin-sorted transmission windows
// (feedback, overlap search and, in LiveChannel, the restrained on-air
// census; every cohort lane is a Ledger too), plus the compaction rule of
// that contiguous window, which both keep.
//
// Why a tail seek: the engine and the live daemon only ever ask about
// slots near "now", and "now" sits at the tail of the window — entries
// are appended in begin order and the scans only reach begins within one
// max_duration of the query (LiveChannel also reaches back to its oldest
// open entry, whose end is still unknown). A plain binary search pays
// O(log W) probes for that (W = window length, up to thousands on
// collision-heavy async runs); galloping back from the tail and then binary-searching the
// bracketed range pays O(log d), d = distance from the tail to the answer.
// A query anywhere in the window (the verify oracle's replay ledger holds
// a case's whole history) still costs at most 2*ceil(log2 W) + 1 probes.
//
// The seeks return exactly std::lower_bound / std::upper_bound's index,
// so switching a call site between them changes no result.
#pragma once

#include <cstddef>

#include "util/types.h"

namespace asyncmac::channel {

/// First index in [lo, hi) at which `below(i)` is false, where `below` is
/// true on a (possibly empty) prefix of [lo, hi) and false on the rest —
/// std::partition_point over indices, searched from the tail: probes
/// hi-1, hi-2, hi-4, ... (step doubling) until a probe is below or lo is
/// reached, then binary-searches the bracket between the last two probes.
template <class Below>
std::size_t tail_partition_point(std::size_t lo, std::size_t hi,
                                 Below&& below) {
  // Invariant: every index in [right, hi) is not below.
  std::size_t right = hi;
  std::size_t left = lo;
  for (std::size_t step = 1; right > lo; step *= 2) {
    const std::size_t probe = right - lo > step ? right - step : lo;
    if (below(probe)) {
      left = probe + 1;
      break;
    }
    right = probe;
  }
  while (left < right) {
    const std::size_t mid = left + (right - left) / 2;
    if (below(mid))
      left = mid + 1;
    else
      right = mid;
  }
  return right;
}

/// std::lower_bound by begin time: the first index in [lo, hi) whose
/// begin is >= key. `begin_of(i)` reads entry i's begin; begins must be
/// non-decreasing over [lo, hi).
template <class BeginOf>
std::size_t seek_begin_at_or_after(std::size_t lo, std::size_t hi, Tick key,
                                   BeginOf&& begin_of) {
  return tail_partition_point(
      lo, hi, [&](std::size_t i) { return begin_of(i) < key; });
}

/// std::upper_bound by begin time: the first index in [lo, hi) whose
/// begin is > key.
template <class BeginOf>
std::size_t seek_begin_after(std::size_t lo, std::size_t hi, Tick key,
                             BeginOf&& begin_of) {
  return tail_partition_point(
      lo, hi, [&](std::size_t i) { return begin_of(i) <= key; });
}

/// Compaction rule of a contiguous window whose live entries occupy
/// [head, size) of a flat buffer: drop the dead prefix once it holds at
/// least 64 entries and no fewer than the live tail. Each compaction moves
/// at most as many entries as it frees, so the cost is amortized O(1) per
/// pruned entry and the buffer never exceeds about twice its live peak.
inline bool window_compaction_due(std::size_t head, std::size_t size) noexcept {
  return head >= 64 && head >= size - head;
}

}  // namespace asyncmac::channel
