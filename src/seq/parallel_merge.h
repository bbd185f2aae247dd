// Compatibility shim: every in-node file merge is the serial loser tree in
// seq/kway_merge.h, so a node merges on exactly one thread.
// perfbench/wholesort.cpp still includes this header to print the merge
// thread count on its env line; the header goes once that benchmark drops
// the include.
#pragma once

#include "base/types.h"

namespace paladin::seq {

/// Threads one in-node merge runs on: always 1.
inline u32 resolve_merge_threads(u32 /*requested*/) { return 1; }

}  // namespace paladin::seq
