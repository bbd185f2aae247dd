#include "hetero/perf_vector.h"

#include <algorithm>
#include <sstream>

namespace paladin::hetero {

PerfVector::PerfVector(std::vector<u32> perf) : perf_(std::move(perf)) {
  PALADIN_EXPECTS(!perf_.empty());
  for (u32 v : perf_) {
    PALADIN_EXPECTS_MSG(v > 0, "perf factors must be positive");
  }
  sum_ = sum_of(perf_);
}

bool PerfVector::homogeneous() const {
  return std::all_of(perf_.begin(), perf_.end(),
                     [&](u32 v) { return v == perf_.front(); });
}

std::vector<u64> PerfVector::shares(u64 n) const {
  std::vector<u64> out(node_count());
  for (u32 i = 0; i < node_count(); ++i) out[i] = share(i, n);
  return out;
}

u64 PerfVector::share_offset(u32 i, u64 n) const {
  u64 offset = 0;
  for (u32 j = 0; j < i; ++j) offset += share(j, n);
  return offset;
}

std::string PerfVector::to_string() const {
  std::ostringstream os;
  os << '{';
  for (u32 i = 0; i < node_count(); ++i) {
    if (i > 0) os << ',';
    os << perf_[i];
  }
  os << '}';
  return os.str();
}

}  // namespace paladin::hetero
