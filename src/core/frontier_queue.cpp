#include "core/frontier_queue.hpp"

namespace csaw {

void FrontierQueue::drain(std::vector<FrontierEntry>& out) {
  out.clear();
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(at(i));
  clear();
}

}  // namespace csaw
