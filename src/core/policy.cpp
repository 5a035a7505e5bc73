#include "core/policy.hpp"

#include "util/check.hpp"

namespace csaw {

void Policy::validate() const {
  CSAW_CHECK_MSG(!(edge_bias && static_edge_bias),
                 "Policy sets both edge_bias and static_edge_bias; "
                 "set at most one EDGEBIAS hook");
}

}  // namespace csaw
