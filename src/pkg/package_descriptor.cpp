#include "pkg/package_descriptor.hpp"

#include <algorithm>

namespace vibe {

double
foldBlockPartials(Mesh& mesh, RankWorld& world,
                  std::vector<BlockPartial> partials)
{
    std::vector<BlockPartial> gathered = world.allGatherVec(
        mesh.collectiveRank(), std::move(partials),
        static_cast<double>(sizeof(double)), CollAccount::Reduce);
    std::sort(gathered.begin(), gathered.end(),
              [](const BlockPartial& a, const BlockPartial& b) {
                  return a.gid < b.gid;
              });
    double total = 0.0;
    for (const BlockPartial& partial : gathered)
        total += partial.value;
    return total;
}

} // namespace vibe
