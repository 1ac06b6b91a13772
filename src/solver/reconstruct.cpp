#include "solver/reconstruct.hpp"

#include "util/logging.hpp"

namespace vibe {

ReconMethod
reconMethodFromName(const std::string& name)
{
    if (name == "weno5")
        return ReconMethod::Weno5;
    if (name == "plm")
        return ReconMethod::Plm;
    fatal("unknown reconstruction '", name, "'");
}

} // namespace vibe
