/**
 * @file obs_config.cpp
 * Build identity (the one file CMake compiles with VIBE_GIT_DESCRIBE).
 */
#include "obs/obs_config.hpp"

namespace vibe {

const char*
buildDescribe()
{
#ifdef VIBE_GIT_DESCRIBE
    return VIBE_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

} // namespace vibe
