/**
 * @file obs_config.cpp
 * ObsConfig readers (deck + environment) and build identity.
 */
#include "obs/obs_config.hpp"

#include "util/env.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

ObsConfig
ObsConfig::fromParams(const ParameterInput& pin)
{
    ObsConfig config = fromEnv();
    config.tracePath = pin.getString("obs", "trace", config.tracePath);
    config.metricsPath =
        pin.getString("obs", "metrics", config.metricsPath);
    return config;
}

ObsConfig
ObsConfig::fromEnv()
{
    ObsConfig config;
    config.tracePath = envString("VIBE_TRACE");
    config.metricsPath = envString("VIBE_METRICS");
    return config;
}

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
