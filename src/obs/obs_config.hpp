/**
 * @file obs_config.hpp
 * Observability configuration: the `<obs>` deck block and its
 * environment fallbacks. Tracing and metrics are independent — either
 * path may be set alone — and both default to off, which must cost
 * nothing (see trace.hpp).
 */
#pragma once

#include <string>

namespace vibe {

class ParameterInput;

struct ObsConfig
{
    /** Chrome trace-event JSON destination ("" = tracing off). */
    std::string tracePath;
    /** Per-cycle JSONL heartbeat destination ("" = metrics off). */
    std::string metricsPath;

    bool traceEnabled() const { return !tracePath.empty(); }
    bool metricsEnabled() const { return !metricsPath.empty(); }
    bool any() const { return traceEnabled() || metricsEnabled(); }

    /**
     * Read `<obs> trace` / `<obs> metrics`; a knob absent from the
     * deck falls back to the `VIBE_TRACE` / `VIBE_METRICS` environment
     * variables (deck beats env beats default, the rule of every
     * env-backed knob; see util/env.hpp).
     */
    static ObsConfig fromParams(const ParameterInput& pin);

    /** Environment-only configuration (decks bypass the harness). */
    static ObsConfig fromEnv();
};

/**
 * Build identity for the metrics run footer: the `git describe`
 * captured at configure time (CMake's VIBE_GIT_DESCRIBE), or
 * "unknown" outside a git checkout.
 */
const char* buildDescribe();

} // namespace vibe
