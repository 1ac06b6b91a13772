/**
 * @file obs_config.hpp
 * Build identity for the metrics run footer. The `<obs> trace` /
 * `<obs> metrics` knobs themselves resolve through ParameterInput
 * (twins VIBE_TRACE / VIBE_METRICS); both default to off, which must
 * cost nothing (see trace.hpp).
 */
#pragma once

namespace vibe {

/**
 * Build identity for the metrics run footer: the `git describe`
 * captured at configure time (CMake's VIBE_GIT_DESCRIBE), or
 * "unknown" outside a git checkout.
 */
const char* buildDescribe();

} // namespace vibe
