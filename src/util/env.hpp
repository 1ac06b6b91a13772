/**
 * @file env.hpp
 * The one reader of `VIBE_*` environment knobs. Unset or empty means
 * "not given"; anything else must parse whole, like ParameterInput's
 * deck getters, or the run fails naming the variable
 * (`VIBE_NUM_THREADS=4x` is an error, not 4). Callers apply one
 * precedence rule for every knob: deck (or spec) beats env beats
 * default, so an env value only fills an absent deck key.
 */
#pragma once

#include <climits>
#include <cstdint>
#include <string>

namespace vibe {

/** Value of environment variable `name`; "" when unset. */
std::string envString(const char* name);

/**
 * `name` parsed as a whole 64-bit integer; `fallback` when unset or
 * empty. Fatal, naming the variable, when the value does not parse.
 */
std::int64_t envInt64(const char* name, std::int64_t fallback);

/**
 * `name` parsed as a whole int no smaller than `min_value`; `fallback`
 * when unset or empty. Fatal, naming the variable, when the value does
 * not parse or is out of range (no silent truncation to int).
 */
int envInt(const char* name, int fallback, int min_value = INT_MIN);

} // namespace vibe
