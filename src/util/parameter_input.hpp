/**
 * @file parameter_input.hpp
 * Athena/Parthenon-style input deck: `<block>` sections with
 * `key = value  # comment` lines.
 *
 * Example:
 * @code
 * <parthenon/mesh>
 * nx1 = 128        # cells in x
 * <parthenon/meshblock>
 * nx1 = 16
 * @endcode
 *
 * The only reader of run configuration in src/. A few run-level knobs
 * have a `VIBE_*` environment twin (`<exec> num_threads` and
 * VIBE_NUM_THREADS, ...; the table lives in parameter_input.cpp).
 * Every typed getter resolves one rule, per key: deck value, else the
 * env twin (unset or empty = not given), else the caller's default.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace vibe {

/** Parsed input deck with typed, defaulted accessors. */
class ParameterInput
{
  public:
    ParameterInput() = default;

    /**
     * Parse deck text; later duplicate keys override earlier ones.
     * Unknown knobs inside recognized blocks (mesh, meshblock, amr,
     * exec, driver, comm, job, obs, and the package blocks) are fatal
     * with the offending block/knob named — a typo must not silently
     * select the default. Unrecognized block names pass through.
     */
    static ParameterInput fromString(const std::string& text);

    /** Parse a deck file on disk. Fatal if unreadable. */
    static ParameterInput fromFile(const std::string& path);

    /** Set (or override) a value programmatically. */
    void set(const std::string& block, const std::string& key,
             const std::string& value);

    /** True when the deck itself sets `block/key`. */
    bool has(const std::string& block, const std::string& key) const;

    /**
     * Typed getters: deck, then env twin, then `default_value`. The
     * whole text must parse, or the run fails naming `block/key` (or
     * the variable, when the text came from the environment).
     */
    int getInt(const std::string& block, const std::string& key,
               int default_value) const;
    /** 64-bit variant for cycle-valued knobs that can exceed int. */
    std::int64_t getInt64(const std::string& block, const std::string& key,
                          std::int64_t default_value) const;
    double getReal(const std::string& block, const std::string& key,
                   double default_value) const;
    bool getBool(const std::string& block, const std::string& key,
                 bool default_value) const;
    std::string getString(const std::string& block, const std::string& key,
                          const std::string& default_value) const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace vibe
