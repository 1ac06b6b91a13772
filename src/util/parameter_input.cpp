#include "util/parameter_input.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "util/logging.hpp"

namespace vibe {

namespace {

std::string
trim(const std::string& s)
{
    auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
    auto b = std::find_if_not(s.begin(), s.end(), is_space);
    auto e = std::find_if_not(s.rbegin(), s.rend(), is_space).base();
    return b < e ? std::string(b, e) : std::string();
}

/** One knob a recognized block accepts, and its `VIBE_*` twin. */
struct Knob
{
    const char* key;
    const char* env = nullptr;
};

/**
 * Knobs each recognized deck block accepts. A typo inside one of
 * these blocks (`<exec> pack_interor = true`) is fatal at parse time
 * instead of silently selecting the default; unrecognized block names
 * pass through untouched so applications can carry their own
 * sections. A knob with an env twin reads that variable when the deck
 * leaves it out. Keep in sync with the fromParams readers (MeshConfig,
 * DriverConfig, package configs) and documented in the README.
 */
const std::map<std::string, std::vector<Knob>>&
knownKnobs()
{
    static const std::map<std::string, std::vector<Knob>> table = {
        {"mesh",
         {{"ndim"}, {"nx1"}, {"nx2"}, {"nx3"}, {"num_ghost"},
          {"periodic"}, {"x1min"}, {"x1max"}, {"optimize_aux_memory"}}},
        {"meshblock", {{"nx1"}, {"nx2"}, {"nx3"}}},
        {"amr",
         {{"num_levels"}, {"derefine_gap"}, {"refine_every"},
          {"lb_every"}, {"lb_cost", "VIBE_LB_COST"},
          {"lb_imbalance_trigger"}}},
        {"exec",
         {{"num_threads", "VIBE_NUM_THREADS"},
          {"num_ranks", "VIBE_NUM_RANKS"},
          {"fail_rank", "VIBE_FAIL_RANK"},
          {"fail_cycle", "VIBE_FAIL_CYCLE"}}},
        {"driver",
         {{"ncycles"}, {"tlim"}, {"fixed_dt"}, {"checkpoint_every"}}},
        {"comm", {{"randomize_buffer_keys"}}},
        {"job", {{"package"}}},
        {"obs", {{"trace", "VIBE_TRACE"}, {"metrics", "VIBE_METRICS"}}},
        {"burgers",
         {{"num_scalars"}, {"cfl"}, {"recon"}, {"refine_tol"},
          {"derefine_tol"}, {"ic"}}},
        {"advection",
         {{"vx"}, {"vy"}, {"vz"}, {"cfl"}, {"recon"}, {"refine_tol"},
          {"derefine_tol"}, {"ic"}}},
        {"reaction",
         {{"vx"}, {"vy"}, {"vz"}, {"cfl"}, {"recon"}, {"refine_tol"},
          {"derefine_tol"}, {"rate"}, {"stiffness"}, {"stiff_tol"},
          {"max_iters"}}},
    };
    return table;
}

/** The table entry for `block/key`; null when absent from the table. */
const Knob*
findKnob(const std::string& block, const std::string& key)
{
    auto known = knownKnobs().find(block);
    if (known == knownKnobs().end())
        return nullptr;
    for (const Knob& knob : known->second)
        if (key == knob.key)
            return &knob;
    return nullptr;
}

/** A resolved knob's text and where it came from (for errors). */
struct Resolved
{
    std::string text;
    std::string source;
};

/** `block/key` from the deck, else from its env twin; none if neither. */
std::optional<Resolved>
resolve(const std::map<std::string, std::string>& deck,
        const std::string& block, const std::string& key)
{
    const std::string name = block + "/" + key;
    if (auto it = deck.find(name); it != deck.end())
        return Resolved{it->second, "parameter " + name};
    const Knob* knob = findKnob(block, key);
    if (!knob || !knob->env)
        return std::nullopt;
    // The one environment read in src/. Configuration resolves during
    // start-up, before any worker or rank thread exists, and nothing
    // in src/ calls setenv.
    const char* value = std::getenv(knob->env);
    if (!value || !*value)
        return std::nullopt;
    return Resolved{value, std::string("environment variable ") + knob->env};
}

/** The whole text of `v` as a T; `default_value` when nothing resolved. */
template <typename T>
T
parseNumber(const std::optional<Resolved>& v, T default_value,
            const char* kind)
{
    if (!v)
        return default_value;
    const char* end = v->text.data() + v->text.size();
    T result{};
    const auto [ptr, ec] = std::from_chars(v->text.data(), end, result);
    if (ec == std::errc() && ptr == end)
        return result;
    fatal(v->source, " = '", v->text, "' is ",
          ec == std::errc::result_out_of_range ? "out of range" : kind);
}

} // namespace

ParameterInput
ParameterInput::fromString(const std::string& text)
{
    ParameterInput pin;
    std::istringstream in(text);
    std::string line;
    std::string block;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '<') {
            if (line.back() != '>')
                fatal("input deck line ", lineno, ": malformed block header '",
                      line, "'");
            block = trim(line.substr(1, line.size() - 2));
            if (block.empty())
                fatal("input deck line ", lineno, ": empty block name");
            continue;
        }
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("input deck line ", lineno, ": expected 'key = value', got '",
                  line, "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("input deck line ", lineno, ": empty key");
        if (auto known = knownKnobs().find(block);
            known != knownKnobs().end() && !findKnob(block, key)) {
            std::ostringstream valid;
            for (const Knob& knob : known->second)
                valid << (valid.tellp() > 0 ? ", " : "") << knob.key;
            fatal("input deck line ", lineno, ": unknown parameter '",
                  key, "' in block <", block, "> (known knobs: ",
                  valid.str(), ")");
        }
        pin.set(block, key, value);
    }
    return pin;
}

ParameterInput
ParameterInput::fromFile(const std::string& path)
{
    // vibe-lint: allow(io-isolation) reading the user's input deck is
    // this function's whole purpose; it runs once at startup, far from
    // any hot path, and src/io is for simulation-state I/O.
    std::ifstream in(path);
    if (!in)
        fatal("cannot open input deck '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromString(buf.str());
}

void
ParameterInput::set(const std::string& block, const std::string& key,
                    const std::string& value)
{
    values_[block + "/" + key] = value;
}

bool
ParameterInput::has(const std::string& block, const std::string& key) const
{
    return values_.count(block + "/" + key) != 0;
}

int
ParameterInput::getInt(const std::string& block, const std::string& key,
                       int default_value) const
{
    return parseNumber(resolve(values_, block, key), default_value,
                       "not an integer");
}

std::int64_t
ParameterInput::getInt64(const std::string& block, const std::string& key,
                         std::int64_t default_value) const
{
    return parseNumber(resolve(values_, block, key), default_value,
                       "not an integer");
}

double
ParameterInput::getReal(const std::string& block, const std::string& key,
                        double default_value) const
{
    return parseNumber(resolve(values_, block, key), default_value,
                       "not a real");
}

bool
ParameterInput::getBool(const std::string& block, const std::string& key,
                        bool default_value) const
{
    const std::optional<Resolved> v = resolve(values_, block, key);
    if (!v)
        return default_value;
    std::string lower = v->text;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "true" || lower == "1" || lower == "yes" || lower == "on")
        return true;
    if (lower == "false" || lower == "0" || lower == "no" || lower == "off")
        return false;
    fatal(v->source, " = '", v->text, "' is not a boolean");
}

std::string
ParameterInput::getString(const std::string& block, const std::string& key,
                          const std::string& default_value) const
{
    const std::optional<Resolved> v = resolve(values_, block, key);
    return v ? v->text : default_value;
}

} // namespace vibe
