#include "util/env.hpp"

#include <cstdlib>
#include <exception>

#include "util/logging.hpp"

namespace vibe {

std::string
envString(const char* name)
{
    const char* value = std::getenv(name);
    return value ? std::string(value) : std::string();
}

std::int64_t
envInt64(const char* name, std::int64_t fallback)
{
    const std::string value = envString(name);
    if (value.empty())
        return fallback;
    try {
        std::size_t pos = 0;
        const std::int64_t result = std::stoll(value, &pos);
        if (pos == value.size())
            return result;
    } catch (const std::exception&) {
    }
    fatal("environment variable ", name, " = '", value,
          "' is not an integer");
}

int
envInt(const char* name, int fallback, int min_value)
{
    const std::int64_t value = envInt64(name, fallback);
    if (value < min_value || value > INT_MAX)
        fatal("environment variable ", name, " = ", value,
              " is out of range [", min_value, ", ", INT_MAX, "]");
    return static_cast<int>(value);
}

} // namespace vibe
