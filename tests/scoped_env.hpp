/**
 * @file scoped_env.hpp
 * Test helper: set (or unset) an environment variable for one scope
 * and restore the previous value on exit, so env-knob tests do not
 * leak into the rest of the binary or clobber a CI matrix setting.
 */
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace vibe {

class ScopedEnv
{
  public:
    /** Set `name` to `value`, or unset it when `value` is null. */
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name))
            saved_ = old;
        set(value);
    }
    ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

    void
    set(const char* value)
    {
        if (value)
            setenv(name_.c_str(), value, 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::optional<std::string> saved_;
};

} // namespace vibe
