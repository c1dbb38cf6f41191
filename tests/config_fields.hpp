/**
 * @file
 * Test helpers generated from walkConfigFields: the number of SimConfig
 * fields, and a copy of a config with one field (or all of them) moved
 * to another value that fromIni still accepts. Tests that walk these
 * cover every field the table describes, including fields added later.
 */

#ifndef SCALESIM_TESTS_CONFIG_FIELDS_HH
#define SCALESIM_TESTS_CONFIG_FIELDS_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/config.hpp"

namespace configfields
{

using scalesim::ConfigField;
using scalesim::SimConfig;

/** Number of entries in walkConfigFields. */
inline std::size_t
count()
{
    const SimConfig cfg;
    std::size_t n = 0;
    scalesim::walkConfigFields(
        cfg, [&](const ConfigField&, const auto&) { ++n; });
    return n;
}

/** Move `value` to a different value of its field that parses. */
template <typename T>
void
perturb(const ConfigField& f, T& value)
{
    if constexpr (std::is_same_v<T, bool>) {
        value = !value;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!f.spellings) {
            value += "x";
            return;
        }
        // The first accepted spelling other than the current one.
        std::string_view rest = f.spellings;
        while (rest.substr(0, rest.find('|')) == value)
            rest.remove_prefix(rest.find('|') + 1);
        value = std::string(rest.substr(0, rest.find('|')));
    } else if constexpr (std::is_enum_v<T>) {
        // Every enumerated field has at least two values, 0 and 1.
        value = static_cast<T>(static_cast<int>(value) ^ 1);
    } else {
        value += 1;
    }
}

/**
 * `base` with entry `index` perturbed (every entry when `index` is
 * count()); `changed` receives that entry's names and flags.
 */
inline SimConfig
perturbed(const SimConfig& base, std::size_t index,
          ConfigField* changed = nullptr)
{
    SimConfig cfg = base;
    const bool all = index == count();
    std::size_t at = 0;
    scalesim::walkConfigFields(cfg, [&](const ConfigField& f,
                                        auto& value) {
        if (all || at == index) {
            perturb(f, value);
            if (changed) {
                *changed = f;
                changed->gate = nullptr; // pointed into the local copy
            }
        }
        ++at;
    });
    return cfg;
}

} // namespace configfields

#endif // SCALESIM_TESTS_CONFIG_FIELDS_HH
