#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"

namespace scalesim
{

namespace
{

std::string
canonical(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == ' ' || c == '_' || c == '\t')
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

/** Is `text` one of the '|'-separated `spellings`, canonically? */
bool
spelledAs(const char* spellings, const std::string& text)
{
    std::istringstream list(spellings);
    for (std::string one; std::getline(list, one, '|');) {
        if (canonical(one) == canonical(text))
            return true;
    }
    return false;
}

} // namespace

IniFile
IniFile::parseString(const std::string& text, const std::string& name)
{
    IniFile ini;
    ini.name_ = name;
    std::istringstream in(text);
    std::string line;
    std::string section = "general";
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == ';')
            continue;
        if (trimmed.front() == '[') {
            auto close = trimmed.find(']');
            if (close == std::string::npos)
                fatal("%s:%d: unterminated section header",
                      name.c_str(), line_no);
            section = trim(trimmed.substr(1, close - 1));
            continue;
        }
        auto eq = trimmed.find('=');
        if (eq == std::string::npos) {
            // SCALE-Sim cfg also allows "key : value".
            eq = trimmed.find(':');
        }
        if (eq == std::string::npos)
            fatal("%s:%d: expected key = value", name.c_str(), line_no);
        std::string key = trim(trimmed.substr(0, eq));
        std::string value = trim(trimmed.substr(eq + 1));
        if (key.empty())
            fatal("%s:%d: empty key", name.c_str(), line_no);
        Entry& entry = ini.sections_[canonical(section)][canonical(key)];
        entry = Entry{std::move(value), line_no, section, std::move(key)};
    }
    return ini;
}

IniFile
IniFile::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file: %s", path.c_str());
    std::stringstream buffer;
    buffer << in.rdbuf();
    return parseString(buffer.str(), path);
}

void
IniFile::set(std::string_view section, std::string_view key,
             const std::string& value)
{
    sections_[canonical(section)][canonical(key)] =
        Entry{value, 0, std::string(section), std::string(key)};
}

std::size_t
IniFile::size() const
{
    std::size_t entries = 0;
    for (const auto& [section, keys] : sections_)
        entries += keys.size();
    return entries;
}

const IniFile::Entry*
IniFile::find(std::string_view section, std::string_view key) const
{
    auto sec = sections_.find(canonical(section));
    if (sec == sections_.end())
        return nullptr;
    auto it = sec->second.find(canonical(key));
    return it == sec->second.end() ? nullptr : &it->second;
}

std::string
IniFile::where(const Entry& entry) const
{
    return entry.line > 0 ? format("%s:%d", name_.c_str(), entry.line)
                          : name_ + " (overlay)";
}

void
IniFile::badValue(std::string_view section, std::string_view key,
                  const std::string& what) const
{
    const Entry& entry = *find(section, key);
    fatal("%s: %.*s.%.*s: '%s' %s", where(entry).c_str(),
          static_cast<int>(section.size()), section.data(),
          static_cast<int>(key.size()), key.data(), entry.value.c_str(),
          what.c_str());
}

void
IniFile::rejectUnknown(
    const std::vector<std::pair<const char*, const char*>>& known) const
{
    std::set<std::pair<std::string, std::string>> names;
    for (const auto& [section, key] : known)
        names.emplace(canonical(section), canonical(key));
    for (const auto& [section, keys] : sections_) {
        for (const auto& [key, entry] : keys) {
            if (!names.count({section, key}))
                fatal("%s: %s.%s: unknown config key", where(entry).c_str(),
                      entry.section.c_str(), entry.key.c_str());
        }
    }
}

bool
IniFile::has(std::string_view section, std::string_view key) const
{
    return find(section, key) != nullptr;
}

template <typename T>
bool
IniFile::read(std::string_view section, std::string_view key,
              T& value) const
{
    const Entry* entry = find(section, key);
    if (!entry)
        return false;
    const std::string& raw = entry->value;
    if constexpr (std::is_same_v<T, std::string>) {
        value = raw;
    } else if (raw.empty()) {
        return true;
    } else if constexpr (std::is_same_v<T, bool>) {
        const std::string c = canonical(raw);
        const bool on = c == "true" || c == "1" || c == "yes" || c == "on";
        if (!on && c != "false" && c != "0" && c != "no" && c != "off")
            badValue(section, key, "is not a boolean");
        value = on;
    } else if constexpr (std::is_same_v<T, double>) {
        switch (parseDouble(raw, value)) {
          case NumberParse::Ok:
            break;
          case NumberParse::Bad:
            badValue(section, key, "is not a number");
          case NumberParse::OutOfRange:
            badValue(section, key, "is out of double range");
        }
    } else {
        char* end = nullptr;
        errno = 0;
        const std::int64_t parsed = std::strtoll(raw.c_str(), &end, 0);
        if (end == raw.c_str() || *end != '\0')
            badValue(section, key, "is not an integer");
        if (errno == ERANGE)
            badValue(section, key, "overflows a 64-bit integer");
        constexpr int digits = std::numeric_limits<T>::digits;
        if (std::is_unsigned_v<T> && parsed < 0)
            badValue(section, key, "must not be negative");
        if constexpr (digits < 63) {
            if (parsed >> digits != 0)
                badValue(section, key,
                         format("overflows a %d-bit integer", digits));
        }
        value = static_cast<T>(parsed);
    }
    return true;
}

// read() serves these types: every SimConfig field type and int64.
using Key = std::string_view;
template bool IniFile::read(Key, Key, bool&) const;
template bool IniFile::read(Key, Key, std::int64_t&) const;
template bool IniFile::read(Key, Key, std::uint32_t&) const;
template bool IniFile::read(Key, Key, std::uint64_t&) const;
template bool IniFile::read(Key, Key, double&) const;
template bool IniFile::read(Key, Key, std::string&) const;

std::string
toString(SparseRep rep)
{
    switch (rep) {
      case SparseRep::Dense: return "dense";
      case SparseRep::Csr: return "csr";
      case SparseRep::Csc: return "csc";
      case SparseRep::EllpackBlock: return "ellpack_block";
    }
    return "dense";
}

SparseRep
sparseRepFromString(std::string_view text)
{
    std::string c = canonical(text);
    if (c == "dense")
        return SparseRep::Dense;
    if (c == "csr")
        return SparseRep::Csr;
    if (c == "csc")
        return SparseRep::Csc;
    if (c == "ellpackblock" || c == "blockedellpack" || c == "ellpack")
        return SparseRep::EllpackBlock;
    throw std::invalid_argument("unknown sparse representation: "
                                + std::string(text));
}

SimMode
simModeFromString(std::string_view text)
{
    const std::string c = canonical(text);
    if (c == "trace")
        return SimMode::Trace;
    if (c == "analytical")
        return SimMode::Analytical;
    throw std::invalid_argument("unknown mode: " + std::string(text));
}

SimConfig
SimConfig::fromIni(const IniFile& ini)
{
    SimConfig cfg;
    std::size_t named = 0;
    walkConfigFields(cfg, [&](const ConfigField& f, auto& value) {
        using T = std::decay_t<decltype(value)>;
        const auto misspelled = [&] {
            ini.badValue(f.section, f.key,
                         format("is not one of %s", f.spellings));
        };
        if constexpr (!std::is_enum_v<T>) {
            if (!ini.read(f.section, f.key, value))
                return;
            ++named;
            if constexpr (std::is_same_v<T, std::string>) {
                if (f.spellings && !spelledAs(f.spellings, value))
                    misspelled();
            }
        } else {
            std::string text;
            if (!ini.read(f.section, f.key, text))
                return;
            ++named;
            if (text.empty())
                return;
            try {
                if constexpr (std::is_same_v<T, Dataflow>)
                    value = dataflowFromString(text);
                else if constexpr (std::is_same_v<T, SparseRep>)
                    value = sparseRepFromString(text);
                else
                    value = simModeFromString(text);
            } catch (const std::invalid_argument&) {
                misspelled();
            }
        }
    });
    // Table keys are distinct, so fewer hits than entries means the
    // file holds an entry the table does not name.
    if (named != ini.size()) {
        std::vector<std::pair<const char*, const char*>> known;
        walkConfigFields(cfg, [&](const ConfigField& f, const auto&) {
            known.emplace_back(f.section, f.key);
        });
        ini.rejectUnknown(known);
    }
    return cfg;
}

void
SimConfig::validate() const
{
    walkConfigFields(*this, [](const ConfigField& f, const auto& value) {
        if constexpr (std::is_arithmetic_v<
                          std::decay_t<decltype(value)>>) {
            if (f.positive && (!f.gate || *f.gate) && !(value > 0))
                fatal("[%s] %s must be positive (got %g)", f.section,
                      f.key, static_cast<double>(value));
        }
    });
    // Operand regions must not overlap (addresses are word-granular
    // and region extents are workload-dependent, so require distinct,
    // ordered bases with generous gaps).
    if (memory.ifmapOffset >= memory.filterOffset
        || memory.filterOffset >= memory.ofmapOffset) {
        fatal("operand address regions must be ordered "
              "ifmap < filter < ofmap");
    }
    if (sparsity.optimizedMapping && sparsity.blockSize < 2)
        fatal("row-wise sparsity needs BlockSize >= 2 (got %u)",
              sparsity.blockSize);
    // fromIni checks the spelling; this catches configs built in code.
    if (canonical(multicore.engine) != "serial"
        && canonical(multicore.engine) != "epoch") {
        fatal("[multicore] Engine must be serial or epoch (got '%s')",
              multicore.engine.c_str());
    }
}

SimConfig
SimConfig::load(const std::string& path)
{
    return fromIni(IniFile::load(path));
}

SimConfig
SimConfig::tpuV2Like()
{
    // TPU-v2-ish tensor core: 128x128 MXU, large unified buffers.
    SimConfig cfg;
    cfg.runName = "tpu_v2_like";
    cfg.arrayRows = 128;
    cfg.arrayCols = 128;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.memory.ifmapSramKb = 6144;
    cfg.memory.filterSramKb = 6144;
    cfg.memory.ofmapSramKb = 2048;
    cfg.memory.bandwidthWordsPerCycle = 100.0;
    return cfg;
}

SimConfig
SimConfig::tpuMemoryStudy()
{
    // Section V-C: TPU configuration, 128-entry queues, DDR4-2400.
    SimConfig cfg = tpuV2Like();
    cfg.runName = "tpu_memory_study";
    cfg.dram.enabled = true;
    cfg.dram.tech = "DDR4_2400";
    cfg.dram.channels = 1;
    cfg.dram.readQueueSize = 128;
    cfg.dram.writeQueueSize = 128;
    return cfg;
}

} // namespace scalesim
