/**
 * @file
 * libFuzzer harness for the INI config front-end: feeds arbitrary
 * bytes through IniFile::parseString, SimConfig::fromIni and
 * SimConfig::validate. Any outcome other than a valid config or a
 * clean FatalError (crash, UB caught by ASan/UBSan, uncaught
 * exception) is a finding.
 */

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "common/log.hpp"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    scalesim::setQuiet(true);
    const std::string text(reinterpret_cast<const char*>(data), size);
    try {
        const scalesim::SimConfig cfg = scalesim::SimConfig::fromIni(
            scalesim::IniFile::parseString(text, "fuzz.cfg"));
        cfg.validate();
    } catch (const scalesim::FatalError&) {
        // Malformed input rejected with a clean diagnostic: expected.
    }
    return 0;
}
