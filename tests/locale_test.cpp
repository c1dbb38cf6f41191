/**
 * @file
 * Locale-independence regression tests. IniFile::get<double> and the
 * JSON reader used to parse numbers with std::strtod, which honors
 * LC_NUMERIC: under a comma-decimal locale (de_DE and friends),
 * "0.125" silently truncated to 0 and sweep configs went wrong
 * without any error. Both now route through scalesim::parseDouble
 * (std::from_chars, locale-free by specification); these tests pin
 * the parser's contract and re-run the original failure under a
 * comma-decimal locale when the container has one installed.
 */

#include <clocale>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "obs/json_read.hpp"

using namespace scalesim;

namespace
{

double
parsed(const std::string& text)
{
    double value = 0.0;
    EXPECT_EQ(parseDouble(text, value), NumberParse::Ok) << text;
    return value;
}

/**
 * Switch LC_NUMERIC to a comma-decimal locale for the test's scope.
 * installed() is false when the container has none of the candidates
 * (minimal images often ship only C/POSIX) — callers GTEST_SKIP then.
 */
class CommaLocale
{
  public:
    CommaLocale()
    {
        const char* saved = std::setlocale(LC_NUMERIC, nullptr);
        saved_ = saved ? saved : "C";
        for (const char* name :
             {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
              "fr_FR.utf8", "it_IT.UTF-8", "nl_NL.UTF-8"}) {
            if (std::setlocale(LC_NUMERIC, name) != nullptr
                && std::string(std::localeconv()->decimal_point)
                       == ",") {
                installed_ = true;
                return;
            }
        }
        std::setlocale(LC_NUMERIC, saved_.c_str());
    }

    ~CommaLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }

    bool installed() const { return installed_; }

  private:
    std::string saved_;
    bool installed_ = false;
};

} // namespace

TEST(ParseDouble, AcceptsPlainNumbers)
{
    EXPECT_DOUBLE_EQ(parsed("1.5"), 1.5);
    EXPECT_DOUBLE_EQ(parsed("-2e3"), -2000.0);
    EXPECT_DOUBLE_EQ(parsed("0.125"), 0.125);
    EXPECT_DOUBLE_EQ(parsed(".5"), 0.5);
    EXPECT_DOUBLE_EQ(parsed("42"), 42.0);
    // JSON-style leading '+' (strtod accepted it; keep accepting).
    EXPECT_DOUBLE_EQ(parsed("+1.5"), 1.5);
}

TEST(ParseDouble, RejectsGarbage)
{
    double value = 0.0;
    EXPECT_EQ(parseDouble("", value), NumberParse::Bad);
    EXPECT_EQ(parseDouble("abc", value), NumberParse::Bad);
    EXPECT_EQ(parseDouble("1.5x", value), NumberParse::Bad);
    EXPECT_EQ(parseDouble("1.5 ", value), NumberParse::Bad);
    EXPECT_EQ(parseDouble("++1", value), NumberParse::Bad);
    EXPECT_EQ(parseDouble("+-1", value), NumberParse::Bad);
    // Comma is never a decimal separator, in any locale.
    EXPECT_EQ(parseDouble("0,5", value), NumberParse::Bad);
}

TEST(ParseDouble, SaturatesOutOfRange)
{
    double value = 0.0;
    EXPECT_EQ(parseDouble("1e999", value), NumberParse::OutOfRange);
    EXPECT_TRUE(std::isinf(value) && value > 0.0);
    EXPECT_EQ(parseDouble("-1e999", value), NumberParse::OutOfRange);
    EXPECT_TRUE(std::isinf(value) && value < 0.0);
}

TEST(LocaleRegression, IniDoubleUnderCommaLocale)
{
    CommaLocale locale;
    if (!locale.installed())
        GTEST_SKIP() << "no comma-decimal locale installed";
    const IniFile ini = IniFile::parseString(
        "[energy]\nfrequency_ghz = 0.125\n[memory]\nscale = -2.5e-1\n");
    // strtod would have stopped at the '.' here and returned 0 / -2.
    EXPECT_DOUBLE_EQ(ini.get<double>("energy", "frequency_ghz"), 0.125);
    EXPECT_DOUBLE_EQ(ini.get<double>("memory", "scale"), -0.25);
}

TEST(LocaleRegression, IniDoubleStillRejectsCommaValue)
{
    CommaLocale locale;
    if (!locale.installed())
        GTEST_SKIP() << "no comma-decimal locale installed";
    // Under de_DE strtod would happily parse "0,125" as 0.125 — a
    // config that only works on one machine. It must stay an error.
    const IniFile ini =
        IniFile::parseString("[energy]\nfrequency_ghz = 0,125\n");
    EXPECT_THROW(ini.get<double>("energy", "frequency_ghz"), FatalError);
}

TEST(LocaleRegression, JsonNumbersUnderCommaLocale)
{
    CommaLocale locale;
    if (!locale.installed())
        GTEST_SKIP() << "no comma-decimal locale installed";
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(
        R"({"x": 0.125, "y": -3.5e-1, "z": 2})", doc));
    EXPECT_DOUBLE_EQ(doc.numberAt("x"), 0.125);
    EXPECT_DOUBLE_EQ(doc.numberAt("y"), -0.35);
    EXPECT_DOUBLE_EQ(doc.numberAt("z"), 2.0);
}
