/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: aligned
 * table printing and simple timers. Each bench regenerates one table
 * or figure of the SCALE-Sim v3 paper and prints the rows/series the
 * paper reports; EXPERIMENTS.md records paper-vs-measured shape.
 */

#ifndef SCALESIM_BENCH_UTIL_HH
#define SCALESIM_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace benchutil
{

/** Fixed-width row printer: pass pre-formatted cells. */
class Table
{
  public:
    explicit Table(std::vector<int> widths) : widths_(std::move(widths))
    {}

    void
    row(const std::vector<std::string>& cells) const
    {
        std::string line;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::string cell = cells[i];
            const int width = i < widths_.size()
                ? widths_[i] : 12;
            if (static_cast<int>(cell.size()) < width)
                cell.resize(static_cast<std::size_t>(width), ' ');
            line += cell;
            line += "  ";
        }
        std::printf("%s\n", line.c_str());
    }

    void
    rule() const
    {
        int total = 0;
        for (int w : widths_)
            total += w + 2;
        std::printf("%s\n", std::string(
            static_cast<std::size_t>(total), '-').c_str());
    }

  private:
    std::vector<int> widths_;
};

inline std::string
fmt(const char* pattern, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), pattern, value);
    return buf;
}

inline std::string
num(std::uint64_t value)
{
    return std::to_string(value);
}

/** Wall-clock timer in seconds. */
class Timer
{
  public:
    Timer() : start_(clock::now()) {}
    double
    seconds() const
    {
        return std::chrono::duration<double>(clock::now() - start_)
            .count();
    }
    void reset() { start_ = clock::now(); }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

} // namespace benchutil

#endif // SCALESIM_BENCH_UTIL_HH
