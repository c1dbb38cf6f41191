/**
 * @file
 * Chrome trace-event (Perfetto-compatible) timeline builder. Collects
 * duration spans ("X" events), counter tracks ("C" events) and
 * process/thread metadata, then serializes the JSON object format
 * ({"traceEvents": [...]}) that chrome://tracing and ui.perfetto.dev
 * load directly. Timestamps are in trace microseconds; the simulator
 * maps one accelerator cycle to one microsecond and records the
 * convention in the trace's `otherData`.
 */

#ifndef SCALESIM_OBS_TRACE_HH
#define SCALESIM_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace scalesim::obs
{

/** Builds an in-memory event list; write() serializes it. */
class TraceBuilder
{
  public:
    /** Name a process track (pid row in the viewer). */
    void setProcessName(std::uint32_t pid, std::string_view name);

    /** Name a thread track within a process. */
    void setThreadName(std::uint32_t pid, std::uint32_t tid,
                       std::string_view name);

    /**
     * Add a complete-duration span. `args` are optional key/value
     * details shown when the span is selected.
     */
    void addSpan(std::uint32_t pid, std::uint32_t tid,
                 std::string_view name, std::string_view category,
                 std::uint64_t ts, std::uint64_t dur,
                 std::vector<std::pair<std::string, double>> args = {});

    /** Add one sample of a counter track. */
    void addCounter(std::uint32_t pid, std::string_view track,
                    std::uint64_t ts, std::string_view series,
                    double value);

    /** Free-form metadata recorded under the trace's `otherData`. */
    void addMetadata(std::string_view key, std::string_view value);

    /** Serialize as a Chrome trace JSON object. */
    void write(std::ostream& out) const;

  private:
    struct Event
    {
        char phase;             ///< 'X', 'C', or 'M'
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        std::string name;
        std::string category;
        std::uint64_t ts = 0;
        std::uint64_t dur = 0;
        /** Span details, counter series, or metadata payload. */
        std::vector<std::pair<std::string, double>> args;
        std::string stringArg; ///< metadata name payload
    };

    std::vector<Event> events_;
    std::vector<std::pair<std::string, std::string>> otherData_;
};

} // namespace scalesim::obs

#endif // SCALESIM_OBS_TRACE_HH
