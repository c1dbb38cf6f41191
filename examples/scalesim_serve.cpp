/**
 * @file
 * scalesim_serve: the sweep-as-a-service front end. Speaks
 * newline-delimited JSON over stdin/stdout (see serve/server.hpp for
 * the protocol) and keeps a content-addressed per-layer result cache
 * across requests, optionally persisted to disk. Bridge to a Unix
 * socket with e.g.
 *
 *   socat UNIX-LISTEN:/tmp/scalesim.sock,fork EXEC:"scalesim_serve"
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "serve/server.hpp"

using namespace scalesim;

namespace
{

void
usage()
{
    std::cerr <<
        "usage: scalesim_serve [-c config.cfg] [--cache-file PATH]\n"
        "                      [--cache-budget-mb N] [--jobs N]\n"
        "  -c                base INI config; per-request \"config\"\n"
        "                    overlays apply on top\n"
        "  --cache-file      persist the layer-result cache to PATH\n"
        "                    (loaded at startup, saved at shutdown)\n"
        "  --cache-budget-mb LRU byte budget for the cache in MiB\n"
        "                    (0 = unlimited, the default)\n"
        "  --jobs            default worker threads for sweep\n"
        "                    requests that do not specify \"jobs\"\n"
        "Reads one JSON request per line from stdin, writes one JSON\n"
        "response per line to stdout; exits on EOF or a shutdown\n"
        "request.\n";
}

} // namespace

int
main(int argc, char** argv)
{
    serve::Server::Options options;
    std::string base_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        // A count that is not a plain decimal up to `max` is a usage
        // error, never a wrapped or defaulted value.
        auto count = [&](std::uint64_t max) {
            std::uint64_t value = 0;
            if (parseUint64(next(), value) != NumberParse::Ok
                || value > max) {
                usage();
                std::exit(1);
            }
            return value;
        };
        if (arg == "-c") {
            base_path = next();
        } else if (arg == "--cache-file") {
            options.cacheFile = next();
        } else if (arg == "--cache-budget-mb") {
            options.cacheBudgetBytes =
                count(std::numeric_limits<std::uint64_t>::max() >> 20)
                << 20;
        } else if (arg == "--jobs") {
            options.defaultJobs = static_cast<unsigned>(
                count(std::numeric_limits<unsigned>::max()));
        } else {
            usage();
            return arg == "-h" || arg == "--help" ? 0 : 1;
        }
    }
    try {
        if (!base_path.empty()) {
            options.baseConfig = IniFile::load(base_path);
            // A bad base config fails here, not on every request.
            (void)SimConfig::fromIni(options.baseConfig);
        }
        serve::Server server(std::move(options));
        return server.serve(std::cin, std::cout);
    } catch (const FatalError& e) {
        std::cerr << "scalesim_serve: " << e.what() << "\n";
        return 1;
    }
}
