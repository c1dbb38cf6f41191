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
#include <string>

#include "common/config.hpp"
#include "common/log.hpp"
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
        if (arg == "-c") {
            base_path = next();
        } else if (arg == "--cache-file") {
            options.cacheFile = next();
        } else if (arg == "--cache-budget-mb") {
            options.cacheBudgetBytes =
                std::strtoull(next().c_str(), nullptr, 10)
                * 1024 * 1024;
        } else if (arg == "--jobs") {
            options.defaultJobs = static_cast<unsigned>(
                std::strtoul(next().c_str(), nullptr, 10));
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
