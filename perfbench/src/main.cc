/**
 * @file
 * perfbench: one process runs one workload and prints one JSON line.
 *
 *   perfbench --workload orchestrate --seed 11 --seconds 10 [--trace]
 *             [--tiny]
 *
 * run.py builds this binary, runs it and turns the line into the
 * benchmark's report.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "train|orchestrate|serve|rack --seed N --seconds S "
                 "[--trace] [--tiny]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            options.trace = true;
        else if (arg == "--tiny")
            options.tiny = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (!perfbench::knownWorkload(options.workload))
        usage("unknown workload");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");

    try {
        const perfbench::Report report = perfbench::runWorkload(options);
        std::printf("%s\n", report
                                .json(options.workload, options.seed,
                                      options.trace)
                                .c_str());
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
    return 0;
}
