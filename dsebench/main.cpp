/**
 * @file
 * `dse_bench`: one run of one workload of the end-to-end DSE-sweep
 * benchmark. run.py builds this binary and invokes it; README.md in this
 * directory describes the workloads and every metric.
 *
 *   dse_bench --workload sweep-cold|sweep-warm|map-interactive
 *             --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--work-dir DIR]
 *
 * Prints a context line and then the result line (one JSON object,
 * always last on stdout). Exit status: 0 when every check passed, 1 on
 * a correctness mismatch, 2 on a usage or setup error (no result line).
 */
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <optional>

#include "common/logging.hpp"
#include "harness.hpp"

using namespace dsebench;

namespace {

int
usage(const std::string &why)
{
    std::cerr << "dse_bench: " << why
              << "\nusage: dse_bench --workload sweep-cold|sweep-warm|"
                 "map-interactive --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--work-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    iced::setInformEnabled(false);
    RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            config.workload = value;
        else if (arg == "--seed")
            config.seed = std::stoull(value);
        else if (arg == "--seconds")
            config.seconds = std::stod(value);
        else if (arg == "--trace")
            config.trace = value == "1";
        else if (arg == "--trace-out")
            config.traceOut = std::filesystem::absolute(value).string();
        else if (arg == "--work-dir")
            config.workDir = value;
        else
            return usage("unknown argument " + arg);
    }
    void (*workload)(const RunConfig &, Report &) = nullptr;
    if (config.workload == "sweep-cold")
        workload = runSweepCold;
    else if (config.workload == "sweep-warm")
        workload = runSweepWarm;
    else if (config.workload == "map-interactive")
        workload = runMapInteractive;
    else
        return usage("unknown workload '" + config.workload + "'");

    // Stores and sockets live in the work directory; relative socket
    // paths keep them under the Unix-socket path limit.
    const std::filesystem::path home = std::filesystem::current_path();
    const std::filesystem::path work =
        std::filesystem::absolute(config.workDir);
    std::filesystem::remove_all(work);
    std::filesystem::create_directories(work);
    std::filesystem::current_path(work);

    iced::TraceSession::setThreadName("bench/main");
    std::optional<iced::TraceSession> session;
    if (config.trace) {
        session.emplace();
        config.session = &*session;
    }

    Report report;
    int status = 0;
    try {
        if (config.trace)
            recordSpinCalibration(report);
        workload(config, report);
        if (session && !session->writeFile(config.traceOut)) {
            std::cerr << "dse_bench: cannot write " << config.traceOut
                      << "\n";
            status = 2;
        }
    } catch (const std::exception &err) {
        std::cerr << "dse_bench: " << config.workload
                  << " aborted: " << err.what() << "\n";
        status = 2;
    }
    std::filesystem::current_path(home);
    std::filesystem::remove_all(work);
    if (status != 0)
        return status;
    report.print();
    return report.correct() ? 0 : 1;
}
