/**
 * @file
 * Shared machinery of the end-to-end DSE-sweep benchmark (`dse_bench`).
 *
 * The benchmark drives the library only through its public calls. This
 * header holds what all three workloads share: the fixed DSE grid, the
 * seeded kernel inputs with their interpreter references, the timed
 * per-cell check (validate, power, simulate), set-up timing, process
 * probes (CPU time, peak RSS, VmSize, allocation counts), registry-counter
 * deltas, per-pass recording, sample statistics, and the result record
 * `dse_bench` prints as JSON.
 *
 * Layer spans: every public call the benchmark makes is wrapped in a
 * trace span whose category names the layer (`exec`, `service`,
 * `codec`, `validate`, `power`, `sim`, `kernels`). With no session
 * active the spans cost one relaxed load each, so untraced runs are
 * unaffected; run.py turns the traced run's spans into the per-layer
 * table.
 */
#ifndef DSEBENCH_HARNESS_HPP
#define DSEBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfg/interpreter.hpp"
#include "exec/experiment_runner.hpp"
#include "kernels/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace dsebench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `start`. */
double msSince(Clock::time_point start);

/** @name Process probes */
///@{
/** User + system CPU time of the whole process (all threads), ms. */
double processCpuMs();
/** Peak resident set size of the process, MB (getrusage). */
double peakRssMb();
/** Current virtual size of the process, MB (/proc/self/status). */
double vmSizeMb();
/** Operator-new calls and bytes since process start (all threads). */
struct AllocCount
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};
AllocCount allocCount();
///@}

/** Registry counters the benchmark reports, snapshotted around a pass. */
class CounterDelta
{
  public:
    CounterDelta();
    /** Counter growth since construction, by registry name. */
    std::uint64_t operator[](const std::string &name) const;

  private:
    std::map<std::string, std::uint64_t> start;
};

/** @name The DSE grid: 21 kernels x unroll {1, 2} x 7 fabrics */
///@{
/** Every grid cell, default ICED MapperOptions, kernel outermost. */
std::vector<iced::JobSpec> dseGrid();
/** "gemm x2 6x6/2x2" — for failure messages. */
std::string describeCell(const iced::JobSpec &spec);
///@}

/**
 * Seeded inputs of one (kernel, unroll) pair: the memory image and
 * iteration count drawn from the workload seed, and the interpreter's
 * result on them (the correctness reference, computed outside every
 * timed path).
 */
struct KernelInput
{
    iced::Dfg dfg;
    std::vector<std::int64_t> memory;
    int iterations = 0;
    iced::InterpResult reference;
};

/** Inputs of every (kernel, unroll) pair of the grid. */
class GridInputs
{
  public:
    /** Draw every memory image from `seed`; time the interpreter. */
    explicit GridInputs(std::uint64_t seed);

    const KernelInput &of(const iced::JobSpec &spec) const;
    /** Wall ms spent in `interpretDfg` while building the references. */
    double interpMs() const { return interpMillis; }
    /** FNV-1a over every memory image (the seeded part of the input). */
    std::uint64_t memoryDigest() const;

  private:
    std::map<std::pair<std::string, int>, KernelInput> inputs;
    double interpMillis = 0.0;
};

/** Time spent per stage of the client-side check, summed over cells. */
struct StageTimes
{
    double validateMs = 0.0;
    double powerMs = 0.0;
    double simMs = 0.0;
    double decodeMs = 0.0;
    double buildMs = 0.0;
};

/** Outcome of the timed per-cell check (validate, power, simulate). */
struct CellEval
{
    int ii = 0;
    double totalMw = 0.0;
    iced::SimResult sim;
    std::string error; ///< non-empty when a step threw
};

/**
 * The timed steps 2-4 of a sweep cell: `validateMapping`,
 * `evaluateIced`, and `simulate` on the kernel's seeded image. Each
 * step runs inside its layer's trace span and is added to `times`.
 */
CellEval evaluateCell(const iced::Mapping &mapping, const KernelInput &input,
                      StageTimes &times);

/** Simulated outputs and scratchpad prefix equal the interpreter's. */
bool matchesReference(const iced::SimResult &sim,
                      const iced::InterpResult &reference);

/** @name Sample statistics */
///@{
double median(std::vector<double> values);
/** Linear-interpolated percentile, `p` in [0, 100]. */
double percentile(std::vector<double> values, double p);
///@}

/** Pin the calling thread to the `rep`-th allowed CPU (round robin). */
void pinForRep(int rep);
/** Undo `pinForRep`: the calling thread may use every allowed CPU. */
void unpin();

/**
 * Set-up time, s: the median of `reps` calls of `setup`. The calls
 * rotate over the CPUs the process may use (the calling thread, and any
 * thread it starts, is pinned to each in turn, then released), so one
 * CPU that a noisy neighbour slows cannot set the figure.
 */
template <typename Fn>
double
timeSetup(int reps, Fn &&setup)
{
    std::vector<double> seconds;
    for (int rep = 0; rep < reps; ++rep) {
        pinForRep(rep);
        const auto start = Clock::now();
        setup();
        seconds.push_back(msSince(start) / 1e3);
    }
    unpin();
    return median(seconds);
}

/** Deterministic quality of a grid's mappings (the three guard metrics). */
struct Quality
{
    double iiSum = 0.0;
    double logMwIiSum = 0.0;
    long simCycles = 0;
    int cells = 0;

    void add(const CellEval &eval);
    double iiMean() const;
    double mwIiGeomean() const;
};

/**
 * What one run reports: correctness tallies, metrics (name -> value,
 * unit), and context values printed on their own line for run.py.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void context(const std::string &name, double value);
    void contextText(const std::string &name, const std::string &value);

    /** Count one op; `failure` non-empty marks it failed (and logs). */
    void op(const std::string &failure = {});
    /** A correctness mismatch outside any op (fails the run). */
    void mismatch(const std::string &what);

    std::uint64_t attempted() const { return nAttempted; }
    std::uint64_t failed() const { return nFailed; }
    bool correct() const { return nFailed == 0 && nMismatch == 0; }

    /** Print the context line, then the result line (last on stdout). */
    void print() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics;
    std::map<std::string, std::string> contextValues;
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
    std::uint64_t nMismatch = 0;
    int logged = 0;
};

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace output path (trace runs). */
    std::string traceOut = "trace.json";
    /** Directory for stores and sockets (created, emptied at exit). */
    std::string workDir = "work";
    /** The session traced passes record into (trace runs only). */
    iced::TraceSession *session = nullptr;
};

/**
 * Paces a run's passes. The first pass is an unrecorded warm-up; then
 * passes repeat until `seconds` have elapsed (at least `minPasses`
 * recorded). In trace runs every second pass runs with the trace
 * session active: those passes give the per-layer table and, against
 * the untraced passes they alternate with, the tracing overhead — never
 * a reported end-to-end number. Workloads loop `while (clock.more())`
 * around one pass.
 */
class PassClock
{
  public:
    static constexpr int minPasses = 3;
    static constexpr int minTracedPasses = 2;

    explicit PassClock(const RunConfig &config);
    ~PassClock();

    PassClock(const PassClock &) = delete;
    PassClock &operator=(const PassClock &) = delete;

    /** True while another pass should run; starts tracing on cue. */
    bool more();
    /** Whether the pass in progress counts toward untraced results. */
    bool recording() const { return warmedUp && !tracingNow; }
    /** Record the wall time of the pass that just finished. */
    void finished(double pass_ms);
    const std::vector<double> &untracedMs() const { return plain; }
    const std::vector<double> &tracedMs() const { return traced; }

  private:
    void stopTracing();

    const RunConfig &cfg;
    iced::TraceSession *session;
    Clock::time_point begin;
    bool warmedUp = false;
    bool tracingNow = false;
    std::vector<double> plain;
    std::vector<double> traced;
};

/**
 * Per-pass values of one run, by metric name with its unit. The run
 * reports each as its median over the recorded passes, so a host
 * slowdown during a minority of passes does not move it.
 */
class PassStats
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    /**
     * One pass's latency samples, kept as that pass's percentiles (the
     * median over passes is reported, as for every other value).
     */
    void addLatencies(const std::vector<double> &hit_ms,
                      const std::vector<double> &miss_ms);
    double med(const std::string &name) const;
    /** Report every value's median, then the sample counts as context. */
    void report(Report &report) const;

  private:
    struct Series
    {
        std::string unit;
        std::vector<double> values;
    };
    std::map<std::string, Series> series;
    std::size_t hitSamples = 0;
    std::size_t missSamples = 0;
};

/** Process-wide sample points taken at the start of a timed pass. */
struct PassProbe
{
    CounterDelta counters;
    AllocCount allocs = allocCount();
    double cpuMs = processCpuMs();
    Clock::time_point start = Clock::now();
};

/**
 * Record what every workload measures over one pass of `ops` ops: the
 * registry and allocation counters, the per-stage times, throughput,
 * process CPU per op, VmSize growth since `vm_base_mb` and, when the
 * pass opened connections, the VmSize each one cost.
 */
void recordPass(PassStats &st, const PassProbe &probe,
                const StageTimes &times, double ops, double pass_ms,
                double vm_base_mb);

/**
 * Report a finished run: every per-pass median, the set-up time, peak
 * RSS, the quality metrics, the failed-op share, and the pass counts
 * (with the tracing overhead when some passes were traced).
 */
void reportRun(Report &report, const PassStats &st, const PassClock &clock,
               double setup_s, const Quality &quality);

/** @name Workloads (workloads.cpp) */
///@{
void runSweepCold(const RunConfig &config, Report &report);
void runSweepWarm(const RunConfig &config, Report &report);
void runMapInteractive(const RunConfig &config, Report &report);
///@}

/**
 * Host calibration: wall ms for 1, 2 and 4 threads to each spin the
 * same fixed loop, recorded as run context (a parallel speedup counts
 * only where this scales).
 */
void recordSpinCalibration(Report &report);

} // namespace dsebench

#endif // DSEBENCH_HARNESS_HPP
