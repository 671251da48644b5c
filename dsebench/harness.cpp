#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <new>
#include <sstream>
#include <thread>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "mapper/validate.hpp"
#include "power/report.hpp"

// ---------------------------------------------------------------------
// Allocation counter: a process-wide operator-new interposer. Relaxed
// atomics — the counts are read only between passes, after every thread
// that allocated during the pass has handed its result back.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> allocCalls{0};
std::atomic<std::uint64_t> allocBytes{0};

void *
countedAlloc(std::size_t size)
{
    allocCalls.fetch_add(1, std::memory_order_relaxed);
    allocBytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    allocCalls.fetch_add(1, std::memory_order_relaxed);
    allocBytes.fetch_add(size, std::memory_order_relaxed);
    void *p = nullptr;
    const std::size_t a =
        std::max(sizeof(void *), static_cast<std::size_t>(align));
    if (posix_memalign(&p, a, size == 0 ? 1 : size) == 0)
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace dsebench {

using namespace iced;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
processCpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
vmSizeMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmSize:", 0) == 0)
            return std::strtod(line.c_str() + 7, nullptr) / 1024.0;
    }
    return 0.0;
}

AllocCount
allocCount()
{
    return {allocCalls.load(std::memory_order_relaxed),
            allocBytes.load(std::memory_order_relaxed)};
}

namespace {

/** Value of a global `MetricsRegistry` counter (created at 0 if new). */
std::uint64_t
registryCounter(const std::string &name)
{
    return MetricsRegistry::global().counter(name).value();
}

/** Registry counters a pass delta is taken of. */
const std::vector<std::string> &
trackedCounters()
{
    static const std::vector<std::string> names = {
        "mapper.attempts",        "mapper.attempts_mapped",
        "mapper.candidates",      "router.searches",
        "router.pruned_searches", "router.unbounded_reruns",
        "cache.memory.hits",      "cache.memory.misses",
        "cache.persistent.hits",  "cache.persistent.writes",
        "service.connections",    "sim.exec_cycles",
    };
    return names;
}

} // namespace

CounterDelta::CounterDelta()
{
    for (const std::string &name : trackedCounters())
        start[name] = registryCounter(name);
}

std::uint64_t
CounterDelta::operator[](const std::string &name) const
{
    const auto it = start.find(name);
    panicIfNot(it != start.end(), "dse_bench: untracked counter ", name);
    return registryCounter(name) - it->second;
}

namespace {

/** The seven `design_space_explorer` (fabric, island) points. */
std::vector<CgraConfig>
gridFabrics()
{
    std::vector<CgraConfig> fabrics;
    for (int size : {4, 6, 8}) {
        for (int island : {1, 2, 3}) {
            if (size % island != 0)
                continue;
            CgraConfig config;
            config.rows = size;
            config.cols = size;
            config.islandRows = island;
            config.islandCols = island;
            fabrics.push_back(config);
        }
    }
    return fabrics;
}

} // namespace

std::vector<JobSpec>
dseGrid()
{
    std::vector<std::string> kernels;
    for (const Kernel &k : kernelRegistry())
        kernels.push_back(k.name);
    return ExperimentRunner::makeGrid(kernels, {1, 2}, gridFabrics(),
                                      {{"iced", MapperOptions{}}});
}

std::string
describeCell(const JobSpec &spec)
{
    std::ostringstream os;
    os << spec.kernel << " x" << spec.unroll << " " << spec.fabric.rows
       << "x" << spec.fabric.cols << "/" << spec.fabric.islandRows << "x"
       << spec.fabric.islandCols;
    return os.str();
}

GridInputs::GridInputs(std::uint64_t seed)
{
    Rng rng(seed);
    for (const Kernel &kernel : kernelRegistry()) {
        // One image per kernel, shared by both unroll factors: the
        // unrolled DFG computes the same function over half the trips.
        const Workload w = kernel.workload(rng);
        for (int unroll : {1, 2}) {
            KernelInput in;
            in.dfg = kernel.build(unroll);
            in.memory = w.memory;
            in.iterations = unrolledIterations(w, unroll);
            const auto start = Clock::now();
            in.reference =
                interpretDfg(in.dfg, in.memory, in.iterations, false);
            interpMillis += msSince(start);
            inputs.emplace(std::make_pair(kernel.name, unroll),
                           std::move(in));
        }
    }
}

const KernelInput &
GridInputs::of(const JobSpec &spec) const
{
    const auto it = inputs.find({spec.kernel, spec.unroll});
    panicIfNot(it != inputs.end(), "dse_bench: no input for ",
               spec.kernel);
    return it->second;
}

std::uint64_t
GridInputs::memoryDigest() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &[key, in] : inputs)
        for (std::int64_t word : in.memory) {
            for (int b = 0; b < 8; ++b) {
                h ^= static_cast<std::uint64_t>(word >> (8 * b)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        }
    return h;
}

CellEval
evaluateCell(const Mapping &mapping, const KernelInput &input,
             StageTimes &times)
{
    static const PowerModel model;
    CellEval eval;
    try {
        auto t = Clock::now();
        {
            ICED_TRACE_SCOPE("validate", "validateMapping");
            validateMapping(mapping);
        }
        times.validateMs += msSince(t);
        t = Clock::now();
        {
            ICED_TRACE_SCOPE("power", "evaluateIced");
            const KernelEvaluation ke = evaluateIced(mapping, model);
            eval.ii = ke.ii;
            eval.totalMw = ke.power.totalMw;
        }
        times.powerMs += msSince(t);
        t = Clock::now();
        {
            ICED_TRACE_SCOPE("sim", "simulate");
            eval.sim = simulate(mapping, input.memory,
                                SimOptions{input.iterations});
        }
        times.simMs += msSince(t);
    } catch (const FatalError &err) {
        eval.error = err.what();
    }
    return eval;
}

bool
matchesReference(const SimResult &sim, const InterpResult &reference)
{
    return sim.outputs == reference.outputs &&
           sim.memory.size() >= reference.memory.size() &&
           std::equal(reference.memory.begin(), reference.memory.end(),
                      sim.memory.begin());
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/** The CPUs the process may use, as found on first call. */
const cpu_set_t &
allowedCpus()
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            CPU_ZERO(&set);
        return set;
    }();
    return allowed;
}

} // namespace

void
pinForRep(int rep)
{
    const cpu_set_t &allowed = allowedCpus();
    const int count = CPU_COUNT(&allowed);
    if (count == 0)
        return;
    int skip = rep % count;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || skip-- > 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        return;
    }
}

void
unpin()
{
    const cpu_set_t &allowed = allowedCpus();
    if (CPU_COUNT(&allowed) > 0)
        sched_setaffinity(0, sizeof(allowed), &allowed);
}

void
PassStats::add(const std::string &name, double value,
               const std::string &unit)
{
    Series &s = series[name];
    s.unit = unit;
    s.values.push_back(value);
}

void
PassStats::addLatencies(const std::vector<double> &hit_ms,
                        const std::vector<double> &miss_ms)
{
    add("map_hit_p50_ms", percentile(hit_ms, 50), "ms");
    add("map_hit_p99_ms", percentile(hit_ms, 99), "ms");
    add("map_miss_p50_ms", percentile(miss_ms, 50), "ms");
    add("map_miss_p90_ms", percentile(miss_ms, 90), "ms");
    hitSamples += hit_ms.size();
    missSamples += miss_ms.size();
}

double
PassStats::med(const std::string &name) const
{
    const auto it = series.find(name);
    return it == series.end() ? 0.0 : median(it->second.values);
}

void
PassStats::report(Report &report) const
{
    for (const auto &[name, s] : series)
        report.metric(name, median(s.values), s.unit);
    report.context("hit_samples", static_cast<double>(hitSamples));
    report.context("miss_samples", static_cast<double>(missSamples));
}

void
recordPass(PassStats &st, const PassProbe &probe, const StageTimes &times,
           double ops, double pass_ms, double vm_base_mb)
{
    const CounterDelta &d = probe.counters;
    const AllocCount allocs = allocCount();
    const auto count = [&](const char *metric, const char *counter) {
        st.add(metric, static_cast<double>(d[counter]), "count");
    };
    const double attempts = static_cast<double>(d["mapper.attempts"]);
    const double mapped = static_cast<double>(d["mapper.attempts_mapped"]);
    st.add("mapper.attempts", attempts, "count");
    st.add("mapper.attempts_failed", attempts - mapped, "count");
    st.add("mapper.useful_attempt_ratio",
           attempts == 0 ? 0.0 : mapped / attempts, "ratio");
    count("mapper.candidates", "mapper.candidates");
    count("router.searches", "router.searches");
    count("router.unbounded_reruns", "router.unbounded_reruns");
    count("router.pruned_searches", "router.pruned_searches");
    st.add("alloc.count",
           static_cast<double>(allocs.count - probe.allocs.count), "count");
    st.add("alloc.bytes",
           static_cast<double>(allocs.bytes - probe.allocs.bytes), "bytes");
    count("exec.cache.hits", "cache.memory.hits");
    count("exec.cache.misses", "cache.memory.misses");
    count("store.persistent_hits", "cache.persistent.hits");
    count("store.writes", "cache.persistent.writes");
    const double cycles = static_cast<double>(d["sim.exec_cycles"]);
    st.add("sim.exec_cycles", cycles, "cycles");
    st.add("sim.host_ns_per_cycle",
           cycles == 0 ? 0.0 : times.simMs * 1e6 / cycles, "ns");
    st.add("validate.ms", times.validateMs, "ms");
    st.add("power.eval_ms", times.powerMs, "ms");
    st.add("sim.ms", times.simMs, "ms");
    st.add("codec.decode_ms", times.decodeMs, "ms");
    st.add("kernels.build_ms", times.buildMs, "ms");

    st.add("cells_per_s", 1e3 * ops / pass_ms, "cells/s");
    st.add("cpu_ms_per_op", (processCpuMs() - probe.cpuMs) / ops, "ms");
    const double growth = vmSizeMb() - vm_base_mb;
    st.add("server_vmsize_growth_mb", growth, "MB");
    if (const auto conns = d["service.connections"])
        st.add("service.vmsize_kb_per_conn",
               growth * 1024.0 / static_cast<double>(conns), "kB");
}

void
reportRun(Report &report, const PassStats &st, const PassClock &clock,
          double setup_s, const Quality &quality)
{
    st.report(report);
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("ii_mean", quality.iiMean(), "cycles");
    report.metric("mw_x_ii_geomean", quality.mwIiGeomean(), "mW.cycles");
    report.metric("sim_cycles_total", static_cast<double>(quality.simCycles),
                  "cycles");
    report.metric("failed_op_frac",
                  report.attempted() == 0
                      ? 0.0
                      : static_cast<double>(report.failed()) /
                            static_cast<double>(report.attempted()),
                  "ratio");

    const double untraced = median(clock.untracedMs());
    report.context("passes", static_cast<double>(clock.untracedMs().size()));
    report.context("traced_passes",
                   static_cast<double>(clock.tracedMs().size()));
    report.context("pass_ms_median", untraced);
    if (!clock.tracedMs().empty() && untraced > 0) {
        report.context("traced_pass_ms_median", median(clock.tracedMs()));
        report.metric("trace.overhead_pct",
                      100.0 * (median(clock.tracedMs()) / untraced - 1.0),
                      "%");
    }
}

void
Quality::add(const CellEval &eval)
{
    iiSum += eval.ii;
    logMwIiSum += std::log(eval.totalMw * eval.ii);
    simCycles += eval.sim.execCycles;
    ++cells;
}

double
Quality::iiMean() const
{
    return cells == 0 ? 0.0 : iiSum / cells;
}

double
Quality::mwIiGeomean() const
{
    return cells == 0 ? 0.0 : std::exp(logMwIiSum / cells);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics[name] = Value{value, unit};
}

void
Report::context(const std::string &name, double value)
{
    std::ostringstream os;
    os << std::setprecision(12) << value;
    contextValues[name] = os.str();
}

void
Report::contextText(const std::string &name, const std::string &value)
{
    contextValues[name] = "\"" + value + "\"";
}

void
Report::op(const std::string &failure)
{
    ++nAttempted;
    if (failure.empty())
        return;
    ++nFailed;
    if (logged++ < 20)
        std::cerr << "dse_bench: FAILED " << failure << "\n";
}

void
Report::mismatch(const std::string &what)
{
    ++nMismatch;
    if (logged++ < 20)
        std::cerr << "dse_bench: MISMATCH " << what << "\n";
}

void
Report::print() const
{
    std::ostringstream ctx;
    ctx << "{\"context\": {";
    bool first = true;
    for (const auto &[name, value] : contextValues) {
        ctx << (first ? "" : ", ") << "\"" << name << "\": " << value;
        first = false;
    }
    ctx << "}}";

    std::ostringstream out;
    out << std::setprecision(17);
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << nAttempted << ", \"failed\": " << nFailed
        << ", \"metrics\": {";
    first = true;
    for (const auto &[name, v] : metrics) {
        out << (first ? "" : ", ") << "\"" << name
            << "\": {\"value\": " << (std::isfinite(v.value) ? v.value : 0.0)
            << ", \"unit\": \"" << v.unit << "\"}";
        first = false;
    }
    out << "}}";
    std::cout << ctx.str() << "\n" << out.str() << std::endl;
}

PassClock::PassClock(const RunConfig &config)
    : cfg(config), session(config.session), begin(Clock::now())
{
}

PassClock::~PassClock() { stopTracing(); }

bool
PassClock::more()
{
    if (!warmedUp)
        return true;
    const bool traceRun = cfg.trace && session;
    const bool done =
        msSince(begin) / 1e3 >= cfg.seconds &&
        plain.size() >= static_cast<std::size_t>(minPasses) &&
        (!traceRun ||
         traced.size() >= static_cast<std::size_t>(minTracedPasses));
    const bool traceNext = traceRun && !done && traced.size() < plain.size();
    if (traceNext && !tracingNow)
        session->start();
    else if (!traceNext)
        stopTracing();
    tracingNow = traceNext;
    return !done;
}

void
PassClock::finished(double pass_ms)
{
    if (!warmedUp) {
        warmedUp = true;
        begin = Clock::now();
        return;
    }
    (tracingNow ? traced : plain).push_back(pass_ms);
}

void
PassClock::stopTracing()
{
    if (session && tracingNow)
        session->stop();
}

void
recordSpinCalibration(Report &report)
{
    // Each thread spins the same fixed, data-dependent loop; on a host
    // whose cores really run in parallel the wall time stays flat as
    // threads are added.
    const auto spin = [] {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        for (int i = 0; i < 40'000'000; ++i)
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x;
    };
    std::atomic<std::uint64_t> sink{0};
    for (int threads : {1, 2, 4}) {
        const auto start = Clock::now();
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t)
            pool.emplace_back([&] { sink.fetch_xor(spin()); });
        for (std::thread &th : pool)
            th.join();
        report.metric("host.spin_ms_t" + std::to_string(threads),
                      msSince(start), "ms");
    }
    const int nproc = CPU_COUNT(&allowedCpus());
    report.metric("host.nproc",
                  nproc > 0 ? nproc
                            : static_cast<int>(
                                  std::thread::hardware_concurrency()),
                  "count");
}

} // namespace dsebench
