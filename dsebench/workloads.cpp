/**
 * @file
 * The three workloads of the DSE-sweep benchmark.
 *
 *  - sweep-cold: `ExperimentRunner::run` over the grid, one worker, a
 *    fresh runner and no store each pass — the mapper does the work.
 *  - sweep-warm: the grid through `ShardedClient` to two freshly started
 *    in-process backends on a store that set-up filled — every cell is a
 *    persistent-tier hit and the mapper does nothing.
 *  - map-interactive: a closed loop of single-cell requests, one
 *    `ServiceClient` connection per request, against one backend with an
 *    empty store; every 10th request is a first-seen cell.
 *
 * Each pass is one grid sweep (or one request stream). Per-pass values,
 * latency percentiles included, are collected in `PassStats` and
 * reported as medians over the recorded passes. A workload reports only
 * what it exercises; run.py reads the rest of the per-layer set as 0.
 */
#include <filesystem>
#include <memory>
#include <optional>

#include "common/logging.hpp"
#include "exec/codec.hpp"
#include "exec/fingerprint.hpp"
#include "exec/persistent_store.hpp"
#include "harness.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/sharded_client.hpp"

namespace dsebench {

using namespace iced;

namespace {

/** Requests in one map-interactive stream: each grid cell first-seen once. */
constexpr int requestsPerFirstSeen = 10;

/**
 * Set-up repetitions of the workloads whose set-up is only input
 * generation (a few ms): the reported set-up time is their median.
 * sweep-warm's set-up maps the whole grid and repeats three times.
 */
constexpr int setupRepeats = 25;

/** Wall ms of one call, added to `total`. */
template <typename Fn>
auto
timed(double &total, Fn &&fn)
{
    const auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        total += msSince(start);
    } else {
        auto result = fn();
        total += msSince(start);
        return result;
    }
}

/** Median fingerprint time per grid cell, µs (outside timed passes). */
double
fingerprintUs(const std::vector<JobSpec> &grid, const GridInputs &inputs)
{
    std::vector<double> us;
    for (int rep = 0; rep < 3; ++rep)
        for (const JobSpec &spec : grid) {
            const auto start = Clock::now();
            fingerprintMappingRequest(inputs.of(spec).dfg, spec.fabric,
                                      spec.options);
            us.push_back(msSince(start) * 1e3);
        }
    return median(us);
}

/**
 * The store probe: `fingerprintMappingRequest`, then
 * `PersistentMappingStore::fetch` and `encodeMappingEntry` on every
 * grid cell of `store_dir`, called directly — what a backend does per
 * persistent-tier cell, minus the service. Reports the median of three
 * passes and returns fetch + encode ms per grid.
 */
double
probeStore(const std::string &store_dir, const std::vector<JobSpec> &grid,
           const GridInputs &inputs, Report &report)
{
    PersistentMappingStore store(PersistentStoreOptions{store_dir, false});
    std::vector<double> fetchMs, encodeMs;
    for (int rep = 0; rep < 3; ++rep) {
        double fetch = 0.0, encode = 0.0;
        for (const JobSpec &spec : grid) {
            const Digest key = fingerprintMappingRequest(
                inputs.of(spec).dfg, spec.fabric, spec.options);
            const auto entry = timed(fetch, [&] { return store.fetch(key); });
            if (!entry) {
                report.mismatch("store probe: no entry for " +
                                describeCell(spec));
                continue;
            }
            timed(encode, [&] { return encodeMappingEntry(*entry).size(); });
        }
        fetchMs.push_back(fetch);
        encodeMs.push_back(encode);
    }
    report.metric("store.fetch_ms", median(fetchMs), "ms");
    report.metric("codec.encode_ms", median(encodeMs), "ms");
    return median(fetchMs) + median(encodeMs);
}

/** The request a client sends for one grid cell. */
RequestCell
requestFor(const JobSpec &spec)
{
    RequestCell cell;
    cell.config = spec.fabric;
    cell.options = spec.options;
    cell.dfg = findKernel(spec.kernel).build(spec.unroll);
    return cell;
}

/** Correctness of one evaluated cell; empty when it checks out. */
std::string
checkEval(const CellEval &eval, const KernelInput &input,
          const JobSpec &spec)
{
    if (!eval.error.empty())
        return describeCell(spec) + ": " + eval.error;
    if (!matchesReference(eval.sim, input.reference))
        return describeCell(spec) + ": simulator disagrees with interpretDfg";
    return {};
}

/**
 * Decode one service reply and check that it mapped and came from the
 * `expected` cache tier. Returns the entry, or null with `failure` set.
 */
std::shared_ptr<const MappingEntry>
checkReply(const MapReplyMsg &reply, CacheSource expected,
           const JobSpec &spec, StageTimes &times, std::string &failure)
{
    std::shared_ptr<const MappingEntry> entry;
    try {
        entry = timed(times.decodeMs, [&] {
            ICED_TRACE_SCOPE("codec", "decodeReplyEntry");
            return decodeReplyEntry(reply);
        });
    } catch (const FatalError &err) {
        failure = describeCell(spec) + ": " + err.what();
        return nullptr;
    }
    if (reply.status != ReplyStatus::Mapped || !entry || !entry->mapped())
        failure = describeCell(spec) + ": reply " + toString(reply.status);
    else if (reply.source != expected)
        failure = describeCell(spec) + ": served from " +
                  toString(reply.source) + " tier, expected " +
                  toString(expected);
    else
        return entry;
    return nullptr;
}

/** A fresh in-process backend on `address` with one pool worker. */
std::unique_ptr<MappingServer>
startServer(const std::string &address, const std::string &store_dir)
{
    ServerOptions opts;
    opts.listenAddress = address;
    opts.storeDir = store_dir;
    opts.threads = 1;
    auto server = std::make_unique<MappingServer>(opts);
    server->start();
    return server;
}

/** Input-side values every workload reports (outside timed passes). */
void
reportInputs(Report &report, const std::vector<JobSpec> &grid,
             const GridInputs &inputs)
{
    report.metric("exec.fingerprint_us", fingerprintUs(grid, inputs), "us");
    report.metric("check.interp_ms", inputs.interpMs(), "ms");
    report.contextText("memory_digest", std::to_string(inputs.memoryDigest()));
}

/** The seeded map-interactive stream: grid indices, one per request. */
std::vector<std::size_t>
requestStream(std::uint64_t seed, std::size_t cells)
{
    Rng rng(seed ^ 0x5EED5EED5EED5EEDULL);
    std::vector<std::size_t> order(cells);
    for (std::size_t i = 0; i < cells; ++i)
        order[i] = i;
    for (std::size_t i = cells; i > 1; --i)
        std::swap(order[i - 1], order[rng.next() % i]);
    // Request r first-sees order[r / 10] when r % 10 == 0; the others
    // repeat a uniformly drawn cell among those already seen.
    std::vector<std::size_t> stream;
    for (std::size_t r = 0; r < cells * requestsPerFirstSeen; ++r) {
        const std::size_t seen = r / requestsPerFirstSeen + 1;
        stream.push_back(r % requestsPerFirstSeen == 0
                             ? order[seen - 1]
                             : order[rng.next() % seen]);
    }
    return stream;
}

} // namespace

void
runSweepCold(const RunConfig &config, Report &report)
{
    const double vmStart = vmSizeMb();
    std::vector<JobSpec> grid;
    std::optional<GridInputs> inputs;
    const double setupS = timeSetup(setupRepeats, [&] {
        grid = dseGrid();
        inputs.emplace(config.seed);
    });

    PassStats st;
    Quality quality;
    std::vector<std::shared_ptr<const MappingEntry>> firstPass;
    PassClock clock(config);
    while (clock.more()) {
        StageTimes times;
        std::vector<CellEval> evals(grid.size());
        std::vector<JobResult> results;
        double runMs = 0.0;
        const PassProbe probe;
        {
            ICED_TRACE_SCOPE("bench", "pass");
            results = timed(runMs, [&] {
                ICED_TRACE_SCOPE("exec", "ExperimentRunner::run");
                ExperimentRunner runner(RunnerOptions{1, 512, false, 1});
                return runner.run(grid);
            });
            for (std::size_t i = 0; i < grid.size(); ++i)
                if (results[i].mapped())
                    evals[i] = evaluateCell(results[i].mapping(),
                                            inputs->of(grid[i]), times);
        }
        const double passMs = msSince(probe.start);
        if (clock.recording()) {
            // No server here: VmSize growth counts from program start.
            recordPass(st, probe, times, static_cast<double>(grid.size()),
                       passMs, vmStart);
            st.add("exec.map_ms", runMs, "ms");
        }

        for (std::size_t i = 0; i < grid.size(); ++i) {
            const JobResult &r = results[i];
            std::string failure =
                r.mapped() ? checkEval(evals[i], inputs->of(grid[i]), grid[i])
                           : describeCell(grid[i]) + ": " + r.error;
            if (failure.empty() && !firstPass.empty() && firstPass[i] &&
                !equalMappings(*firstPass[i]->mapping, r.mapping()))
                failure = describeCell(grid[i]) +
                          ": mapping differs from the first pass";
            report.op(failure);
        }
        if (firstPass.empty()) {
            for (std::size_t i = 0; i < grid.size(); ++i)
                if (results[i].mapped() && evals[i].error.empty())
                    quality.add(evals[i]);
            for (const JobResult &r : results)
                firstPass.push_back(r.mapped() ? r.entry : nullptr);
        }
        clock.finished(passMs);
    }
    reportRun(report, st, clock, setupS, quality);
    reportInputs(report, grid, *inputs);
}

void
runSweepWarm(const RunConfig &config, Report &report)
{
    // Set-up: map the grid cold into a fresh store (write-behind), three
    // times; the last store serves the passes and its mappings are the
    // reference every warm mapping must equal.
    std::vector<double> setupWrites;
    std::vector<JobSpec> grid;
    std::optional<GridInputs> inputs;
    std::vector<JobResult> cold;
    std::vector<std::string> storeDirs;
    const double setupS = timeSetup(3, [&] {
        const std::string dir = "store-" + std::to_string(storeDirs.size());
        const CounterDelta counters;
        grid = dseGrid();
        inputs.emplace(config.seed);
        {
            PersistentMappingStore store(PersistentStoreOptions{dir, false});
            ExperimentRunner runner(RunnerOptions{1, 512, false, 1});
            runner.cache().attachStore(&store);
            cold = runner.run(grid);
        } // the runner joins its worker: every write-behind has landed
        setupWrites.push_back(
            static_cast<double>(counters["cache.persistent.writes"]));
        storeDirs.push_back(dir);
    });
    const std::string storeDir = storeDirs.back();
    storeDirs.pop_back();
    for (const std::string &dir : storeDirs)
        std::filesystem::remove_all(dir);
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (!cold[i].mapped())
            report.mismatch("set-up: " + describeCell(grid[i]) +
                            " did not map");

    const std::vector<std::string> backends = {"./b0.sock", "./b1.sock"};
    PassStats st;
    Quality quality;
    PassClock clock(config);
    while (clock.more()) {
        std::vector<std::unique_ptr<MappingServer>> servers;
        for (const std::string &address : backends)
            servers.push_back(startServer(address, storeDir));
        const double vmBefore = vmSizeMb();

        StageTimes times;
        double sweepMs = 0.0;
        double replyBytes = 0.0;
        std::vector<RequestCell> cells;
        std::vector<std::shared_ptr<const MappingEntry>> entries(grid.size());
        std::vector<CellEval> evals(grid.size());
        std::vector<std::string> failures(grid.size());
        ShardedClient::ShardStats shard;
        const PassProbe probe;
        {
            ICED_TRACE_SCOPE("bench", "pass");
            timed(times.buildMs, [&] {
                ICED_TRACE_SCOPE("kernels", "Kernel::build");
                for (const JobSpec &spec : grid)
                    cells.push_back(requestFor(spec));
            });
            std::vector<MapReplyMsg> replies(grid.size());
            try {
                timed(sweepMs, [&] {
                    ICED_TRACE_SCOPE("service", "ShardedClient::sweep");
                    ShardedClient client(backends);
                    replies = client.sweep(cells);
                    shard = client.lastStats();
                });
            } catch (const FatalError &err) {
                report.mismatch(std::string("sweep failed: ") + err.what());
            }
            for (std::size_t i = 0; i < grid.size(); ++i) {
                replyBytes += static_cast<double>(replies[i].entryBlob.size());
                entries[i] = checkReply(replies[i], CacheSource::Persistent,
                                        grid[i], times, failures[i]);
                if (entries[i])
                    evals[i] = evaluateCell(*entries[i]->mapping,
                                            inputs->of(grid[i]), times);
            }
        }
        const double passMs = msSince(probe.start);
        if (clock.recording()) {
            recordPass(st, probe, times, static_cast<double>(grid.size()),
                       passMs, vmBefore);
            st.add("service.sweep_ms", sweepMs, "ms");
            st.add("service.leases", static_cast<double>(shard.leases),
                   "count");
            st.add("service.steals", static_cast<double>(shard.steals),
                   "count");
            st.add("service.stolen_cells",
                   static_cast<double>(shard.stolenCells), "count");
            st.add("service.duplicate_replies",
                   static_cast<double>(shard.duplicateReplies), "count");
            st.add("codec.reply_bytes", replyBytes, "bytes");
        }
        servers.clear();

        const bool scoreQuality = quality.cells == 0;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            std::string failure = failures[i];
            if (failure.empty())
                failure = checkEval(evals[i], inputs->of(grid[i]), grid[i]);
            if (failure.empty() && cold[i].mapped() &&
                !equalMappings(*entries[i]->mapping, cold[i].mapping()))
                failure = describeCell(grid[i]) +
                          ": warm mapping differs from the cold one";
            if (failure.empty() && scoreQuality)
                quality.add(evals[i]);
            report.op(failure);
        }
        clock.finished(passMs);
    }
    reportRun(report, st, clock, setupS, quality);
    reportInputs(report, grid, *inputs);
    // Set-up, not the passes, writes the store.
    report.metric("store.writes", median(setupWrites), "count");
    const double probeMs = probeStore(storeDir, grid, *inputs, report);
    report.metric("service.overhead_ms", st.med("service.sweep_ms") - probeMs,
                  "ms");
}

void
runMapInteractive(const RunConfig &config, Report &report)
{
    std::vector<JobSpec> grid;
    std::optional<GridInputs> inputs;
    std::vector<std::size_t> stream;
    const double setupS = timeSetup(setupRepeats, [&] {
        grid = dseGrid();
        inputs.emplace(config.seed);
        stream = requestStream(config.seed, grid.size());
    });
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::size_t c : stream)
            h = (h ^ c) * 0x100000001b3ULL;
        report.contextText("stream_digest", std::to_string(h));
    }

    const std::string address = "./m.sock";
    const std::string storeDir = "istore";
    // In-process results of every cell, computed once after the first
    // pass (outside every timed path); replies must equal them.
    std::vector<std::shared_ptr<const MappingEntry>> reference;
    PassStats st;
    Quality quality;
    PassClock clock(config);
    while (clock.more()) {
        std::filesystem::remove_all(storeDir);
        auto server = startServer(address, storeDir);
        const double vmBefore = vmSizeMb();

        StageTimes times;
        double waitMs = 0.0;
        double replyBytes = 0.0;
        std::vector<double> connectMs, requestMs, hitMs, missMs;
        std::vector<std::string> blobs(stream.size());
        std::vector<std::string> failures(stream.size());
        std::vector<bool> seen(grid.size(), false);
        const PassProbe probe;
        {
            ICED_TRACE_SCOPE("bench", "pass");
            for (std::size_t r = 0; r < stream.size(); ++r) {
                const JobSpec &spec = grid[stream[r]];
                const bool firstSeen = !seen[stream[r]];
                seen[stream[r]] = true;
                const RequestCell cell = timed(times.buildMs, [&] {
                    ICED_TRACE_SCOPE("kernels", "Kernel::build");
                    return requestFor(spec);
                });
                MapReplyMsg reply;
                try {
                    const auto t0 = Clock::now();
                    std::optional<ServiceClient> client;
                    {
                        ICED_TRACE_SCOPE("service", "connect");
                        client.emplace(address);
                    }
                    const auto t1 = Clock::now();
                    {
                        ICED_TRACE_SCOPE("service", "ServiceClient::map");
                        reply = client->map(cell);
                    }
                    const auto t2 = Clock::now();
                    const double c = std::chrono::duration<double, std::milli>(
                                         t1 - t0).count();
                    const double q = std::chrono::duration<double, std::milli>(
                                         t2 - t1).count();
                    connectMs.push_back(c);
                    requestMs.push_back(q);
                    (firstSeen ? missMs : hitMs).push_back(c + q);
                    waitMs += c + q;
                } catch (const FatalError &err) {
                    failures[r] = describeCell(spec) + ": " + err.what();
                    continue;
                }
                checkReply(reply,
                           firstSeen ? CacheSource::Computed
                                     : CacheSource::Memory,
                           spec, times, failures[r]);
                replyBytes += static_cast<double>(reply.entryBlob.size());
                blobs[r] = std::move(reply.entryBlob);
            }
        }
        const double passMs = msSince(probe.start);
        if (clock.recording()) {
            recordPass(st, probe, times, static_cast<double>(stream.size()),
                       passMs, vmBefore);
            st.add("requests_per_s",
                   1e3 * static_cast<double>(stream.size()) / waitMs,
                   "requests/s");
            st.add("service.connect_ms", median(connectMs), "ms");
            st.add("service.request_ms", median(requestMs), "ms");
            st.add("codec.reply_bytes", replyBytes, "bytes");
            st.addLatencies(hitMs, missMs);
        }
        server.reset();

        if (reference.empty()) {
            StageTimes scratch;
            for (const JobSpec &spec : grid) {
                const KernelInput &in = inputs->of(spec);
                reference.push_back(
                    computeMappingEntry(spec.fabric, in.dfg, spec.options));
                if (!reference.back()->mapped()) {
                    report.mismatch(describeCell(spec) +
                                    ": in-process map failed");
                    continue;
                }
                const CellEval eval =
                    evaluateCell(*reference.back()->mapping, in, scratch);
                const std::string failure = checkEval(eval, in, spec);
                if (failure.empty())
                    quality.add(eval);
                else
                    report.mismatch(failure);
            }
        }
        std::vector<const std::string *> firstBlob(grid.size(), nullptr);
        for (std::size_t r = 0; r < stream.size(); ++r) {
            const std::size_t c = stream[r];
            std::string failure = failures[r];
            if (failure.empty() && firstBlob[c]) {
                if (blobs[r] != *firstBlob[c])
                    failure = describeCell(grid[c]) +
                              ": repeat reply differs from the first";
            } else if (failure.empty()) {
                firstBlob[c] = &blobs[r];
                const auto entry = decodeMappingEntry(blobs[r]);
                if (!reference[c]->mapped() ||
                    !equalMappings(*entry->mapping, *reference[c]->mapping))
                    failure = describeCell(grid[c]) +
                              ": reply differs from the in-process mapping";
            }
            report.op(failure);
        }
        clock.finished(passMs);
    }
    reportRun(report, st, clock, setupS, quality);
    reportInputs(report, grid, *inputs);
    probeStore(storeDir, grid, *inputs, report);
}

} // namespace dsebench
