/**
 * @file
 * End-to-end benchmark driver for the simulator.
 *
 * Runs one named workload in this process, on one simulation thread
 * and the default (serial) engine, and prints one JSON document on the
 * last line of stdout: every run's host timings, its simulated
 * fingerprint and the inputs of the correctness gate. perfbench/run.py
 * turns that into the benchmark's metrics and applies the gate.
 *
 * Configs come only from the harness presets (harness::timingSpec,
 * harness::learningJob) plus public dist::makeJob / JobBase /
 * Simulation calls, so engine or fabric refactors behind those calls
 * are measured by the same workloads without editing this file.
 *
 * With --trace 1 the driver also measures per-layer numbers from
 * outside the program: spans around beginRun / Simulation::runUntil
 * slices / finishRun, exact counts read from the job after the run,
 * and replays of each layer's public hot calls (EventQueue,
 * Accelerator::ingest, VectorAssembler, Agent) that give a per-op host
 * cost. Layer host time is estimated as count x replayed cost; the
 * rest of the traced run is reported as unattributed.
 *
 * Usage:
 *   isw_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--tiny]
 */

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/accelerator.hh"
#include "core/programmable_switch.hh"
#include "dist/cluster.hh"
#include "dist/strategy.hh"
#include "dist/transport.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "net/packet.hh"
#include "rl/agent.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

namespace {

using namespace isw;
namespace json = isw::harness::json;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

json::Value
listJson(const std::vector<double> &v)
{
    json::Value out = json::Value::array();
    for (double x : v)
        out.push(x);
    return out;
}

// ---------------------------------------------------------------- workloads

/**
 * One benchmark workload. Every workload has a fixed-budget run that
 * the end-to-end panel times; the learning workload also has a
 * train-to-target run, measured in traced mode only, because its
 * length varies several-fold with the seed.
 */
struct Workload
{
    std::string name;
    dist::JobConfig budget;
    std::optional<dist::JobConfig> to_target;
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    Workload w;
    w.name = name;
    if (name == "dqn-sync-isw-tree16") {
        // 16 workers as 4 racks x 4 under one core switch.
        harness::FabricSpec fabric;
        fabric.tree = true;
        fabric.per_rack = 4;
        w.budget = harness::timingSpec(rl::Algo::kDqn,
                                       dist::StrategyKind::kSyncIswitch, 16,
                                       fabric)
                       .config;
        w.budget.stop.max_iterations = tiny ? 2 : 10;
    } else if (name == "a2c-sync-ps-lossy8") {
        w.budget = harness::timingSpec(rl::Algo::kA2c,
                                       dist::StrategyKind::kSyncPs, 8)
                       .config;
        w.budget.cluster.edge_link.loss_prob = 0.001;
        w.budget.stop.max_iterations = tiny ? 4 : 50;
    } else if (name == "ddpg-async-isw-learn4") {
        const dist::JobConfig learn = harness::learningJob(
            rl::Algo::kDdpg, dist::StrategyKind::kAsyncIswitch, 4);
        w.budget = learn;
        w.budget.stop.target_reward =
            std::numeric_limits<double>::quiet_NaN();
        w.budget.stop.max_iterations = tiny ? 20 : 60;
        w.to_target = learn;
        if (tiny) {
            // A reachable target keeps the tiny run short while still
            // exercising the target-stop path.
            w.to_target->stop.target_reward = -1e9;
            w.to_target->stop.min_episodes = 1;
        }
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.budget.seed = seed;
    w.budget.curve_every = w.budget.stop.max_iterations;
    if (w.to_target)
        w.to_target->seed = seed;
    return w;
}

bool
isIswitch(dist::StrategyKind k)
{
    return k == dist::StrategyKind::kSyncIswitch ||
           k == dist::StrategyKind::kAsyncIswitch;
}

bool
hasPs(dist::StrategyKind k)
{
    return k == dist::StrategyKind::kSyncPs ||
           k == dist::StrategyKind::kAsyncPs ||
           k == dist::StrategyKind::kSyncShardedPs;
}

bool
lossless(const dist::JobConfig &cfg)
{
    return cfg.cluster.edge_link.loss_prob == 0.0 &&
           cfg.cluster.uplink.loss_prob == 0.0 && cfg.faults.empty();
}

// --------------------------------------------------------------- one run

/** Spans recorded around the calls of one traced run. */
struct SliceTrace
{
    double begin_s = 0.0;   ///< JobBase::beginRun
    double slices_s = 0.0;  ///< all Simulation::runUntil slices
    double finish_s = 0.0;  ///< JobBase::finishRun
    std::uint64_t slices = 0;
    std::vector<double> pending; ///< pendingEvents() before each slice
};

struct RunRecord
{
    std::string kind;  ///< "budget" or "target"
    std::string phase; ///< "cold", "warmup", "warm" or "traced"
    double setup_s = 0.0;
    double run_s = 0.0;
    /** Mean host time of dist::makeJob in the set-up loop after this
     *  run, and of the calibration kernel timed between its calls, in
     *  whole-kernel units (warm runs only). */
    double setup_loop_s = 0.0;
    double setup_calib_s = 0.0;
    dist::RunResult res;
    json::Value fingerprint;
    /** Workers that applied the same number of updates hold the same
     *  weights bit for bit. */
    bool weights_equal = true;
    bool weights_finite = true;
    /** Workers whose update count differs from worker 0's, and by how
     *  many at most. A sync PS run stops when worker 0 ends its last
     *  round, so the others may never apply that round's result. */
    std::uint64_t laggards = 0;
    std::uint64_t max_lag = 0;
    std::uint64_t expected_iterations = 0;
    bool need_target = false;
    bool sync = true;
    bool lossless = true;
    // Exact per-layer counts read from the job after the run.
    std::uint64_t accel_ingested = 0;
    std::uint64_t host_rx_frames = 0;
    std::uint64_t updates_applied = 0;
    std::size_t logical_floats = 0;
    SliceTrace trace;
};

/** Simulated-time width of one traced runUntil slice. */
constexpr sim::TimeNs kSlice = 50 * sim::kUsec;
/** Untimed runs before the timed window opens, the cold run included:
 *  at least kWarmupRuns of them and kWarmupS host seconds. */
constexpr std::size_t kWarmupRuns = 3;
constexpr double kWarmupS = 3.0;
/** Each set-up loop makes at least this many jobs and runs at least
 *  kSetupLoopS host seconds, up to kSetupLoopMaxCalls jobs. */
constexpr std::size_t kSetupLoopCalls = 5;
constexpr double kSetupLoopS = 0.2;
constexpr std::size_t kSetupLoopMaxCalls = 2000;
/** The set-up loop times 1/kSetupCalibDiv of the calibration kernel
 *  after each dist::makeJob call. */
constexpr int kSetupCalibDiv = 50;
/** A traced run gives up (and fails the gate) after this much host time. */
constexpr double kTracedRunLimitS = 120.0;

dist::RunResult
tracedRun(dist::JobBase &job, SliceTrace &tr)
{
    sim::Simulation &s = job.simulation();
    auto t = Clock::now();
    job.beginRun();
    tr.begin_s = secondsSince(t);

    const auto t_run = Clock::now();
    sim::TimeNs deadline = s.now();
    std::string error;
    while (!s.queueEmpty()) {
        deadline += kSlice;
        tr.pending.push_back(static_cast<double>(s.pendingEvents()));
        t = Clock::now();
        s.runUntil(deadline);
        tr.slices_s += secondsSince(t);
        ++tr.slices;
        if ((tr.slices & 1023) == 0 &&
            secondsSince(t_run) > kTracedRunLimitS) {
            error = "traced run exceeded its host-time limit";
            break;
        }
    }
    if (error.empty() && !job.finished())
        error = "stalled: event queue drained before the stop condition";

    t = Clock::now();
    dist::RunResult res = job.finishRun(error);
    tr.finish_s = secondsSince(t);
    return res;
}

std::uint64_t
fnv1a(const std::vector<float> &v)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto *p = reinterpret_cast<const unsigned char *>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** Every simulated output of a run that must repeat exactly. */
json::Value
fingerprintOf(const dist::RunResult &r, std::uint64_t weights_hash)
{
    json::Value fp = json::Value::object();
    fp["iterations"] = r.iterations;
    fp["total_sim_ns"] = static_cast<std::uint64_t>(r.total_time);
    fp["final_avg_reward"] = r.final_avg_reward;
    fp["reached_target"] = r.reached_target;
    fp["weights_fnv"] = std::to_string(weights_hash);
    json::Value &bd = fp["breakdown_ms"] = json::Value::object();
    for (std::size_t c = 0; c < dist::kNumComponents; ++c) {
        const auto comp = static_cast<dist::IterComponent>(c);
        bd[dist::componentName(comp)] = r.breakdown.meanMs(comp);
    }
    json::Value &ex = fp["extras"] = json::Value::object();
    for (const auto &[k, v] : r.extras)
        ex[k] = v;
    return fp;
}

RunRecord
runOnce(const dist::JobConfig &cfg, const std::string &kind,
        const std::string &phase, bool traced)
{
    RunRecord rec;
    rec.kind = kind;
    rec.phase = phase;
    rec.sync = !dist::isAsyncStrategy(cfg.strategy);
    rec.lossless = lossless(cfg);
    rec.need_target = cfg.stop.hasTarget();
    rec.expected_iterations = cfg.stop.max_iterations;

    auto t0 = Clock::now();
    std::unique_ptr<dist::JobBase> job = dist::makeJob(cfg);
    rec.setup_s = secondsSince(t0);

    t0 = Clock::now();
    rec.res = traced ? tracedRun(*job, rec.trace) : job->run();
    rec.run_s = secondsSince(t0);

    // Sync workers apply identical aggregates, so workers that applied
    // the same number of updates hold bit-identical weights; every
    // strategy's weights must stay finite.
    std::map<std::uint64_t, ml::Vec> by_updates;
    ml::Vec w0, wi;
    job->workerAgent(0).getWeights(w0);
    const std::uint64_t u0 = job->workerAgent(0).updatesApplied();
    rec.logical_floats = w0.size();
    for (std::size_t i = 0; i < cfg.num_workers; ++i) {
        rl::Agent &agent = job->workerAgent(i);
        agent.getWeights(wi);
        const std::uint64_t ui = agent.updatesApplied();
        rec.updates_applied += ui;
        for (float x : wi)
            rec.weights_finite = rec.weights_finite && std::isfinite(x);
        const auto [ref, fresh] = by_updates.try_emplace(ui, wi);
        if (!fresh)
            rec.weights_equal = rec.weights_equal && wi == ref->second;
        if (ui != u0) {
            ++rec.laggards;
            rec.max_lag = std::max(rec.max_lag, u0 > ui ? u0 - ui : ui - u0);
        }
    }
    rec.fingerprint = fingerprintOf(rec.res, fnv1a(w0));

    const dist::Cluster &cl = job->cluster();
    std::set<core::ProgrammableSwitch *> switches(cl.leaves.begin(),
                                                  cl.leaves.end());
    switches.insert(cl.aggs.begin(), cl.aggs.end());
    switches.insert(cl.root);
    switches.insert(cl.backup);
    switches.erase(nullptr);
    for (core::ProgrammableSwitch *sw : switches)
        rec.accel_ingested += sw->accelerator().packetsIngested();
    for (net::Host *h : cl.workers)
        rec.host_rx_frames += h->rxFrames();
    for (net::Host *h : cl.ps_shards)
        rec.host_rx_frames += h->rxFrames();
    return rec;
}

json::Value
recordJson(const RunRecord &r)
{
    json::Value j = json::Value::object();
    j["kind"] = r.kind;
    j["phase"] = r.phase;
    j["setup_s"] = r.setup_s;
    j["run_s"] = r.run_s;
    j["setup_loop_s"] = r.setup_loop_s;
    j["setup_calib_s"] = r.setup_calib_s;
    j["iterations"] = r.res.iterations;
    j["expected_iterations"] = r.expected_iterations;
    j["need_target"] = r.need_target;
    j["reached_target"] = r.res.reached_target;
    j["error"] = r.res.error;
    j["sync"] = r.sync;
    j["lossless"] = r.lossless;
    j["weights_equal"] = r.weights_equal;
    j["weights_finite"] = r.weights_finite;
    j["laggards"] = r.laggards;
    j["max_lag"] = r.max_lag;
    json::Value &retx = j["retx_keys"] = json::Value::array();
    for (const auto &[k, v] : r.res.extras)
        if (k.rfind("retx_", 0) == 0)
            retx.push(k);
    j["sim_iter_ms"] = r.res.perIterationMs();
    j["sim_train_s"] = sim::toSeconds(r.res.total_time);
    j["fingerprint"] = r.fingerprint;
    return j;
}

// ------------------------------------------------------------ calibration

/**
 * A fixed host workload that shares no code with the simulator, made
 * of seven parts of roughly equal time: a binary heap, a hash set,
 * 1.5 KB allocations, a float axpy over 8 MB, normal draws through
 * tanh, short float vectors built and freed, and a cache-resident
 * matrix-vector product. Timed between runs,
 * it tracks how fast the shared machine is at the moment; run.py
 * scales host times by it (see README.md). calibrate(d) is a 1/d slice
 * of it: every size and loop count divided by d.
 */
double
calibrate(int div = 1)
{
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<std::uint64_t> heap;
    for (int i = 0; i < (1 << 16) / div; ++i) {
        heap.push_back(next());
        std::push_heap(heap.begin(), heap.end());
    }
    for (int i = 0; i < 60000 / div; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = next();
        std::push_heap(heap.begin(), heap.end());
    }
    std::unordered_set<std::uint64_t> set;
    for (int i = 0; i < 60000 / div; ++i)
        set.insert(next() & 0xfffff);
    for (int i = 0; i < 60000 / div; ++i)
        set.erase(next() & 0xfffff);
    std::vector<std::unique_ptr<char[]>> blocks(4096 / div);
    for (int i = 0; i < 60000 / div; ++i) {
        auto &b = blocks[next() % blocks.size()];
        b = std::make_unique<char[]>(1500);
        b[0] = static_cast<char>(i);
    }
    std::vector<float> a((1 << 20) / div, 1.0f), y(a.size(), 0.5f);
    for (int r = 0; r < 20; ++r)
        for (std::size_t i = 0; i < a.size(); ++i)
            y[i] += 0.999f * a[i];
    std::mt19937_64 gen(5);
    std::normal_distribution<float> normal(0.0f, 1.0f);
    float acc = 0.0f;
    for (int i = 0; i < 60000 / div; ++i)
        acc += std::tanh(normal(gen));
    for (int i = 0; i < 6000 / div; ++i) {
        std::vector<float> v(64 + (next() & 1023), 0.25f);
        for (float &e : v)
            e *= 1.5f;
        acc += v[3];
    }
    constexpr std::size_t kDim = 256;
    std::vector<float> m(kDim * kDim, 0.01f), in(kDim, 1.0f), out(kDim);
    for (int r = 0; r < 150 / div; ++r) {
        for (std::size_t i = 0; i < kDim; ++i) {
            float dot = 0.0f;
            for (std::size_t j = 0; j < kDim; ++j)
                dot += m[i * kDim + j] * in[j];
            out[i] = dot;
        }
        in[r % kDim] += 1e-6f * out[(r * 7) % kDim];
    }
    acc += out[3];
    volatile double sink = static_cast<double>(heap.front() + set.size()) +
                           y[a.size() / 2] + acc;
    (void)sink;
    return secondsSince(t0);
}

/**
 * Times dist::makeJob in a loop of at least kSetupLoopCalls calls and
 * @p seconds host seconds, each call followed by a slice of the
 * calibration kernel, so both sample the machine at the same moments
 * even when its speed changes within the loop. Fills @p rec's
 * setup_loop_s and setup_calib_s. Jobs are destroyed outside the timed
 * span.
 */
void
setupLoop(const dist::JobConfig &cfg, double seconds, RunRecord &rec)
{
    double job_s = 0.0, calib_s = 0.0;
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    while (calls < kSetupLoopCalls ||
           (secondsSince(t0) < seconds && calls < kSetupLoopMaxCalls)) {
        {
            const auto ts = Clock::now();
            const std::unique_ptr<dist::JobBase> job = dist::makeJob(cfg);
            job_s += secondsSince(ts);
        }
        calib_s += calibrate(kSetupCalibDiv);
        ++calls;
    }
    rec.setup_loop_s = job_s / static_cast<double>(calls);
    rec.setup_calib_s =
        calib_s * kSetupCalibDiv / static_cast<double>(calls);
}

// ---------------------------------------------------------------- replays

/**
 * Host ns per event of EventQueue::schedule + run, in a hold model
 * that keeps @p depth events pending (the traced run's median depth).
 */
double
replayQueueNs(std::size_t depth, std::uint64_t seed)
{
    depth = std::max<std::size_t>(depth, 1);
    constexpr std::size_t kDelays = 1 << 14;
    std::vector<sim::TimeNs> delays(kDelays);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<sim::TimeNs> pick(1, 20 * sim::kUsec);
    for (sim::TimeNs &d : delays)
        d = pick(rng);

    sim::EventQueue q;
    struct Ctx
    {
        sim::EventQueue *q;
        const std::vector<sim::TimeNs> *delays;
        std::size_t next = 0;
    } ctx{&q, &delays};
    struct Hold
    {
        Ctx *c;
        void
        operator()() const
        {
            const sim::TimeNs d = (*c->delays)[c->next++ & (kDelays - 1)];
            c->q->scheduleAfter(d, Hold{c});
        }
    };
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(delays[i & (kDelays - 1)], Hold{&ctx});
    q.runAll(std::max<std::size_t>(depth, 100000)); // warm the heap
    const std::size_t n = std::max<std::size_t>(4 * depth, 1000000);
    const auto t0 = Clock::now();
    q.runAll(n);
    return secondsSince(t0) * 1e9 / static_cast<double>(n);
}

/**
 * Host ns per packet of Accelerator::ingest (plus the accumulate event
 * it schedules) for one sync round: @p segs segments x @p workers
 * contributions at threshold @p workers.
 */
double
replayIngestNs(std::uint64_t segs, std::size_t workers)
{
    sim::Simulation s(1);
    core::Accelerator acc(s);
    acc.setThreshold(static_cast<std::uint32_t>(workers));
    acc.setDedupeContributors(true);
    std::uint64_t emitted = 0;
    acc.setEmit([&emitted](std::uint64_t, core::SegState) { ++emitted; });

    // Packets are built per block of segments, outside the timed span,
    // so the replay's memory stays small for multi-MB wire models.
    constexpr std::uint64_t kBlock = 256;
    const std::vector<float> values(core::kFloatsPerSeg, 1.0f);
    double timed_s = 0.0;
    std::vector<net::PacketPtr> pkts;
    for (std::uint64_t base = 0; base < segs; base += kBlock) {
        const std::uint64_t end = std::min(segs, base + kBlock);
        pkts.clear();
        for (std::uint64_t seg = base; seg < end; ++seg) {
            for (std::size_t w = 0; w < workers; ++w) {
                net::Packet p;
                p.ip.src = net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(
                                                    w / 250),
                                         static_cast<std::uint8_t>(
                                             1 + w % 250));
                net::ChunkPayload c;
                c.seg = seg;
                c.wire_floats =
                    static_cast<std::uint32_t>(core::kFloatsPerSeg);
                c.values = values;
                p.payload = std::move(c);
                pkts.push_back(net::makePacket(std::move(p)));
            }
        }
        const auto t0 = Clock::now();
        for (const net::PacketPtr &p : pkts)
            acc.ingest(p);
        s.run();
        timed_s += secondsSince(t0);
    }
    if (emitted != segs)
        throw std::logic_error("ingest replay: " + std::to_string(emitted) +
                               " of " + std::to_string(segs) +
                               " segments emitted");
    return timed_s * 1e9 / static_cast<double>(segs * workers);
}

struct AssemblerCost
{
    double reset_us = 0.0;
    double offer_ns = 0.0;
};

/** VectorAssembler::reset and per-chunk offer cost at @p fmt. */
AssemblerCost
replayAssembler(const dist::WireFormat &fmt)
{
    const std::uint64_t segs = fmt.segments();
    const std::uint64_t per = fmt.floatsPerSeg();
    std::vector<net::ChunkPayload> chunks(segs);
    for (std::uint64_t seg = 0; seg < segs; ++seg) {
        net::ChunkPayload &c = chunks[seg];
        c.seg = seg;
        c.wire_floats = static_cast<std::uint32_t>(per);
        const std::uint64_t begin = seg * per;
        if (begin < fmt.logical_floats)
            c.values.assign(std::min(per, fmt.logical_floats - begin), 0.5f);
    }
    dist::VectorAssembler a(fmt);
    AssemblerCost cost;
    constexpr int kResets = 20000;
    const auto t_reset = Clock::now();
    for (int i = 0; i < kResets; ++i)
        a.reset();
    cost.reset_us = secondsSince(t_reset) * 1e6 / kResets;
    double offer_s = 0.0;
    std::size_t rounds = 0;
    const auto t0 = Clock::now();
    while (rounds < 3 || (secondsSince(t0) < 0.2 && rounds < 2000)) {
        a.reset();
        const auto t1 = Clock::now();
        for (const net::ChunkPayload &c : chunks)
            a.offer(c);
        offer_s += secondsSince(t1);
        if (!a.complete())
            throw std::logic_error("assembler replay: vector incomplete");
        ++rounds;
    }
    cost.offer_ns =
        offer_s * 1e9 / static_cast<double>(rounds * std::max<std::uint64_t>(
                                                         segs, 1));
    return cost;
}

struct AgentCost
{
    double grad_ms = 0.0;
    double apply_ms = 0.0;
};

/**
 * Agent::computeGradient / applyAggregatedGradient on a fresh agent of
 * the workload, alternated as a worker does for @p rounds local
 * iterations (at least 20), so the agent's internal state (replay
 * buffer, episode progress) grows as it does in the run.
 */
AgentCost
replayAgent(const dist::JobConfig &cfg, std::uint64_t rounds)
{
    auto agent = rl::makeAgent(cfg.algo, cfg.agent, cfg.seed * 7919 + 17,
                               cfg.seed * 104729 + 31);
    const auto h = static_cast<std::uint32_t>(cfg.num_workers);
    rounds = std::max<std::uint64_t>(rounds, 20);
    double grad_s = 0.0, apply_s = 0.0;
    ml::Vec sum;
    for (std::uint64_t i = 0; i < rounds; ++i) {
        auto t0 = Clock::now();
        const ml::Vec &g = agent->computeGradient();
        grad_s += secondsSince(t0);
        // h identical contributions, as if every worker agreed.
        sum.assign(g.begin(), g.end());
        for (float &x : sum)
            x *= static_cast<float>(h);
        t0 = Clock::now();
        agent->applyAggregatedGradient(sum, h);
        apply_s += secondsSince(t0);
    }
    const auto n = static_cast<double>(rounds);
    return {grad_s * 1e3 / n, apply_s * 1e3 / n};
}

struct SetupCost
{
    double cluster_ms = 0.0;
    double agents_ms = 0.0;
};

/** The two halves of dist::makeJob: fabric build and agent creation. */
SetupCost
replaySetup(const dist::JobConfig &cfg)
{
    std::vector<double> cluster_s, agents_s;
    for (int rep = 0; rep < 5; ++rep) {
        sim::Simulation s(cfg.seed);
        dist::ClusterConfig cc = cfg.cluster;
        cc.num_workers = cfg.num_workers;
        cc.with_ps = hasPs(cfg.strategy);
        auto t0 = Clock::now();
        {
            dist::Cluster cl = cfg.use_fat_tree
                                   ? dist::buildFatTreeCluster(s, cc)
                               : cfg.use_tree ? dist::buildTreeCluster(s, cc)
                                              : dist::buildStarCluster(s, cc);
        }
        cluster_s.push_back(secondsSince(t0));

        t0 = Clock::now();
        {
            std::vector<std::unique_ptr<rl::Agent>> agents;
            for (std::size_t i = 0; i < cfg.num_workers; ++i)
                agents.push_back(rl::makeAgent(cfg.algo, cfg.agent,
                                               cfg.seed * 7919 + 17,
                                               cfg.seed * 104729 + 31 + i));
        }
        agents_s.push_back(secondsSince(t0));
    }
    return {median(cluster_s) * 1e3, median(agents_s) * 1e3};
}

// ---------------------------------------------------------------- layers

double
extra(const dist::RunResult &r, const char *k)
{
    const auto it = r.extras.find(k);
    return it == r.extras.end() ? 0.0 : it->second;
}

/** Replayed per-op host costs of one workload. */
struct LayerCosts
{
    double pending_p50 = 0.0;
    double queue_ns = 0.0;
    double ingest_ns = 0.0;
    AssemblerCost assembler;
    AgentCost agent;
    SetupCost setup;
    std::uint64_t segments = 0;
};

/** Gradients computed in run @p r (one per worker and LGC stage). */
double
gradientsOf(const dist::JobConfig &cfg, const dist::RunResult &r)
{
    return dist::isAsyncStrategy(cfg.strategy)
               ? extra(r, "gradients_committed") +
                     extra(r, "gradients_skipped")
               : static_cast<double>(r.iterations * cfg.num_workers);
}

/** Replay each layer's hot calls at the shape of traced run @p tr. */
LayerCosts
replayLayers(const dist::JobConfig &cfg, const RunRecord &tr)
{
    LayerCosts c;
    const dist::WireFormat fmt = dist::WireFormat::forVector(
        tr.logical_floats, cfg.wire_model_bytes, isIswitch(cfg.strategy),
        cfg.precision);
    c.segments = fmt.segments();
    c.pending_p50 = median(tr.trace.pending);
    c.queue_ns =
        replayQueueNs(static_cast<std::size_t>(c.pending_p50), cfg.seed);
    c.ingest_ns = replayIngestNs(fmt.segments(), cfg.num_workers);
    c.assembler = replayAssembler(fmt);
    c.agent = replayAgent(
        cfg, static_cast<std::uint64_t>(gradientsOf(cfg, tr.res) /
                                        static_cast<double>(cfg.num_workers)));
    c.setup = replaySetup(cfg);
    return c;
}

/**
 * Per-layer metrics of a traced session (see metrics.json). The last
 * two traced runs bracket the replays that produced @p c, so layer
 * shares are taken against their mean host time.
 */
json::Value
layerMetrics(const dist::JobConfig &cfg, const RunRecord &cold,
             const std::vector<RunRecord> &warm,
             const std::vector<RunRecord> &traced, const RunRecord &outcome,
             const LayerCosts &c)
{
    const RunRecord &tr = traced.back();
    const dist::RunResult &r = tr.res;
    const auto iters = static_cast<double>(std::max<std::uint64_t>(
        r.iterations, 1));
    const double events = extra(r, "events_executed");
    const double packets = extra(r, "packets_sealed");

    std::vector<double> untraced_s, traced_s, rates;
    for (const RunRecord &w : warm) {
        untraced_s.push_back(w.run_s);
        rates.push_back(extra(w.res, "events_executed") / w.run_s);
    }
    for (const RunRecord &t : traced)
        traced_s.push_back(t.run_s);

    // Exact counts x replayed cost = estimated host time per layer.
    const double grads = gradientsOf(cfg, r);
    const double resets = static_cast<double>(tr.host_rx_frames) /
                          static_cast<double>(std::max<std::uint64_t>(
                              c.segments, 1));
    const double run_s = 0.5 * (tr.run_s + traced[traced.size() - 2].run_s);
    const double sim_s = events * c.queue_ns * 1e-9;
    const double core_s =
        static_cast<double>(tr.accel_ingested) * c.ingest_ns * 1e-9;
    const double dist_s =
        static_cast<double>(tr.host_rx_frames) * c.assembler.offer_ns * 1e-9 +
        resets * c.assembler.reset_us * 1e-6;
    const double rl_s = grads * c.agent.grad_ms * 1e-3 +
                        static_cast<double>(tr.updates_applied) *
                            c.agent.apply_ms * 1e-3;
    const auto pct = [run_s](double s) { return 100.0 * s / run_s; };

    const double committed = extra(r, "gradients_committed");
    const double skipped = extra(r, "gradients_skipped");
    double lgc_ms = 0.0;
    for (std::size_t i = 0; i < dist::kNumComponents; ++i) {
        const auto comp = static_cast<dist::IterComponent>(i);
        if (dist::isLgcComponent(comp))
            lgc_ms += r.breakdown.meanMs(comp);
    }
    const dist::RunResult &last_warm = warm.back().res;
    const auto per_iter = [](const dist::RunResult &x, const char *k) {
        const auto it = x.perf.find(k);
        return (it == x.perf.end() ? 0.0 : it->second) /
               static_cast<double>(std::max<std::uint64_t>(x.iterations, 1));
    };
    const double warm_allocs = per_iter(last_warm, "pool_allocs");
    const double warm_reuses = per_iter(last_warm, "pool_reuses");

    json::Value m = json::Value::object();
    m["sim.events_per_iter"] = events / iters;
    m["sim.events_per_s"] = median(rates);
    m["sim.pending_events_p50"] = c.pending_p50;
    m["sim.queue_ns_per_event"] = c.queue_ns;
    m["sim.host_pct"] = pct(sim_s);
    m["net.packets_per_iter"] = packets / iters;
    m["net.pool_allocs_per_iter"] = warm_allocs;
    m["net.pool_allocs_per_iter_cold"] = per_iter(cold.res, "pool_allocs");
    m["net.pool_reuse_ratio"] =
        warm_reuses + warm_allocs > 0.0
            ? warm_reuses / (warm_reuses + warm_allocs)
            : 0.0;
    m["core.ingest_ns_per_packet"] = c.ingest_ns;
    m["core.peak_active_segments"] = extra(r, "peak_active_segments");
    m["core.host_pct"] = pct(core_s);
    m["dist.assembler_reset_us"] = c.assembler.reset_us;
    m["dist.assembler_offer_ns_per_chunk"] = c.assembler.offer_ns;
    m["dist.retx_segments_per_iter"] = extra(r, "retx_segments") / iters;
    m["dist.retx_timeouts_per_iter"] = extra(r, "retx_timeouts") / iters;
    m["dist.goodput_ratio"] =
        packets > 0.0 ? 1.0 - extra(r, "retx_segments") / packets : 1.0;
    m["dist.recovery_latency_ms_max"] = extra(r, "recovery_latency_ms_max");
    m["dist.sim_agg_ms"] =
        r.breakdown.meanMs(dist::IterComponent::kGradAggregation);
    m["dist.sim_lgc_ms"] = lgc_ms;
    m["dist.final_round_laggards"] = tr.laggards;
    m["dist.stale_skip_ratio"] =
        committed + skipped > 0.0 ? skipped / (committed + skipped) : 0.0;
    m["dist.host_pct"] = pct(dist_s);
    m["rl.grad_ms"] = c.agent.grad_ms;
    m["rl.apply_ms"] = c.agent.apply_ms;
    m["rl.host_pct"] = pct(rl_s);
    m["rl.iters_to_target"] = outcome.res.iterations;
    m["rl.final_reward"] = outcome.res.final_avg_reward;
    m["rl.sim_time_to_target_s"] = sim::toSeconds(outcome.res.total_time);
    m["rl.wall_time_to_target_s"] = outcome.setup_s + outcome.run_s;
    m["setup.cluster_ms"] = c.setup.cluster_ms;
    m["setup.agents_ms"] = c.setup.agents_ms;
    m["trace.overhead_pct"] =
        100.0 * (median(traced_s) / median(untraced_s) - 1.0);
    m["trace.unattributed_pct"] = 100.0 - pct(sim_s + core_s + dist_s + rl_s);
    return m;
}

/** Spans of traced run @p r, for the readable panel. */
json::Value
spansJson(const RunRecord &r)
{
    json::Value j = json::Value::object();
    j["makeJob_s"] = r.setup_s;
    j["beginRun_s"] = r.trace.begin_s;
    j["runUntil_s"] = r.trace.slices_s;
    j["runUntil_slices"] = r.trace.slices;
    j["finishRun_s"] = r.trace.finish_s;
    return j;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload") {
            a.workload = value();
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(value());
        } else if (k == "--seconds") {
            a.seconds = std::stod(value());
        } else if (k == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--tiny") {
            a.tiny = true;
        } else {
            throw std::invalid_argument("unknown argument '" + k + "'");
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

int
benchMain(const Args &args)
{
    const Workload wl = makeWorkload(args.workload, args.seed, args.tiny);
    const std::size_t min_timed = args.tiny ? 1 : 3;

    // The first run of the process warms the packet pools and the
    // allocator. Runs in the next few seconds still read up to 40%
    // slower than later ones, and the resident high-water mark still
    // grows in the second run, so the timed window opens after
    // kWarmupRuns runs and kWarmupS seconds.
    std::vector<RunRecord> runs;
    const auto t_cold = Clock::now();
    runs.push_back(runOnce(wl.budget, "budget", "cold", false));
    while (!args.tiny && (runs.size() < kWarmupRuns ||
                          secondsSince(t_cold) < kWarmupS))
        runs.push_back(runOnce(wl.budget, "budget", "warmup", false));
    // Read before the calibration kernel first runs, so its 17 MB of
    // arrays cannot set the process's high-water mark.
    const double peak_rss_mb = peakRssMb();

    // Each warm run sits between two calibration kernel timings, which
    // run.py scales it by. The set-up loop after it carries its own.
    std::vector<RunRecord> warm, traced;
    calibrate(); // the first call also pays its page faults
    std::vector<double> calib{calibrate()};
    const auto t0 = Clock::now();
    while (warm.size() < min_timed || secondsSince(t0) < args.seconds) {
        warm.push_back(runOnce(wl.budget, "budget", "warm", false));
        setupLoop(wl.budget, args.tiny ? 0.0 : kSetupLoopS, warm.back());
        calib.push_back(calibrate());
        if (args.trace)
            traced.push_back(runOnce(wl.budget, "budget", "traced", true));
    }

    json::Value doc = json::Value::object();
    if (args.trace) {
        RunRecord outcome = traced.back();
        if (wl.to_target) {
            outcome = runOnce(*wl.to_target, "target", "traced", true);
            runs.push_back(outcome);
        }
        // Replays run between two more traced runs, so attribution
        // compares costs measured at the same machine speed.
        traced.push_back(runOnce(wl.budget, "budget", "traced", true));
        const LayerCosts costs = replayLayers(wl.budget, traced.back());
        traced.push_back(runOnce(wl.budget, "budget", "traced", true));
        doc["layers"] = layerMetrics(wl.budget, runs.front(), warm, traced,
                                     outcome, costs);
        doc["spans"] = spansJson(traced.back());
    }
    runs.insert(runs.end(), warm.begin(), warm.end());
    runs.insert(runs.end(), traced.begin(), traced.end());

    doc["workload"] = wl.name;
    doc["seed"] = args.seed;
    doc["calib_s"] = listJson(calib);
    doc["peak_rss_mb"] = peak_rss_mb;
    json::Value &records = doc["runs"] = json::Value::array();
    for (const RunRecord &r : runs)
        records.push(recordJson(r));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // glibc raises its mmap threshold each time a mapped block is
    // freed, so whether a large allocation maps fresh pages depends on
    // the process's history: dist::makeJob of dqn-sync-isw-tree16 reads
    // 9 ms in one session and 23 ms in the next. Pinning the threshold
    // at glibc's initial default makes every session allocate alike.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    try {
        return benchMain(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "isw_perfbench: %s\n", e.what());
        return 2;
    }
}
