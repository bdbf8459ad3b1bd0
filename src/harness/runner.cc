#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <thread>

#include "harness/experiment.hh"

namespace isw::harness {

namespace {

std::size_t
resolveJobs(std::size_t requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("ISW_BENCH_JOBS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/** Appends typed fields as canonical 64-bit words. */
struct KeyBuilder
{
    std::vector<std::uint64_t> words;

    void u(std::uint64_t v) { words.push_back(v); }
    void d(double v) { words.push_back(std::bit_cast<std::uint64_t>(v)); }
};

void
appendLink(KeyBuilder &kb, const net::LinkConfig &l)
{
    kb.d(l.bandwidth_bps);
    kb.u(l.propagation);
    kb.d(l.loss_prob);
}

} // namespace

dist::JobConfig
ExperimentSpec::normalizedConfig() const
{
    dist::JobConfig cfg = config;
    if (seed != 0)
        cfg.seed = seed;
    return cfg;
}

SpecKey
SpecKey::of(const dist::JobConfig &cfg)
{
    // Every JobConfig field, in declaration order. A field added to
    // JobConfig (or its nested configs) must be appended here, or two
    // configs differing only in that field would share a cache slot.
    KeyBuilder kb;
    kb.u(static_cast<std::uint64_t>(cfg.algo));
    kb.u(static_cast<std::uint64_t>(cfg.strategy));
    kb.u(cfg.num_workers);

    const rl::AgentConfig &a = cfg.agent;
    kb.u(a.hidden);
    kb.d(a.lr);
    kb.d(a.gamma);
    kb.u(a.steps_per_iter);
    kb.u(a.batch_size);
    kb.u(a.replay_capacity);
    kb.u(a.warmup);
    kb.u(a.target_sync_iters);
    kb.d(a.grad_clip);
    kb.d(a.eps_start);
    kb.d(a.eps_end);
    kb.u(a.eps_decay_iters);
    kb.d(a.noise_std);
    kb.d(a.tau);
    kb.d(a.value_coef);
    kb.d(a.entropy_coef);
    kb.d(a.gae_lambda);
    kb.d(a.ppo_clip);
    kb.d(a.init_log_std);

    kb.u(cfg.wire_model_bytes);
    for (const sim::TimeNs t : cfg.profile.mean)
        kb.u(t);
    kb.d(cfg.profile.jitter_cv);
    kb.u(cfg.overhead.send);
    kb.u(cfg.overhead.recv);
    kb.u(cfg.iswitch_overhead.send);
    kb.u(cfg.iswitch_overhead.recv);
    kb.d(cfg.ps_sum_bytes_per_sec);

    const dist::ClusterConfig &c = cfg.cluster;
    kb.u(c.num_workers);
    kb.u(c.with_ps ? 1 : 0);
    kb.u(c.ps_shards);
    appendLink(kb, c.edge_link);
    appendLink(kb, c.uplink);
    kb.u(c.per_rack);
    kb.u(c.racks_per_pod);
    appendLink(kb, c.core_link);
    kb.d(c.accel.clock_hz);
    kb.u(c.accel.burst_bytes);
    kb.u(c.accel.fixed_latency);
    kb.u(c.accel.num_slots);
    kb.u(c.switch_cfg.forwarding_latency);
    kb.u(c.worker_jobs.size());
    for (const std::uint8_t j : c.worker_jobs)
        kb.u(j);
    kb.u(c.ha.with_backup ? 1 : 0);
    kb.u(static_cast<std::uint64_t>(c.ha.repl_mode));
    kb.u(c.ha.staleness_window);
    kb.u(c.ha.heartbeat_period);
    kb.u(c.ha.miss_threshold);

    kb.u(cfg.use_tree ? 1 : 0);
    kb.u(cfg.use_fat_tree ? 1 : 0);
    kb.u(cfg.seed);
    kb.u(cfg.staleness_bound);
    kb.u(cfg.ps_shards);
    kb.u(cfg.agg_threshold);
    kb.u(static_cast<std::uint64_t>(cfg.precision));
    kb.u(cfg.stop.max_iterations);
    kb.d(cfg.stop.target_reward);
    kb.u(cfg.stop.min_episodes);
    kb.u(cfg.stop.max_sim_time);
    kb.u(cfg.curve_every);

    kb.u(cfg.retx.timeout);
    kb.d(cfg.retx.backoff);
    kb.u(cfg.retx.max_retries);
    kb.u(cfg.retx.max_timeout);

    const net::FaultPlan &f = cfg.faults;
    kb.d(f.ge.p_good_to_bad);
    kb.d(f.ge.p_bad_to_good);
    kb.d(f.ge.loss_good);
    kb.d(f.ge.loss_bad);
    kb.d(f.extra_loss);
    kb.d(f.duplicate_prob);
    kb.d(f.reorder_prob);
    kb.u(f.reorder_delay);
    kb.u(f.link_down.size());
    for (const net::LinkDownWindow &w : f.link_down) {
        kb.u(w.worker);
        kb.u(w.down_at);
        kb.u(w.up_at);
    }
    kb.u(f.crashes.size());
    for (const net::WorkerCrash &c : f.crashes) {
        kb.u(c.worker);
        kb.u(c.crash_at);
        kb.u(c.rejoin_at);
        kb.u(c.announce ? 1 : 0);
    }
    kb.u(f.stragglers.size());
    for (const net::Straggler &s : f.stragglers) {
        kb.u(s.worker);
        kb.d(s.slowdown);
        kb.u(s.from);
        kb.u(s.until);
    }
    kb.u(f.switch_crashes.size());
    for (const net::SwitchCrash &sc : f.switch_crashes) {
        kb.u(sc.crash_at);
        kb.u(sc.rejoin_at);
    }
    kb.u(f.control_partitions.size());
    for (const net::ControlPartition &p : f.control_partitions) {
        kb.u(p.from);
        kb.u(p.until);
    }

    return SpecKey{std::move(kb.words)};
}

struct Runner::Entry
{
    ExperimentSpec spec;     ///< first spec submitted for this config
    std::uint64_t order = 0; ///< first-submission index
    dist::RunResult result;
    double wall_ms = 0.0;
    bool done = false;
};

Runner::Runner(RunnerOptions opts) : jobs_(resolveJobs(opts.jobs)) {}

Runner::~Runner() = default;

std::pair<std::shared_ptr<Runner::Entry>, bool>
Runner::lookup(const ExperimentSpec &spec)
{
    SpecKey key = SpecKey::of(spec.normalizedConfig());
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return {it->second, false};
    auto entry = std::make_shared<Entry>();
    entry->spec = spec;
    entry->spec.config = spec.normalizedConfig();
    entry->spec.seed = 0;
    entry->order = next_order_++;
    cache_.emplace(std::move(key), entry);
    return {entry, true};
}

void
Runner::execute(Entry &e)
{
    const auto t0 = std::chrono::steady_clock::now();
    dist::RunResult result;
    try {
        result = dist::makeJob(e.spec.config)->run();
    } catch (const std::exception &ex) {
        // One faulty spec must not abort a whole sweep: the failure
        // becomes this spec's diagnostic result instead.
        result.error = ex.what();
    } catch (...) {
        result.error = "unknown exception";
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    {
        std::lock_guard<std::mutex> lock(mu_);
        e.result = std::move(result);
        e.wall_ms = wall_ms;
        e.done = true;
    }
    cv_.notify_all();
}

void
Runner::waitDone(Entry &e)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&e] { return e.done; });
}

const dist::RunResult &
Runner::run(const ExperimentSpec &spec)
{
    auto [entry, fresh] = lookup(spec);
    if (fresh)
        execute(*entry);
    waitDone(*entry);
    return entry->result;
}

std::vector<dist::RunResult>
Runner::runAll(const std::vector<ExperimentSpec> &specs)
{
    // Dedup before submission: one cache entry per unique normalized
    // config; only fresh entries become work items.
    std::vector<std::shared_ptr<Entry>> order;
    std::vector<std::shared_ptr<Entry>> work;
    order.reserve(specs.size());
    for (const ExperimentSpec &spec : specs) {
        auto [entry, fresh] = lookup(spec);
        order.push_back(entry);
        if (fresh)
            work.push_back(std::move(entry));
    }

    const std::size_t width = std::min(jobs_, work.size());
    if (width <= 1) {
        for (auto &e : work)
            execute(*e);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(width);
        for (std::size_t t = 0; t < width; ++t) {
            pool.emplace_back([this, &next, &work] {
                for (;;) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= work.size())
                        return;
                    execute(*work[i]);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    // Deterministic spec order, regardless of completion order.
    std::vector<dist::RunResult> results;
    results.reserve(order.size());
    for (auto &e : order) {
        waitDone(*e);
        results.push_back(e->result);
    }
    return results;
}

std::size_t
Runner::executed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
}

json::Value
Runner::reportJson(const std::string &bench_name) const
{
    std::vector<std::shared_ptr<Entry>> entries;
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries.reserve(cache_.size());
        for (const auto &[key, entry] : cache_)
            entries.push_back(entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a->order < b->order;
              });

    json::Value root = json::Value::object();
    root["bench"] = bench_name;
    root["schema_version"] = 1;
    root["jobs"] = static_cast<std::uint64_t>(jobs_);
    root["scale"] = benchOptions().full ? "full" : "quick";
    json::Value runs = json::Value::array();
    for (const auto &e : entries) {
        if (!e->done)
            continue;
        json::Value run = resultToJson(e->result);
        run["name"] = e->spec.name;
        if (!e->spec.tags.empty()) {
            json::Value tags = json::Value::array();
            for (const std::string &t : e->spec.tags)
                tags.push(t);
            run["tags"] = std::move(tags);
        }
        run["config"] = configToJson(e->spec.config);
        run["wall_clock_ms"] = e->wall_ms;
        if (!e->result.perf.empty()) {
            // Wall-clock-class throughput metrics: kept out of
            // resultToJson so determinism comparisons stay clean.
            json::Value perf = json::Value::object();
            for (const auto &[key, value] : e->result.perf)
                perf[key] = value;
            run["perf"] = std::move(perf);
        }
        runs.push(std::move(run));
    }
    root["runs"] = std::move(runs);
    return root;
}

std::string
Runner::writeReport(const std::string &bench_name,
                    const std::string &dir) const
{
    const json::Value root = reportJson(bench_name);
    const std::string path = dir + "/BENCH_" + bench_name + ".json";
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    out.close();
    std::printf("# wrote %s (%zu runs)\n", path.c_str(),
                root.find("runs")->size());
    return path;
}

json::Value
resultToJson(const dist::RunResult &r)
{
    json::Value v = json::Value::object();
    v["iterations"] = r.iterations;
    v["per_iter_ms"] = r.perIterationMs();
    v["reward"] = r.final_avg_reward;
    v["reached_target"] = r.reached_target;
    v["total_sim_ns"] = r.total_time;
    if (!r.error.empty())
        v["error"] = r.error;

    json::Value breakdown = json::Value::object();
    for (std::size_t c = 0; c < dist::kNumComponents; ++c) {
        const auto comp = static_cast<dist::IterComponent>(c);
        breakdown[dist::componentName(comp)] = r.breakdown.meanMs(comp);
    }
    v["breakdown_ms"] = std::move(breakdown);

    if (!r.extras.empty()) {
        json::Value extras = json::Value::object();
        for (const auto &[key, value] : r.extras)
            extras[key] = value;
        v["extras"] = std::move(extras);
    }

    json::Value curve = json::Value::array();
    for (const auto &p : r.reward_curve.points()) {
        json::Value point = json::Value::array();
        point.push(p.t);
        point.push(p.v);
        curve.push(std::move(point));
    }
    v["curve"] = std::move(curve);
    return v;
}

dist::RunResult
resultFromJson(const json::Value &v)
{
    dist::RunResult r;
    if (const json::Value *f = v.find("iterations"))
        r.iterations = static_cast<std::uint64_t>(f->asNumber());
    if (const json::Value *f = v.find("total_sim_ns"))
        r.total_time = static_cast<sim::TimeNs>(f->asNumber());
    if (const json::Value *f = v.find("reward"))
        r.final_avg_reward = f->asNumber();
    if (const json::Value *f = v.find("reached_target"))
        r.reached_target = f->asBool();
    if (const json::Value *f = v.find("error"))
        r.error = f->asString();
    if (const json::Value *f = v.find("breakdown_ms")) {
        for (std::size_t c = 0; c < dist::kNumComponents; ++c) {
            const auto comp = static_cast<dist::IterComponent>(c);
            if (const json::Value *m = f->find(dist::componentName(comp))) {
                const double mean = m->asNumber();
                if (mean > 0.0)
                    r.breakdown.add(comp, sim::fromMillis(mean));
            }
        }
    }
    if (const json::Value *f = v.find("extras")) {
        for (const auto &[key, value] : f->members())
            r.extras[key] = value.asNumber();
    }
    if (const json::Value *f = v.find("curve")) {
        for (const json::Value &p : f->items()) {
            if (p.size() == 2)
                r.reward_curve.record(
                    static_cast<sim::TimeNs>(p.items()[0].asNumber()),
                    p.items()[1].asNumber());
        }
    }
    return r;
}

json::Value
configToJson(const dist::JobConfig &cfg)
{
    json::Value v = json::Value::object();
    v["algo"] = rl::algoName(cfg.algo);
    v["strategy"] = dist::strategyName(cfg.strategy);
    v["num_workers"] = static_cast<std::uint64_t>(cfg.num_workers);
    v["wire_model_bytes"] = cfg.wire_model_bytes;
    v["use_tree"] = cfg.use_tree;
    // Conditional: absent on two-layer configs so pre-fat-tree reports
    // stay byte-identical.
    if (cfg.use_fat_tree)
        v["use_fat_tree"] = true;
    v["seed"] = cfg.seed;
    v["staleness_bound"] =
        static_cast<std::uint64_t>(cfg.staleness_bound);
    v["ps_shards"] = static_cast<std::uint64_t>(cfg.ps_shards);
    v["agg_threshold"] = static_cast<std::uint64_t>(cfg.agg_threshold);
    // Conditional: absent on fp32 configs so pre-pipeline reports stay
    // byte-identical.
    if (cfg.precision != net::Precision::kFp32)
        v["precision"] = net::precisionName(cfg.precision);
    v["curve_every"] = static_cast<std::uint64_t>(cfg.curve_every);
    v["edge_bandwidth_bps"] = cfg.cluster.edge_link.bandwidth_bps;
    // Conditional: absent on unbounded-pool configs so pre-slot-pool
    // reports stay byte-identical.
    if (cfg.cluster.accel.num_slots > 0)
        v["num_slots"] =
            static_cast<std::uint64_t>(cfg.cluster.accel.num_slots);
    json::Value stop = json::Value::object();
    stop["max_iterations"] = cfg.stop.max_iterations;
    if (cfg.stop.hasTarget())
        stop["target_reward"] = cfg.stop.target_reward;
    else
        stop["target_reward"] = json::Value(); // null: no reward target
    stop["min_episodes"] = cfg.stop.min_episodes;
    // Conditional keys: absent on pre-fault-subsystem configs so the
    // committed BENCH baselines stay byte-identical.
    if (cfg.stop.max_sim_time > 0)
        stop["max_sim_time_ns"] = cfg.stop.max_sim_time;
    v["stop"] = std::move(stop);
    const bool lossy = !cfg.faults.empty() ||
                       cfg.cluster.edge_link.loss_prob > 0.0 ||
                       cfg.cluster.uplink.loss_prob > 0.0;
    if (lossy) {
        json::Value retx = json::Value::object();
        retx["timeout_ns"] = cfg.retx.timeout;
        retx["backoff"] = cfg.retx.backoff;
        retx["max_retries"] =
            static_cast<std::uint64_t>(cfg.retx.max_retries);
        v["retx"] = std::move(retx);
    }
    if (!cfg.faults.empty()) {
        const net::FaultPlan &f = cfg.faults;
        json::Value fp = json::Value::object();
        if (f.ge.enabled()) {
            json::Value ge = json::Value::object();
            ge["p_good_to_bad"] = f.ge.p_good_to_bad;
            ge["p_bad_to_good"] = f.ge.p_bad_to_good;
            ge["loss_good"] = f.ge.loss_good;
            ge["loss_bad"] = f.ge.loss_bad;
            fp["gilbert_elliott"] = std::move(ge);
        }
        if (f.extra_loss > 0.0)
            fp["extra_loss"] = f.extra_loss;
        if (f.duplicate_prob > 0.0)
            fp["duplicate_prob"] = f.duplicate_prob;
        if (f.reorder_prob > 0.0)
            fp["reorder_prob"] = f.reorder_prob;
        fp["link_down_windows"] =
            static_cast<std::uint64_t>(f.link_down.size());
        fp["crashes"] = static_cast<std::uint64_t>(f.crashes.size());
        fp["stragglers"] =
            static_cast<std::uint64_t>(f.stragglers.size());
        v["faults"] = std::move(fp);
    }
    return v;
}

} // namespace isw::harness
