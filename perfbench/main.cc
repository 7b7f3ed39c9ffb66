/**
 * @file
 * The simulator benchmark program.
 *
 *   vans_perfbench --workload <chase-load|store-persist|cloud-mm6>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *
 * Sets the workload up at least five times and for at least a second
 * (set-up time is the median), then runs measured passes until
 * --seconds have gone by. With --trace 0 no pass records spans and the
 * end-to-end metrics are reported; with --trace 1 untraced and traced
 * passes alternate and the per-layer metrics are reported. Either way
 * the run checks its own outputs and counts every failed operation.
 *
 * Output: one detail record line ({"perfbench": ...}) with the run
 * conditions, every metric, the exact counters and the span summary,
 * then, as the last line, the result object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "probe.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

// Set-up runs at least this many times and for at least this long;
// setup_s is the median.
constexpr std::size_t minSetups = 5;
constexpr double minSetupSeconds = 1.0;
// Passes of each kind a run makes even when --seconds is shorter.
constexpr std::size_t minPasses = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vans_perfbench: %s\nusage: vans_perfbench --workload "
                 "<chase-load|store-persist|cloud-mm6> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && *end)
            usage(("not a number: " + v).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

std::string
envOr(const char *name)
{
    const char *v = std::getenv(name);
    return v ? v : "";
}

/** A JSON number with all its digits (non-finite values become 0). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + str(ms[i].name) + ": {\"value\": " +
               num(ms[i].value) + ", \"unit\": " + str(ms[i].unit) + "}";
    }
    return out + "}";
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

/**
 * Peak resident set of this process image, in MB. VmHWM, not
 * getrusage's ru_maxrss: the latter keeps the peak of the image that
 * ran before exec, such as the launching interpreter's fork.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb / 1024.0;
}

/** f(x) for every x of @p xs. */
template <class T, class F>
std::vector<double>
collect(const std::vector<T> &xs, F f)
{
    std::vector<double> v;
    for (const T &x : xs)
        v.push_back(f(x));
    return v;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Requests retired per host second over all of @p passes. */
double
windowRate(const std::vector<PassResult> &passes)
{
    double reqs = 0, ns = 0;
    for (const PassResult &p : passes) {
        reqs += p.requests;
        ns += p.hostNs;
    }
    return ratio(reqs, ns / 1e9);
}

/** Everything a run measured. */
struct Run
{
    std::vector<SetupTimes> setups;
    std::vector<PassResult> timed;  ///< Untraced passes.
    std::vector<PassResult> traced; ///< Passes that recorded spans.
    Tracer tracer;
    double peakRss = 0;
    Checks checks;
};

/** Set up, then run the measured window (see the file comment). */
void
measure(Workload &w, const Args &a, Run &run)
{
    double setupTotal = 0;
    while (run.setups.size() < minSetups || setupTotal < minSetupSeconds) {
        run.setups.push_back(w.setup());
        setupTotal += run.setups.back().totalS;
    }

    Tracer &tr = run.tracer;
    std::size_t lastSpans = 0;
    std::uint64_t deadline =
        hostNs() + static_cast<std::uint64_t>(a.seconds * 1e9);
    for (std::size_t k = 0;; ++k) {
        bool enough = run.timed.size() >= minPasses &&
                      (!a.trace || run.traced.size() >= minPasses);
        if (enough && hostNs() >= deadline)
            break;
        bool traced = a.trace && k % 2 == 1;
        std::size_t before = tr.spans().size();
        if (traced)
            tr.reserve(before + lastSpans + 1024);
        tr.enable(traced);
        PassResult r = w.pass(tr);
        tr.enable(false);
        if (traced) {
            lastSpans = tr.spans().size() - before;
            run.traced.push_back(std::move(r));
        } else {
            run.timed.push_back(std::move(r));
        }
    }
    // Read before the checks below, whose span buffers and verified
    // worlds are the benchmark's memory, not the workload's.
    run.peakRss = peakRssMb();
    if (!a.trace) {
        // One traced pass, outside the window, for the digest check
        // and the simulated per-call latencies.
        tr.enable(true);
        run.traced.push_back(w.pass(tr));
        tr.enable(false);
    }
}

/** Gather every pass's checks and compare the passes with each other. */
void
check(Workload &w, Run &run)
{
    Checks &c = run.checks;
    const PassResult &ref = run.timed.front();
    for (const auto *set : {&run.timed, &run.traced}) {
        for (const PassResult &p : *set) {
            c.attempted += p.checks.attempted;
            c.failed += p.checks.failed;
            c.notes.insert(c.notes.end(), p.checks.notes.begin(),
                           p.checks.notes.end());
            c.expect(p.digest == ref.digest,
                     std::string("model.digest differs between ") +
                         (p.traced ? "the traced and the timed"
                                   : "two timed") +
                         " passes");
            c.expect(p.events == ref.events,
                     "event counts differ between passes");
        }
    }
    // Allocation counts are compared from the second timed pass on: a
    // code path first run in the first pass may pay a one-time lazy
    // allocation there (a check site registering itself, say).
    for (std::size_t i = 1; i < run.timed.size(); ++i) {
        c.expect(run.timed[i].allocs == run.timed.back().allocs,
                 "allocation counts differ between timed passes");
    }
    w.verifyPrefix(c);
}

/** Metrics that repeat bit for bit for a given seed. */
std::vector<Metric>
exactMetrics(const Run &run)
{
    const PassResult &p = run.timed.back();
    const PassResult &tp = run.traced.front();
    double kinst = p.insts / 1000.0;
    double cycles = p.coreNs * vans::cpu::CoreParams{}.freqGhz;
    std::vector<Metric> m = layerMetrics(p.delta, p.requests);
    m.insert(m.end(), {
        {"kernel.peak_pending", p.peakPending, "count"},
        {"reqpool.peak_live", p.peakLive, "count"},
        {"alloc.per_req", ratio(p.allocs, p.requests), "count/req"},
        {"snapshot.bytes", run.setups.front().snapshotBytes, "bytes"},
        {"lens.read_sim_ns_p50", percentile(tp.readSimNs, 50), "ns"},
        {"lens.read_sim_ns_p99", percentile(tp.readSimNs, 99), "ns"},
        {"lens.write_sim_ns_p50", percentile(tp.writeSimNs, 50), "ns"},
        {"lens.write_sim_ns_p99", percentile(tp.writeSimNs, 99), "ns"},
        {"lens.fence_sim_ns_p50", percentile(tp.fenceSimNs, 50), "ns"},
        {"lens.fence_sim_ns_p99", percentile(tp.fenceSimNs, 99), "ns"},
        {"cpu.ipc", ratio(p.insts, cycles), "inst/cycle"},
        {"cpu.read_stall_share",
         ratio(p.readStallNs, p.readStallNs + p.otherNs), "ratio"},
        {"cache.llc_mpki", ratio(p.llcMisses, kinst), "count/kinst"},
        {"cache.tlb_mpki", ratio(p.tlbWalks, kinst), "count/kinst"},
        {"model.sim_ns_per_req", ratio(p.simNs, p.requests), "ns"},
        {"model.digest", p.digest, "hash"},
    });
    return m;
}

/** Per-layer host times, from the set-ups and the recorded spans. */
std::vector<Metric>
hostMetrics(const Run &run)
{
    auto summary = run.tracer.summary();
    auto span = [&summary](const char *kind,
                           double Tracer::KindSummary::*field) {
        auto it = summary.find(kind);
        return it == summary.end() ? 0.0 : it->second.*field;
    };
    auto setupMedian = [&run](double SetupTimes::*field) {
        return median(collect(run.setups,
                              [field](const SetupTimes &s) { return s.*field; }));
    };
    double events = 0, hostNs = 0, tracedInsts = 0;
    for (const PassResult &p : run.timed) {
        events += p.events;
        hostNs += p.hostNs;
    }
    for (const PassResult &p : run.traced)
        tracedInsts += p.insts;
    double rate = windowRate(run.timed);
    double tracedRate = windowRate(run.traced);
    using K = Tracer::KindSummary;
    return {
        {"kernel.host_ns_per_event", ratio(hostNs, events), "ns"},
        {"snapshot.capture_ms", setupMedian(&SetupTimes::captureMs), "ms"},
        {"snapshot.restore_ms",
         median(collect(run.timed,
                        [](const PassResult &p) { return p.restoreMs; })),
         "ms"},
        {"lens.read_host_ns_p50", span("lens.read", &K::p50Ns), "ns"},
        {"lens.read_host_ns_p99", span("lens.read", &K::p99Ns), "ns"},
        {"lens.write_host_ns_p50", span("lens.write", &K::p50Ns), "ns"},
        {"lens.write_host_ns_p99", span("lens.write", &K::p99Ns), "ns"},
        {"lens.fence_host_ns_p50", span("lens.fence", &K::p50Ns), "ns"},
        {"lens.fence_host_ns_p99", span("lens.fence", &K::p99Ns), "ns"},
        {"lens.persist_host_ns_p50", span("lens.persist", &K::p50Ns), "ns"},
        {"lens.persist_host_ns_p99", span("lens.persist", &K::p99Ns), "ns"},
        {"lens.drain_host_ms",
         ratio(span("lens.drain", &K::totalMs),
               static_cast<double>(run.traced.size())),
         "ms"},
        {"cpu.host_ns_per_kinst",
         ratio(span("cpu.run", &K::totalMs) * 1e6, tracedInsts / 1000.0),
         "ns"},
        {"workloads.gen_ms", setupMedian(&SetupTimes::genMs), "ms"},
        {"setup.config_ms", setupMedian(&SetupTimes::configMs), "ms"},
        {"setup.construct_ms", setupMedian(&SetupTimes::constructMs), "ms"},
        {"setup.warm_s", setupMedian(&SetupTimes::warmS), "s"},
        {"trace.overhead_pct",
         tracedRate > 0 ? (rate / tracedRate - 1.0) * 100.0 : 0, "%"},
        {"fail_ratio",
         ratio(static_cast<double>(run.checks.failed),
               static_cast<double>(run.checks.attempted)),
         "ratio"},
    };
}

/** The detail record: conditions, every metric, passes and spans. */
std::string
detailRecord(const Args &a, const Run &run, const std::vector<Metric> &e2e,
             const std::vector<Metric> &exact,
             const std::vector<Metric> &perLayer, bool validated)
{
#ifdef VANS_ENABLE_AUDITS
    const char *audits = "true";
#else
    const char *audits = "false";
#endif
    auto rate = [](const PassResult &p) {
        return ratio(p.requests, p.hostNs / 1e9);
    };
    std::string rec = "{\"perfbench\": 1, \"workload\": " + str(a.workload) +
                      ", \"seed\": " + std::to_string(a.seed) +
                      ", \"trace\": " + (a.trace ? "1" : "0");
    rec += ", \"conditions\": {\"build_type\": " + str(PERFBENCH_BUILD_TYPE) +
           ", \"audits\": " + audits +
           ", \"compiler\": " + str(PERFBENCH_COMPILER) +
           ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"seconds\": " + num(a.seconds) +
           ", \"VANS_TRACE\": " + str(envOr("VANS_TRACE")) +
           ", \"VANS_VERIFY\": " + str(envOr("VANS_VERIFY")) +
           ", \"VANS_THREADS\": " + str(envOr("VANS_THREADS")) + "}";
    rec += ", \"ref_error_validated\": " +
           std::string(validated ? "true" : "false");
    rec += ", \"end_to_end\": " + metricsJson(e2e);
    rec += ", \"per_layer\": " + metricsJson(perLayer);
    rec += ", \"exact\": " + metricsJson(exact);
    rec += ", \"passes\": {\"timed_req_per_s\": " +
           numList(collect(run.timed, rate)) +
           ", \"traced_req_per_s\": " + numList(collect(run.traced, rate)) +
           ", \"plateau_ns\": " + numList(run.timed.back().plateauNs) + "}";
    rec += ", \"phases\": {";
    const auto &phases = run.timed.back().phases;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const PhaseStat &ps = phases[i];
        rec += (i ? ", " : "") + str(ps.name) + ": {\"requests\": " +
               num(ps.requests) + ", \"events_per_req\": " +
               num(ratio(ps.events, ps.requests)) +
               ", \"allocs_per_req\": " + num(ratio(ps.allocs, ps.requests)) +
               ", \"sim_ns_per_req\": " + num(ratio(ps.simNs, ps.requests)) +
               ", \"host_ns_per_req\": " +
               num(ratio(ps.hostNs, ps.requests)) + "}";
    }
    rec += "}, \"spans\": {";
    bool first = true;
    for (const auto &[k, s] : run.tracer.summary()) {
        rec += (first ? "" : ", ") + str(k) + ": {\"count\": " +
               std::to_string(s.count) + ", \"total_ms\": " +
               num(s.totalMs) + ", \"self_ms\": " + num(s.selfMs) +
               ", \"p50_ns\": " + num(s.p50Ns) + ", \"p99_ns\": " +
               num(s.p99Ns) + "}";
        first = false;
    }
    rec += "}, \"failures\": [";
    const auto &notes = run.checks.notes;
    for (std::size_t i = 0; i < notes.size() && i < 20; ++i)
        rec += (i ? ", " : "") + str(notes[i]);
    return rec + "]}";
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    for (const char *v : {"VANS_TRACE", "VANS_VERIFY"}) {
        if (!envOr(v).empty()) {
            std::fprintf(stderr,
                         "vans_perfbench: refusing to time a run with "
                         "%s=%s set: it attaches the simulator's own "
                         "recorder or checkers, so the run would measure "
                         "a different program. Unset it.\n",
                         v, envOr(v).c_str());
            return 3;
        }
    }
    auto w = makeWorkload(a.workload, a.seed);
    if (!w)
        usage(("unknown workload " + a.workload).c_str());

    Run run;
    measure(*w, a, run);
    check(*w, run);

    double refErr = w->refErrorPct(run.timed.back());
    bool validated = refErr >= 0;
    std::vector<Metric> e2e = {
        {"req_per_s", windowRate(run.timed), "1/s"},
        {"setup_s",
         median(collect(run.setups,
                        [](const SetupTimes &s) { return s.totalS; })),
         "s"},
        {"peak_rss_mb", run.peakRss, "MB"},
        // No Optane reference exists for this workload: report the
        // full 100 %, never a 0 that would read as validated.
        {"ref_error_pct", validated ? refErr : 100.0, "%"},
    };
    std::vector<Metric> exact = exactMetrics(run);
    std::vector<Metric> perLayer = exact;
    for (Metric &m : hostMetrics(run))
        perLayer.push_back(std::move(m));

    std::printf("%s\n",
                detailRecord(a, run, e2e, exact, perLayer, validated).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                run.checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(run.checks.attempted),
                static_cast<unsigned long long>(run.checks.failed),
                metricsJson(a.trace ? perLayer : e2e).c_str());
    return 0;
}
