/**
 * @file perf_baseline.cpp
 * The repository's benchmark: four fixed AMR workloads run through the
 * public Experiment API, each measured end to end (figure of merit,
 * set-up time, peak memory) and split by layer from one separate traced
 * run. A closed loop: one simulation in flight at a time, at most four
 * threads. README.md in this directory documents the workloads, the
 * metrics and their bounds, and the run policy.
 *
 * Run policy: discarded warm-up passes (at least 2 s), then measured
 * passes. A pass runs every selected workload once, rotating which goes
 * first; each workload runs a zero-cycle copy of its spec (set-up) and
 * then the full run, both timed here with steady_clock around
 * Experiment(spec).run(). Timed runs have tracing and metrics off; the
 * traced runs come after the measured passes. Every run is checked; a
 * failed check marks the run failed and the bench keeps going.
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}, with the end-to-end metrics (--trace 0) or the
 * per-layer metrics (--trace 1, the default).
 */
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "obs/trace.hpp"

namespace {

using namespace vibe;
using Clock = std::chrono::steady_clock;

/** One fixed workload; makeSpec sets every ExperimentSpec field. */
struct Workload
{
    const char* name;
    const char* package;
    bool numeric;
    int mesh;
    int block;
    int levels;
    int ranks;
    int threads;
    int cycles;      ///< Evolution cycles of a full run.
    int smokeCycles; ///< --smoke cycle count (about a quarter).
    int scalars;     ///< burgers num_scalars.
    const char* lbCost;
    double lbTrigger;
    std::vector<std::array<std::string, 3>> params;
    bool seeded; ///< The velocity follows --seed (seededVelocity).
    /** Seed-0 reference of a full run: zone-cycles and final mass. */
    std::int64_t expectedZoneCycles;
    double expectedMass;
};

// Why each workload is in the matrix (the choosing-metrics rule: each
// optimisation has a workload that exercises it and one that bypasses
// it). Sizes keep one set-up + full run between 0.5 and 3 s on a 4-core
// host so a 25 s run holds several reps.
const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> table{
        // Kernel-bound, large blocks, the one 1-rank x 4-thread case:
        // CalculateFluxes dominates thread time, and the fused boundary
        // send/set each run as one task on one worker while the rest
        // idle.
        {"burgers_b16_t4",
         "burgers", true, 32, 16, 3, 1, 4, 3, 1, 4, "uniform", 0.0,
         {}, false, 1474560, 0.015458134203880439},
        // The paper's small-block, deep-AMR regime: one cheap component
        // per cell, so comm, per-block launches, remesh and migration
        // set the cycle time.
        {"advection_b8_r2",
         "advection", true, 32, 8, 3, 2, 2, 20, 5, 1, "uniform", 0.0,
         {}, true, 5121024, 0.0090611997558465215},
        // Per-cell cost varies ~100x across the stiff hotspot and the
        // mesh never remeshes: load balance, migration and collective
        // wait set the cycle. 2 threads per rank: at 1 thread per rank
        // the wall time varied 1.13-1.71 s run to run.
        {"reaction_lb_r2",
         "reaction", true, 32, 8, 1, 2, 2, 128, 32, 1, "measured", 0.2,
         {{"reaction", "stiffness", "6.5"},
          {"reaction", "max_iters", "2000"}},
         true, 4194304, 0.070940461600758828},
        // Counting mode skips kernel bodies: the host-only path (tree
        // update, buffer-cache rebuild, task-graph construction,
        // profiler bookkeeping) on ~1.2k blocks, single-threaded. A
        // kernel gain must not show here; a serial-host gain shows most.
        // 64^3 rather than 128^3: a rep of ~0.5 s fits ~40 reps in a
        // run, which the single-thread timing noise of a shared host
        // needs.
        {"count_b8_l3",
         "burgers", false, 64, 8, 3, 1, 1, 40, 10, 8, "uniform", 0.0,
         {}, false, 23789568, 0.0},
    };
    return table;
}

/**
 * The velocity a seed selects: seed 0 is the canonical (1, 0.5, 0.25);
 * other seeds permute those speeds over the axes and flip their signs
 * (48 variants, seed mod 48), keeping speed and CFL while changing the
 * remesh and migration sequence.
 */
std::vector<std::array<std::string, 3>>
seededVelocity(const std::string& block, std::uint64_t seed)
{
    const double speeds[3] = {1.0, 0.5, 0.25};
    std::array<int, 3> perm{0, 1, 2};
    for (std::uint64_t p = (seed / 8) % 6; p > 0; --p)
        std::next_permutation(perm.begin(), perm.end());
    const char* keys[3] = {"vx", "vy", "vz"};
    std::vector<std::array<std::string, 3>> params;
    for (int d = 0; d < 3; ++d) {
        const double sign = (seed >> d) & 1u ? -1.0 : 1.0;
        char value[32];
        std::snprintf(value, sizeof(value), "%.17g",
                      sign * speeds[perm[static_cast<std::size_t>(d)]]);
        params.push_back({block, keys[d], value});
    }
    return params;
}

ExperimentSpec
makeSpec(const Workload& w, std::uint64_t seed, int cycles)
{
    ExperimentSpec spec;
    spec.package = w.package;
    spec.numeric = w.numeric;
    spec.meshSize = w.mesh;
    spec.blockSize = w.block;
    spec.amrLevels = w.levels;
    spec.ndim = 3;
    spec.numScalars = w.scalars;
    spec.numGhost = 4;
    spec.ncycles = cycles;
    spec.numRanks = w.ranks;
    spec.numThreads = w.threads;
    spec.fusedBoundaries = true;
    spec.optimizeAuxMemory = false;
    spec.randomizeBufferKeys = true;
    spec.lbCost = w.lbCost;
    spec.lbImbalanceTrigger = w.lbTrigger;
    spec.packageParams = w.params;
    if (w.seeded)
        for (auto& param : seededVelocity(w.package, seed))
            spec.packageParams.push_back(param);
    spec.checkpointEvery = 0;
    spec.checkpointPath.clear();
    spec.checkpointAsync = true;
    spec.maxRestarts = 0;
    spec.restartBackoffSeconds = 0.0;
    spec.failRank = -1;
    spec.failCycle = -1;
    spec.tracePath.clear();
    spec.metricsPath.clear();
    spec.platform = PlatformConfig::gpu(1, 1);
    return spec;
}

// --- Metric names -----------------------------------------------------

struct MetricName
{
    const char* name;
    const char* unit;
};

const MetricName kEndToEnd[] = {
    {"fom_zcps", "zone-cycles/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const MetricName kPerLayer[] = {
    {"pkg.fluxes_s", "s"},
    {"pkg.fluxes_gflops", "GFLOP/s"},
    {"pkg.fluxes_gbs", "GB/s"},
    {"pkg.fluxes_flop_per_byte", "flop/B"},
    {"pkg.divergence_s", "s"},
    {"pkg.dt_s", "s"},
    {"pkg.derived_s", "s"},
    {"pkg.tag_s", "s"},
    {"solver.update_s", "s"},
    {"comm.send_s", "s"},
    {"comm.set_s", "s"},
    {"comm.poll_s", "s"},
    {"comm.poll_hit_ratio", "fraction"},
    {"comm.collective_wait_s", "s"},
    {"comm.messages_per_cycle", "count"},
    {"comm.bytes_per_cycle", "B"},
    {"comm.remote_bytes", "B"},
    {"driver.cycle_s", "s"},
    {"driver.host_s", "s"},
    {"driver.amr_lb_s", "s"},
    {"driver.migrate_s", "s"},
    {"driver.moved_blocks", "count"},
    {"driver.lb_late_imbalance", "ratio"},
    {"driver.task_idle_frac", "fraction"},
    {"driver.straggler_idle_frac", "fraction"},
    {"driver.critical_path_frac", "fraction"},
    {"driver.tasks_per_cycle", "count"},
    {"mesh.remesh_events", "count"},
    {"mesh.blocks_mean", "count"},
    {"mesh.prolong_restrict_s", "s"},
    {"mesh.tracked_bytes", "B"},
    {"exec.launches_per_cycle", "count"},
    {"exec.kernel_s", "s"},
    {"exec.launch_us", "us"},
    {"perfmodel.model_fom_zcps", "zone-cycles/s"},
    {"perfmodel.serial_frac", "fraction"},
    {"obs.trace_events", "count"},
    {"obs.trace_overhead_frac", "fraction"},
    {"obs.span_coverage", "fraction"},
};

/**
 * Span name (before any ":<suffix>") -> the per-layer metric its self
 * time feeds. A span whose name is not listed inherits the class of the
 * span enclosing it on the same thread (a kernel launched inside a
 * CalculateFluxes task is flux time).
 */
const std::pair<std::string_view, std::string_view> kSpanClasses[] = {
    {"CalculateFluxes", "pkg.fluxes_s"},
    {"FluxDivergence", "pkg.divergence_s"},
    {"EstimateTimeStep", "pkg.dt_s"},
    {"EstTimeMesh", "pkg.dt_s"},
    {"CalculateDerived", "pkg.derived_s"},
    {"MassHistory", "pkg.derived_s"},
    {"FirstDerivative", "pkg.tag_s"},
    {"WeightedSumData", "solver.update_s"},
    {"SendBoundBufs", "comm.send_s"},
    {"FluxCorrSend", "comm.send_s"},
    {"SetBounds", "comm.set_s"},
    {"FluxCorrApply", "comm.set_s"},
    {"StartReceiveBoundBufs", "comm.poll_s"},
    {"ReceiveBoundBufs", "comm.poll_s"},
    {"FluxCorrRecv", "comm.poll_s"},
    {"Rendezvous", "comm.collective_wait_s"},
    {"Cycle", "driver.host_s"},
    {"LoadBalancingAndAMR", "driver.amr_lb_s"},
    {"MigrateBlocks", "driver.migrate_s"},
    {"ProlongRestrictLoop", "mesh.prolong_restrict_s"},
};

std::string_view
spanPrefix(std::string_view name)
{
    return name.substr(0, name.find(':'));
}

std::string_view
spanClass(std::string_view name)
{
    const std::string_view prefix = spanPrefix(name);
    for (const auto& [span, metric] : kSpanClasses)
        if (prefix == span)
            return metric;
    return {};
}

// --- Statistics -------------------------------------------------------

/**
 * Quartiles exactly as Python's statistics.quantiles(values, n=4)
 * (the "exclusive" method), so the bench, compare.py and the driver's
 * spread rule agree; a single value is its own quartiles.
 */
std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {0.0, 0.0, 0.0};
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld == 1)
        return {v[0], v[0], v[0]};
    std::array<double, 3> q{};
    const long m = ld + 1;
    for (long i = 1; i < 4; ++i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[static_cast<std::size_t>(i - 1)] =
            (v[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(4 - delta) +
             v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
            4.0;
    }
    return q;
}

double
median(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Memory -----------------------------------------------------------

/** A "VmRSS"/"VmHWM" field of /proc/self/status in kB (-1 if absent). */
long
statusKb(const char* field)
{
    std::ifstream in("/proc/self/status");
    const std::size_t n = std::strlen(field);
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':')
            return std::atol(line.c_str() + n + 1);
    return -1;
}

/** Return freed heap to the OS and restart the VmHWM high-water mark. */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

// --- Runs and checks --------------------------------------------------

struct Run
{
    bool ok = false; ///< Returned without an exception.
    std::string error;
    double seconds = 0;
    double rssMb = 0;
    ExperimentResult result;
};

Run
timedRun(const ExperimentSpec& spec)
{
    Run run;
    resetPeakRss();
    const long before = statusKb("VmRSS");
    const auto start = Clock::now();
    try {
        run.result = Experiment(spec).run();
        run.ok = true;
    } catch (const std::exception& e) {
        run.error = e.what();
    }
    run.seconds = secondsSince(start);
    run.rssMb = static_cast<double>(statusKb("VmHWM") - before) / 1024.0;
    return run;
}

/** Everything measured for one workload over the whole invocation. */
struct WorkloadState
{
    const Workload* w = nullptr;
    ExperimentSpec spec;
    ExperimentSpec setupSpec;
    std::vector<double> setupS;
    std::vector<double> fullS;
    std::vector<double> rssMb;
    /** Per-layer values read off each measured run's result. */
    std::map<std::string, std::vector<double>> resultLayers;
    /** Per-layer values from the traced run. */
    std::map<std::string, double> traceLayers;
    std::map<std::string, double> unclassifiedUs;
    bool traced = false;
    bool distorted = false;
    /** Check name -> passed on every run so far. */
    std::map<std::string, bool> checks;
    std::vector<std::string> errors;
    int attempted = 0;
    int failed = 0;
    int reps = 0; ///< Reps started, warm-up included (CPU rotation).
    // First successful full run: the reference for repeatability.
    bool haveRef = false;
    std::int64_t refZoneCycles = 0;
    double refMass = 0;
    double refModelFom = 0;
    double fluxFlops = 0;
    double fluxBytes = 0;
};

void
check(WorkloadState& s, const char* name, bool ok, bool& run_ok)
{
    const auto it = s.checks.emplace(name, true).first;
    if (!ok) {
        it->second = false;
        run_ok = false;
    }
}

/** Account one run: every check it must pass, and the tally. */
void
checkRun(WorkloadState& s, const Run& run, bool full, std::uint64_t seed,
         bool smoke)
{
    bool ok = true;
    ++s.attempted;
    check(s, "no_exception", run.ok && run.result.restarts == 0, ok);
    if (!run.ok && s.errors.size() < 3)
        s.errors.push_back(run.error);
    if (run.ok && full) {
        const ExperimentResult& r = run.result;
        const double mass = r.history.empty() ? 0.0 : r.history.back().mass;
        if (s.w->numeric) {
            const double first =
                r.history.empty() ? 0.0 : r.history.front().mass;
            check(s, "mass_conserved",
                  !r.history.empty() && first != 0.0 &&
                      std::fabs(mass - first) <= 1e-12 * std::fabs(first),
                  ok);
        }
        if (!s.haveRef) {
            s.haveRef = true;
            s.refZoneCycles = r.zoneCycles;
            s.refMass = mass;
            s.refModelFom = r.fom();
            const KernelStats flux = r.profiler.kernelByName("CalculateFluxes");
            s.fluxFlops = flux.flops;
            s.fluxBytes = flux.bytes;
        }
        check(s, "repeatable",
              r.zoneCycles == s.refZoneCycles && mass == s.refMass, ok);
        if (!s.w->numeric)
            check(s, "model_fom_repeatable", r.fom() == s.refModelFom, ok);
        // The reference holds for the canonical decks at full length.
        if (seed == 0 && !smoke) {
            const bool zc = r.zoneCycles == s.w->expectedZoneCycles;
            const bool m =
                !s.w->numeric ||
                std::fabs(mass - s.w->expectedMass) <=
                    1e-10 * std::fabs(s.w->expectedMass);
            check(s, "seed0_reference", zc && m, ok);
        }
    }
    if (!ok)
        ++s.failed;
}

/**
 * Straggler idle as bench/lb_imbalance.cpp computes it: 1 - busy /
 * (task-graph wall x ranks x threads), charging early finishers' wait
 * for the slowest rank.
 */
double
stragglerIdle(const ExperimentResult& r)
{
    double wall = 0;
    double busy = 0;
    for (const CycleStats& c : r.history) {
        wall += c.taskWallSeconds;
        busy += c.busySeconds;
    }
    const double capacity = wall * r.spec.numRanks * r.spec.numThreads;
    return capacity > 0 ? 1.0 - busy / capacity : 0.0;
}

/** Per-layer values a measured run's ExperimentResult carries. */
void
addResultLayers(WorkloadState& s, const ExperimentResult& setup,
                const ExperimentResult& full)
{
    const std::vector<CycleStats>& h = full.history;
    const double cycles = static_cast<double>(std::max<std::size_t>(1, h.size()));
    double moved = 0, remesh = 0, blocks = 0, late_imbalance = 0;
    int late_samples = 0;
    for (std::size_t c = 0; c < h.size(); ++c) {
        moved += h[c].movedBlocks;
        remesh += h[c].refined + h[c].derefined;
        blocks += static_cast<double>(h[c].nblocks);
        if (c >= h.size() / 2 && h[c].lbImbalance > 0) {
            late_imbalance += h[c].lbImbalance;
            ++late_samples;
        }
    }
    auto add = [&s](const char* name, double value) {
        s.resultLayers[name].push_back(value);
    };
    add("comm.messages_per_cycle", full.messagesPerCycle());
    add("comm.bytes_per_cycle", full.boundaryBytesPerCycle());
    add("comm.remote_bytes", full.traffic.remoteBytes);
    add("driver.moved_blocks", moved);
    add("driver.lb_late_imbalance",
        late_samples > 0 ? late_imbalance / late_samples : 0.0);
    add("driver.task_idle_frac", full.idle.idleFraction());
    add("driver.straggler_idle_frac", stragglerIdle(full));
    add("driver.critical_path_frac",
        full.idle.taskWallSeconds > 0
            ? full.idle.criticalPathSeconds / full.idle.taskWallSeconds
            : 0.0);
    add("mesh.remesh_events", remesh);
    add("mesh.blocks_mean", blocks / cycles);
    add("mesh.tracked_bytes", static_cast<double>(full.kokkosBytes));
    // Set-up launches are the zero-cycle run's, so this counts the
    // evolution loop only.
    add("exec.launches_per_cycle",
        static_cast<double>(full.profiler.totalLaunches() -
                            setup.profiler.totalLaunches()) /
            cycles);
    add("perfmodel.model_fom_zcps", full.fom());
    add("perfmodel.serial_frac", full.serialFraction());
}

// --- Trace attribution ------------------------------------------------

/**
 * Attribute a traced run's spans to layers: each span's self time (its
 * duration minus its children's on the same thread) goes to its class.
 * Only spans that start inside the evolution loop (first Cycle start to
 * last Cycle end) count; set-up has its own end-to-end metric.
 */
void
attributeSpans(WorkloadState& s, const std::vector<TraceEvent>& events,
               double cycles)
{
    std::vector<const TraceEvent*> spans;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (const TraceEvent& e : events) {
        if (e.kind != TraceEvent::Kind::Span)
            continue;
        spans.push_back(&e);
        if (e.nameView() == "Cycle") {
            lo = std::min(lo, e.tsUs);
            hi = std::max(hi, e.tsUs + e.durUs);
        }
    }
    // Per thread, parents before children: by start, longest first.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->tsUs != b->tsUs)
                      return a->tsUs < b->tsUs;
                  return a->durUs > b->durUs;
              });
    std::vector<double> self(spans.size());
    std::vector<std::string_view> cls(spans.size());
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const TraceEvent& e = *spans[i];
        while (!open.empty() &&
               (spans[open.back()]->tid != e.tid ||
                spans[open.back()]->tsUs + spans[open.back()]->durUs <=
                    e.tsUs))
            open.pop_back();
        self[i] = e.durUs;
        cls[i] = spanClass(e.nameView());
        if (!open.empty()) {
            self[open.back()] -= e.durUs;
            // Host time is Cycle's own self time only: an unnamed span
            // directly inside a cycle stays unclassified, so coverage
            // shows what the class table misses.
            if (cls[i].empty() && cls[open.back()] != "driver.host_s")
                cls[i] = cls[open.back()];
        }
        open.push_back(i);
    }

    std::map<std::string_view, double> class_us;
    double total_us = 0, kernel_self_us = 0, kernel_dur_us = 0;
    double cycle_us = 0, kernels = 0, polls = 0, poll_hits = 0, tasks = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const TraceEvent& e = *spans[i];
        if (e.tsUs < lo || e.tsUs > hi)
            continue;
        total_us += self[i];
        if (cls[i].empty())
            s.unclassifiedUs[std::string(spanPrefix(e.nameView()))] +=
                self[i];
        else
            class_us[cls[i]] += self[i];
        const bool retry = (e.flags & TraceEvent::kPollRetry) != 0;
        if (e.cat == TraceCat::Kernel) {
            ++kernels;
            kernel_self_us += self[i];
            kernel_dur_us += e.durUs;
        }
        // Task spans are the only compute/comm spans stamped with a cycle.
        if ((e.cat == TraceCat::Compute || e.cat == TraceCat::Comm) &&
            e.cycle >= 0 && !retry)
            ++tasks;
        const std::string_view prefix = spanPrefix(e.nameView());
        if (prefix == "ReceiveBoundBufs" || prefix == "FluxCorrRecv") {
            ++polls;
            poll_hits += retry ? 0 : 1;
        }
        if (prefix == "Cycle" && e.rank == 0)
            cycle_us += e.durUs;
    }

    double classified_us = 0;
    for (const auto& entry : kSpanClasses)
        s.traceLayers[std::string(entry.second)] = 0.0;
    for (const auto& [metric, us] : class_us) {
        s.traceLayers[std::string(metric)] = us * 1e-6 / cycles;
        classified_us += us;
    }
    const double flux_s = class_us["pkg.fluxes_s"] * 1e-6;
    s.traceLayers["pkg.fluxes_gflops"] =
        flux_s > 0 ? s.fluxFlops / flux_s * 1e-9 : 0.0;
    s.traceLayers["pkg.fluxes_gbs"] =
        flux_s > 0 ? s.fluxBytes / flux_s * 1e-9 : 0.0;
    s.traceLayers["pkg.fluxes_flop_per_byte"] =
        s.fluxBytes > 0 ? s.fluxFlops / s.fluxBytes : 0.0;
    s.traceLayers["comm.poll_hit_ratio"] = polls > 0 ? poll_hits / polls : 0.0;
    s.traceLayers["driver.cycle_s"] = cycle_us * 1e-6 / cycles;
    s.traceLayers["driver.tasks_per_cycle"] = tasks / cycles;
    s.traceLayers["exec.kernel_s"] = kernel_self_us * 1e-6 / cycles;
    s.traceLayers["exec.launch_us"] = kernels > 0 ? kernel_dur_us / kernels : 0.0;
    s.traceLayers["obs.trace_events"] = static_cast<double>(events.size());
    s.traceLayers["obs.span_coverage"] =
        total_us > 0 ? classified_us / total_us : 0.0;
}

/** One traced full run: per-layer times, overhead and distortion. */
void
tracedRun(WorkloadState& s, std::uint64_t seed)
{
    TraceRecorder& recorder = TraceRecorder::instance();
    recorder.start();
    const Run run = timedRun(s.spec);
    const std::uint64_t dropped = recorder.dropped();
    const std::vector<TraceEvent> events = recorder.drain();
    checkRun(s, run, true, seed, false);
    if (!run.ok)
        return;
    s.traced = true;
    const double cycles = static_cast<double>(
        std::max<std::size_t>(1, run.result.history.size()));
    attributeSpans(s, events, cycles);
    const double untraced = median(s.fullS);
    const double overhead = untraced > 0 ? run.seconds / untraced - 1.0 : 0.0;
    s.traceLayers["obs.trace_overhead_frac"] = overhead;
    // Past this the tracer, not the program, sets the layer times.
    s.distorted = overhead > 0.5 || dropped > 0;
}

// --- Measurement loop -------------------------------------------------

/**
 * The rep-th CPU of `allowed`, alone. A shared host slows its vCPUs one
 * at a time for minutes; a single-threaded run left to the scheduler
 * stays on one of them for its whole length, so its median measured
 * that vCPU (run-to-run quartile spread 39%, against 13% when the reps
 * rotate over the CPUs).
 */
cpu_set_t
rotatedCpu(const cpu_set_t& allowed, int rep)
{
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(rep) % cpus.size()], &one);
    return one;
}

/** One rep: the zero-cycle set-up run, then the full run. */
void
runRep(WorkloadState& s, std::uint64_t seed, bool smoke, bool record)
{
    // Multi-threaded workloads already span every vCPU.
    cpu_set_t allowed;
    bool rotate = s.w->ranks * s.w->threads == 1 &&
                  sched_getaffinity(0, sizeof(allowed), &allowed) == 0;
    if (rotate) {
        const cpu_set_t one = rotatedCpu(allowed, s.reps);
        rotate = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ++s.reps;
    const Run setup = timedRun(s.setupSpec);
    checkRun(s, setup, false, seed, smoke);
    const Run full = timedRun(s.spec);
    checkRun(s, full, true, seed, smoke);
    if (rotate)
        sched_setaffinity(0, sizeof(allowed), &allowed);
    if (!record || !setup.ok || !full.ok)
        return;
    s.setupS.push_back(setup.seconds);
    s.fullS.push_back(full.seconds);
    s.rssMb.push_back(full.rssMb);
    addResultLayers(s, setup.result, full.result);
}

/** Per-rep FOM: zone-cycles over the full run minus the median set-up. */
std::vector<double>
fomSamples(const WorkloadState& s)
{
    const double setup = median(s.setupS);
    std::vector<double> fom;
    for (double full : s.fullS) {
        const double evolve = full - setup;
        fom.push_back(evolve > 0
                          ? static_cast<double>(s.refZoneCycles) / evolve
                          : 0.0);
    }
    return fom;
}

std::map<std::string, std::vector<double>>
endToEndSamples(const WorkloadState& s)
{
    return {{"fom_zcps", fomSamples(s)},
            {"setup_s", s.setupS},
            {"peak_rss_mb", s.rssMb}};
}

double
perLayerValue(const WorkloadState& s, const std::string& name)
{
    const auto traced = s.traceLayers.find(name);
    if (traced != s.traceLayers.end())
        return traced->second;
    const auto result = s.resultLayers.find(name);
    return result != s.resultLayers.end() ? median(result->second) : 0.0;
}

bool
perLayerKnown(const WorkloadState& s, const std::string& name)
{
    return s.traceLayers.count(name) || s.resultLayers.count(name);
}

// --- Output -----------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
printWorkload(const WorkloadState& s)
{
    const Workload& w = *s.w;
    std::printf("\n== %s: %s %s, %d^3, B%d, %d level(s), %d rank(s) x %d "
                "thread(s), %lld cycles\n",
                w.name, w.package, w.numeric ? "numeric" : "counting",
                w.mesh, w.block, w.levels, w.ranks, w.threads,
                static_cast<long long>(s.spec.ncycles));
    std::printf("   %-28s %-14s %14s %14s %14s %4s\n", "metric", "unit",
                "median", "q1", "q3", "n");
    const auto e2e = endToEndSamples(s);
    for (const MetricName& m : kEndToEnd) {
        const std::vector<double>& v = e2e.at(m.name);
        const auto q = quartiles(v);
        std::printf("   %-28s %-14s %14.6g %14.6g %14.6g %4zu\n", m.name,
                    m.unit, median(v), q[0], q[2], v.size());
    }
    std::printf("   %-28s %-14s %14.6g   (%d of %d runs failed)\n",
                "fail_frac", "fraction",
                s.attempted > 0 ? static_cast<double>(s.failed) / s.attempted
                                : 0.0,
                s.failed, s.attempted);
    std::printf("   result: zone-cycles %lld, final mass %.17g\n",
                static_cast<long long>(s.refZoneCycles), s.refMass);
    std::printf("   checks:");
    for (const auto& [name, ok] : s.checks)
        std::printf(" %s=%s", name.c_str(), ok ? "pass" : "FAIL");
    std::printf("\n");
    for (const std::string& error : s.errors)
        std::printf("   error: %s\n", error.c_str());
    if (s.resultLayers.empty() && !s.traced)
        return;
    std::printf("   per layer (%s)%s:\n",
                s.traced ? "traced run + run results" : "run results only",
                s.distorted ? " [distorted: tracing overhead > 0.5 or "
                              "events dropped]"
                            : "");
    for (const MetricName& m : kPerLayer)
        if (perLayerKnown(s, m.name))
            std::printf("   %-28s %-14s %14.6g\n", m.name, m.unit,
                        perLayerValue(s, m.name));
    if (!s.unclassifiedUs.empty()) {
        std::vector<std::pair<double, std::string>> top;
        for (const auto& [name, us] : s.unclassifiedUs)
            top.push_back({us, name});
        std::sort(top.rbegin(), top.rend());
        std::printf("   unclassified spans (self s):");
        for (std::size_t i = 0; i < top.size() && i < 4; ++i)
            std::printf(" %s=%.4g", top[i].second.c_str(),
                        top[i].first * 1e-6);
        std::printf("\n");
    }
}

/** The --json report: everything printed, with every sample. */
bool
writeJson(const std::string& path, const std::vector<WorkloadState>& states,
          std::uint64_t seed, bool smoke, double total_wall, int attempted,
          int failed)
{
    std::ostringstream out;
    out << "{\"bench\": \"perf_baseline\", \"seed\": " << seed
        << ", \"smoke\": " << (smoke ? "true" : "false")
        << ", \"total_wall_s\": " << num(total_wall)
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"workloads\": {";
    for (std::size_t i = 0; i < states.size(); ++i) {
        const WorkloadState& s = states[i];
        out << (i ? ", " : "") << quoted(s.w->name)
            << ": {\"cycles\": " << s.spec.ncycles
            << ", \"zone_cycles\": " << s.refZoneCycles
            << ", \"attempted\": " << s.attempted
            << ", \"failed\": " << s.failed << ", \"full_s\": [";
        for (std::size_t k = 0; k < s.fullS.size(); ++k)
            out << (k ? ", " : "") << num(s.fullS[k]);
        out << "], \"e2e\": {";
        const auto e2e = endToEndSamples(s);
        bool first = true;
        for (const MetricName& m : kEndToEnd) {
            const std::vector<double>& v = e2e.at(m.name);
            const auto q = quartiles(v);
            out << (first ? "" : ", ") << quoted(m.name)
                << ": {\"unit\": " << quoted(m.unit)
                << ", \"median\": " << num(median(v))
                << ", \"q1\": " << num(q[0]) << ", \"q3\": " << num(q[2])
                << ", \"n\": " << v.size() << ", \"samples\": [";
            for (std::size_t k = 0; k < v.size(); ++k)
                out << (k ? ", " : "") << num(v[k]);
            out << "]}";
            first = false;
        }
        out << "}, \"per_layer\": {";
        first = true;
        for (const MetricName& m : kPerLayer) {
            if (!perLayerKnown(s, m.name))
                continue;
            out << (first ? "" : ", ") << quoted(m.name)
                << ": {\"unit\": " << quoted(m.unit)
                << ", \"value\": " << num(perLayerValue(s, m.name)) << "}";
            first = false;
        }
        out << "}, \"distorted\": " << (s.distorted ? "true" : "false")
            << ", \"checks\": {";
        first = true;
        for (const auto& [name, ok] : s.checks) {
            out << (first ? "" : ", ") << quoted(name) << ": "
                << (ok ? "true" : "false");
            first = false;
        }
        out << "}}";
    }
    out << "}}\n";
    std::ofstream file(path);
    file << out.str();
    return static_cast<bool>(file);
}

/** The result line: end-to-end or per-layer metrics, by name. */
std::string
resultLine(const std::vector<WorkloadState>& states, bool per_layer,
           int attempted, int failed)
{
    std::ostringstream out;
    out << "{\"correct\": " << (failed == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const WorkloadState& s : states) {
        // One workload: bare names. Several: "<workload>.<metric>".
        const std::string prefix =
            states.size() == 1 ? "" : std::string(s.w->name) + ".";
        auto emit = [&](const char* name, const char* unit, double value) {
            out << (first ? "" : ", ") << quoted(prefix + name)
                << ": {\"value\": " << num(value)
                << ", \"unit\": " << quoted(unit) << "}";
            first = false;
        };
        if (per_layer) {
            for (const MetricName& m : kPerLayer)
                emit(m.name, m.unit, perLayerValue(s, m.name));
        } else {
            const auto e2e = endToEndSamples(s);
            for (const MetricName& m : kEndToEnd)
                emit(m.name, m.unit, median(e2e.at(m.name)));
        }
    }
    out << "}}";
    return out.str();
}

// --- Command line -----------------------------------------------------

struct Options
{
    std::vector<std::string> workloads;
    std::uint64_t seed = 0;
    double seconds = 0; ///< > 0: measured passes fill this budget.
    int reps = 0;       ///< > 0: exactly this many measured passes.
    bool trace = true;
    bool smoke = false;
    std::string jsonPath;
};

[[noreturn]] void
usage(const char* error)
{
    std::fprintf(stderr,
                 "perf_baseline: %s\n"
                 "usage: perf_baseline [--workload NAME]... [--seed N] "
                 "[--seconds S | --reps N] [--trace 0|1] [--smoke] "
                 "[--json PATH]\nworkloads:",
                 error);
    for (const Workload& w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        auto value = [&]() -> std::string {
            if (a + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++a];
        };
        auto integer = [&](long min) {
            const std::string v = value();
            char* end = nullptr;
            const long n = std::strtol(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || n < min)
                usage((arg + ": bad value '" + v + "'").c_str());
            return n;
        };
        if (arg == "--workload") {
            const std::string name = value();
            if (std::none_of(workloads().begin(), workloads().end(),
                             [&](const Workload& w) { return name == w.name; }))
                usage(("unknown workload '" + name + "'").c_str());
            o.workloads.push_back(name);
        } else if (arg == "--seed") {
            o.seed = static_cast<std::uint64_t>(integer(0));
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(integer(1));
        } else if (arg == "--reps") {
            o.reps = static_cast<int>(integer(1));
        } else if (arg == "--trace") {
            const long t = integer(0);
            if (t > 1)
                usage("--trace takes 0 or 1");
            o.trace = t == 1;
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--json") {
            o.jsonPath = value();
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (o.workloads.empty())
        for (const Workload& w : workloads())
            o.workloads.push_back(w.name);
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto start = Clock::now();
    const Options opts = parseArgs(argc, argv);

    // Experiment reads these and would silently change a timed run.
    for (const char* var : {"VIBE_TRACE", "VIBE_METRICS", "VIBE_LB_COST",
                            "VIBE_FAIL_RANK", "VIBE_FAIL_CYCLE"})
        if (std::getenv(var)) {
            std::fprintf(stderr, "perf_baseline: unset %s; it changes the "
                                 "runs being timed\n", var);
            return 2;
        }
    if (!resetPeakRss()) {
        std::fprintf(stderr, "perf_baseline: cannot write "
                             "/proc/self/clear_refs to reset VmHWM\n");
        return 2;
    }

    const unsigned cores = std::thread::hardware_concurrency();
    std::vector<WorkloadState> states;
    for (const std::string& name : opts.workloads) {
        const Workload& w = *std::find_if(
            workloads().begin(), workloads().end(),
            [&](const Workload& x) { return name == x.name; });
        const unsigned threads = static_cast<unsigned>(w.ranks * w.threads);
        if (threads > cores) {
            std::fprintf(stderr, "perf_baseline: %s needs %u threads, the "
                                 "host has %u\n", w.name, threads, cores);
            return 2;
        }
        WorkloadState s;
        s.w = &w;
        s.spec = makeSpec(w, opts.seed, opts.smoke ? w.smokeCycles : w.cycles);
        s.setupSpec = makeSpec(w, opts.seed, 0);
        states.push_back(std::move(s));
    }

    std::printf("perf_baseline: seed %llu, %zu workload(s), %s\n",
                static_cast<unsigned long long>(opts.seed), states.size(),
                opts.smoke ? "smoke (1 pass, no warm-up, no trace)"
                : opts.reps > 0 ? "fixed passes"
                : opts.seconds > 0 ? "time-bounded passes"
                                   : "5 passes");
    std::fflush(stdout);

    // Warm-up, discarded: the first runs after a pause are 10-25% slower
    // on this class of host, so it lasts at least kWarmupSeconds.
    const double kWarmupSeconds = 2.0;
    if (!opts.smoke)
        do {
            for (WorkloadState& s : states)
                runRep(s, opts.seed, false, false);
        } while (secondsSince(start) < kWarmupSeconds);

    const int min_passes = 3;
    const int default_passes = 5;
    const auto measure_start = Clock::now();
    for (int pass = 0;; ++pass) {
        if (opts.smoke) {
            if (pass == 1)
                break;
        } else if (opts.reps > 0) {
            if (pass == opts.reps)
                break;
        } else if (opts.seconds > 0) {
            // Stop when another pass of the mean length would overrun.
            const double elapsed = secondsSince(start);
            const double per_pass =
                pass > 0 ? secondsSince(measure_start) / pass : 0.0;
            if (pass >= min_passes && elapsed + per_pass > opts.seconds)
                break;
        } else if (pass == default_passes) {
            break;
        }
        for (std::size_t k = 0; k < states.size(); ++k)
            runRep(states[(k + static_cast<std::size_t>(pass)) % states.size()],
                   opts.seed, opts.smoke, true);
    }

    const bool trace = opts.trace && !opts.smoke;
    if (trace)
        for (WorkloadState& s : states)
            tracedRun(s, opts.seed);

    int attempted = 0;
    int failed = 0;
    for (const WorkloadState& s : states) {
        printWorkload(s);
        attempted += s.attempted;
        failed += s.failed;
    }
    const double total_wall = secondsSince(start);
    std::printf("\ntotal wall %.2f s; %d of %d runs failed\n", total_wall,
                failed, attempted);

    int rc = 0;
    if (opts.smoke) {
        // Every end-to-end metric must be emitted with a usable value.
        for (const WorkloadState& s : states)
            for (const auto& [name, v] : endToEndSamples(s))
                if (v.empty() || !(median(v) > 0)) {
                    std::printf("smoke: %s has no %s\n", s.w->name,
                                name.c_str());
                    rc = 1;
                }
        if (failed > 0)
            rc = 1;
    }
    if (!opts.jsonPath.empty() &&
        !writeJson(opts.jsonPath, states, opts.seed, opts.smoke, total_wall,
                   attempted, failed)) {
        std::fprintf(stderr, "perf_baseline: cannot write %s\n",
                     opts.jsonPath.c_str());
        return 2;
    }
    std::printf("%s\n", resultLine(states, trace, attempted, failed).c_str());
    return rc;
}
