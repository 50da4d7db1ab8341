/**
 * @file
 * google-benchmark glue for the qsa::benchjson trajectory files.
 *
 * Replace BENCHMARK_MAIN() with QSA_BENCHJSON_MAIN("bench_name") to
 * accept `--json <path>` alongside the normal benchmark flags: runs
 * print to the console exactly as before, and when the flag is given
 * every run is additionally teed into one machine-readable JSON
 * document (format: benchjson.hh). This header is bench-only on
 * purpose: libqsa never depends on the benchmark library.
 */

#ifndef QSA_BENCH_BENCHJSON_MAIN_HH
#define QSA_BENCH_BENCHJSON_MAIN_HH

#include <functional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "benchjson.hh"
#include "obs/obs.hh"

namespace qsa::benchjson
{

/** Console output as usual, plus a Record per successful run. */
class TeeReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const auto &run : runs) {
            if (run.error_occurred)
                continue;
            Record rec;
            rec.name = run.benchmark_name();
            rec.label = run.report_label;
            rec.iterations = run.iterations;
            rec.realTime = run.GetAdjustedRealTime();
            rec.cpuTime = run.GetAdjustedCPUTime();
            rec.timeUnit = benchmark::GetTimeUnitString(run.time_unit);
            for (const auto &[name, counter] : run.counters)
                rec.counters.emplace_back(name, (double)counter.value);
            records.push_back(std::move(rec));
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    std::vector<Record> records;
};

/**
 * The BENCHMARK_MAIN() body with --json teeing bolted on. The JSON
 * document embeds the qsa::obs metrics snapshot taken just before
 * writing; `metrics_epilogue`, when given, runs first — benches use
 * it to reset the registry and replay a fixed workload so the
 * snapshot is deterministic instead of scaling with however many
 * iterations the timing loops decided to run (see bench_locate.cpp).
 */
inline int
benchMain(const std::string &bench_name, int argc, char **argv,
          const std::function<void()> &metrics_epilogue = nullptr)
{
    const std::string json_path = extractJsonPath(&argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    TeeReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!json_path.empty()) {
        if (metrics_epilogue)
            metrics_epilogue();
        write(json_path, bench_name, reporter.records,
              obs::metricsObject());
    }
    benchmark::Shutdown();
    return 0;
}

} // namespace qsa::benchjson

#define QSA_BENCHJSON_MAIN(bench_name)                                \
    int main(int argc, char **argv)                                   \
    {                                                                 \
        return qsa::benchjson::benchMain(bench_name, argc, argv);     \
    }

/** As QSA_BENCHJSON_MAIN with a deterministic-metrics epilogue. */
#define QSA_BENCHJSON_MAIN_WITH_METRICS(bench_name, epilogue)         \
    int main(int argc, char **argv)                                   \
    {                                                                 \
        return qsa::benchjson::benchMain(bench_name, argc, argv,      \
                                         epilogue);                   \
    }

#endif // QSA_BENCH_BENCHJSON_MAIN_HH
