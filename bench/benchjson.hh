/**
 * @file
 * Machine-readable bench output (the BENCH_*.json trajectory files).
 *
 * The benches print human-oriented tables; tracking a perf trajectory
 * across commits needs a stable machine format instead. This header
 * is the benchmark-library-agnostic half of the bench glue: a
 * `--json <path>` argv extractor plus the writer of one document from
 * flat run records. The google-benchmark reporter lives in
 * benchjson_main.hh, the table benches' hook in benchjson_table.hh;
 * libqsa itself knows nothing of either.
 *
 * Document shape, one result record per line:
 *   {
 *     "bench": "<binary name>",
 *     "results": [
 *       {"name":"...","label":"...","iterations":N,
 *        "real_time":t,"cpu_time":t,"time_unit":"ms",
 *        "counters":{"probes":15,...}},
 *       ...
 *     ],
 *     "metrics": {"locate.probes":12,...}   // qsa::obs snapshot
 *   }
 */

#ifndef QSA_BENCH_BENCHJSON_HH
#define QSA_BENCH_BENCHJSON_HH

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace qsa::benchjson
{

/** One benchmark run, flattened. */
struct Record
{
    /** Benchmark name (e.g. "BM_LocateAdaptive/0"). */
    std::string name;

    /** Optional label set by the benchmark (e.g. the fixture name). */
    std::string label;

    /** Iterations the timing is averaged over. */
    std::int64_t iterations = 0;

    /** Wall / CPU time per iteration, in `timeUnit`. */
    double realTime = 0.0;
    double cpuTime = 0.0;

    /** Unit string for the two times ("ns", "us", "ms", "s"). */
    std::string timeUnit = "ns";

    /** User counters in insertion order (rates already resolved). */
    std::vector<std::pair<std::string, double>> counters;
};

/**
 * Strip `--json <path>` (or `--json=<path>`) out of argv before the
 * benchmark library parses it; returns the path, or "" when the flag
 * is absent. qsa::Error when the flag is present without a path.
 */
inline std::string
extractJsonPath(int *argc, char **argv)
{
    std::string path;
    int out = 0;
    for (int i = 0; i < *argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            fatal_if(i + 1 >= *argc, "--json needs a file path");
            path = argv[++i];
            continue;
        }
        if (std::strncmp(argv[i], "--json=", 7) == 0) {
            path = argv[i] + 7;
            fatal_if(path.empty(), "--json needs a file path");
            continue;
        }
        argv[out++] = argv[i];
    }
    for (int i = out; i < *argc; ++i)
        argv[i] = nullptr;
    *argc = out;
    return path;
}

/** One record as its JSON object; "label" and "counters" only when
 *  non-empty. */
inline json::Value
toJson(const Record &rec)
{
    json::Value out = json::Value::object();
    out.set("name", json::Value::string(rec.name));
    if (!rec.label.empty())
        out.set("label", json::Value::string(rec.label));
    out.set("iterations", json::Value::integer(rec.iterations));
    out.set("real_time", json::Value::number(rec.realTime));
    out.set("cpu_time", json::Value::number(rec.cpuTime));
    out.set("time_unit", json::Value::string(rec.timeUnit));
    if (!rec.counters.empty()) {
        json::Value counters = json::Value::object();
        for (const auto &[key, value] : rec.counters)
            counters.set(key, json::Value::number(value));
        out.set("counters", std::move(counters));
    }
    return out;
}

/**
 * The whole document (see file comment): each part is a json::Value
 * dump, and each result record gets a line of its own so that a diff
 * of two trajectory files reads record by record.
 */
inline std::string
document(const std::string &bench, const std::vector<Record> &records,
         const json::Value &metrics)
{
    std::string out =
        "{\n  \"bench\": " + json::Value::string(bench).dump() +
        ",\n  \"results\": [";
    const char *separator = "\n    ";
    for (const Record &rec : records) {
        out += separator + toJson(rec).dump();
        separator = ",\n    ";
    }
    out += records.empty() ? "]" : "\n  ]";
    out += ",\n  \"metrics\": " + metrics.dump() + "\n}\n";
    return out;
}

/** Write document() to `path`; qsa::Error on I/O failure. */
inline void
write(const std::string &path, const std::string &bench,
      const std::vector<Record> &records, const json::Value &metrics)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open '", path, "' for writing");
    out << document(bench, records, metrics);
    out.flush();
    fatal_if(!out, "failed writing JSON to '", path, "'");
}

} // namespace qsa::benchjson

#endif // QSA_BENCH_BENCHJSON_HH
