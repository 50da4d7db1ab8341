/**
 * @file
 * `--json` support for the table-printing benches that never link
 * google-benchmark (bench_tab4_grover and friends): the human tables
 * print exactly as before, and when `--json <path>` is given the
 * bench additionally writes one benchjson document whose "metrics"
 * key is the process-wide qsa::obs snapshot — so every bench
 * artifact carries the probe/trial/gate/cache counters, not just the
 * google-benchmark ones.
 *
 * Usage, two lines at the top of main:
 *
 *   int main(int argc, char **argv) {
 *       qsa::benchjson::TableBenchJson json(&argc, argv,
 *                                           "bench_tab4_grover");
 *       ... existing table code; optionally json.counter("x", v) ...
 *   }
 *
 * The destructor writes the file, so early returns are covered.
 */

#ifndef QSA_BENCH_BENCHJSON_TABLE_HH
#define QSA_BENCH_BENCHJSON_TABLE_HH

#include <string>
#include <utility>

#include "benchjson.hh"
#include "obs/obs.hh"

namespace qsa::benchjson
{

/** See file comment. */
class TableBenchJson
{
  public:
    /** Strips `--json <path>` out of argv, like benchMain. */
    TableBenchJson(int *argc, char **argv, std::string bench_name)
        : name(std::move(bench_name)),
          path(extractJsonPath(argc, argv))
    {
        snapshot.name = "snapshot";
    }

    ~TableBenchJson() { finish(); }

    TableBenchJson(const TableBenchJson &) = delete;
    TableBenchJson &operator=(const TableBenchJson &) = delete;

    /** Record a headline number under the snapshot record. */
    void
    counter(const std::string &key, double value)
    {
        snapshot.counters.emplace_back(key, value);
    }

    /** Write now (idempotent; the destructor calls it too). */
    void
    finish()
    {
        if (written || path.empty())
            return;
        written = true;
        write(path, name, {snapshot}, obs::metricsObject());
    }

  private:
    std::string name;
    std::string path;
    Record snapshot;
    bool written = false;
};

} // namespace qsa::benchjson

#endif // QSA_BENCH_BENCHJSON_TABLE_HH
