/**
 * @file
 * qsa_serve — the debugging-as-a-service daemon.
 *
 * Usage:
 *   qsa_serve --socket <path> [--store <dir>] [--workers N]
 *             [--queue N] [--max-qubits N]
 *             [--store-max-entries N] [--store-max-bytes N]
 *
 * Listens on a Unix-domain socket for newline-delimited JSON requests
 * (serve/protocol.hh documents the wire schema: ping / lint /
 * analyze / check / locate over OpenQASM circuits) and serves up to
 * --workers of them at once, each inline on its own dispatcher
 * thread (serve/server.hh). With --store, a
 * serve::OracleStore is installed at the given directory so boundary
 * predicates, mixture purities, and Clifford prefix-equivalence
 * certificates persist across requests AND daemon restarts
 * (content-addressed by Circuit::contentHash; serve.oracle_cache.*
 * counters report reuse).
 *
 * Shutdown: SIGTERM / SIGINT trigger a graceful drain — stop
 * accepting, finish every queued request, flush responses — followed
 * by a NORMAL process exit, so atexit hooks run: a daemon started
 * with QSA_TRACE=<path> writes its trace file on the way out like
 * every other qsa tool.
 *
 * Readiness: prints "listening on <path>" to stdout (flushed) once
 * requests can connect; scripts wait for that line.
 *
 * Numeric flags take the whole token as a decimal integer within the
 * flag's range (see usage()); anything else exits with status 2
 * before a socket or thread exists.
 */

#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "serve/server.hh"
#include "serve/store.hh"
#include "sim/statevector.hh"

namespace
{

using namespace qsa;

void
usage(std::ostream &os)
{
    os << "usage: qsa_serve --socket <path> [--store <dir>] "
          "[--workers N] [--queue N] [--max-qubits N]\n"
          "                 [--store-max-entries N] "
          "[--store-max-bytes N]\n"
          "  --socket     Unix-domain socket path to listen on\n"
          "  --store      oracle store directory (persistent cache)\n"
          "  --workers    requests served at once, one core each, 0.."
       << serve::ServerConfig::kMaxWorkers
       << " (default: 0 = auto)\n"
          "  --queue      request queue bound, at least 1 "
          "(default: 64)\n"
          "  --max-qubits per-request qubit ceiling, 1.."
       << sim::StateVector::kMaxQubits
       << " (default: 12)\n"
          "  --store-max-entries\n"
          "               oracle store entry cap, oldest evicted "
          "first (default: 0 = unbounded)\n"
          "  --store-max-bytes\n"
          "               oracle store size cap in bytes (default: "
          "0 = unbounded)\n";
}

/**
 * Parse a numeric flag's value strictly: the whole token, decimal
 * digits only, within [lo, hi]. Otherwise print a message naming the
 * flag, then the usage text, and return false.
 */
bool
parseNumber(const std::string &flag, const char *text, std::uint64_t lo,
            std::uint64_t hi, std::uint64_t *out)
{
    const char *end = text + std::strlen(text);
    std::uint64_t value = 0;
    const auto [stop, status] = std::from_chars(text, end, value);
    if (status != std::errc() || stop != end || value < lo ||
        value > hi) {
        std::cerr << "qsa_serve: " << flag
                  << " expects a decimal integer in [" << lo << ", "
                  << hi << "], got '" << text << "'\n";
        usage(std::cerr);
        return false;
    }
    *out = value;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerConfig config;
    std::string store_dir;
    std::size_t store_max_entries = 0;
    std::size_t store_max_bytes = 0;

    constexpr std::uint64_t size_max =
        std::numeric_limits<std::size_t>::max();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        std::uint64_t n = 0;
        if (arg == "--socket" && has_value) {
            config.socketPath = argv[++i];
        } else if (arg == "--store" && has_value) {
            store_dir = argv[++i];
        } else if (arg == "--store-max-entries" && has_value) {
            if (!parseNumber(arg, argv[++i], 0, size_max, &n))
                return 2;
            store_max_entries = static_cast<std::size_t>(n);
        } else if (arg == "--store-max-bytes" && has_value) {
            if (!parseNumber(arg, argv[++i], 0, size_max, &n))
                return 2;
            store_max_bytes = static_cast<std::size_t>(n);
        } else if (arg == "--workers" && has_value) {
            if (!parseNumber(arg, argv[++i], 0,
                             serve::ServerConfig::kMaxWorkers, &n))
                return 2;
            config.workers = static_cast<unsigned>(n);
        } else if (arg == "--queue" && has_value) {
            if (!parseNumber(arg, argv[++i], 1, size_max, &n))
                return 2;
            config.maxQueue = static_cast<std::size_t>(n);
        } else if (arg == "--max-qubits" && has_value) {
            if (!parseNumber(arg, argv[++i], 1,
                             sim::StateVector::kMaxQubits, &n))
                return 2;
            config.limits.maxQubits = static_cast<unsigned>(n);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "qsa_serve: unknown or incomplete argument '"
                      << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (config.socketPath.empty()) {
        std::cerr << "qsa_serve: --socket is required\n";
        usage(std::cerr);
        return 2;
    }

    // Block the shutdown signals in every thread the server will
    // spawn (threads inherit the mask), then wait for one below.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    // Optional persistent oracle store, shared by every request.
    std::unique_ptr<serve::OracleStore> store;
    if (!store_dir.empty()) {
        store = std::make_unique<serve::OracleStore>(
            store_dir, store_max_entries, store_max_bytes);
        store->install();
    }

    serve::Server server(config);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "qsa_serve: " << error << "\n";
        return 1;
    }
    std::cout << "listening on " << server.socketPath() << std::endl;

    int signal_number = 0;
    sigwait(&signals, &signal_number);
    std::cout << "draining (signal " << signal_number << ")"
              << std::endl;
    server.stop();

    // Normal return: static destructors and atexit hooks (the
    // QSA_TRACE flush) run.
    return 0;
}
