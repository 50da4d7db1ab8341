/**
 * @file
 * The serve workload's moving parts: a qsa_serve child process with
 * readiness, drain and exit checks, and a closed-loop load generator
 * whose clients each send their next request only after the previous
 * reply arrived.
 */

#ifndef QSA_PERFBENCH_SERVE_LOAD_HH
#define QSA_PERFBENCH_SERVE_LOAD_HH

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

#include "fixtures.hh"

namespace perfbench
{

/** A qsa_serve daemon started as a child process. */
class Daemon
{
  public:
    Daemon() = default;

    /** Kills and reaps the child if stop() did not. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Spawn `binary` on `socket` with a store at `store`, wait for its
     * "listening on" line, then until a ping is answered.
     */
    bool start(const std::string &binary, const std::string &socket,
               const std::string &store, unsigned workers,
               std::string *error);

    /** The child's peak resident set (VmHWM), in MiB; 0 if unknown. */
    double peakRssMb() const;

    /**
     * SIGTERM, then wait for the drain to finish: false unless the
     * child exited with status 0 and no longer exists.
     */
    bool stop(std::string *error);

  private:
    pid_t pid = -1;
    int stdoutFd = -1;
};

/** Send one ping over a fresh connection; true on an ok reply. */
bool ping(const std::string &socket, std::string *error);

/** One request's round trip as a client saw it. */
struct Reply
{
    std::size_t index = 0;
    double latencyMs = 0.0;
    std::string response;

    /** Empty when the connection delivered a response line. */
    std::string ioError;
};

/**
 * Drive `socket` with `clients` connections in a closed loop over the
 * first `limit` requests of the mix, in order, until `seconds` have
 * passed and at least `min_requests` were sent (or the requests ran
 * out). Each client round trip is wrapped in a
 * "serve/Client::request" span. Returns the replies in sequence
 * order; `*window_s` is the wall time from the first send to the last
 * reply.
 */
std::vector<Reply> closedLoop(const std::string &socket,
                              const ServeMix &mix, std::size_t limit,
                              unsigned clients, double seconds,
                              std::size_t min_requests,
                              double *window_s);

} // namespace perfbench

#endif // QSA_PERFBENCH_SERVE_LOAD_HH
