/**
 * @file
 * qsa::serve request server: a Unix-domain-socket daemon speaking the
 * newline-delimited JSON protocol of serve/protocol.hh.
 *
 * Architecture
 * ------------
 *
 *               accept thread ──► one reader thread per connection
 *                                        │  (parses nothing; splits
 *                                        ▼   the byte stream on '\n')
 *                               bounded request queue
 *                                        │
 *                 dispatcher workers ◄───┘
 *                 (each runs protocol::handleRequestLine inline, the
 *                  whole request on its own thread: the request is
 *                  the unit of parallelism)
 *
 * Each dispatcher holds a runtime::ThreadPool::WorkerScope for its
 * whole life, so every parallelFor under a request — BatchRunner
 * units, ensemble shards, the Resimulate path walk — runs inline on
 * the dispatcher. A served request never posts to a pool, waits on
 * one or spawns a thread, whatever its "threads" field says, and the
 * daemon never constructs a runtime::ThreadPool. `workers` is thus
 * the number of requests simulating at once, one core each; a lone
 * request on an idle daemon uses one core (DESIGN.md "Server
 * concurrency" has the trade-off). Results do not depend on it:
 * in-process callers of handleRequestLine keep the library's fan-out
 * and get the same bytes.
 *
 * Responses are written back on the request's connection under a
 * per-connection write mutex (responses from one connection's
 * pipelined requests may interleave in completion order; the echoed
 * "id" is the correlator).
 *
 * Overload: when the queue is at `maxQueue`, the request is rejected
 * *immediately* on the reader thread with an `"ok": false` response
 * whose error message is "server overloaded..." — explicit load
 * shedding rather than unbounded buffering; the client can retry.
 * Counted by serve.queue.rejected.
 *
 * Shutdown (`stop()`, the SIGTERM path in tools/qsa_serve): stop
 * accepting, shut the listener, let every *queued* request finish and
 * its response flush, then close connections and join. stop() is a
 * graceful drain — in-flight work is never abandoned, so a client
 * that got its bytes in before the signal still gets its response.
 *
 * Determinism: the server adds nothing to the response payloads —
 * protocol.hh's contract (identical request bytes => identical
 * "result" bytes, any interleaving, any thread count) holds end to
 * end because every request executes with its own seed-keyed RNG
 * streams and shares no mutable state with its neighbours beyond the
 * (idempotent, content-addressed) oracle store.
 */

#ifndef QSA_SERVE_SERVER_HH
#define QSA_SERVE_SERVER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hh"

namespace qsa::serve
{

/** Server configuration. */
struct ServerConfig
{
    /** Filesystem path of the Unix-domain listening socket (an
     *  existing socket file at the path is replaced). */
    std::string socketPath;

    /** Largest `workers` value start() accepts. */
    static constexpr unsigned kMaxWorkers = 256;

    /** Dispatcher threads, i.e. requests served at once, one core
     *  each (0 = hardware concurrency, capped at 8; at most
     *  kMaxWorkers). See the file comment. */
    unsigned workers = 0;

    /** Bounded request-queue depth (at least 1); beyond it requests
     *  are rejected with an overload error response. */
    std::size_t maxQueue = 64;

    /** Per-request resource ceilings (protocol.hh). */
    Limits limits;
};

/** See file comment. */
class Server
{
  public:
    explicit Server(ServerConfig config);

    /** Equivalent to stop(). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and spawn the accept/dispatcher threads. Returns
     * false with `*error` set when the configuration is out of range
     * (`workers` above kMaxWorkers, `maxQueue` 0; checked before any
     * socket or thread exists) or the socket cannot be set up (path
     * too long for sockaddr_un, bind/listen failure).
     */
    bool start(std::string *error);

    /** Graceful drain; idempotent (see file comment). */
    void stop();

    /** The bound socket path. */
    const std::string &socketPath() const { return config.socketPath; }

  private:
    struct Connection;

    ServerConfig config;

    int listenFd = -1;
    std::thread acceptThread;
    std::vector<std::thread> dispatchers;

    std::mutex stateMutex;
    std::condition_variable queueReady;

    /** Signalled as reader threads exit (stop() waits for zero). */
    std::condition_variable queueDrained;
    bool stopping = false;
    bool started = false;

    /** One queued request: its line and its originating connection. */
    struct Task
    {
        std::shared_ptr<Connection> conn;
        std::string line;
    };
    std::deque<Task> queue;

    /** Live (detached) reader threads. */
    std::size_t activeReaders = 0;

    std::vector<std::shared_ptr<Connection>> connections;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void dispatchLoop();

    /** Write one response line to a connection (thread-safe). */
    static void respond(Connection &conn, const std::string &payload);
};

} // namespace qsa::serve

#endif // QSA_SERVE_SERVER_HH
