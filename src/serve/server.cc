#include "serve/server.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/json.hh"
#include "obs/obs.hh"
#include "runtime/pool.hh"

namespace qsa::serve
{

namespace
{

/** Reject lines longer than this without a newline (memory bound). */
constexpr std::size_t kMaxLineBytes = 1 << 20;

/**
 * Compose the rejection response for a request that never reached
 * the dispatcher (overload / shutdown / oversize). Best-effort id
 * echo: the line is parsed only to recover "id".
 */
std::string
rejectionResponse(const std::string &line, const std::string &why)
{
    json::Value id;
    json::Value doc;
    if (json::Value::parse(line, &doc))
        if (const json::Value *found = doc.find("id"))
            id = *found;

    json::Value resp = json::Value::object();
    resp.set("id", id);
    resp.set("ok", json::Value::boolean(false));
    json::Value error = json::Value::object();
    error.set("message", json::Value::string(why));
    resp.set("error", std::move(error));
    return resp.dump();
}

/** Write all of `data` to `fd`, ignoring a peer that went away. */
void
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return; // Peer closed; nothing useful left to do.
        }
        sent += static_cast<std::size_t>(n);
    }
}

} // anonymous namespace

/** One accepted client: its socket and a write lock serialising the
 *  responses of its pipelined requests. */
struct Server::Connection
{
    explicit Connection(int fd) : fd(fd) {}

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd;
    std::mutex writeMutex;
};

Server::Server(ServerConfig config_in) : config(std::move(config_in))
{
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *error)
{
    if (config.workers > ServerConfig::kMaxWorkers) {
        *error = "workers must lie in [0, " +
                 std::to_string(ServerConfig::kMaxWorkers) +
                 "] (0 = auto), got " + std::to_string(config.workers);
        return false;
    }
    if (config.maxQueue == 0) {
        *error = "the request queue bound must be at least 1";
        return false;
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config.socketPath.empty() ||
        config.socketPath.size() >= sizeof(addr.sun_path)) {
        *error = "socket path must be 1.." +
                 std::to_string(sizeof(addr.sun_path) - 1) +
                 " bytes: '" + config.socketPath + "'";
        return false;
    }
    std::memcpy(addr.sun_path, config.socketPath.c_str(),
                config.socketPath.size() + 1);

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(config.socketPath.c_str());
    if (::bind(listenFd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 16) != 0) {
        *error = std::string("bind/listen on '") + config.socketPath +
                 "': " + std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        return false;
    }

    unsigned workers = config.workers;
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 2;
        if (workers > 8)
            workers = 8;
    }
    started = true;
    dispatchers.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        dispatchers.emplace_back([this] { dispatchLoop(); });
    acceptThread = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    while (true) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // Listener shut down (stop()) or failed.
        }
        QSA_OBS_COUNTER("serve.connections", 1);
        auto conn = std::make_shared<Connection>(fd);
        {
            std::lock_guard<std::mutex> lock(stateMutex);
            if (stopping) {
                // Raced with stop(): the connection object closes
                // the socket; the client sees EOF.
                continue;
            }
            connections.push_back(conn);
            ++activeReaders;
        }
        std::thread([this, conn] { readerLoop(conn); }).detach();
    }
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string pending;
    char buf[4096];
    bool drop = false;
    while (!drop) {
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF, error, or stop()'s SHUT_RD.
        pending.append(buf, static_cast<std::size_t>(n));

        std::size_t start = 0;
        while (true) {
            const auto newline = pending.find('\n', start);
            if (newline == std::string::npos)
                break;
            std::string line =
                pending.substr(start, newline - start);
            start = newline + 1;
            if (line.empty())
                continue;

            bool queued = false;
            std::string why;
            {
                std::lock_guard<std::mutex> lock(stateMutex);
                if (stopping) {
                    why = "server is shutting down";
                } else if (queue.size() >= config.maxQueue) {
                    why = "server overloaded (request queue is "
                          "full); retry later";
                } else {
                    queue.push_back(
                        Task{conn, std::move(line)});
                    queued = true;
                }
            }
            if (queued) {
                QSA_OBS_COUNTER("serve.queue.enqueued", 1);
                queueReady.notify_one();
            } else {
                QSA_OBS_COUNTER("serve.queue.rejected", 1);
                respond(*conn, rejectionResponse(line, why));
            }
        }
        pending.erase(0, start);
        if (pending.size() > kMaxLineBytes) {
            respond(*conn,
                    rejectionResponse(
                        "", "request line exceeds the server's " +
                                std::to_string(kMaxLineBytes) +
                                "-byte limit"));
            drop = true;
        }
    }
    {
        // Notify under the lock: stop()'s queueDrained wait cannot
        // return (and ~Server cannot free the condition variable)
        // before this region releases stateMutex, and this detached
        // thread touches nothing of the server after that.
        std::lock_guard<std::mutex> lock(stateMutex);
        --activeReaders;
        queueDrained.notify_all();
    }
}

void
Server::dispatchLoop()
{
    // The request is the unit of parallelism: everything a request
    // runs stays inline on this thread (see the file comment).
    const runtime::ThreadPool::WorkerScope worker;
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(stateMutex);
            queueReady.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            if (queue.empty())
                return; // stopping, fully drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        const std::string response =
            handleRequestLine(task.line, config.limits);
        respond(*task.conn, response);
        task.conn.reset();
    }
}

void
Server::respond(Connection &conn, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    sendAll(conn.fd, payload + "\n");
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        if (!started || stopping)
            return;
        stopping = true;
    }
    queueReady.notify_all();

    // Unblock accept() and join the acceptor first: no new
    // connections arrive past this point.
    ::shutdown(listenFd, SHUT_RDWR);
    if (acceptThread.joinable())
        acceptThread.join();
    ::close(listenFd);
    listenFd = -1;

    // Stop the readers: no new requests enqueue (bytes still in
    // kernel buffers are dropped; accepted *requests* are not).
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        conns = connections;
    }
    for (const auto &conn : conns)
        ::shutdown(conn->fd, SHUT_RD);
    {
        std::unique_lock<std::mutex> lock(stateMutex);
        queueDrained.wait(lock, [this] { return activeReaders == 0; });
    }

    // Drain: dispatchers pop every queued request, write its
    // response, and only then observe the stop.
    for (auto &worker : dispatchers)
        worker.join();
    dispatchers.clear();

    {
        std::lock_guard<std::mutex> lock(stateMutex);
        connections.clear(); // Last refs close the client sockets.
    }
    ::unlink(config.socketPath.c_str());
}

} // namespace qsa::serve
