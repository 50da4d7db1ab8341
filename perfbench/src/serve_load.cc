#include "serve_load.hh"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "serve/client.hh"

extern char **environ;

namespace perfbench
{

using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Read from `fd` until `needle` appears or `timeout_s` passes. */
bool
awaitOutput(int fd, const std::string &needle, double timeout_s,
            std::string *seen)
{
    const auto start = Clock::now();
    char buf[512];
    while (seen->find(needle) == std::string::npos) {
        const double left = timeout_s - secondsSince(start);
        if (left <= 0)
            return false;
        pollfd p{fd, POLLIN, 0};
        const int ready = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            return false;
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            return false;
        seen->append(buf, static_cast<std::size_t>(n));
    }
    return true;
}

} // anonymous namespace

Daemon::~Daemon()
{
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    if (stdoutFd >= 0)
        ::close(stdoutFd);
}

bool
Daemon::start(const std::string &binary, const std::string &socket,
              const std::string &store, unsigned workers,
              std::string *error)
{
    if (stdoutFd >= 0) {
        ::close(stdoutFd);
        stdoutFd = -1;
    }
    int fds[2];
    if (::pipe(fds) != 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    const std::string workers_arg = std::to_string(workers);
    std::vector<const char *> argv = {binary.c_str(), "--socket",
                                      socket.c_str(),  "--store",
                                      store.c_str(),   "--workers",
                                      workers_arg.c_str(), nullptr};
    const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                               const_cast<char *const *>(argv.data()),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    stdoutFd = fds[0];
    if (rc != 0) {
        pid = -1;
        *error = "spawn " + binary + ": " + std::strerror(rc);
        return false;
    }

    std::string seen;
    if (!awaitOutput(stdoutFd, "listening on", 60.0, &seen)) {
        *error = "qsa_serve never reported listening: " + seen;
        return false;
    }
    for (int attempt = 0; attempt < 200; ++attempt) {
        if (ping(socket, error))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

double
Daemon::peakRssMb() const
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

bool
Daemon::stop(std::string *error)
{
    if (pid <= 0) {
        *error = "daemon not running";
        return false;
    }
    ::kill(pid, SIGTERM);
    std::string seen;
    awaitOutput(stdoutFd, "draining", 30.0, &seen);

    int status = 0;
    const auto start = Clock::now();
    pid_t done = 0;
    while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           secondsSince(start) < 30.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (done != pid) {
        *error = "qsa_serve did not exit within 30 s of SIGTERM";
        return false; // the destructor kills and reaps it
    }
    const pid_t reaped = pid;
    pid = -1;
    ::close(stdoutFd);
    stdoutFd = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        *error = "qsa_serve drain ended with status " +
                 std::to_string(status);
        return false;
    }
    if (::kill(reaped, 0) == 0 || errno != ESRCH) {
        *error = "qsa_serve process still exists after its exit";
        return false;
    }
    return true;
}

bool
ping(const std::string &socket, std::string *error)
{
    qsa::serve::Client client;
    std::string response;
    if (!client.connect(socket, error) ||
        !client.request(R"({"command": "ping"})", &response, error))
        return false;
    if (response.find("\"ok\": true") == std::string::npos &&
        response.find("\"ok\":true") == std::string::npos) {
        *error = "ping answered: " + response;
        return false;
    }
    return true;
}

std::vector<Reply>
closedLoop(const std::string &socket, const ServeMix &mix,
           std::size_t limit, unsigned clients, double seconds,
           std::size_t min_requests, double *window_s)
{
    limit = std::min(limit, mix.requests.size());
    std::vector<Reply> replies(limit);
    std::vector<char> answered(limit, 0);
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    std::mutex done_mutex;
    Clock::time_point last_reply = start;

    const auto client_loop = [&] {
        qsa::serve::Client client;
        std::string error;
        const bool connected = client.connect(socket, &error);
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= limit ||
                (i >= min_requests && secondsSince(start) >= seconds))
                break;
            Reply &reply = replies[i];
            reply.index = i;
            const std::string line = mix.line(mix.requests[i]);
            const auto sent = Clock::now();
            {
                QSA_OBS_SPAN(span, "serve/Client::request");
                span.arg("op", i);
                if (!connected)
                    reply.ioError = error;
                else if (!client.request(line, &reply.response, &error))
                    reply.ioError = error.empty() ? "no reply" : error;
            }
            const auto received = Clock::now();
            reply.latencyMs =
                std::chrono::duration<double, std::milli>(received - sent)
                    .count();
            answered[i] = 1;
            std::lock_guard<std::mutex> lock(done_mutex);
            last_reply = std::max(last_reply, received);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(client_loop);
    for (auto &t : threads)
        t.join();

    *window_s = std::chrono::duration<double>(last_reply - start).count();
    std::vector<Reply> out;
    for (std::size_t i = 0; i < replies.size(); ++i)
        if (answered[i])
            out.push_back(std::move(replies[i]));
    return out;
}

} // namespace perfbench
