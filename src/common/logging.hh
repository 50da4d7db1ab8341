/**
 * @file
 * Minimal status/error reporting in the spirit of gem5's logging.hh.
 *
 * Severity model:
 *  - inform(): normal operating messages.
 *  - warn():   something questionable but survivable.
 *  - fatal():  the library rejects its input (a bad program, plan,
 *              configuration or argument); throws qsa::Error
 *              (common/errors.hh) for the caller to handle.
 *  - panic():  library bug (a condition that should never happen);
 *              aborts so a debugger/core dump sees the state.
 *
 * No library code exits the process: a CLI's main turns a qsa::Error
 * into an exit status, and qsa_serve into an error response.
 */

#ifndef QSA_COMMON_LOGGING_HH
#define QSA_COMMON_LOGGING_HH

#include <atomic>
#include <sstream>
#include <string>

namespace qsa
{

/** @{ @name Message sinks (printf-free, ostream-based). */
void informMessage(const std::string &msg);
void warnMessage(const std::string &msg);
[[noreturn]] void fatalMessage(const std::string &msg);
[[noreturn]] void panicMessage(const std::string &msg);
/** @} */

/** Concatenate any streamable arguments into a string. */
template <typename... Args>
std::string
messageString(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/** Informative message the user should see but not worry about. */
template <typename... Args>
void
inform(Args &&...args)
{
    informMessage(messageString(std::forward<Args>(args)...));
}

/** Possible-misbehaviour message. */
template <typename... Args>
void
warn(Args &&...args)
{
    warnMessage(messageString(std::forward<Args>(args)...));
}

/** Rejected input: throw qsa::Error with the message. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    fatalMessage(messageString(std::forward<Args>(args)...));
}

/** Library bug: print and abort(). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    panicMessage(messageString(std::forward<Args>(args)...));
}

/** panic() when a should-never-happen condition holds. */
template <typename Cond, typename... Args>
void
panic_if(const Cond &cond, Args &&...args)
{
    if (cond)
        panicMessage(messageString(std::forward<Args>(args)...));
}

/** fatal() when a caller-facing precondition is violated. */
template <typename Cond, typename... Args>
void
fatal_if(const Cond &cond, Args &&...args)
{
    if (cond)
        fatalMessage(messageString(std::forward<Args>(args)...));
}

/**
 * warn() only on the first caller to claim `flag` — the guts of
 * QSA_WARN_ONCE for call sites that manage their own flag (e.g. one
 * flag shared across a family of related warnings).
 */
template <typename... Args>
void
warnOnce(std::atomic<bool> &flag, Args &&...args)
{
    if (!flag.exchange(true, std::memory_order_relaxed))
        warnMessage(messageString(std::forward<Args>(args)...));
}

} // namespace qsa

/**
 * warn() at most once per call site, however many threads or trials
 * reach it — the right sink for per-trial / per-probe paths where a
 * repeated warning is pure noise.
 */
#define QSA_WARN_ONCE(...)                                             \
    do {                                                               \
        static std::atomic<bool> qsa_warned_once_{false};              \
        ::qsa::warnOnce(qsa_warned_once_, __VA_ARGS__);                \
    } while (0)

#endif // QSA_COMMON_LOGGING_HH
