/**
 * @file
 * Logging sinks. fatal() prints nothing: it throws qsa::Error, and
 * whoever catches it decides what the user sees. panic() prints and
 * aborts; its death tests assert on the printed prefix.
 */

#include "common/logging.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>

#include "common/errors.hh"

namespace qsa
{

namespace
{

/**
 * One lock around every sink write: pool workers warn concurrently
 * and interleaved ostream inserts would tear the lines. Leaked so
 * messages from static destructors stay safe.
 */
std::mutex &
sinkMutex()
{
    static std::mutex *mutex = new std::mutex;
    return *mutex;
}

void
emit(const char *prefix, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::cerr << prefix << msg << std::endl;
}

} // anonymous namespace

void
informMessage(const std::string &msg)
{
    emit("info: ", msg);
}

void
warnMessage(const std::string &msg)
{
    emit("warn: ", msg);
}

void
fatalMessage(const std::string &msg)
{
    throw Error(msg);
}

void
panicMessage(const std::string &msg)
{
    emit("panic: ", msg);
    std::abort();
}

} // namespace qsa
