/**
 * @file
 * The library's error model.
 *
 * Everything the library rejects is ordinary input, so it throws
 * qsa::Error: fatal()/fatal_if() (common/logging.hh) throw it with
 * the message, and the library never exits the process. Subclasses
 * carry what a caller needs to point at the cause: DeriveError the
 * instruction an oracle derivation failed at, circuit::QasmError a
 * source position, json::TypeError nothing more. panic() is not an
 * error: it marks a broken library invariant and aborts.
 *
 * A CLI's main turns a qsa::Error into an exit status; qsa_serve
 * catches it in one place and answers "ok": false.
 */

#ifndef QSA_COMMON_ERRORS_HH
#define QSA_COMMON_ERRORS_HH

#include <stdexcept>
#include <string>
#include <utility>

namespace qsa
{

/**
 * The library cannot carry out a request: a program, plan,
 * configuration or argument that it rejects. The message says what to
 * change.
 */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A reference-oracle derivation failed for a reason inherent to the
 * program under analysis (not a bug in the caller). `where()` names
 * the offending instruction or register so diagnostics — and serve's
 * per-request NDJSON errors — can point at the cause.
 */
class DeriveError : public Error
{
  public:
    DeriveError(std::string where, const std::string &message)
        : Error(message), where_(std::move(where))
    {
    }

    /** The offending instruction/register, e.g. "Measure 'm_3'". */
    const std::string &where() const noexcept { return where_; }

  private:
    std::string where_;
};

} // namespace qsa

#endif // QSA_COMMON_ERRORS_HH
