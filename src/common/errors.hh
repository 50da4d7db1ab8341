/**
 * @file
 * Recoverable error types shared across layers.
 *
 * Most invariant violations in this codebase are programmer errors and
 * stay fatal (common/logging.hh). A rejected request is different: a
 * long-lived caller (qsa_serve) must be able to fail one request
 * without dying. qsa::Error is the catchable base for that class:
 * the locator throws it for every precondition it has, before any
 * simulation (locate/locate.hh), and DeriveError is the case an
 * oracle derivation hits part way through.
 */

#ifndef QSA_COMMON_ERRORS_HH
#define QSA_COMMON_ERRORS_HH

#include <stdexcept>
#include <string>
#include <utility>

namespace qsa
{

/**
 * The library cannot carry out a request: a configuration, or a
 * program pair, that it rejects. The message says what to change.
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
