/**
 * @file
 * Minimal blocking client for the qsa::serve daemon: connect to the
 * Unix-domain socket, send one NDJSON request line, read one NDJSON
 * response line. Request/response pairing is positional per client
 * (one outstanding request at a time); concurrent load uses one
 * Client per thread — the server handles each connection
 * independently.
 *
 * Connection and I/O failures come back as false + error string, so
 * test harnesses and the qsa_client tool can report them.
 */

#ifndef QSA_SERVE_CLIENT_HH
#define QSA_SERVE_CLIENT_HH

#include <string>

namespace qsa::serve
{

/** See file comment. */
class Client
{
  public:
    Client() = default;

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to the daemon's socket. */
    bool connect(const std::string &socket_path, std::string *error);

    /**
     * Send `request` (one JSON object, no newline) and block for the
     * matching response line. False on I/O failure or server-side
     * EOF.
     */
    bool request(const std::string &request_line,
                 std::string *response, std::string *error);

    /** Close the connection (idempotent; also run by the dtor). */
    void close();

    /** True between a successful connect() and close(). */
    bool connected() const { return fd >= 0; }

  private:
    int fd = -1;

    /** Bytes received past the last returned response line. */
    std::string pending;
};

} // namespace qsa::serve

#endif // QSA_SERVE_CLIENT_HH
