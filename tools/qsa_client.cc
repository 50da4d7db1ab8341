/**
 * @file
 * qsa_client — command-line client for the qsa_serve daemon.
 *
 * Usage:
 *   qsa_client --socket <path> [--ping]
 *
 * Reads newline-delimited JSON requests from stdin, sends each to the
 * daemon, and prints the response line to stdout — the pipe-friendly
 * form scripts and the CI smoke test drive. --ping sends a single
 * ping request instead and exits 0 iff the daemon's response parses
 * and its "ok" member is true.
 *
 * Exit status: 0 when every request got a response (whatever its
 * "ok" verdict — protocol errors are payload, not transport), 1 on
 * connection/transport failure, 2 on usage problems.
 */

#include <iostream>
#include <string>

#include "common/json.hh"
#include "serve/client.hh"

int
main(int argc, char **argv)
{
    std::string socket_path;
    bool ping = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            socket_path = argv[++i];
        } else if (arg == "--ping") {
            ping = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: qsa_client --socket <path> "
                         "[--ping]\n";
            return 0;
        } else {
            std::cerr << "qsa_client: unknown argument '" << arg
                      << "'\n";
            return 2;
        }
    }
    if (socket_path.empty()) {
        std::cerr << "qsa_client: --socket is required\n";
        return 2;
    }

    qsa::serve::Client client;
    std::string error;
    if (!client.connect(socket_path, &error)) {
        std::cerr << "qsa_client: " << error << "\n";
        return 1;
    }

    if (ping) {
        qsa::json::Value request = qsa::json::Value::object();
        request.set("command", qsa::json::Value::string("ping"));
        std::string response;
        if (!client.request(request.dump(), &response, &error)) {
            std::cerr << "qsa_client: " << error << "\n";
            return 1;
        }
        std::cout << response << "\n";
        qsa::json::Value doc;
        const qsa::json::Value *ok = nullptr;
        if (qsa::json::Value::parse(response, &doc))
            ok = doc.find("ok");
        return ok != nullptr && ok->isBool() && ok->asBool() ? 0 : 1;
    }

    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        std::string response;
        if (!client.request(line, &response, &error)) {
            std::cerr << "qsa_client: " << error << "\n";
            return 1;
        }
        std::cout << response << "\n";
    }
    return 0;
}
