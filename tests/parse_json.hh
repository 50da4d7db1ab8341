/**
 * @file
 * Test helper: parse a JSON document that the code under test wrote.
 */

#ifndef QSA_TESTS_PARSE_JSON_HH
#define QSA_TESTS_PARSE_JSON_HH

#include <stdexcept>
#include <string>

#include "common/json.hh"

/**
 * Parse `text` as one JSON document. Malformed text throws
 * std::runtime_error with the parser's positioned message, which
 * GoogleTest reports as a failure of the running test.
 */
inline qsa::json::Value
parseJson(const std::string &text)
{
    qsa::json::Value doc;
    std::string error;
    if (!qsa::json::Value::parse(text, &doc, &error))
        throw std::runtime_error("not JSON: " + error);
    return doc;
}

#endif // QSA_TESTS_PARSE_JSON_HH
