/**
 * @file
 * EXPECT_THROW_MESSAGE: EXPECT_THROW that also checks what() against
 * a regular expression — the message check a death test on a fatal()
 * path used to make, now that fatal() throws qsa::Error.
 */

#ifndef QSA_TESTS_EXPECT_THROW_HH
#define QSA_TESTS_EXPECT_THROW_HH

#include <gtest/gtest.h>

#include <regex>
#include <string>

namespace qsa::testutil
{

inline ::testing::AssertionResult
messageMatches(const char *what, const std::string &pattern)
{
    if (std::regex_search(what, std::regex(pattern)))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "message \"" << what << "\" does not match \"" << pattern
           << "\"";
}

} // namespace qsa::testutil

/** `statement` (run once) throws `exception` whose what() matches
 *  `pattern`. */
#define EXPECT_THROW_MESSAGE(statement, exception, pattern)             \
    EXPECT_THROW(                                                       \
        try { statement; } catch (const exception &qsa_thrown_) {       \
            EXPECT_TRUE(::qsa::testutil::messageMatches(                \
                qsa_thrown_.what(), pattern));                          \
            throw;                                                      \
        },                                                              \
        exception)

#endif // QSA_TESTS_EXPECT_THROW_HH
