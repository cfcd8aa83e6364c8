/**
 * @file
 * A temp directory private to the running test process.
 *
 * ctest runs every gtest case as its own process, many at once under
 * `ctest -j`. Fixtures written at fixed names straight under
 * testing::TempDir() were then rebuilt by several processes at the same
 * time, each truncating the file another was reading. Tests write under
 * processTempDir() instead: `<TempDir>/pgb_test.<pid>/`, created on
 * first use and removed when the process that created it exits.
 */

#ifndef PGB_TESTS_TEMP_DIR_HPP
#define PGB_TESTS_TEMP_DIR_HPP

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace pgb::test {

/** This process's own temp directory, with a trailing '/'. */
inline const std::string &
processTempDir()
{
    struct Dir
    {
        pid_t owner = ::getpid();
        std::string path = testing::TempDir() + "pgb_test." +
                           std::to_string(owner) + "/";

        Dir() { std::filesystem::create_directories(path); }

        ~Dir()
        {
            // A forked child exiting normally must not take its
            // parent's fixtures with it.
            if (::getpid() != owner)
                return;
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    };
    static const Dir dir;
    return dir.path;
}

} // namespace pgb::test

#endif // PGB_TESTS_TEMP_DIR_HPP
