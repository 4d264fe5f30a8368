/**
 * @file
 * Scratch paths for the suites: unique per process and per object, and
 * removed on scope exit.
 *
 * TempPath("se_model_test.sexm") names
 * <temp_directory_path()>/se_model_test-<pid>-<n>.sexm, where n counts
 * the TempPaths this process has made, so two concurrent runs of one
 * suite (or two cases of one run) never share a file. Whatever the
 * test leaves at the path, a file or a directory tree, is removed when
 * the TempPath goes out of scope. Nothing is created up front.
 */

#ifndef SE_TESTS_TEMP_PATH_HH
#define SE_TESTS_TEMP_PATH_HH

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace se {
namespace test {

struct TempPath
{
    explicit TempPath(const std::string &name) : path(unique(name)) {}

    ~TempPath()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    TempPath(const TempPath &) = delete;
    TempPath &operator=(const TempPath &) = delete;

    const std::string path;

  private:
    static std::string
    unique(const std::string &name)
    {
        static std::atomic<unsigned> counter{0};
        const std::filesystem::path n(name);
        const std::string leaf = n.stem().string() + "-" +
                                 std::to_string((long)::getpid()) + "-" +
                                 std::to_string(counter++) +
                                 n.extension().string();
        return (std::filesystem::temp_directory_path() / leaf).string();
    }
};

} // namespace test
} // namespace se

#endif // SE_TESTS_TEMP_PATH_HH
