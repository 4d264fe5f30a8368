/**
 * @file
 * Command-line wall for the benches and the serving demo: a malformed
 * count, a negative count or an unknown "--" flag must exit with
 * status 2 before the binary does any work. The old std::atoi parsing
 * mapped "--smok" to 0 threads and ran the full bench, and turned a
 * "-1" max_batch into a huge size_t.
 *
 * Only malformed values are probed: each one is rejected while the
 * arguments are parsed, so no probe starts a thread or a workload.
 * SE_BENCH_DIR (the build tree) is injected by CMake.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

/** Exit status of `SE_BENCH_DIR/<args>`, its output discarded. */
int
exitStatus(const std::string &args)
{
    const std::string cmd =
        SE_BENCH_DIR "/" + args + " >/dev/null 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "cannot launch " << cmd;
        return -1;
    }
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, MalformedCountsExitWithStatusTwo)
{
    for (const char *args : {
             "bench_runtime --smok", "bench_runtime abc",
             "bench_runtime -1", "bench_runtime 2x",
             "bench_kernels --smok", "bench_kernels abc",
             "bench_kernels -1",
             "bench_serve --smok", "bench_serve abc",
             "bench_serve 1 -8", "bench_serve 1 8 extra",
             "serve_demo --help", "serve_demo vgg19 abc",
             "serve_demo vgg19 4 -2", "serve_demo vgg19 4 0 -1",
             "serve_demo vgg19 4 0 8x",
         })
        EXPECT_EQ(exitStatus(args), 2) << args;
}

} // namespace
