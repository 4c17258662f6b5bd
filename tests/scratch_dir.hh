/**
 * @file
 * Scratch directories for tests that need real files (stores, fault
 * sweeps).
 *
 * A ScratchDir is an empty directory under the system temp directory,
 * named by a tag and the process id so concurrently running test
 * processes never share one. It is removed, with everything in it,
 * when the object goes out of scope, so a test run leaves nothing
 * behind in the working directory or the temp directory.
 */

#ifndef HS_TESTS_SCRATCH_DIR_HH
#define HS_TESTS_SCRATCH_DIR_HH

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace hs::test {

class ScratchDir
{
  public:
    /** Create (emptied if it exists) `<tmp>/hs_<tag>_<pid>`. */
    explicit ScratchDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("hs_" + tag + "_" + std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec; // best effort: never throw from a dtor
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace hs::test

#endif // HS_TESTS_SCRATCH_DIR_HH
