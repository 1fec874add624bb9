#pragma once

// Per-process scratch directories for tests that write files. `ctest -j`
// runs different test binaries, and the *_mt variants of the same binary,
// at the same time, so a fixed path under the temp directory would be
// shared between concurrent processes.

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace crocco::test {

/// A fresh, empty directory `<temp dir>/<name>_<pid>`, removed with its
/// contents on destruction.
struct TmpDir {
    explicit TmpDir(const std::string& name)
        : path((std::filesystem::temp_directory_path() /
                (name + "_" + std::to_string(::getpid())))
                   .string()) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TmpDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TmpDir(const TmpDir&) = delete;
    TmpDir& operator=(const TmpDir&) = delete;

    /// Path of `leaf` inside the directory.
    std::string file(const std::string& leaf) const { return path + "/" + leaf; }

    std::string path;
};

} // namespace crocco::test
