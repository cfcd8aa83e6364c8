#include "core/io.hpp"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ios>

#include <fcntl.h>
#include <unistd.h>

#include "core/fault.hpp"
#include "core/logging.hpp"

namespace pgb::core {

namespace {

FaultSite faultFlush(
    "io.flush", "FatalError, non-zero CLI exit; no partial output kept");

std::string
errnoReason()
{
    return errno != 0 ? std::strerror(errno) : "stream error";
}

} // namespace

CheckedWriter::CheckedWriter(const std::string &path)
    : path_(path), file_(path)
{
    if (!file_) {
        fatal("cannot open '", path_, "' for writing: ", errnoReason());
    }
}

CheckedWriter::~CheckedWriter()
{
    if (!finished_ && file_.is_open()) {
        warn("CheckedWriter: '", path_,
             "' destroyed without finish(); contents unverified");
    }
}

void
CheckedWriter::finish()
{
    // Mark finished up front: whether we verify or throw below, the
    // outcome has been reported and the destructor must stay silent.
    finished_ = true;
    errno = 0;
    file_.flush();
    if (faultFlush.fire()) {
        file_.setstate(std::ios::failbit);
        errno = EIO;
    }
    if (!file_) {
        fatal("write to '", path_, "' failed: ", errnoReason(),
              " (output is incomplete)");
    }
    file_.close();
    if (file_.fail())
        fatal("closing '", path_, "' failed: ", errnoReason());
}

void
atomicReplace(const std::string &path,
              const std::function<void(std::ostream &)> &write)
{
    // An exclusive create of `path.tmp.<pid>.<n>`, retried on a name
    // left behind by an earlier process: unique like mkstemp's, but
    // created with the umask's mode, so the renamed file gets the
    // permissions a plain open would have given it.
    static std::atomic<uint64_t> serial{0};
    std::string tmp_path;
    int fd = -1;
    while (fd < 0) {
        tmp_path = path + ".tmp." + std::to_string(::getpid()) + "." +
                   std::to_string(serial.fetch_add(1));
        fd = ::open(tmp_path.c_str(),
                    O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
        if (fd < 0 && errno != EEXIST) {
            fatal("cannot create a temp file next to '", path,
                  "': ", std::strerror(errno));
        }
    }
    try {
        CheckedWriter out(tmp_path);
        write(out.stream());
        out.finish();
        if (::fsync(fd) != 0)
            fatal("fsync of '", tmp_path, "' failed: ",
                  std::strerror(errno));
    } catch (...) {
        ::close(fd);
        std::remove(tmp_path.c_str());
        throw;
    }
    ::close(fd);
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp_path.c_str());
        fatal(path, ": cannot rename temp file into place: ",
              std::strerror(err));
    }
}

} // namespace pgb::core
