/**
 * @file
 * Checked file output.
 *
 * A plain std::ofstream swallows write errors: an unwritable path or a
 * full disk leaves the stream in a fail state nobody looks at, the
 * program prints its success line, and the output is silently missing
 * or truncated. CheckedWriter is a thin wrapper that fatal()s when the
 * file cannot be opened and verifies the stream state after an
 * explicit flush in finish(), so every writer in the suite either
 * produces a complete file or a catchable error. The "io.flush" fault
 * site injects a write failure at finish() for tests.
 *
 * atomicReplace() builds on it for files that readers may open at any
 * time (artifacts, manifests): the new contents appear all at once or
 * not at all, even with several writers racing on one path.
 */

#ifndef PGB_CORE_IO_HPP
#define PGB_CORE_IO_HPP

#include <fstream>
#include <functional>
#include <ostream>
#include <string>

namespace pgb::core {

/** An output file whose stream state is actually verified. */
class CheckedWriter
{
  public:
    /** Open @p path for writing; fatal() if it cannot be opened. */
    explicit CheckedWriter(const std::string &path);

    /** Warns if the writer is destroyed without finish(). */
    ~CheckedWriter();

    CheckedWriter(const CheckedWriter &) = delete;
    CheckedWriter &operator=(const CheckedWriter &) = delete;

    /** The underlying stream; write through this. */
    std::ostream &stream() { return file_; }

    const std::string &path() const { return path_; }

    /**
     * Flush, verify the stream state, and close. fatal() if any write
     * failed — the file must be assumed incomplete then.
     */
    void finish();

  private:
    std::string path_;
    std::ofstream file_;
    bool finished_ = false;
};

/**
 * Replace @p path with the bytes @p write puts into the stream it is
 * given. They are staged in a temp file of a unique name created
 * exclusively next to @p path, checked (CheckedWriter::finish), fsynced,
 * and only then renamed over @p path. Concurrent writers of one path
 * each stage their own file, so the survivor is always one complete
 * write. If anything fails, @p path is untouched, the temp file is
 * removed, and the error propagates.
 */
void atomicReplace(const std::string &path,
                   const std::function<void(std::ostream &)> &write);

} // namespace pgb::core

#endif // PGB_CORE_IO_HPP
