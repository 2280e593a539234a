#pragma once
/// \file atomic_file.hpp
/// \brief `report::AtomicFileWriter` — crash-safe artifact emission: write to
///        a temp file, flush, fsync, then atomically rename into place.
///
/// Every artifact the tools emit (`stamp-sweep/v1`, `stamp-chaos/v2`, bench
/// reports) feeds a downstream consumer that trusts it to be complete —
/// `stamp_gate` fails a PR over a truncated baseline. A plain
/// `std::ofstream(path)` truncates the destination the moment it opens, so a
/// SIGKILL (or ENOSPC) mid-write leaves a torn file *at the real path*. This
/// writer never exposes a partial artifact: bytes go to `<path>.tmp.<pid>`,
/// `commit()` flushes, fsyncs the data to disk, renames over the destination
/// (atomic on POSIX), and fsyncs the parent directory so the rename itself
/// survives a crash. A writer destroyed without `commit()` unlinks its temp
/// file, so aborted runs leave no litter.
///
/// Failures (open, write, fsync, rename) surface as exceptions from
/// `commit()` or as a failed stream state, never as a silently truncated
/// artifact — the tools turn them into nonzero exits.

#include <fstream>
#include <string>
#include <string_view>

namespace stamp::report {

/// The durability-critical steps of a commit, in order: fsync the temp
/// file's data, rename it over the destination, fsync the parent directory
/// so the new directory entry itself survives a crash.
enum class CommitStep { TempFsync, Rename, DirFsync };

/// Test hook: called just *before* each commit step with the path that step
/// operates on (the temp file, the destination, the parent *directory*).
/// A throwing observer simulates a crash at that point — commit() keeps its
/// no-partial-artifact guarantee and propagates. Pass nullptr to reset.
/// Not meant for production code.
using CommitObserver = void (*)(CommitStep step, const std::string& path);
void set_commit_observer(CommitObserver observer) noexcept;

/// fsync the directory containing `path`, making a newly created or renamed
/// directory entry durable. commit() does this after its rename; the sweep
/// journal does it after creating its file. Throws std::runtime_error on
/// failure; no-op on platforms without fsync.
void fsync_parent_directory(const std::string& path);

class AtomicFileWriter {
 public:
  /// Open `<path>.tmp.<pid>` for binary writing. A failed open is reported
  /// through `ok()` (and again by `commit()`), not by throwing here, so
  /// callers keep their usual "open, write, check" shape.
  explicit AtomicFileWriter(std::string path);

  /// Unlinks the temp file unless `commit()` succeeded.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// The stream to write the artifact to. Writing after a failure is
  /// harmless (the stream stays failed); `commit()` catches it.
  [[nodiscard]] std::ostream& stream() noexcept { return os_; }

  /// True while the temp file is open and every write so far succeeded.
  [[nodiscard]] bool ok() const noexcept { return os_.good(); }

  /// Flush, fsync the temp file, rename it over `path`, fsync the parent
  /// directory. Throws std::runtime_error (with the failing step and errno)
  /// on any failure; the temp file is removed first, so a failed commit
  /// leaves the destination exactly as it was.
  void commit();

  /// Close and unlink the temp file without touching the destination.
  /// Idempotent; also what the destructor does for uncommitted writers.
  void abort() noexcept;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& temp_path() const noexcept {
    return temp_path_;
  }

  /// Convenience: atomically replace `path`'s contents with `content`.
  /// Throws std::runtime_error on failure.
  static void write_file(const std::string& path, std::string_view content);

 private:
  std::string path_;
  std::string temp_path_;
  std::ofstream os_;
  bool committed_ = false;
  bool aborted_ = false;
};

}  // namespace stamp::report
