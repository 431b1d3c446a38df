#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace atm::exec {

/// FNV-1a 64-bit hash, the journal's record checksum. Exposed for tests
/// (and reused by core's trace/config digests).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// Seed-chained FNV-1a for streaming digests: feed successive fields into
/// the running hash. `fnv1a64(x) == fnv1a64_mix(kFnv1a64Offset, x)`.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;
[[nodiscard]] std::uint64_t fnv1a64_mix(std::uint64_t hash,
                                        std::string_view text);

/// Field mixers on that chain, shared by every digest (trace fingerprint,
/// fleet and serve config digests, journal headers). Numeric fields are
/// fed as their exact bit patterns (doubles via memcpy, never via text),
/// so a digest is stable across locales and formatting.
void mix_bytes(std::uint64_t& hash, const void* data, std::size_t size);
void mix_u64(std::uint64_t& hash, std::uint64_t value);
void mix_double(std::uint64_t& hash, double value);
/// Length-prefixed, so ("ab", "c") and ("a", "bc") digest differently.
void mix_string(std::uint64_t& hash, std::string_view text);
/// `value` as 16 lowercase hex digits, the form digests take in headers.
[[nodiscard]] std::string hex16(std::uint64_t value);

/// What load_journal recovered from a checkpoint file. The journal is an
/// append-only sequence of framed records:
///
///   <8 hex payload bytes> <16 hex fnv1a64(payload)> <payload>\n
///
/// where each payload is a single line (no embedded newline). The first
/// record is the header (binding the journal to a run); the rest are
/// opaque payloads for the caller to decode. Loading stops at the first
/// frame that is torn (no trailing newline), malformed, or fails its
/// length/checksum — everything after it is dropped, and `valid_bytes` /
/// `record_ends` tell the writer where the intact prefix ends.
struct JournalLoad {
    /// False when the file does not exist (records/header empty).
    bool exists = false;
    /// True when bytes past the valid prefix were detected and dropped
    /// (torn tail after a crash, or corruption).
    bool dropped_tail = false;
    /// Header payload; empty when the file had no valid header record.
    std::string header;
    /// Record payloads after the header, in append order (valid prefix).
    std::vector<std::string> records;
    /// File offset just past the header record (0 when no valid header).
    std::uint64_t header_end = 0;
    /// File offset just past records[i]; parallel to `records`.
    std::vector<std::uint64_t> record_ends;
    /// Total intact bytes: record_ends.back(), or header_end, or 0.
    std::uint64_t valid_bytes = 0;
};

/// Reads and frame-validates a journal. Never throws on corrupt data —
/// corruption truncates the result (see JournalLoad); only I/O errors on
/// an existing file throw std::runtime_error.
[[nodiscard]] JournalLoad load_journal(const std::string& path);

/// Append-only crash-safe journal writer. Every append is one write(2) of
/// a framed record followed by fsync, so after a crash the file is a valid
/// journal plus at most one torn tail record (which load_journal drops).
/// `append` is thread-safe: fleet workers journal boxes as they finish.
class JournalWriter {
  public:
    /// Starts a fresh journal at `path` (truncating any previous file) and
    /// writes the header record. Throws std::runtime_error on I/O errors.
    static JournalWriter create(const std::string& path,
                                const std::string& header);

    /// Reopens an existing journal for appending, first truncating it to
    /// `valid_bytes` (the intact prefix reported by load_journal) so a
    /// torn tail is physically removed before new records follow it.
    static JournalWriter append_after(const std::string& path,
                                      std::uint64_t valid_bytes);

    JournalWriter(JournalWriter&&) noexcept = default;
    JournalWriter& operator=(JournalWriter&&) noexcept = default;
    ~JournalWriter();

    /// Appends one framed, fsync'd record. `payload` must be a single line
    /// (no '\n'); throws std::invalid_argument otherwise, and
    /// std::runtime_error on I/O errors.
    void append(const std::string& payload);

    /// Flushes and closes the file descriptor early (the destructor also
    /// does this). Idempotent.
    void close();

  private:
    JournalWriter(int fd, std::string path);

    int fd_ = -1;
    std::string path_;
    /// Heap-allocated so the writer stays movable.
    std::unique_ptr<std::mutex> mutex_;
};

/// Builds the framed line for `payload` (without writing it). Exposed so
/// tests can construct valid and deliberately corrupted journals.
[[nodiscard]] std::string frame_journal_record(const std::string& payload);

}  // namespace atm::exec
