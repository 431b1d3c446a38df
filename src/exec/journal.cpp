#include "exec/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace atm::exec {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Frame layout: 8 hex chars (payload length), space, 16 hex chars
/// (payload checksum), space, payload, newline.
constexpr std::size_t kLenHexChars = 8;
constexpr std::size_t kHashHexChars = 16;
constexpr std::size_t kPrefixChars = kLenHexChars + 1 + kHashHexChars + 1;

[[noreturn]] void fail(const std::string& what, const std::string& path) {
    throw std::runtime_error("journal: " + what + " '" + path +
                             "': " + std::strerror(errno));
}

/// Parses exactly `n` lowercase-hex chars; returns false on any other
/// character (uppercase included — the writer only emits lowercase).
bool parse_hex(std::string_view text, std::size_t n, std::uint64_t* out) {
    if (text.size() < n) return false;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const char c = text[i];
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9') {
            digit = static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        } else {
            return false;
        }
        value = (value << 4) | digit;
    }
    *out = value;
    return true;
}

void append_hex(std::string& out, std::uint64_t value, std::size_t n) {
    static const char* kDigits = "0123456789abcdef";
    for (std::size_t i = n; i-- > 0;) {
        out += kDigits[(value >> (4 * i)) & 0xf];
    }
}

}  // namespace

std::uint64_t fnv1a64_mix(std::uint64_t hash, std::string_view text) {
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t fnv1a64(std::string_view text) {
    return fnv1a64_mix(kFnv1a64Offset, text);
}

void mix_bytes(std::uint64_t& hash, const void* data, std::size_t size) {
    hash = fnv1a64_mix(hash,
                       std::string_view(static_cast<const char*>(data), size));
}

void mix_u64(std::uint64_t& hash, std::uint64_t value) {
    mix_bytes(hash, &value, sizeof(value));
}

void mix_double(std::uint64_t& hash, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix_u64(hash, bits);
}

void mix_string(std::uint64_t& hash, std::string_view text) {
    mix_u64(hash, text.size());
    mix_bytes(hash, text.data(), text.size());
}

std::string hex16(std::uint64_t value) {
    std::string out;
    append_hex(out, value, 16);
    return out;
}

std::string frame_journal_record(const std::string& payload) {
    if (payload.find('\n') != std::string::npos) {
        throw std::invalid_argument(
            "journal: record payload must be a single line");
    }
    std::string line;
    line.reserve(kPrefixChars + payload.size() + 1);
    append_hex(line, payload.size(), kLenHexChars);
    line += ' ';
    append_hex(line, fnv1a64(payload), kHashHexChars);
    line += ' ';
    line += payload;
    line += '\n';
    return line;
}

JournalLoad load_journal(const std::string& path) {
    JournalLoad load;
    FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return load;
    load.exists = true;
    std::string contents;
    char buffer[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        contents.append(buffer, n);
    }
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error) fail("read failed for", path);

    std::size_t pos = 0;
    while (pos < contents.size()) {
        const std::size_t newline = contents.find('\n', pos);
        if (newline == std::string::npos) {
            // Torn tail: the record's trailing newline never hit the disk.
            load.dropped_tail = true;
            break;
        }
        const std::string_view line(contents.data() + pos, newline - pos);
        std::uint64_t length = 0;
        std::uint64_t checksum = 0;
        const bool frame_ok =
            line.size() >= kPrefixChars && line[kLenHexChars] == ' ' &&
            line[kLenHexChars + 1 + kHashHexChars] == ' ' &&
            parse_hex(line, kLenHexChars, &length) &&
            parse_hex(line.substr(kLenHexChars + 1), kHashHexChars, &checksum);
        if (!frame_ok) {
            load.dropped_tail = true;
            break;
        }
        const std::string_view payload = line.substr(kPrefixChars);
        if (payload.size() != length || fnv1a64(payload) != checksum) {
            load.dropped_tail = true;
            break;
        }
        const std::uint64_t end = newline + 1;
        if (load.header_end == 0) {
            load.header.assign(payload);
            load.header_end = end;
        } else {
            load.records.emplace_back(payload);
            load.record_ends.push_back(end);
        }
        load.valid_bytes = end;
        pos = newline + 1;
    }
    return load;
}

JournalWriter::JournalWriter(int fd, std::string path)
    : fd_(fd), path_(std::move(path)), mutex_(std::make_unique<std::mutex>()) {}

JournalWriter::~JournalWriter() { close(); }

JournalWriter JournalWriter::create(const std::string& path,
                                    const std::string& header) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) fail("cannot create", path);
    JournalWriter writer(fd, path);
    writer.append(header);
    return writer;
}

JournalWriter JournalWriter::append_after(const std::string& path,
                                          std::uint64_t valid_bytes) {
    const int fd = ::open(path.c_str(), O_WRONLY, 0644);
    if (fd < 0) fail("cannot reopen", path);
    // Physically drop any torn tail so every byte in the file is again a
    // valid frame, then position at the end of the intact prefix.
    if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
        ::close(fd);
        fail("cannot truncate torn tail of", path);
    }
    if (::lseek(fd, 0, SEEK_END) < 0) {
        ::close(fd);
        fail("cannot seek in", path);
    }
    return JournalWriter(fd, path);
}

void JournalWriter::append(const std::string& payload) {
    const std::string line = frame_journal_record(payload);
    const std::lock_guard<std::mutex> lock(*mutex_);
    if (fd_ < 0) {
        throw std::runtime_error("journal: append to closed writer for '" +
                                 path_ + "'");
    }
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + written, line.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail("append failed for", path_);
        }
        written += static_cast<std::size_t>(n);
    }
    // One fsync per record: a box's outcome is durable before its slot is
    // considered checkpointed. Fleet boxes take seconds, so the sync cost
    // is noise next to the compute it makes resumable.
    if (::fsync(fd_) != 0) fail("fsync failed for", path_);
}

void JournalWriter::close() {
    if (mutex_ == nullptr) return;  // moved-from
    const std::lock_guard<std::mutex> lock(*mutex_);
    if (fd_ >= 0) {
        ::fsync(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

}  // namespace atm::exec
