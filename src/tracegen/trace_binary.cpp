#include "tracegen/trace_binary.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "exec/io.hpp"
#include "obs/metrics.hpp"
#include "tracegen/trace_io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ATM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ATM_HAVE_MMAP 0
#endif

namespace atm::trace {
namespace {

constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 72;
constexpr std::size_t kMagicBytes = 8;

[[noreturn]] void fail(const std::string& message) {
    throw core::PipelineError(core::PipelineErrorCode::kTraceInvalid, "trace",
                              "binary trace: " + message);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::size_t kSampleBytes = 4 * sizeof(double);  // one window of a VM

/// One step of the payload fingerprint: FNV-1a folded a 64-bit word (one
/// sample) at a time. Byte-wise FNV is the bottleneck at paper scale
/// (~1.7 GB payload); word folding keeps it to one multiply per sample.
/// The payload is a whole number of doubles, so there is no byte tail.
/// Word values are native-endian, which is fine: the endian tag already
/// pins the file to this host order before any payload is read. The
/// writer and the reader both fold through this one function.
constexpr std::uint64_t fold_word(std::uint64_t hash, std::uint64_t word) {
    return (hash ^ word) * 1099511628211ull;
}

void append_raw(std::string& out, const void* data, std::size_t bytes) {
    out.append(static_cast<const char*>(data), bytes);
}

template <typename T>
void append_value(std::string& out, T value) {
    append_raw(out, &value, sizeof(T));
}

template <typename T>
void put_value(std::string& out, std::size_t offset, T value) {
    std::memcpy(out.data() + offset, &value, sizeof(T));
}

void append_name(std::string& out, const std::string& name,
                 const char* what) {
    if (name.size() > 0xFFFF) {
        fail(std::string(what) + " name longer than 65535 bytes");
    }
    append_value(out, static_cast<std::uint16_t>(name.size()));
    out.append(name);
}

/// Bounds-checked reader over the mapped bytes. Every overrun is a
/// truncation (or a lying index) and fails with the field name.
struct Cursor {
    const unsigned char* data;
    std::size_t size;
    std::size_t pos = 0;

    template <typename T>
    T read(const char* what) {
        if (sizeof(T) > size - pos) {
            fail(std::string("truncated reading ") + what);
        }
        T value;
        std::memcpy(&value, data + pos, sizeof(T));
        pos += sizeof(T);
        return value;
    }

    /// A capacity, held to the CSV reader's rule for monitoring values:
    /// finite and non-negative.
    double read_capacity(const char* what) {
        const auto value = read<double>(what);
        if (!(value >= 0.0 && value <= std::numeric_limits<double>::max())) {
            fail(std::string("non-finite or negative ") + what);
        }
        return value;
    }

    std::string read_name(const char* what) {
        const auto len = read<std::uint16_t>(what);
        if (len > size - pos) {
            fail(std::string("truncated reading ") + what);
        }
        std::string name(reinterpret_cast<const char*>(data + pos), len);
        pos += len;
        return name;
    }
};

/// Read-only view of a whole file: mmap when available (the loader's
/// normal mode — pages fault in as the index/payload are walked, and
/// release() drops them again), plain buffered read otherwise. The view
/// lives until destruction.
struct MappedFile {
    const unsigned char* data = nullptr;
    std::size_t size = 0;

    explicit MappedFile(const std::string& path) {
#if ATM_HAVE_MMAP
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) fail("cannot open " + path);
        struct stat st {};
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            fail("cannot stat " + path);
        }
        size = static_cast<std::size_t>(st.st_size);
        if (size > 0) {
            void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
            if (map != MAP_FAILED) {
                map_ = map;
                data = static_cast<const unsigned char*>(map);
            }
        }
        ::close(fd);
        if (data != nullptr || size == 0) return;
#endif
        std::ifstream in(path, std::ios::binary);
        if (!in) fail("cannot open " + path);
        buffer_.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
        data = reinterpret_cast<const unsigned char*>(buffer_.data());
        size = buffer_.size();
    }

    MappedFile(const MappedFile&) = delete;
    MappedFile& operator=(const MappedFile&) = delete;

    /// Hands the mapped pages wholly inside [from, to) back to the kernel
    /// (MADV_DONTNEED): the bytes stay readable and would re-fault from
    /// the file, but they stop counting as resident. A no-op for the
    /// buffered fallback. Returns `to` rounded down to a page boundary,
    /// where the next release should start.
    std::size_t release(std::size_t from, std::size_t to) const {
#if ATM_HAVE_MMAP
        const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        const std::size_t first = (from + page - 1) / page * page;
        const std::size_t last = to / page * page;
        if (map_ != nullptr && first < last) {
            ::madvise(static_cast<char*>(map_) + first, last - first,
                      MADV_DONTNEED);
        }
        return last;
#else
        (void)from;
        return to;
#endif
    }

    ~MappedFile() {
#if ATM_HAVE_MMAP
        if (map_ != nullptr) ::munmap(map_, size);
#endif
    }

  private:
#if ATM_HAVE_MMAP
    void* map_ = nullptr;
#endif
    std::string buffer_;
};

/// Copies `count` samples out of the mapped payload into `out`, folding
/// each one into `hash` while it is in a register: the payload is read
/// from the mapping exactly once. Returns false if any sample is
/// non-finite or negative (NaN fails both comparisons).
bool copy_and_fold(const unsigned char* block, std::size_t count,
                   double* out, std::uint64_t& hash) {
    bool valid = true;
    // Fold into a local: `block` is a byte pointer that may alias `hash`,
    // so folding into `hash` itself would store it on every sample.
    std::uint64_t h = hash;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t word;
        std::memcpy(&word, block + i * sizeof(double), sizeof(double));
        h = fold_word(h, word);
        const auto value = std::bit_cast<double>(word);
        out[i] = value;
        valid &= value >= 0.0 && value <= std::numeric_limits<double>::max();
    }
    hash = h;
    return valid;
}

/// The rejection message for the first non-finite or negative sample of
/// a series that copy_and_fold() flagged (the CSV reader's wording).
std::string sample_problem(const ts::Series& series) {
    for (const double value : series.values()) {
        if (!std::isfinite(value)) {
            return "non-finite sample in series " + series.name();
        }
        if (value < 0.0) return "negative sample in series " + series.name();
    }
    return {};
}

}  // namespace

bool is_trace_binary_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    char magic[kMagicBytes];
    in.read(magic, kMagicBytes);
    return in.gcount() == static_cast<std::streamsize>(kMagicBytes) &&
           std::memcmp(magic, kTraceBinaryMagic, kMagicBytes) == 0;
}

void write_trace_binary_file(const std::string& path, const Trace& trace) {
    std::string out;
    // Header first, payload geometry patched in once the index is built.
    out.append(kTraceBinaryMagic, kMagicBytes);
    append_value(out, kEndianTag);
    append_value(out, kVersion);
    append_value(out, static_cast<std::uint32_t>(trace.windows_per_day));
    std::size_t longest_box = 0;
    for (const BoxTrace& box : trace.boxes) {
        longest_box = std::max(longest_box, box.length());
    }
    append_value(out, static_cast<std::uint32_t>(
                          trace.windows_per_day > 0
                              ? longest_box / static_cast<std::size_t>(trace.windows_per_day)
                              : 0));
    append_value(out, static_cast<std::uint64_t>(trace.boxes.size()));
    const std::size_t vm_count_at = out.size();
    append_value(out, std::uint64_t{0});  // vm_count
    const std::size_t sample_count_at = out.size();
    append_value(out, std::uint64_t{0});  // sample_count
    const std::size_t payload_offset_at = out.size();
    append_value(out, std::uint64_t{0});  // payload_offset
    const std::size_t payload_bytes_at = out.size();
    append_value(out, std::uint64_t{0});  // payload_bytes
    const std::size_t fingerprint_at = out.size();
    append_value(out, std::uint64_t{0});  // payload fingerprint

    std::uint64_t vms = 0;
    std::uint64_t samples = 0;
    for (const BoxTrace& box : trace.boxes) {
        append_name(out, box.name, "box");
        append_value(out, static_cast<std::uint8_t>(box.has_gaps ? 1 : 0));
        append_value(out, box.cpu_capacity_ghz);
        append_value(out, box.ram_capacity_gb);
        append_value(out, static_cast<std::uint32_t>(box.vms.size()));
        for (const VmTrace& vm : box.vms) {
            const std::size_t len = vm.cpu_usage_pct.size();
            if (vm.ram_usage_pct.size() != len ||
                vm.cpu_demand_ghz.size() != len ||
                vm.ram_demand_gb.size() != len) {
                fail("series length mismatch in VM " + vm.name);
            }
            append_name(out, vm.name, "vm");
            append_value(out, vm.cpu_capacity_ghz);
            append_value(out, vm.ram_capacity_gb);
            append_value(out, static_cast<std::uint64_t>(len));
            ++vms;
            samples += len;
        }
    }

    // 8-align the payload so its doubles sit on natural boundaries in
    // the mapping (mmap bases are page-aligned, so file offset
    // alignment is mapping alignment).
    while (out.size() % 8 != 0) out.push_back('\0');
    const std::uint64_t payload_offset = out.size();
    std::uint64_t fingerprint = kFnvOffset;
    for (const BoxTrace& box : trace.boxes) {
        for (const VmTrace& vm : box.vms) {
            for (const ts::Series* series :
                 {&vm.cpu_usage_pct, &vm.ram_usage_pct, &vm.cpu_demand_ghz,
                  &vm.ram_demand_gb}) {
                append_raw(out, series->values().data(),
                           series->size() * sizeof(double));
                for (const double value : series->values()) {
                    fingerprint = fold_word(
                        fingerprint, std::bit_cast<std::uint64_t>(value));
                }
            }
        }
    }
    const std::uint64_t payload_bytes = out.size() - payload_offset;

    put_value(out, vm_count_at, vms);
    put_value(out, sample_count_at, samples);
    put_value(out, payload_offset_at, payload_offset);
    put_value(out, payload_bytes_at, payload_bytes);
    put_value(out, fingerprint_at, fingerprint);

    exec::write_file_atomic(path, out);
}

Trace read_trace_binary_file(const std::string& path,
                             obs::MetricsRegistry* metrics) {
    obs::ScopedTimer load_timer(metrics, "trace.load");
    const MappedFile file(path);
    if (file.size < kHeaderBytes) fail("truncated header in " + path);
    if (std::memcmp(file.data, kTraceBinaryMagic, kMagicBytes) != 0) {
        fail("bad magic in " + path);
    }

    Cursor cursor{file.data, file.size, kMagicBytes};
    const auto endian = cursor.read<std::uint32_t>("endian tag");
    if (endian != kEndianTag) {
        fail(endian == 0x04030201u
                 ? "wrong endianness (file written on a different-endian host)"
                 : "bad endian tag");
    }
    const auto version = cursor.read<std::uint32_t>("version");
    if (version != kVersion) {
        fail("unsupported version " + std::to_string(version));
    }
    const auto windows_per_day = cursor.read<std::uint32_t>("windows_per_day");
    if (windows_per_day == 0 ||
        windows_per_day > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
        fail("windows_per_day " + std::to_string(windows_per_day) +
             " outside [1, 2147483647]");
    }
    (void)cursor.read<std::uint32_t>("num_days");
    const auto box_count = cursor.read<std::uint64_t>("box_count");
    const auto vm_count = cursor.read<std::uint64_t>("vm_count");
    const auto sample_count = cursor.read<std::uint64_t>("sample_count");
    const auto payload_offset = cursor.read<std::uint64_t>("payload_offset");
    const auto payload_bytes = cursor.read<std::uint64_t>("payload_bytes");
    const auto fingerprint = cursor.read<std::uint64_t>("payload fingerprint");

    if (payload_offset < kHeaderBytes || payload_offset > file.size ||
        payload_bytes > file.size - payload_offset) {
        fail("truncated payload (index claims more bytes than the file has)");
    }
    if (payload_offset % 8 != 0) fail("misaligned payload offset");
    // Divide rather than multiply: sample_count * 32 can wrap.
    if (payload_bytes % kSampleBytes != 0 ||
        payload_bytes / kSampleBytes != sample_count) {
        fail("payload size disagrees with sample count");
    }

    // Every box entry takes at least 23 index bytes and every VM entry 26
    // (empty names), so a count the index cannot hold is a lie: reject
    // it before reserving room for it.
    constexpr std::size_t kMinBoxEntry = 2 + 1 + 8 + 8 + 4;
    constexpr std::size_t kMinVmEntry = 2 + 8 + 8 + 8;
    if (box_count > (payload_offset - kHeaderBytes) / kMinBoxEntry) {
        fail("box_count exceeds what the index can hold");
    }

    Trace trace;
    trace.windows_per_day = static_cast<int>(windows_per_day);
    trace.boxes.reserve(box_count);

    // The index Cursor must stay inside [header, payload): a corrupt
    // index that wanders into the payload would otherwise "parse".
    Cursor index{file.data, static_cast<std::size_t>(payload_offset),
                 kHeaderBytes};
    // Decode via memcpy, not a reinterpret_cast<const double*>: the
    // read() fallback buffer carries no alignment guarantee.
    const unsigned char* payload = file.data + payload_offset;
    std::uint64_t samples_seen = 0;
    std::uint64_t vms_seen = 0;
    // One pass over the payload: each VM's blocks are copied into their
    // series and folded into the fingerprint on the way. Nothing throws
    // on the payload's content until the fingerprint has been checked,
    // so the first bad sample is only remembered here.
    std::uint64_t payload_fp = kFnvOffset;
    std::string bad_sample;
    // Pages behind the copy cursor are handed back every MiB, so the
    // mapping keeps ~1 MiB resident instead of the whole file. Index
    // pages stay: the index is read interleaved with the payload.
    constexpr std::size_t kReleaseStep = std::size_t{1} << 20;
    std::size_t released = payload_offset;

    for (std::uint64_t b = 0; b < box_count; ++b) {
        trace.boxes.emplace_back();
        BoxTrace& box = trace.boxes.back();
        box.name = index.read_name("box name");
        box.has_gaps = index.read<std::uint8_t>("has_gaps") != 0;
        box.cpu_capacity_ghz = index.read_capacity("box cpu capacity");
        box.ram_capacity_gb = index.read_capacity("box ram capacity");
        const auto box_vms = index.read<std::uint32_t>("box vm count");
        if (box_vms > (index.size - index.pos) / kMinVmEntry) {
            fail("box vm count exceeds what the index can hold");
        }
        box.vms.reserve(box_vms);
        for (std::uint32_t v = 0; v < box_vms; ++v) {
            box.vms.emplace_back();
            VmTrace& vm = box.vms.back();
            vm.name = index.read_name("vm name");
            vm.cpu_capacity_ghz = index.read_capacity("vm cpu capacity");
            vm.ram_capacity_gb = index.read_capacity("vm ram capacity");
            const auto len = index.read<std::uint64_t>("series length");
            if (len > sample_count - samples_seen) {
                fail("index series lengths exceed sample count");
            }
            const unsigned char* block = payload + samples_seen * kSampleBytes;
            ts::Series* const series[4] = {&vm.cpu_usage_pct,
                                           &vm.ram_usage_pct,
                                           &vm.cpu_demand_ghz,
                                           &vm.ram_demand_gb};
            const char* const suffix[4] = {"/CPU", "/RAM", "/CPU-demand",
                                           "/RAM-demand"};
            for (int s = 0; s < 4; ++s) {
                series[s]->set_name(vm.name + suffix[s]);
                std::vector<double>& values = series[s]->values();
                values.resize(len);
                if (!copy_and_fold(block, len, values.data(), payload_fp) &&
                    bad_sample.empty()) {
                    bad_sample = sample_problem(*series[s]);
                }
                block += len * sizeof(double);
            }
            samples_seen += len;
            ++vms_seen;
            const std::size_t copied =
                payload_offset + samples_seen * kSampleBytes;
            if (copied - released >= kReleaseStep) {
                released = file.release(released, copied);
            }
        }
    }
    // Samples the index never claimed are still payload: fold them too,
    // so the fingerprint always covers every payload byte.
    for (std::size_t at = samples_seen * kSampleBytes; at < payload_bytes;
         at += sizeof(std::uint64_t)) {
        std::uint64_t word;
        std::memcpy(&word, payload + at, sizeof(word));
        payload_fp = fold_word(payload_fp, word);
    }

    if (payload_fp != fingerprint) {
        fail("payload fingerprint mismatch (corrupt or tampered file)");
    }
    if (samples_seen != sample_count) {
        fail("index series lengths disagree with sample count");
    }
    if (vms_seen != vm_count) {
        fail("index vm entries disagree with vm count");
    }
    if (!bad_sample.empty()) fail(bad_sample);

    if (metrics != nullptr) {
        metrics->add("trace.rows", samples_seen);
        metrics->add("trace.boxes", trace.boxes.size());
        metrics->add("trace.vms", vms_seen);
    }
    return trace;
}

Trace read_trace_any_file(const std::string& path, int windows_per_day,
                          obs::MetricsRegistry* metrics) {
    if (is_trace_binary_file(path)) {
        return read_trace_binary_file(path, metrics);
    }
    return read_trace_csv_file(path, windows_per_day, metrics);
}

}  // namespace atm::trace
