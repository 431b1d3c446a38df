#include "linalg/simd/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <stdexcept>

namespace atm::simd {

// Registered by the per-ISA translation units actually compiled into
// this binary (see src/linalg/CMakeLists.txt for the gating).
const KernelTable& scalar_kernel_table();
#if defined(ATM_SIMD_HAVE_AVX2)
const KernelTable& avx2_kernel_table();
#endif
#if defined(ATM_SIMD_HAVE_AVX512)
const KernelTable& avx512_kernel_table();
#endif

namespace {

bool cpu_supports(Path path) {
    switch (path) {
        case Path::kScalar:
            return true;
        case Path::kAvx2:
#if defined(ATM_SIMD_HAVE_AVX2)
            return __builtin_cpu_supports("avx2") != 0;
#else
            return false;
#endif
        case Path::kAvx512:
#if defined(ATM_SIMD_HAVE_AVX512)
            return __builtin_cpu_supports("avx512f") != 0;
#else
            return false;
#endif
    }
    return false;
}

const KernelTable* table_for(Path path) {
    switch (path) {
        case Path::kScalar:
            return &scalar_kernel_table();
#if defined(ATM_SIMD_HAVE_AVX2)
        case Path::kAvx2:
            return &avx2_kernel_table();
#endif
#if defined(ATM_SIMD_HAVE_AVX512)
        case Path::kAvx512:
            return &avx512_kernel_table();
#endif
        default:
            return nullptr;
    }
}

// The resolved active table. Resolution is lazy (first active_path() /
// active_kernels() call) so that set_path() or ATM_SIMD can take effect
// before any kernel runs; std::atomic keeps reads cheap and racing
// resolvers merely redundant, not unsafe.
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable& resolve() {
    Path path = best_supported_path();
    if (const char* env = std::getenv("ATM_SIMD"); env != nullptr) {
        const Path forced = parse_path(env);
        if (!cpu_supports(forced)) {
            throw std::invalid_argument(
                std::string("ATM_SIMD=") + env +
                " is not supported by this build/CPU");
        }
        path = forced;
    }
    const KernelTable* table = table_for(path);
    g_active.store(table, std::memory_order_release);
    return *table;
}

}  // namespace

std::uint64_t ulp_distance(double a, double b) {
    if (a != a || b != b) {
        return ~std::uint64_t{0};
    }
    const auto ordered = [](double v) {
        // Map to a monotone signed integer line (sign-magnitude →
        // two's-complement ordering trick), so adjacent doubles differ
        // by 1 and ±0.0 coincide at 0.
        const auto bits = std::bit_cast<std::int64_t>(v);
        return bits >= 0 ? bits : std::int64_t(0x8000000000000000ULL) - bits;
    };
    const std::int64_t oa = ordered(a);
    const std::int64_t ob = ordered(b);
    return oa >= ob ? static_cast<std::uint64_t>(oa) - static_cast<std::uint64_t>(ob)
                    : static_cast<std::uint64_t>(ob) - static_cast<std::uint64_t>(oa);
}

const char* to_string(Path path) {
    switch (path) {
        case Path::kScalar:
            return "scalar";
        case Path::kAvx2:
            return "avx2";
        case Path::kAvx512:
            return "avx512";
    }
    return "unknown";
}

Path parse_path(const std::string& name) {
    if (name == "scalar") return Path::kScalar;
    if (name == "avx2") return Path::kAvx2;
    if (name == "avx512") return Path::kAvx512;
    throw std::invalid_argument(
        "unknown SIMD path '" + name +
        "' (expected scalar|avx2|avx512)");
}

std::vector<Path> compiled_paths() {
    std::vector<Path> paths{Path::kScalar};
#if defined(ATM_SIMD_HAVE_AVX2)
    paths.push_back(Path::kAvx2);
#endif
#if defined(ATM_SIMD_HAVE_AVX512)
    paths.push_back(Path::kAvx512);
#endif
    return paths;
}

std::vector<Path> supported_paths() {
    std::vector<Path> paths;
    for (Path path : compiled_paths()) {
        if (cpu_supports(path)) {
            paths.push_back(path);
        }
    }
    return paths;
}

Path best_supported_path() {
    const std::vector<Path> paths = supported_paths();
    return paths.back();
}

Path active_path() {
    return active_kernels().path;
}

const KernelTable& active_kernels() {
    if (const KernelTable* table = g_active.load(std::memory_order_acquire)) {
        return *table;
    }
    return resolve();
}

void set_path(Path path) {
    g_active.store(&kernels_for(path), std::memory_order_release);
}

const KernelTable& kernels_for(Path path) {
    const KernelTable* table = table_for(path);
    if (table == nullptr) {
        throw std::invalid_argument(std::string("SIMD path '") +
                                    to_string(path) +
                                    "' is not compiled into this binary");
    }
    if (!cpu_supports(path)) {
        throw std::invalid_argument(std::string("SIMD path '") +
                                    to_string(path) +
                                    "' is not supported by this CPU");
    }
    return *table;
}

}  // namespace atm::simd
