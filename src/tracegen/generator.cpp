#include "tracegen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>
#include <string>

namespace atm::trace {
namespace {

/// SplitMix64 step; used to derive independent per-box seeds so box b of a
/// seeded trace is identical no matter how many boxes are generated.
std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// First-order autoregressive noise source: x_t = phi x_{t-1} + N(0, sigma).
class Ar1 {
  public:
    Ar1(double phi, double sigma, std::mt19937_64& rng)
        : phi_(phi), noise_(0.0, sigma), rng_(&rng) {}

    double next() {
        state_ = phi_ * state_ + noise_(*rng_);
        return state_;
    }

  private:
    double phi_;
    double state_ = 0.0;
    std::normal_distribution<double> noise_;
    std::mt19937_64* rng_;
};

double uniform(std::mt19937_64& rng, double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
}

bool bernoulli(std::mt19937_64& rng, double p) {
    return std::bernoulli_distribution(p)(rng);
}

}  // namespace

BoxTrace generate_box(const TraceGenOptions& options, int index) {
    if (options.windows_per_day < 1 || options.num_days < 1) {
        throw std::invalid_argument("generate_box: bad time grid");
    }
    std::mt19937_64 rng(splitmix64(options.seed) ^ splitmix64(static_cast<std::uint64_t>(index) + 0x51ED270B));
    const int wpd = options.windows_per_day;
    const std::size_t total = static_cast<std::size_t>(wpd) * static_cast<std::size_t>(options.num_days);

    // --- consolidation level -------------------------------------------------
    const double sigma_ln = 0.35;
    const double mu_ln = std::log(options.mean_vms_per_box) - 0.5 * sigma_ln * sigma_ln;
    std::lognormal_distribution<double> vm_count_dist(mu_ln, sigma_ln);
    const int num_vms = std::clamp(static_cast<int>(std::lround(vm_count_dist(rng))),
                                   options.min_vms_per_box, options.max_vms_per_box);

    // --- box-shared load driver (diurnal + weekday modulation + AR noise) ----
    // Day-to-day amplitude is stable per box with small jitter: production
    // weekday patterns repeat (that regularity is what makes the paper's
    // one-day-ahead prediction viable at 20-30% APE).
    const double box_phase = uniform(rng, 0.0, 1.0);
    const double box_day_factor = uniform(rng, 0.78, 1.0);
    std::vector<double> weekday_factor(static_cast<std::size_t>(options.num_days));
    for (double& f : weekday_factor) f = box_day_factor * uniform(rng, 0.95, 1.05);
    Ar1 driver_noise(0.85, 0.04, rng);
    std::vector<double> driver(total);
    for (std::size_t t = 0; t < total; ++t) {
        const int day = static_cast<int>(t) / wpd;
        const double tod = static_cast<double>(static_cast<int>(t) % wpd) / wpd;
        const double diurnal =
            0.5 + 0.45 * std::sin(2.0 * std::numbers::pi * (tod - box_phase));
        driver[t] = std::clamp(
            diurnal * weekday_factor[static_cast<std::size_t>(day)] + driver_noise.next(),
            0.0, 1.0);
    }

    // --- hot-VM layout ---------------------------------------------------------
    const bool hot_box = bernoulli(rng, options.hot_box_fraction);
    int num_hot = 0;
    if (hot_box) {
        num_hot = bernoulli(rng, options.second_hot_vm_probability) ? 2 : 1;
        num_hot = std::min(num_hot, num_vms);
    }

    BoxTrace box;
    box.name = "box" + std::to_string(index);
    box.vms.reserve(static_cast<std::size_t>(num_vms));

    double cpu_alloc_sum = 0.0;
    double ram_alloc_sum = 0.0;

    // RAM-pressure layout (Fig. 2 RAM columns): a small set of boxes hosts a
    // chronically RAM-starved VM (deep violations at every threshold), a
    // larger set a VM in the 60-80% band (tickets only at low thresholds).
    enum class RamPressure { kNone, kBand, kDeep };
    RamPressure ram_pressure = RamPressure::kNone;
    {
        const double roll = uniform(rng, 0.0, 1.0);
        if (roll < 0.10) {
            ram_pressure = RamPressure::kDeep;
        } else if (roll < 0.38) {
            ram_pressure = RamPressure::kBand;
        }
    }
    const int ram_hot_vm = ram_pressure == RamPressure::kNone
                               ? -1
                               : std::uniform_int_distribution<int>(0, num_vms - 1)(rng);

    for (int vm_idx = 0; vm_idx < num_vms; ++vm_idx) {
        const bool is_hot = vm_idx < num_hot;
        // Hot VMs split into chronically under-provisioned "deep" violators
        // (above even the 80% threshold most of the day — these keep the
        // per-box ticket count nearly flat across thresholds, as in
        // Fig. 2b) and "moderate" ones that cross 60% on load peaks only.
        const bool is_deep = is_hot && bernoulli(rng, 0.6);
        const bool follows_driver = bernoulli(
            rng, is_deep ? 0.3 : is_hot ? 0.6 : options.driver_follow_probability);

        // --- CPU usage model -------------------------------------------------
        // The model produces a *latent* demand level in percent of the
        // current allocation; monitoring usage saturates at 100% while the
        // demand series keeps the excess (VMware demand-metric semantics).
        // Deep violators are chronically under-provisioned: their latent
        // peaks run past 100%, so only a genuinely larger allocation — not
        // shuffling within the current one — can clear their tickets.
        double base_cpu = 0.0;
        double amp_cpu = 0.0;
        double bursts_per_day = 0.0;
        double burst_amp_lo = 0.0;
        double burst_amp_hi = 0.0;
        if (is_deep) {
            // Transient culprits: low trough, very large diurnal swing with
            // a latent peak far above the current allocation. Matches the
            // paper's narrative (tickets from "transient load dynamics" on
            // under-provisioned VMs) and its near-flat tickets-per-box
            // profile across the 60/70/80%% thresholds.
            base_cpu = uniform(rng, 22.0, 40.0);
            amp_cpu = uniform(rng, 100.0, 150.0);
            bursts_per_day = 0.8;
            burst_amp_lo = 5.0;
            burst_amp_hi = 15.0;
        } else if (is_hot) {
            base_cpu = uniform(rng, 42.0, 58.0);
            amp_cpu = uniform(rng, 12.0, 26.0);
            bursts_per_day = 1.5;
            burst_amp_lo = 8.0;
            burst_amp_hi = 25.0;
        } else {
            // Cold VMs: modest diurnal band plus cron-style daily spikes.
            // The spikes stay below the 60% ticket threshold (no tickets of
            // their own) but define the VM's demand *peak* at ~1.7-3x its
            // typical level. Two production realities follow: (i) sizing a
            // VM to 60% of its peak (stingy) clears its diurnal band, and
            // (ii) the box-level sum of ticket-free requirements
            // (peak/0.6) approaches the box capacity, so allocation-policy
            // quality matters.
            base_cpu = uniform(rng, 5.0, 22.0);
            amp_cpu = uniform(rng, 3.0, std::min(9.0, 27.0 - base_cpu));
            bursts_per_day = 0.0;  // cold VMs use scheduled spikes instead
        }
        // Spike target level for cold VMs: ~1.8x above anything the diurnal
        // band (plus noise) reaches, capped safely below the 60% threshold.
        // Spikes *floor* the level at this target (not additive), so the
        // daily demand peak is a stable absolute level regardless of when
        // in the day the spike fires.
        const double cold_band_max = base_cpu + amp_cpu;
        const double cold_spike_target = std::clamp(
            uniform(rng, 1.7, 2.1) * (cold_band_max + 4.0), 18.0, 56.0);
        // Scheduled maintenance spikes for cold VMs: 1-2 short (1-2 window)
        // spikes per day at VM-specific times. Guaranteed-daily spikes make
        // the daily demand peak a stable, rare, narrow event — the shape
        // that justifies peak-based sizing heuristics in practice.
        std::vector<bool> scheduled_spike(total, false);
        if (!is_hot) {
            for (int day = 0; day < options.num_days; ++day) {
                const int spikes_today = bernoulli(rng, 0.15) ? 2 : 1;
                for (int s = 0; s < spikes_today; ++s) {
                    const int start = std::uniform_int_distribution<int>(0, wpd - 1)(rng);
                    const int duration = 1;
                    for (int d = 0; d < duration; ++d) {
                        const std::size_t t =
                            static_cast<std::size_t>(day) * static_cast<std::size_t>(wpd) +
                            static_cast<std::size_t>((start + d) % wpd);
                        scheduled_spike[t] = true;
                    }
                }
            }
        }
        const double share = follows_driver ? uniform(rng, 0.55, 0.95) : uniform(rng, 0.0, 0.15);
        Ar1 cpu_noise(0.7, uniform(rng, 1.0, 3.0), rng);

        // VM-private diurnal component with its own phase.
        const double vm_phase = uniform(rng, 0.0, 1.0);
        Ar1 private_noise(0.85, 0.05, rng);

        // Burst process: Poisson window arrivals, geometric durations.
        const double burst_start_prob = bursts_per_day / wpd;
        std::geometric_distribution<int> burst_len_dist(0.25);  // mean 4 windows

        std::vector<double> cpu_latent(total);
        std::vector<bool> burst_active(total, false);
        int burst_remaining = 0;
        double burst_amp = 0.0;
        for (std::size_t t = 0; t < total; ++t) {
            const double tod = static_cast<double>(static_cast<int>(t) % wpd) / wpd;
            const double private_diurnal = std::clamp(
                0.5 + 0.45 * std::sin(2.0 * std::numbers::pi * (tod - vm_phase)) +
                    private_noise.next(),
                0.0, 1.0);
            if (burst_start_prob > 0.0 && burst_remaining == 0 &&
                bernoulli(rng, burst_start_prob)) {
                burst_remaining = 1 + burst_len_dist(rng);
                burst_amp = uniform(rng, burst_amp_lo, burst_amp_hi);
            }
            double burst = 0.0;
            if (burst_remaining > 0) {
                burst = burst_amp;
                burst_active[t] = true;
                --burst_remaining;
            }
            const double load = share * driver[t] + (1.0 - share) * private_diurnal;
            // Heteroscedastic noise: measurement/load noise scales with the
            // level (a 10%-utilized VM does not jitter by 5 points).
            const double level_det = base_cpu + amp_cpu * load + burst;
            const double noise_scale = 0.25 + 0.75 * std::min(level_det, 100.0) / 60.0;
            double level = level_det + cpu_noise.next() * noise_scale;
            if (scheduled_spike[t]) {
                level = std::max(level, cold_spike_target + uniform(rng, -2.0, 2.0));
                burst_active[t] = true;
            }
            cpu_latent[t] = std::clamp(level, 0.5, 180.0);
        }

        // --- RAM usage model ---------------------------------------------------
        // RAM tracks a smoothed copy of the VM's own CPU (inter-pair target
        // rho ~0.62) on top of a slowly drifting resident-set baseline.
        // RAM-pressured VMs sit near-constant high instead (their RAM is a
        // full cache/heap, weakly load-coupled).
        double ram_base = 0.0;
        double kappa = 0.0;
        double ram_amp = 0.0;  // explicit diurnal term for band-pressure VMs
        double drift_sigma = 0.55;
        if (vm_idx == ram_hot_vm && ram_pressure == RamPressure::kDeep) {
            // Chronic RAM pressure: the working set exceeds the allocation
            // (latent demand above 100% shows up as paging in reality).
            ram_base = uniform(rng, 88.0, 112.0);
            kappa = uniform(rng, 0.05, 0.2);
            drift_sigma = 0.3;
        } else if (vm_idx == ram_hot_vm && ram_pressure == RamPressure::kBand) {
            // Transient RAM pressure: oscillates into the 60-80% band at
            // load peaks only (cache growth under load), so higher
            // thresholds see far fewer of its tickets.
            ram_base = uniform(rng, 30.0, 42.0);
            kappa = uniform(rng, 0.15, 0.4);
            ram_amp = uniform(rng, 30.0, 45.0);
            drift_sigma = 0.4;
        } else {
            ram_base = uniform(rng, 5.0, 21.0);
            kappa = uniform(rng, options.ram_coupling_min, options.ram_coupling_max);
            drift_sigma = 0.4;
        }
        // RAM has its own maintenance-spike schedule (page-cache fills,
        // log rotation) at VM-specific times, giving RAM series the same
        // rare-narrow-peak shape as CPU without inflating the same-VM
        // CPU-RAM correlation.
        const bool ram_spikes = ram_hot_vm != vm_idx;
        std::vector<bool> ram_spike_at(total, false);
        if (ram_spikes) {
            for (int day = 0; day < options.num_days; ++day) {
                const int start = std::uniform_int_distribution<int>(0, wpd - 1)(rng);
                const int duration = bernoulli(rng, 0.3) ? 2 : 1;
                for (int d = 0; d < duration; ++d) {
                    const std::size_t t =
                        static_cast<std::size_t>(day) * static_cast<std::size_t>(wpd) +
                        static_cast<std::size_t>((start + d) % wpd);
                    ram_spike_at[t] = true;
                }
            }
        }
        const double ram_spike_peak =
            std::min(uniform(rng, 1.45, 1.85) * (ram_base + 6.0), 48.0);
        Ar1 ram_drift(0.995, drift_sigma, rng);
        Ar1 ram_noise(0.5, uniform(rng, 1.0, 2.5), rng);
        const double cpu_mean_est = base_cpu + amp_cpu * 0.5;

        std::vector<double> ram_latent(total);
        double ewma = cpu_latent.front();
        for (std::size_t t = 0; t < total; ++t) {
            ewma = 0.65 * ewma + 0.35 * std::min(cpu_latent[t], 100.0);
            const double ram_det = ram_base + ram_amp * driver[t] +
                                   kappa * (ewma - cpu_mean_est);
            const double ram_noise_scale =
                0.3 + 0.7 * std::clamp(ram_det, 0.0, 100.0) / 60.0;
            double level = ram_det + (ram_drift.next() + ram_noise.next()) *
                                         ram_noise_scale;
            if (ram_spike_at[t]) {
                level = std::max(level, std::min(ram_spike_peak + ram_noise.next(), 58.0));
            }
            ram_latent[t] = std::clamp(level, 1.0, 180.0);
        }

        // --- capacities, usage (saturates at 100%) and demand (latent) ----------
        VmTrace vm;
        vm.name = box.name + "/vm" + std::to_string(vm_idx);
        vm.cpu_capacity_ghz = std::round(uniform(rng, 2.0, 8.0) * 2.0) / 2.0;
        vm.ram_capacity_gb = std::round(uniform(rng, 4.0, 32.0));
        std::vector<double> cpu_usage(total);
        std::vector<double> ram_usage(total);
        std::vector<double> cpu_demand(total);
        std::vector<double> ram_demand(total);
        for (std::size_t t = 0; t < total; ++t) {
            cpu_usage[t] = std::min(cpu_latent[t], 100.0);
            ram_usage[t] = std::min(ram_latent[t], 100.0);
            cpu_demand[t] = cpu_latent[t] / 100.0 * vm.cpu_capacity_ghz;
            ram_demand[t] = ram_latent[t] / 100.0 * vm.ram_capacity_gb;
        }
        vm.cpu_usage_pct = ts::Series(vm.name + "/CPU", std::move(cpu_usage));
        vm.ram_usage_pct = ts::Series(vm.name + "/RAM", std::move(ram_usage));
        vm.cpu_demand_ghz = ts::Series(vm.name + "/CPU-demand", std::move(cpu_demand));
        vm.ram_demand_gb = ts::Series(vm.name + "/RAM-demand", std::move(ram_demand));
        cpu_alloc_sum += vm.cpu_capacity_ghz;
        ram_alloc_sum += vm.ram_capacity_gb;
        box.vms.push_back(std::move(vm));
    }

    box.cpu_capacity_ghz =
        cpu_alloc_sum * uniform(rng, options.capacity_headroom_min, options.capacity_headroom_max);
    box.ram_capacity_gb =
        ram_alloc_sum * uniform(rng, options.capacity_headroom_min, options.capacity_headroom_max);

    // --- monitoring gaps --------------------------------------------------------
    if (bernoulli(rng, options.gappy_box_fraction)) {
        box.has_gaps = true;
        const int num_gaps = std::uniform_int_distribution<int>(1, 3)(rng);
        for (int g = 0; g < num_gaps; ++g) {
            const auto start = static_cast<std::size_t>(
                std::uniform_int_distribution<long>(0, static_cast<long>(total) - 1)(rng));
            const auto len = static_cast<std::size_t>(
                std::uniform_int_distribution<int>(2, 20)(rng));
            const std::size_t end = std::min(total, start + len);
            for (VmTrace& vm : box.vms) {
                for (std::size_t t = start; t < end; ++t) {
                    vm.cpu_usage_pct[t] = 0.0;
                    vm.ram_usage_pct[t] = 0.0;
                    vm.cpu_demand_ghz[t] = 0.0;
                    vm.ram_demand_gb[t] = 0.0;
                }
            }
        }
    }
    return box;
}

Trace generate_trace(const TraceGenOptions& options) {
    // Checked before anything is allocated: a negative count would turn
    // into a huge reserve().
    const auto check = [](const char* field, int value, int min) {
        if (value < min) {
            throw std::invalid_argument(std::string("generate_trace: ") + field +
                                        " must be >= " + std::to_string(min) +
                                        ", got " + std::to_string(value));
        }
    };
    check("num_boxes", options.num_boxes, 0);
    check("num_days", options.num_days, 1);
    check("windows_per_day", options.windows_per_day, 1);
    Trace trace;
    trace.windows_per_day = options.windows_per_day;
    trace.boxes.reserve(static_cast<std::size_t>(options.num_boxes));
    for (int b = 0; b < options.num_boxes; ++b) {
        trace.boxes.push_back(generate_box(options, b));
    }
    return trace;
}

}  // namespace atm::trace
