// Ablation: which temporal model predicts the signature series — the
// paper's neural network vs AR(p) vs seasonal-naive. The paper stresses
// that any temporal model plugs into ATM; this quantifies the trade-off
// on the same boxes (prediction APE and downstream ticket reduction).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "tracegen/generator.hpp"

int main() {
    using namespace atm;
    bench::banner("Ablation — temporal model for signature series",
                  "paper uses a neural network (PRACTISE); any model plugs in");

    trace::TraceGenOptions options;
    options.num_boxes = bench::env_int("ATM_BOXES", 25);
    options.num_days = 6;
    options.seed = static_cast<std::uint64_t>(bench::env_int("ATM_SEED", 20150403));

    const forecast::TemporalModel models[] = {
        forecast::TemporalModel::kNeuralNetwork,
        forecast::TemporalModel::kAutoregressive,
        forecast::TemporalModel::kSeasonalNaive,
    };

    std::printf("%-16s %12s %12s %14s %14s\n", "model", "APE all(%)",
                "APE peak(%)", "CPU red.(%)", "RAM red.(%)");
    for (const auto model : models) {
        std::vector<double> ape_all;
        std::vector<double> ape_peak;
        std::vector<double> cpu_red;
        std::vector<double> ram_red;
        int evaluated = 0;
        for (int b = 0; b < options.num_boxes * 2 && evaluated < options.num_boxes;
             ++b) {
            const trace::BoxTrace box = trace::generate_box(options, b);
            if (box.has_gaps) continue;
            ++evaluated;
            core::PipelineConfig config;
            config.search.method = core::ClusteringMethod::kCbc;
            config.temporal = model;
            config.train_days = 5;
            const auto result = core::run_pipeline_on_box(
                box, 96, config, {resize::ResizePolicy::kAtmGreedy});
            ape_all.push_back(100.0 * result.ape_all);
            if (result.ape_peak > 0.0) ape_peak.push_back(100.0 * result.ape_peak);
            if (result.policies[0].cpu_before > 0) {
                cpu_red.push_back(result.policies[0].cpu_reduction_pct());
            }
            if (result.policies[0].ram_before > 0) {
                ram_red.push_back(result.policies[0].ram_reduction_pct());
            }
        }
        std::printf("%-16s %12.1f %12.1f %14.1f %14.1f\n",
                    forecast::to_string(model).c_str(), ts::mean(ape_all),
                    ts::mean(ape_peak), ts::mean(cpu_red), ts::mean(ram_red));
    }
    return 0;
}
