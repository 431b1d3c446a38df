// Fig. 7: inter- vs intra-resource spatial models. The inter model mixes
// CPU and RAM series of a box as mutual predictors; the intra models treat
// each resource class separately. Reports signature-set reduction and
// spatial-model fit error for DTW and CBC.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "linalg/flat_matrix.hpp"
#include "core/signature_search.hpp"
#include "core/spatial_model.hpp"
#include "tracegen/generator.hpp"

int main() {
    using namespace atm;
    bench::banner(
        "Fig. 7 — inter- vs intra-resource models",
        "CBC(DTW): inter 66%(26%) signatures / 20%(28%) APE beats "
        "intra-CPU 81%(41%)/21%(26%) and intra-RAM 90%(45%)/23%(31%)");

    trace::TraceGenOptions options;
    options.num_boxes = bench::env_int("ATM_BOXES", 120);
    options.num_days = bench::env_int("ATM_TRAIN_DAYS", 2);
    options.seed = static_cast<std::uint64_t>(bench::env_int("ATM_SEED", 20150403));

    const core::ResourceScope scopes[] = {core::ResourceScope::kInter,
                                          core::ResourceScope::kIntraCpu,
                                          core::ResourceScope::kIntraRam};
    const char* scope_names[] = {"inter-CPU/RAM", "intra-CPU", "intra-RAM"};
    const char* method_names[] = {"DTW", "CBC"};

    std::vector<double> ratio[2][3];
    std::vector<double> ape[2][3];

    for (int b = 0; b < options.num_boxes; ++b) {
        const trace::BoxTrace box = trace::generate_box(options, b);
        const auto all_series = box.demand_matrix();
        for (int s = 0; s < 3; ++s) {
            const auto indices = core::scope_indices(all_series.size(), scopes[s]);
            if (indices.empty()) continue;
            la::FlatMatrix series(indices.size(), all_series.cols());
            for (std::size_t k = 0; k < indices.size(); ++k) {
                const auto row = all_series[static_cast<std::size_t>(indices[k])];
                std::copy(row.begin(), row.end(), series[k].begin());
            }
            for (int m = 0; m < 2; ++m) {
                core::SignatureSearchOptions search;
                search.method = m == 0 ? core::ClusteringMethod::kDtw
                                       : core::ClusteringMethod::kCbc;
                const auto result = core::find_signatures(series, search);
                ratio[m][s].push_back(100.0 * result.signature_ratio(series.size()));
                core::SpatialModel model;
                model.fit(series, result.signatures);
                if (!model.dependent_fit_ape().empty()) {
                    ape[m][s].push_back(100.0 * ts::mean(model.dependent_fit_ape()));
                }
            }
        }
    }

    std::printf("(a) ratio of signature to original series (%%)\n");
    for (int m = 0; m < 2; ++m) {
        for (int s = 0; s < 3; ++s) {
            bench::print_summary_row(
                std::string(method_names[m]) + " " + scope_names[s], ratio[m][s]);
        }
    }
    std::printf("\n(b) spatial-model fit error, mean APE (%%)\n");
    for (int m = 0; m < 2; ++m) {
        for (int s = 0; s < 3; ++s) {
            bench::print_summary_row(
                std::string(method_names[m]) + " " + scope_names[s], ape[m][s]);
        }
    }
    return 0;
}
