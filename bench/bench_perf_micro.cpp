// Microbenchmarks (google-benchmark) backing the paper's "low
// computational overhead" claim: per-operation cost of the building
// blocks — DTW distance, hierarchical clustering, CBC, OLS fit, the MCKP
// greedy, and MLP training — at per-box problem sizes, plus the fleet
// executor (per-worker-count pipeline throughput and the parallel DTW
// matrix).

#include <benchmark/benchmark.h>

#include <algorithm>

#include <random>
#include <span>
#include <string>
#include <vector>

#include "cluster/cbc.hpp"
#include "cluster/dtw.hpp"
#include "cluster/hierarchical.hpp"
#include "core/fleet.hpp"
#include "forecast/mlp_forecaster.hpp"
#include "forecast/nn.hpp"
#include "forecast/seasonal_naive.hpp"
#include "linalg/ols.hpp"
#include "linalg/ridge.hpp"
#include "linalg/simd/simd.hpp"
#include "resize/policies.hpp"
#include "timeseries/features.hpp"
#include "tracegen/generator.hpp"

namespace {

using namespace atm;

la::FlatMatrix box_series(int days) {
    trace::TraceGenOptions options;
    options.num_days = days;
    options.gappy_box_fraction = 0.0;
    return trace::generate_box(options, 3).demand_matrix();
}

void BM_DtwDistance(benchmark::State& state) {
    const auto series = box_series(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(cluster::dtw_distance(series[0], series[2]));
    }
}
BENCHMARK(BM_DtwDistance)->Arg(1)->Arg(2)->Arg(5);

void BM_DtwDistanceBanded(benchmark::State& state) {
    const auto series = box_series(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cluster::dtw_distance(series[0], series[2], /*band=*/8));
    }
}
BENCHMARK(BM_DtwDistanceBanded)->Arg(1)->Arg(2)->Arg(5);

/// Warm-workspace DTW pair: the steady-state cost inside the pairwise
/// matrix loop — no per-call DP-row allocations, band-window-only resets.
void BM_DtwDistanceWorkspace(benchmark::State& state) {
    const auto series = box_series(static_cast<int>(state.range(0)));
    cluster::DtwWorkspace workspace;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cluster::dtw_distance(
            series[0], series[2], /*band=*/8, workspace));
    }
}
BENCHMARK(BM_DtwDistanceWorkspace)->Arg(1)->Arg(2)->Arg(5);

/// Full pairwise matrix under a Sakoe-Chiba band — the headline kernel
/// for the banded signature search. Arg = days of history per series.
void BM_DtwMatrixBanded(benchmark::State& state) {
    const auto series = box_series(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cluster::dtw_distance_matrix(series, /*band=*/8).size());
    }
}
BENCHMARK(BM_DtwMatrixBanded)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_DtwMatrixPlusClustering(benchmark::State& state) {
    const auto series = box_series(1);
    for (auto _ : state) {
        const auto dist = cluster::dtw_distance_matrix(series);
        const auto best = cluster::cluster_best_k(
            dist, 2, static_cast<int>(series.size()) / 2);
        benchmark::DoNotOptimize(best.num_clusters);
    }
}
BENCHMARK(BM_DtwMatrixPlusClustering);

void BM_CbcClustering(benchmark::State& state) {
    const auto series = box_series(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cluster::cbc_cluster(series).size());
    }
}
BENCHMARK(BM_CbcClustering);

void BM_OlsFit(benchmark::State& state) {
    const auto series = box_series(5);
    const std::vector<std::span<const double>> predictors =
        series.row_views({0, 1, 2, 3});
    for (auto _ : state) {
        benchmark::DoNotOptimize(la::ols_fit(series[5], predictors).r_squared);
    }
}
BENCHMARK(BM_OlsFit);

/// The VIF step at its production shape: the CBC heads of a 10-VM
/// generator box over a 5-day training window (≈19 predictors × 480
/// samples), with CBC's correlation matrix gathered to the heads as
/// `find_signatures` passes it.
void BM_VifReduce(benchmark::State& state) {
    trace::TraceGenOptions options;
    options.num_days = 5;
    options.gappy_box_fraction = 0.0;
    options.mean_vms_per_box = 10.0;
    options.min_vms_per_box = 10;
    options.max_vms_per_box = 10;
    const la::FlatMatrix series = trace::generate_box(options, 3).demand_matrix();
    const la::FlatMatrix rho = cluster::correlation_matrix(series);
    std::vector<int> heads;
    for (const cluster::CbcCluster& c : cluster::cbc_cluster_from_correlation(rho)) {
        heads.push_back(c.head);
    }
    std::sort(heads.begin(), heads.end());
    la::FlatMatrix head_rho(heads.size(), heads.size());
    for (std::size_t i = 0; i < heads.size(); ++i) {
        for (std::size_t j = 0; j < heads.size(); ++j) {
            head_rho(i, j) = rho(static_cast<std::size_t>(heads[i]),
                                 static_cast<std::size_t>(heads[j]));
        }
    }
    const std::vector<std::span<const double>> predictors = series.row_views(heads);
    state.counters["predictors"] = static_cast<double>(predictors.size());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            la::reduce_multicollinearity(predictors, head_rho).size());
    }
}
BENCHMARK(BM_VifReduce)->Unit(benchmark::kMillisecond);

/// Fused ridge normal equations: columns centered once into a contiguous
/// block, Gram matrix accumulated straight from it.
void BM_RidgeFit(benchmark::State& state) {
    const auto series = box_series(5);
    const std::vector<std::span<const double>> predictors =
        series.row_views({0, 1, 2, 3});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            la::ridge_fit(series[5], predictors, 0.5).r_squared);
    }
}
BENCHMARK(BM_RidgeFit);

void BM_MckpGreedyResize(benchmark::State& state) {
    const auto series = box_series(1);
    resize::ResizeInput input;
    input.alpha = 0.6;
    double peak_sum = 0.0;
    for (std::size_t i = 0; i < series.size(); i += 2) {
        input.demands.emplace_back(series[i].begin(), series[i].end());
        for (double d : series[i]) peak_sum = std::max(peak_sum, d);
    }
    input.total_capacity = peak_sum * static_cast<double>(input.demands.size()) * 0.6;
    for (auto _ : state) {
        benchmark::DoNotOptimize(resize::atm_resize(input).tickets);
    }
}
BENCHMARK(BM_MckpGreedyResize);

void BM_MlpTrainSignature(benchmark::State& state) {
    const auto series = box_series(5);
    for (auto _ : state) {
        forecast::MlpForecaster model;
        model.fit(series[0]);
        benchmark::DoNotOptimize(model.forecast(96).front());
    }
}
BENCHMARK(BM_MlpTrainSignature)->Unit(benchmark::kMillisecond);

/// The forecaster's lag dataset of `s`: 6 lags plus one seasonal lag
/// (7 inputs per example), min-max scaled like MlpForecaster::fit.
void lag_examples(std::span<const double> s, la::FlatMatrix& inputs,
                  std::vector<double>& targets) {
    ts::MinMaxScaler scaler;
    scaler.fit(s);
    ts::make_lag_dataset_flat(scaler.transform(s), 6, 96, inputs, targets);
}

/// Raw network training loop (no forecaster wrapper) at the production
/// shape, 7→12→1 on a 480-sample series: flattened per-layer weight
/// arrays and a reused caller-owned workspace, so the per-sample SGD loop
/// runs allocation-free. One network is a batch of one: on vector paths
/// every lane but one idles.
void BM_MlpNetworkTrain(benchmark::State& state) {
    const auto series = box_series(5);
    la::FlatMatrix inputs;
    std::vector<double> targets;
    lag_examples(series[0], inputs, targets);
    forecast::MlpTrainOptions options;
    options.epochs = 20;
    forecast::MlpWorkspace workspace;
    for (auto _ : state) {
        forecast::MlpNetwork net({7, 12, 1}, 42);
        benchmark::DoNotOptimize(net.train(inputs, targets, options, &workspace));
    }
}
BENCHMARK(BM_MlpNetworkTrain)->Unit(benchmark::kMillisecond);

/// One box's forecast fits at the production shape, as the pipeline's
/// forecast stage runs them: 19 signatures' 480-sample series, default
/// MlpForecaster options (7→12→1, up to 80 epochs with early stopping)
/// and per-signature seeds, fitted together by MlpForecaster::fit_batch.
void BM_MlpTrainBox(benchmark::State& state) {
    constexpr std::size_t kSignatures = 19;
    const auto series = box_series(5);
    std::vector<std::span<const double>> histories;
    for (std::size_t s = 0; s < kSignatures; ++s) {
        histories.push_back(series[s % series.rows()]);
    }
    forecast::MlpWorkspace workspace;
    for (auto _ : state) {
        std::vector<forecast::MlpForecaster> models;
        for (std::size_t s = 0; s < kSignatures; ++s) {
            forecast::MlpForecasterOptions options;
            options.train.seed = 42 + static_cast<unsigned>(s);
            options.workspace = &workspace;
            models.emplace_back(options);
        }
        std::vector<forecast::MlpForecaster*> batch;
        for (forecast::MlpForecaster& m : models) batch.push_back(&m);
        forecast::MlpForecaster::fit_batch(batch, histories);
        benchmark::DoNotOptimize(models.back().forecast(1).front());
    }
}
BENCHMARK(BM_MlpTrainBox)->Unit(benchmark::kMillisecond);

void BM_SeasonalNaive(benchmark::State& state) {
    const auto series = box_series(5);
    for (auto _ : state) {
        forecast::SeasonalNaiveForecaster model(96);
        model.fit(series[0]);
        benchmark::DoNotOptimize(model.forecast(96).front());
    }
}
BENCHMARK(BM_SeasonalNaive);

/// Fleet-driver throughput at a given worker count: the full per-box
/// pipeline (DTW signature search + seasonal-naive temporal model +
/// greedy resize) over a small fixed fleet. Arg = FleetConfig::jobs;
/// comparing Arg(1) with Arg(4+) is the multi-core speedup of the fleet
/// scheduler (bench_fleet_scaling prints the same as a speedup table).
void BM_FleetPipeline(benchmark::State& state) {
    static const trace::Trace t = [] {
        trace::TraceGenOptions options;
        options.num_boxes = 8;
        options.num_days = 6;
        options.gappy_box_fraction = 0.0;
        return trace::generate_trace(options);
    }();
    core::FleetConfig config;
    config.pipeline.search.method = core::ClusteringMethod::kDtw;
    config.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.jobs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);
        benchmark::DoNotOptimize(fleet.totals.front().cpu_after);
    }
}
BENCHMARK(BM_FleetPipeline)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// BM_MlpNetworkTrain (one 7→12→1 network) under a pinned SIMD kernel
/// path; it runs on the ambient dispatch. Registered once per supported
/// path by main().
void BM_MlpTrain(benchmark::State& state, simd::Path path) {
    const simd::Path ambient = simd::active_path();
    simd::set_path(path);
    const auto series = box_series(5);
    la::FlatMatrix inputs;
    std::vector<double> targets;
    lag_examples(series[0], inputs, targets);
    forecast::MlpTrainOptions options;
    options.epochs = 20;
    forecast::MlpWorkspace workspace;
    for (auto _ : state) {
        forecast::MlpNetwork net({7, 12, 1}, 42);
        benchmark::DoNotOptimize(net.train(inputs, targets, options, &workspace));
    }
    simd::set_path(ambient);
}

/// Pairwise DTW matrix under a pinned SIMD kernel path and band — one row
/// per (path, days) pair so BENCH_kernels.json carries the scalar vs
/// vector speedup explicitly instead of only the dispatched winner.
/// Arg = days of history per series.
void BM_DtwMatrixPath(benchmark::State& state, simd::Path path, int band) {
    const simd::Path ambient = simd::active_path();
    simd::set_path(path);
    const auto series = box_series(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cluster::dtw_distance_matrix(series, band).size());
    }
    simd::set_path(ambient);
}

/// Registers the per-path differential rows (one set per SIMD path this
/// CPU can run). Must run before RunSpecifiedBenchmarks().
void register_per_path_benchmarks() {
    for (const simd::Path path : simd::supported_paths()) {
        const std::string tag = std::string("<") + simd::to_string(path) + ">";
        benchmark::RegisterBenchmark(
            ("BM_DtwMatrixBanded" + tag).c_str(),
            [path](benchmark::State& state) {
                BM_DtwMatrixPath(state, path, /*band=*/8);
            })
            ->Arg(1)
            ->Arg(5)
            ->Unit(benchmark::kMillisecond);
        // The shape the fleet's DTW search runs: unconstrained, over one
        // box's five-day (480-sample) series.
        benchmark::RegisterBenchmark(
            ("BM_DtwMatrixFull" + tag).c_str(),
            [path](benchmark::State& state) {
                BM_DtwMatrixPath(state, path, /*band=*/-1);
            })
            ->Arg(5)
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_MlpTrain" + tag).c_str(),
            [path](benchmark::State& state) { BM_MlpTrain(state, path); })
            ->Unit(benchmark::kMillisecond);
    }
}

}  // namespace

// Custom main (vs BENCHMARK_MAIN): the per-path rows depend on runtime
// CPU detection, so they are registered dynamically, and the dispatched
// SIMD path is stamped into the JSON context for artifact provenance.
int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::AddCustomContext(
        "simd", atm::simd::to_string(atm::simd::active_path()));
    register_per_path_benchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
