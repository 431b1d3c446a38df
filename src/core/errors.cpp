#include "core/errors.hpp"

namespace atm::core {

const char* to_string(PipelineErrorCode code) {
    switch (code) {
        case PipelineErrorCode::kNone: return "none";
        case PipelineErrorCode::kTraceInvalid: return "trace-invalid";
        case PipelineErrorCode::kRepairFailed: return "repair-failed";
        case PipelineErrorCode::kSearchDegenerate: return "search-degenerate";
        case PipelineErrorCode::kModelFitFailed: return "model-fit-failed";
        case PipelineErrorCode::kSolverSingular: return "solver-singular";
        case PipelineErrorCode::kResizeInfeasible: return "resize-infeasible";
        case PipelineErrorCode::kCancelled: return "cancelled";
        case PipelineErrorCode::kFaultInjected: return "fault-injected";
        case PipelineErrorCode::kInternal: return "internal";
    }
    return "unknown";
}

PipelineErrorCode error_code_from_string(const std::string& name) {
    for (const PipelineErrorCode code :
         {PipelineErrorCode::kNone, PipelineErrorCode::kTraceInvalid,
          PipelineErrorCode::kRepairFailed, PipelineErrorCode::kSearchDegenerate,
          PipelineErrorCode::kModelFitFailed, PipelineErrorCode::kSolverSingular,
          PipelineErrorCode::kResizeInfeasible, PipelineErrorCode::kCancelled,
          PipelineErrorCode::kFaultInjected, PipelineErrorCode::kInternal}) {
        if (name == to_string(code)) return code;
    }
    throw std::invalid_argument("unknown PipelineErrorCode name '" + name + "'");
}

std::string error_counter_name(PipelineErrorCode code) {
    return std::string("robust.error.") + to_string(code);
}

}  // namespace atm::core
