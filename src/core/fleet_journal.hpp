#pragma once

#include <cstdint>
#include <string>

#include "core/fleet.hpp"

namespace atm::core {

/// Schema tag of the fleet checkpoint journal's header record. Bump when
/// the record encoding changes incompatibly: a resume against an older
/// journal then starts fresh instead of mis-decoding.
inline constexpr const char* kFleetJournalSchema = "atm.fleet-journal.v2";

/// Schema tag of the serve daemon's epoch journal. Same framing as the
/// fleet journal (exec::JournalWriter), but each record is one applied
/// streaming window rather than one finished box.
inline constexpr const char* kServeJournalSchema = "atm.serve-journal.v3";

/// Digest of everything about the *input data* that affects per-box
/// results: windows_per_day, per-box names/gap flags/VM counts and the
/// exact bit patterns of every sample. Two traces with the same
/// fingerprint produce the same fleet results for a given config.
[[nodiscard]] std::uint64_t trace_fingerprint(const trace::Trace& trace);

/// Digest of every PipelineConfig field that affects per-box results.
/// Shared by the fleet digest below and the serve daemon's journal
/// header (which binds serve knobs separately).
[[nodiscard]] std::uint64_t pipeline_config_digest(const PipelineConfig& config);

/// Digest of every FleetConfig field that affects per-box *results*.
/// Execution-only knobs are deliberately excluded so a journal stays
/// valid across them: `jobs` (results are schedule-independent by
/// contract), `checkpoint_path`/`resume` (the journal itself) and the
/// stop token (drained boxes are never journaled, so a resume evaluates
/// them).
[[nodiscard]] std::uint64_t fleet_config_digest(const FleetConfig& config);

/// Mixes a chaos plan (its seed and every rule) into a config digest;
/// shared by the fleet and serve digests.
void mix_fault_plan(std::uint64_t& hash, const exec::FaultPlan& plan);

/// A journal's header payload: one compact JSON line binding the file to
/// (schema, trace fingerprint, config digest, seed, SIMD path). A resume
/// whose header does not match byte-for-byte ignores the old journal and
/// starts fresh. Shared by the fleet and serve journals.
[[nodiscard]] std::string journal_header(const char* schema,
                                         const trace::Trace& trace,
                                         std::uint64_t config_digest,
                                         unsigned seed);

/// Encodes one completed box outcome as a compact single-line JSON
/// payload for exec::JournalWriter. Everything that feeds the fleet
/// aggregates and the resume-equivalence contract is included: the error
/// triple or the full BoxPipelineResult (search, APEs, predicted demands,
/// policy tickets, degradations, metrics snapshot). Doubles are serialized at full precision, so a decoded record
/// is bit-identical to the in-memory original.
[[nodiscard]] std::string encode_box_record(const FleetBoxResult& box);

/// Inverse of encode_box_record. Throws std::runtime_error (or the JSON
/// parser's errors) on malformed payloads; the fleet driver treats a
/// record that fails to decode like checksum corruption — the journal is
/// truncated to the records before it.
[[nodiscard]] FleetBoxResult decode_box_record(const std::string& payload);

/// One applied streaming window in the serve journal: the outcome the
/// daemon emitted. Every input of a window is deterministic, so warm
/// restart re-applies each re-sent window below a box's recorded next
/// epoch with the same live code and checks the result against this
/// record; a mismatch is a broken determinism contract.
struct ServeEpochRecord {
    /// `ladder` of a window whose injected apply fault fired: no model
    /// output, no recommendation.
    static constexpr int kIngestOnly = 8;

    int box_index = 0;
    std::uint64_t epoch = 0;
    int ladder = 0;  ///< 0 full work, or kIngestOnly
    std::vector<double> cpu;  ///< per-VM recommended CPU allocation (GHz)
    std::vector<double> ram;  ///< per-VM recommended RAM allocation (GB)
};

/// Encode/decode one ServeEpochRecord as a compact single-line JSON
/// payload (doubles at full precision, same contract as box records).
/// decode throws on malformed payloads; the serve driver treats that like
/// checksum corruption and truncates the journal before the bad record.
[[nodiscard]] std::string encode_epoch_record(const ServeEpochRecord& record);
[[nodiscard]] ServeEpochRecord decode_epoch_record(const std::string& payload);

}  // namespace atm::core
