#include "solver/fault_injection.h"

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "netbase/string_util.h"
#include "obs/metrics.h"
#include "smt/certificate.h"

namespace cpr {

namespace {

Result<FaultInjectionSpec::Kind> ParseKind(const std::string& word) {
  using Kind = FaultInjectionSpec::Kind;
  if (word == "none") {
    return Kind::kNone;
  }
  if (word == "timeout") {
    return Kind::kTimeout;
  }
  if (word == "unsat") {
    return Kind::kUnsat;
  }
  if (word == "slow") {
    return Kind::kSlow;
  }
  if (word == "throw") {
    return Kind::kThrow;
  }
  if (word == "corrupt-proof") {
    return Kind::kCorruptProof;
  }
  if (word == "flip-model") {
    return Kind::kFlipModel;
  }
  if (word == "drop-core") {
    return Kind::kDropCore;
  }
  return Error("unknown fault kind '" + word +
               "' (timeout|unsat|slow|throw|corrupt-proof|flip-model|drop-core)");
}

bool IsCertificateKind(FaultInjectionSpec::Kind kind) {
  return kind == FaultInjectionSpec::Kind::kCorruptProof ||
         kind == FaultInjectionSpec::Kind::kFlipModel ||
         kind == FaultInjectionSpec::Kind::kDropCore;
}

class FaultInjectingBackend final : public MaxSmtBackend {
 public:
  FaultInjectingBackend(std::unique_ptr<MaxSmtBackend> inner, FaultInjectionSpec spec)
      : inner_(std::move(inner)), spec_(spec), rng_state_(spec.seed) {}

  MaxSmtResult Solve(const ConstraintSystem& system, double timeout_seconds) override {
    // Certificate corruptions only make sense on the certified path; a plain
    // solve passes through untouched.
    if (!IsCertificateKind(spec_.kind)) {
      if (std::optional<MaxSmtResult> degraded = MaybeDegrade()) {
        return *std::move(degraded);
      }
    }
    return inner_->Solve(system, timeout_seconds);
  }

  MaxSmtResult SolveCertified(const ConstraintSystem& system,
                              double timeout_seconds) override {
    if (IsCertificateKind(spec_.kind)) {
      MaxSmtResult result = inner_->SolveCertified(system, timeout_seconds);
      if (ShouldInject()) {
        CorruptCertificate(&result);
      }
      return result;
    }
    if (std::optional<MaxSmtResult> degraded = MaybeDegrade()) {
      return *std::move(degraded);
    }
    return inner_->SolveCertified(system, timeout_seconds);
  }

  std::string name() const override { return inner_->name() + "+fault"; }

 private:
  // Pre-solve degradation for the legacy kinds. Returns the injected result
  // (timeout/unsat), throws (throw), or returns nullopt after an optional
  // sleep (slow / no injection) so the caller proceeds to a real solve.
  std::optional<MaxSmtResult> MaybeDegrade() {
    if (!ShouldInject()) {
      return std::nullopt;
    }
    MaxSmtResult result;
    result.backend = name();
    switch (spec_.kind) {
      case FaultInjectionSpec::Kind::kTimeout:
        result.status = MaxSmtResult::Status::kTimeout;
        result.message = "injected timeout";
        return result;
      case FaultInjectionSpec::Kind::kUnsat:
        result.status = MaxSmtResult::Status::kUnsat;
        result.message = "injected unsat";
        return result;
      case FaultInjectionSpec::Kind::kThrow:
        throw std::runtime_error("injected backend exception");
      case FaultInjectionSpec::Kind::kSlow:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(spec_.slow_seconds));
        return std::nullopt;  // Then solve normally.
      default:
        return std::nullopt;
    }
  }

  // Deterministic, minimal corruptions that a sound checker must catch (on
  // workloads where the evidence actually carries the claim — see the
  // header). Copy-on-write: the inner backend may share the certificate.
  void CorruptCertificate(MaxSmtResult* result) {
    if (result->certificate == nullptr) {
      // Model-only path (Z3): the only corruptible evidence is the model.
      if (spec_.kind == FaultInjectionSpec::Kind::kFlipModel &&
          !result->bool_values.empty()) {
        result->bool_values[0] = !result->bool_values[0];
      }
      return;
    }
    auto cert = std::make_shared<Certificate>(*result->certificate);
    switch (spec_.kind) {
      case FaultInjectionSpec::Kind::kFlipModel: {
        // Flip a cost-relevant bit: the first soft clause's first variable
        // toggles that soft's violation, so the witness cost no longer
        // matches the claimed optimum. Flip the result too — a divergence
        // between certificate and result is the *bridge* check's job; this
        // fault targets the arithmetic.
        size_t var = 0;
        if (!cert->softs.empty() && !cert->softs[0].clause.empty()) {
          var = static_cast<size_t>(cert->softs[0].clause[0].var());
        }
        if (var < cert->model.size()) {
          cert->model[var] = !cert->model[var];
        }
        if (var < result->bool_values.size()) {
          result->bool_values[var] = !result->bool_values[var];
        }
        break;
      }
      case FaultInjectionSpec::Kind::kDropCore: {
        if (cert->core_event >= 0 &&
            cert->core_event < static_cast<int64_t>(cert->core_events.size()) &&
            !cert->core_events.lits(static_cast<size_t>(cert->core_event)).empty()) {
          cert->core_events.DropLastLit(static_cast<size_t>(cert->core_event));
          break;
        }
        [[fallthrough]];  // No core conclusion: corrupt the main proof.
      }
      case FaultInjectionSpec::Kind::kCorruptProof: {
        if (cert->claim == Certificate::Claim::kUnsat) {
          // Remove the learnt lemmas: the surviving inputs and deletes no
          // longer derive UNSAT (and deletes now reference unknown clauses).
          cert->events.RemoveEventsOfKind(ProofEventKind::kLemma);
        } else if (!cert->iterations.empty()) {
          // Flip a literal of the first core lemma: it no longer names the
          // iteration's member selectors.
          int64_t index = cert->iterations[0].core_event;
          if (index >= 0 && index < static_cast<int64_t>(cert->events.size()) &&
              !cert->events.lits(static_cast<size_t>(index)).empty()) {
            std::span<Lit> lits = cert->events.mutable_lits(static_cast<size_t>(index));
            lits[0] = ~lits[0];
          }
        } else {
          // Zero-cost optimum with no cores: smuggle in an input clause,
          // which the no-inputs-after-baseline rule must reject.
          cert->events.Append(ProofEventKind::kInput, Clause{Lit(0, false)});
        }
        break;
      }
      default:
        break;
    }
    result->certificate = std::move(cert);
  }

  bool ShouldInject() {
    if (!spec_.enabled()) {
      return false;
    }
    if (spec_.max_injections >= 0 && injected_ >= spec_.max_injections) {
      return false;
    }
    if (NextUniform() >= spec_.probability) {
      return false;
    }
    ++injected_;
    obs::CurrentRegistry().counter("solver.faults_injected").Increment();
    return true;
  }

  // splitmix64: tiny, seeded, platform-independent — injection sequences
  // must be reproducible across standard libraries.
  double NextUniform() {
    uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) / 9007199254740992.0;  // [0, 1)
  }

  std::unique_ptr<MaxSmtBackend> inner_;
  FaultInjectionSpec spec_;
  uint64_t rng_state_;
  int injected_ = 0;
};

}  // namespace

Result<FaultInjectionSpec> FaultInjectionSpec::Parse(const std::string& text) {
  FaultInjectionSpec spec;
  std::vector<std::string_view> parts = SplitTokens(text, ":");
  if (parts.empty()) {
    return Error("empty fault injection spec");
  }
  Result<Kind> kind = ParseKind(std::string(parts[0]));
  if (!kind.ok()) {
    return kind.error();
  }
  spec.kind = *kind;
  for (size_t i = 1; i < parts.size(); ++i) {
    std::string part(parts[i]);
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return Error("fault spec option '" + part + "' is not key=value");
    }
    std::string key = part.substr(0, eq);
    std::string value = part.substr(eq + 1);
    const auto malformed = [&](const char* expected) {
      return Error("fault spec option " + key + ": expected " + expected + ", got '" +
                   value + "'");
    };
    int64_t seed = 0;
    if (key == "p") {
      if (!ParseDouble(value, &spec.probability)) {
        return malformed("a number");
      }
      if (spec.probability < 0 || spec.probability > 1) {
        return Error("fault probability must be in [0, 1]");
      }
    } else if (key == "seed") {
      if (!ParseInt64(value, &seed) || !std::in_range<uint32_t>(seed)) {
        return malformed("an unsigned 32-bit integer");
      }
      spec.seed = static_cast<uint32_t>(seed);
    } else if (key == "max") {
      if (!ParseInt(value, &spec.max_injections)) {
        return malformed("an integer");
      }
    } else if (key == "slow") {
      if (!ParseDouble(value, &spec.slow_seconds)) {
        return malformed("a number");
      }
    } else {
      return Error("unknown fault spec option '" + key + "' (p|seed|max|slow)");
    }
  }
  return spec;
}

std::string FaultInjectionSpec::ToString() const {
  std::string kind_name;
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kTimeout:
      kind_name = "timeout";
      break;
    case Kind::kUnsat:
      kind_name = "unsat";
      break;
    case Kind::kSlow:
      kind_name = "slow";
      break;
    case Kind::kThrow:
      kind_name = "throw";
      break;
    case Kind::kCorruptProof:
      kind_name = "corrupt-proof";
      break;
    case Kind::kFlipModel:
      kind_name = "flip-model";
      break;
    case Kind::kDropCore:
      kind_name = "drop-core";
      break;
  }
  std::string out = kind_name + ":p=" + std::to_string(probability) +
                    ":seed=" + std::to_string(seed);
  if (max_injections >= 0) {
    out += ":max=" + std::to_string(max_injections);
  }
  return out;
}

std::unique_ptr<MaxSmtBackend> MakeFaultInjectingBackend(
    std::unique_ptr<MaxSmtBackend> inner, const FaultInjectionSpec& spec) {
  return std::make_unique<FaultInjectingBackend>(std::move(inner), spec);
}

}  // namespace cpr
