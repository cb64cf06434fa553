#include "smt/maxsat.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "smt/cardinality.h"

namespace cpr {

void MaxSatSolver::AddHard(std::span<const Lit> clause) {
  if (!sat_.AddClause(clause)) {
    hard_unsat_ = true;
  }
}

Lit MaxSatSolver::MakeSelector(const Clause& clause) {
  // A unit soft clause can be its own selector: assuming the literal
  // enforces the clause, and cores then name the literal directly.
  if (clause.size() == 1) {
    return clause[0];
  }
  BoolVar selector = sat_.NewVar();
  guarded_.assign(clause.begin(), clause.end());
  guarded_.push_back(Lit(selector, true));  // selector -> clause
  sat_.AddClause(guarded_);
  return Lit(selector, false);
}

void MaxSatSolver::AddSoft(Clause clause, int64_t weight) {
  assert(weight > 0);
  Soft soft;
  soft.selector = MakeSelector(clause);
  soft.clause = std::move(clause);
  soft.weight = weight;
  softs_.push_back(std::move(soft));
}

std::optional<MaxSatSolver::Solution> MaxSatSolver::Solve() {
  if (hard_unsat_) {
    return std::nullopt;
  }
  timed_out_ = false;
  if (log_ != nullptr) {
    // Watermarks + soft inventory: everything the optimality checker needs
    // to replay this call's relaxations against the log suffix.
    cert_trail_ = CertTrail{};
    cert_trail_.baseline_vars = sat_.VarCount();
    cert_trail_.baseline_events = static_cast<int64_t>(log_->size());
    cert_trail_.softs.reserve(softs_.size());
    for (const Soft& soft : softs_) {
      cert_trail_.softs.push_back({soft.clause, soft.weight, soft.selector});
    }
  }
  // Fu-Malik terminates only on hard-satisfiable instances (every core must
  // contain a soft clause); establish that up front.
  ++stats_.sat_calls;
  SatResult hard_check = sat_.Solve({});
  if (hard_check == SatResult::kUnknown) {
    timed_out_ = true;
    return std::nullopt;
  }
  if (hard_check == SatResult::kUnsat) {
    hard_unsat_ = true;
    return std::nullopt;
  }

  int64_t cost = 0;

  // Stratification: only softs with weight >= threshold participate; once
  // SAT at a threshold, the threshold drops to the next weight present.
  auto next_threshold = [this](int64_t below) {
    int64_t best = 0;
    for (const Soft& soft : softs_) {
      if (soft.weight < below) {
        best = std::max(best, soft.weight);
      }
    }
    return best;
  };
  auto stratum_satisfied = [this](int64_t threshold) {
    for (const Soft& soft : softs_) {
      if (soft.weight >= threshold && !sat_.ModelValue(soft.selector)) {
        return false;
      }
    }
    return true;
  };
  int64_t threshold = next_threshold(std::numeric_limits<int64_t>::max());

  while (true) {
    // The SAT engine holds a model here (the hard check's or the last
    // stratum's) and no clause was added since. A stratum whose selectors
    // that model already sets would return the same model with no conflict
    // and no proof event: the saved phases equal the model, and every
    // propagation under them agrees with it. So it is skipped, not solved.
    while (threshold > 0 && stratum_satisfied(threshold)) {
      ++stats_.strata_skipped;
      threshold = next_threshold(threshold);
    }
    if (threshold == 0) {
      Solution solution;
      solution.cost = cost;
      solution.model.resize(static_cast<size_t>(sat_.VarCount()));
      for (BoolVar v = 0; v < sat_.VarCount(); ++v) {
        solution.model[static_cast<size_t>(v)] = sat_.ModelValue(v);
      }
      return solution;
    }

    // Solve the stratum: relax cores until its assumptions are satisfiable.
    while (true) {
      std::vector<Lit> assumptions;
      std::vector<size_t> assumed_index;  // soft index per assumption
      for (size_t i = 0; i < softs_.size(); ++i) {
        if (softs_[i].weight >= threshold) {
          assumptions.push_back(softs_[i].selector);
          assumed_index.push_back(i);
        }
      }

      ++stats_.sat_calls;
      SatResult result = sat_.Solve(assumptions);
      if (result == SatResult::kUnknown) {
        timed_out_ = true;
        return std::nullopt;
      }
      if (result == SatResult::kSat) {
        break;
      }

      // UNSAT: the failed assumptions form a core over soft selectors.
      const std::vector<Lit>& core = sat_.UnsatCore();
      ++stats_.cores;
      std::vector<size_t> core_softs;
      for (Lit failed : core) {
        for (size_t j = 0; j < assumptions.size(); ++j) {
          if (assumptions[j] == failed) {
            core_softs.push_back(assumed_index[j]);
            break;
          }
        }
      }
      if (core_softs.empty()) {
        // Core involves no soft clause: hard constraints are unsatisfiable.
        return std::nullopt;
      }
      if (log_ != nullptr) {
        // The core lemma AnalyzeFinal just logged is the last event; record
        // it with the member indices before relaxation appends input clauses.
        CertIteration iteration;
        iteration.core_event = static_cast<int64_t>(log_->size()) - 1;
        iteration.members.reserve(core_softs.size());
        for (size_t i : core_softs) {
          iteration.members.push_back(static_cast<int64_t>(i));
        }
        cert_trail_.iterations.push_back(std::move(iteration));
      }

      int64_t wmin = std::numeric_limits<int64_t>::max();
      for (size_t i : core_softs) {
        wmin = std::min(wmin, softs_[i].weight);
      }
      cost += wmin;

      // Fu-Malik relaxation: every core member gets a relaxed clone of
      // weight wmin; exactly one clone may use its relaxation.
      std::vector<Lit> relax_lits;
      relax_lits.reserve(core_softs.size());
      for (size_t i : core_softs) {
        BoolVar relax = sat_.NewVar();
        relax_lits.push_back(Lit(relax, false));

        Soft relaxed;
        relaxed.clause = softs_[i].clause;
        relaxed.clause.push_back(Lit(relax, false));
        relaxed.weight = wmin;
        relaxed.selector = MakeSelector(relaxed.clause);
        softs_[i].weight -= wmin;
        softs_.push_back(std::move(relaxed));
      }
      AddExactlyOne(&sat_, relax_lits);
      // Weight-0 softs drop out of future assumption sets automatically.
    }
    threshold = next_threshold(threshold);
  }
}

}  // namespace cpr
