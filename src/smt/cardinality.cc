#include "smt/cardinality.h"

namespace cpr {

void AddAtMostOne(SatSolver* solver, const std::vector<Lit>& lits) {
  if (lits.size() < 2) {
    return;
  }
  if (lits.size() == 2) {
    solver->AddBinary(~lits[0], ~lits[1]);
    return;
  }
  // Sequential encoding: s_i means "some lit among lits[0..i] is true".
  std::vector<BoolVar> s(lits.size() - 1);
  for (BoolVar& var : s) {
    var = solver->NewVar();
  }
  // lits[0] -> s_0
  solver->AddBinary(~lits[0], Lit(s[0], false));
  for (size_t i = 1; i + 1 < lits.size(); ++i) {
    // lits[i] -> s_i ; s_{i-1} -> s_i ; lits[i] -> !s_{i-1}
    solver->AddBinary(~lits[i], Lit(s[i], false));
    solver->AddBinary(Lit(s[i - 1], true), Lit(s[i], false));
    solver->AddBinary(~lits[i], Lit(s[i - 1], true));
  }
  // lits[n-1] -> !s_{n-2}
  solver->AddBinary(~lits.back(), Lit(s.back(), true));
}

void AddAtLeastOne(SatSolver* solver, const std::vector<Lit>& lits) {
  solver->AddClause(lits);
}

void AddExactlyOne(SatSolver* solver, const std::vector<Lit>& lits) {
  AddAtLeastOne(solver, lits);
  AddAtMostOne(solver, lits);
}

}  // namespace cpr
