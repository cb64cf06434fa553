// Clausal proof logging for the homegrown CDCL solver (DRAT lineage).
//
// A ProofLog is an append-only event stream recorded while the solver runs:
//
//   kInput   every clause handed to SatSolver::AddClause, logged verbatim
//            BEFORE the solver sorts/simplifies it, so the log's input
//            inventory is exactly what callers asserted;
//   kLemma   every clause the solver claims follows from the database —
//            learnt clauses (post-minimization), the assumption-core clause
//            derived by AnalyzeFinal, and the empty clause at each point the
//            solver concludes root-level UNSAT;
//   kDelete  every learnt clause dropped by ReduceLearnts, logged with its
//            literals at deletion time so a checker can retire the matching
//            clause from its own database.
//
// The checker side (src/certify/rup.h) replays the stream forward: inputs are
// axioms, every lemma must pass reverse unit propagation against the live
// database, and a validated empty clause proves UNSAT. Nothing here depends
// on the solver's search — the log is plain data.
//
// Storage is a ProofStream: one flat literal array plus per-event offsets,
// not a vector of per-event clauses. A cold solve logs tens of thousands of
// input events; one heap block per event was the dominant cost of certified
// solving, and the flat layout makes logging an amortized append, copying a
// stream three memcpys, and moving it free. Events are addressed by index:
// kind(i) and lits(i).

#ifndef CPR_SRC_SMT_PROOF_LOG_H_
#define CPR_SRC_SMT_PROOF_LOG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "smt/literal.h"

namespace cpr {

enum class ProofEventKind : int8_t { kInput = 0, kLemma = 1, kDelete = 2 };

class ProofStream {
 public:
  ProofStream() : bounds_(1, 0) {}

  size_t size() const { return kinds_.size(); }
  bool empty() const { return kinds_.empty(); }

  ProofEventKind kind(size_t i) const { return kinds_[i]; }
  std::span<const Lit> lits(size_t i) const {
    return {lits_.data() + bounds_[i], bounds_[i + 1] - bounds_[i]};
  }
  std::span<Lit> mutable_lits(size_t i) {
    return {lits_.data() + bounds_[i], bounds_[i + 1] - bounds_[i]};
  }

  void Append(ProofEventKind kind, std::span<const Lit> lits) {
    kinds_.push_back(kind);
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    bounds_.push_back(lits_.size());
  }

  void Clear() {
    kinds_.clear();
    lits_.clear();
    bounds_.assign(1, 0);
  }

  // Structural edits for fault injection (src/solver/fault_injection.cc);
  // cold paths, allowed to be O(stream).
  void RemoveEventsOfKind(ProofEventKind kind) {
    ProofStream kept;
    kept.Reserve(kinds_.size(), lits_.size());
    for (size_t i = 0; i < size(); ++i) {
      if (kinds_[i] != kind) {
        kept.Append(kinds_[i], lits(i));
      }
    }
    *this = std::move(kept);
  }
  void DropLastLit(size_t i) {
    if (bounds_[i + 1] == bounds_[i]) {
      return;
    }
    lits_.erase(lits_.begin() + static_cast<ptrdiff_t>(bounds_[i + 1]) - 1);
    for (size_t j = i + 1; j < bounds_.size(); ++j) {
      --bounds_[j];
    }
  }

  void Reserve(size_t events, size_t total_lits) {
    kinds_.reserve(events);
    bounds_.reserve(events + 1);
    lits_.reserve(total_lits);
  }

 private:
  std::vector<ProofEventKind> kinds_;
  std::vector<size_t> bounds_;  // Prefix offsets into lits_; bounds_[0] == 0.
  std::vector<Lit> lits_;
};

class ProofLog {
 public:
  void Input(std::span<const Lit> clause) { stream_.Append(ProofEventKind::kInput, clause); }
  void Lemma(std::span<const Lit> clause) { stream_.Append(ProofEventKind::kLemma, clause); }
  void Delete(std::span<const Lit> clause) { stream_.Append(ProofEventKind::kDelete, clause); }

  // The empty clause: the solver's claim that the database is UNSAT.
  void EmptyLemma() { stream_.Append(ProofEventKind::kLemma, {}); }

  const ProofStream& stream() const { return stream_; }
  // Steals the stream (the log is empty afterwards) — for cold solves whose
  // log dies with the call, so the certificate takes the events for free.
  ProofStream TakeStream() { return std::exchange(stream_, ProofStream()); }

  size_t size() const { return stream_.size(); }
  void Clear() { stream_.Clear(); }

 private:
  ProofStream stream_;
};

}  // namespace cpr

#endif  // CPR_SRC_SMT_PROOF_LOG_H_
