// The repaired network as the core pipeline's re-verify sees it.
//
// A repair's output is its construct edits. BuildPatchedHarc translates them
// into patched configurations, rebuilds the network from those (with any
// waypoint the repair placed in its annotations) and builds that network's
// HARC: the same three steps the pipeline runs before it re-checks every
// policy. Tests assert repaired behaviour on this HARC.

#ifndef CPR_TESTS_PATCHED_HARC_H_
#define CPR_TESTS_PATCHED_HARC_H_

#include <memory>
#include <stdexcept>
#include <utility>

#include "arc/harc.h"
#include "repair/edits.h"
#include "topo/network.h"
#include "translate/translator.h"

namespace cpr {

struct PatchedHarc {
  // Owned on the heap: the HARC's universe points at this network.
  std::unique_ptr<Network> network;
  Harc harc;
};

inline PatchedHarc BuildPatchedHarc(const Network& network, const RepairEdits& edits) {
  Result<TranslationResult> translation = TranslateEdits(network, edits);
  if (!translation.ok()) {
    throw std::runtime_error("repair failed to translate: " +
                             translation.error().message());
  }
  Result<Network> rebuilt =
      Network::Build(translation->patched_configs, translation->annotations);
  if (!rebuilt.ok()) {
    throw std::runtime_error("patched configurations failed to build: " +
                             rebuilt.error().message());
  }
  auto patched = std::make_unique<Network>(std::move(rebuilt).value());
  Harc harc = Harc::Build(*patched);
  return {std::move(patched), std::move(harc)};
}

}  // namespace cpr

#endif  // CPR_TESTS_PATCHED_HARC_H_
