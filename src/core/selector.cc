#include "core/selector.h"

#include <utility>

#include "analysis/context.h"

namespace tokenmagic::core {

void InternInstance(SelectionInput* input) {
  struct Interned {
    // tm-owns: the input's previous keep-alive, if any.
    std::shared_ptr<const void> previous_owner;
    analysis::AnalysisContext context;
  };
  auto interned = std::make_shared<Interned>();
  interned->previous_owner = std::move(input->owner);
  // tm-lint: allow(context-build, one-shot intern of an instance with no sealed snapshot view: sibling rings, CLI and test instances)
  interned->context = analysis::AnalysisContext::Build(
      input->history, input->index, input->universe);
  input->context = &interned->context;
  input->owner = std::move(interned);
}

}  // namespace tokenmagic::core
