#include "src/grammar/grammar.h"

#include <algorithm>

#include "src/support/logging.h"

namespace grapple {

namespace {

void InsertSorted(std::vector<Label>* list, Label label) {
  list->insert(std::lower_bound(list->begin(), list->end(), label), label);
}

}  // namespace

Label Grammar::Intern(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;
  }
  Label label = static_cast<Label>(names_.size());
  GRAPPLE_CHECK_LT(names_.size(), size_t{kNoLabel}) << "label space exhausted";
  names_.push_back(name);
  by_name_.emplace(name, label);
  unary_.emplace_back();
  mirror_.push_back(kNoLabel);
  second_partners_.emplace_back();
  first_partners_.emplace_back();
  binary_.emplace_back();
  return label;
}

std::optional<Label> Grammar::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const std::string& Grammar::NameOf(Label label) const {
  GRAPPLE_CHECK_LT(label, names_.size());
  return names_[label];
}

void Grammar::AddUnary(Label single, Label result) {
  GRAPPLE_CHECK_LT(single, names_.size());
  unary_[single].push_back(result);
}

void Grammar::AddBinary(Label first, Label second, Label result) {
  GRAPPLE_CHECK_LT(std::max(first, second), names_.size());
  std::vector<Label>& seconds = second_partners_[first];
  auto at = std::lower_bound(seconds.begin(), seconds.end(), second);
  ptrdiff_t rule = at - seconds.begin();
  if (at == seconds.end() || *at != second) {
    seconds.insert(at, second);
    binary_[first].emplace(binary_[first].begin() + rule);
    InsertSorted(&first_partners_[second], first);
  }
  binary_[first][rule].push_back(result);
}

void Grammar::SetMirror(Label label, Label mirror) {
  mirror_[label] = mirror;
  mirror_[mirror] = label;
}

}  // namespace grapple
