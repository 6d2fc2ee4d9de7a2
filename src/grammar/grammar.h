// Normalized context-free grammars for grammar-guided reachability (§2.1).
//
// The engine checks one pair of consecutive edges at a time, so every rule is
// at most binary (the paper notes any CFG can be normalized this way, as in
// Chomsky normal form). A grammar also records "mirror" labels: when an edge
// u -L-> v is added and L has a mirror M, the engine materializes v -M-> u
// with the same payload (how reverse/bar edges such as flowsTo-bar stay in
// sync with their forward counterparts).
//
// Rule lookups never hash: every table is indexed by label and kept up to
// date as labels and rules are added. Binary rules are filed under their
// first label, in a list sorted by second label (the partner list), so a
// lookup is a binary search and the tables grow with the rules, not with the
// square of the label count (the points-to grammar makes 8 labels per field
// name of the analyzed program). The partner lists name, per label, the
// labels it combines with (the engine's join scan skips labels that have
// none and matches adjacency buckets against the list).
#ifndef GRAPPLE_SRC_GRAMMAR_GRAMMAR_H_
#define GRAPPLE_SRC_GRAMMAR_GRAMMAR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace grapple {

using Label = uint16_t;
inline constexpr Label kNoLabel = 0xFFFF;

class Grammar {
 public:
  // Registers (or returns the existing) label with this name.
  Label Intern(const std::string& name);
  std::optional<Label> Find(const std::string& name) const;
  const std::string& NameOf(Label label) const;
  size_t NumLabels() const { return names_.size(); }

  // result := single
  void AddUnary(Label single, Label result);
  // result := first second
  void AddBinary(Label first, Label second, Label result);
  // Adding u -label-> v also adds v -mirror-> u. Symmetric labels (alias)
  // may mirror themselves.
  void SetMirror(Label label, Label mirror);

  // Rule results in insertion order; empty for a label (pair) without rules.
  const std::vector<Label>& UnaryResults(Label single) const { return unary_[single]; }
  const std::vector<Label>& BinaryResults(Label first, Label second) const {
    size_t rule = RuleOf(first, second);
    return rule == kNoRule ? no_results_ : binary_[first][rule];
  }
  Label MirrorOf(Label label) const { return mirror_[label]; }

  // Partner lists, ascending: the labels B with a rule `first B`, and the
  // labels A with a rule `A second`.
  const std::vector<Label>& SecondPartners(Label first) const { return second_partners_[first]; }
  const std::vector<Label>& FirstPartners(Label second) const { return first_partners_[second]; }

 private:
  static constexpr size_t kNoRule = SIZE_MAX;

  // Position of `second` in SecondPartners(first), or kNoRule.
  size_t RuleOf(Label first, Label second) const {
    const std::vector<Label>& seconds = second_partners_[first];
    auto it = std::lower_bound(seconds.begin(), seconds.end(), second);
    return it == seconds.end() || *it != second ? kNoRule
                                                : static_cast<size_t>(it - seconds.begin());
  }

  std::vector<std::string> names_;
  std::unordered_map<std::string, Label> by_name_;
  std::vector<std::vector<Label>> unary_;
  std::vector<Label> mirror_;
  std::vector<std::vector<Label>> second_partners_;
  std::vector<std::vector<Label>> first_partners_;
  // binary_[first][i]: results of `first second_partners_[first][i]`.
  std::vector<std::vector<std::vector<Label>>> binary_;
  std::vector<Label> no_results_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAMMAR_GRAMMAR_H_
