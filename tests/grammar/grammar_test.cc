#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "src/checker/builtin_checkers.h"
#include "src/checker/checker.h"
#include "src/grammar/grammar.h"
#include "src/grammar/pointsto_grammar.h"
#include "src/grammar/typestate_grammar.h"

namespace grapple {
namespace {

TEST(GrammarTest, InternIsIdempotent) {
  Grammar grammar;
  Label a = grammar.Intern("a");
  Label b = grammar.Intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(grammar.Intern("a"), a);
  EXPECT_EQ(grammar.Find("a"), std::optional<Label>(a));
  EXPECT_FALSE(grammar.Find("zzz").has_value());
  EXPECT_EQ(grammar.NameOf(b), "b");
}

TEST(GrammarTest, RuleLookup) {
  Grammar grammar;
  Label e = grammar.Intern("e");
  Label p = grammar.Intern("p");
  grammar.AddUnary(e, p);
  grammar.AddBinary(p, e, p);
  EXPECT_EQ(grammar.UnaryResults(e), std::vector<Label>{p});
  EXPECT_TRUE(grammar.UnaryResults(p).empty());
  EXPECT_EQ(grammar.BinaryResults(p, e), std::vector<Label>{p});
  EXPECT_TRUE(grammar.BinaryResults(e, p).empty());
  EXPECT_EQ(grammar.SecondPartners(p), std::vector<Label>{e});
  EXPECT_TRUE(grammar.SecondPartners(e).empty());
  EXPECT_EQ(grammar.FirstPartners(e), std::vector<Label>{p});
  EXPECT_TRUE(grammar.FirstPartners(p).empty());
}

TEST(GrammarTest, RulesSurviveLabelGrowth) {
  // Rules added while labels are still being interned, and a second result
  // for an existing pair, must all stay reachable; every other pair must
  // stay empty.
  Grammar grammar;
  std::vector<Label> labels;
  for (int i = 0; i < 40; ++i) {
    labels.push_back(grammar.Intern("l" + std::to_string(i)));
    if (i >= 2) {
      grammar.AddBinary(labels[i - 2], labels[i - 1], labels[i]);
    }
    if (i == 20) {
      grammar.AddUnary(labels[3], labels[20]);
    }
  }
  grammar.AddBinary(labels[0], labels[1], labels[39]);  // second result, same pair
  for (size_t a = 0; a < labels.size(); ++a) {
    for (size_t b = 0; b < labels.size(); ++b) {
      std::vector<Label> want;
      if (b == a + 1 && b + 1 < labels.size()) {
        want.push_back(labels[b + 1]);
        if (a == 0) {
          want.push_back(labels[39]);
        }
      }
      EXPECT_EQ(grammar.BinaryResults(labels[a], labels[b]), want) << a << " " << b;
    }
    EXPECT_EQ(grammar.UnaryResults(labels[a]),
              a == 3 ? std::vector<Label>{labels[20]} : std::vector<Label>{});
  }
}

TEST(GrammarTest, MirrorsAreSymmetric) {
  Grammar grammar;
  Label fwd = grammar.Intern("f");
  Label bwd = grammar.Intern("fBar");
  Label self = grammar.Intern("alias");
  grammar.SetMirror(fwd, bwd);
  grammar.SetMirror(self, self);
  EXPECT_EQ(grammar.MirrorOf(fwd), bwd);
  EXPECT_EQ(grammar.MirrorOf(bwd), fwd);
  EXPECT_EQ(grammar.MirrorOf(self), self);
  EXPECT_EQ(grammar.MirrorOf(grammar.Intern("plain")), kNoLabel);
}

// A tiny in-memory closure to check the points-to grammar derivations
// independently of the disk engine.
struct TinyEdge {
  uint32_t src;
  uint32_t dst;
  Label label;
  bool operator<(const TinyEdge& other) const {
    return std::tie(src, dst, label) < std::tie(other.src, other.dst, other.label);
  }
};

std::set<TinyEdge> Closure(const Grammar& grammar, std::set<TinyEdge> edges) {
  // Expand mirrors/unary, then binary joins, to fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    std::set<TinyEdge> add;
    for (const auto& e : edges) {
      for (Label u : grammar.UnaryResults(e.label)) {
        add.insert({e.src, e.dst, u});
      }
      Label m = grammar.MirrorOf(e.label);
      if (m != kNoLabel) {
        add.insert({e.dst, e.src, m});
      }
      for (const auto& f : edges) {
        if (e.dst != f.src) {
          continue;
        }
        for (Label r : grammar.BinaryResults(e.label, f.label)) {
          add.insert({e.src, f.dst, r});
        }
      }
    }
    for (const auto& e : add) {
      if (edges.insert(e).second) {
        changed = true;
      }
    }
  }
  return edges;
}

TEST(PointsToGrammarTest, FlowsToThroughAssignChain) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {});
  // o -new-> a -assign-> b -assign-> c
  auto closure = Closure(grammar, {{0, 1, labels.new_label},
                                   {1, 2, labels.assign},
                                   {2, 3, labels.assign}});
  EXPECT_TRUE(closure.count({0, 3, labels.flows_to}));
  EXPECT_TRUE(closure.count({3, 0, labels.flows_to_bar}));
  // a, b, c all alias each other.
  EXPECT_TRUE(closure.count({1, 3, labels.alias}));
  EXPECT_TRUE(closure.count({3, 1, labels.alias}));
}

TEST(PointsToGrammarTest, HeapFlowNeedsMatchingField) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {"f", "g"});
  // o -new-> b ; o2 -new-> a ; a.f = b (b -store_f-> a) ; c = a (alias of a)
  // ; d = c.f (c -load_f-> d): o flows to d.
  auto closure = Closure(grammar, {{0, 1, labels.new_label},     // o -> b
                                   {5, 2, labels.new_label},     // o2 -> a
                                   {1, 2, labels.store[0]},      // a.f = b
                                   {2, 3, labels.assign},        // c = a
                                   {3, 4, labels.load[0]}});     // d = c.f
  EXPECT_TRUE(closure.count({0, 4, labels.flows_to}));
  // Through a mismatched field there is no flow.
  auto mismatched = Closure(grammar, {{0, 1, labels.new_label},
                                      {5, 2, labels.new_label},
                                      {1, 2, labels.store[0]},   // store f
                                      {2, 3, labels.assign},
                                      {3, 4, labels.load[1]}});  // load g
  EXPECT_FALSE(mismatched.count({0, 4, labels.flows_to}));
}

TEST(PointsToGrammarTest, PartnerListsMatchTheRules) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {"f", "g", "h"});
  // Partner lists are ascending and name exactly the pairs with rules.
  for (Label a = 0; a < grammar.NumLabels(); ++a) {
    std::vector<Label> seconds;
    std::vector<Label> firsts;
    for (Label b = 0; b < grammar.NumLabels(); ++b) {
      if (!grammar.BinaryResults(a, b).empty()) {
        seconds.push_back(b);
      }
      if (!grammar.BinaryResults(b, a).empty()) {
        firsts.push_back(b);
      }
    }
    EXPECT_EQ(grammar.SecondPartners(a), seconds) << grammar.NameOf(a);
    EXPECT_EQ(grammar.FirstPartners(a), firsts) << grammar.NameOf(a);
  }
  // flowsTo continues over assign and each field's SAL; alias is reached
  // from every field's store and loadBar.
  std::vector<Label> ft_partners = {labels.assign};
  for (const char* field : {"f", "g", "h"}) {
    ft_partners.push_back(*grammar.Find(std::string("SAL[") + field + "]"));
  }
  std::sort(ft_partners.begin(), ft_partners.end());
  EXPECT_EQ(grammar.SecondPartners(labels.flows_to), ft_partners);
  std::vector<Label> alias_partners;
  for (size_t f = 0; f < 3; ++f) {
    alias_partners.push_back(labels.store[f]);
    alias_partners.push_back(labels.load_bar[f]);
  }
  std::sort(alias_partners.begin(), alias_partners.end());
  EXPECT_EQ(grammar.FirstPartners(labels.alias), alias_partners);
  EXPECT_TRUE(grammar.SecondPartners(labels.alias).empty());
  EXPECT_TRUE(grammar.SecondPartners(labels.new_label).empty());
  // Unknown pairs answer empty; unary results are per label.
  EXPECT_TRUE(grammar.BinaryResults(labels.alias, labels.alias).empty());
  EXPECT_TRUE(grammar.BinaryResults(labels.new_label, labels.assign).empty());
  EXPECT_EQ(grammar.UnaryResults(labels.new_label), std::vector<Label>{labels.flows_to});
  EXPECT_TRUE(grammar.UnaryResults(labels.assign).empty());
}

// Field names come from the analyzed program, and the points-to grammar
// makes 8 labels per field. The rule tables must grow with the rules, not
// with the label count squared: 5,000 fields make 40,007 labels, which a
// dense label-pair table would need GiBs for.
TEST(PointsToGrammarTest, ManyFieldsKeepTablesLinear) {
  constexpr size_t kFields = 5000;
  std::vector<std::string> fields;
  for (size_t f = 0; f < kFields; ++f) {
    fields.push_back("f" + std::to_string(f));
  }
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, fields);
  ASSERT_EQ(grammar.NumLabels(), 7 + 8 * kFields);
  size_t rules = 0;
  for (Label a = 0; a < grammar.NumLabels(); ++a) {
    rules += grammar.SecondPartners(a).size();
  }
  EXPECT_EQ(rules, 3 + 6 * kFields);
  for (size_t f : {size_t{0}, kFields / 2, kFields - 1}) {
    std::string name = fields[f];
    Label sa = *grammar.Find("SA[" + name + "]");
    Label sal = *grammar.Find("SAL[" + name + "]");
    EXPECT_EQ(grammar.BinaryResults(labels.store[f], labels.alias), std::vector<Label>{sa});
    EXPECT_EQ(grammar.BinaryResults(sa, labels.load[f]), std::vector<Label>{sal});
    EXPECT_EQ(grammar.BinaryResults(labels.flows_to, sal), std::vector<Label>{labels.flows_to});
    EXPECT_TRUE(grammar.BinaryResults(sa, labels.load[(f + 1) % kFields]).empty());
    EXPECT_FALSE(grammar.BinaryResults(labels.load_bar[f], labels.alias).empty());
  }
  EXPECT_EQ(grammar.SecondPartners(labels.flows_to).size(), 1 + kFields);
  EXPECT_EQ(grammar.FirstPartners(labels.alias).size(), 2 * kFields);
}

TEST(PointsToGrammarTest, NoAliasWithoutCommonObject) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {});
  auto closure = Closure(grammar, {{0, 1, labels.new_label},   // o1 -> a
                                   {2, 3, labels.new_label}});  // o2 -> b
  EXPECT_FALSE(closure.count({1, 3, labels.alias}));
  EXPECT_FALSE(closure.count({3, 1, labels.alias}));
}

TEST(TypestateGrammarTest, TransitionRules) {
  Fsm fsm = CompleteFsm(MakeIoCheckerSpec().fsm);
  Grammar grammar;
  TypestateLabels labels = BuildTypestateGrammar(&grammar, fsm);
  ASSERT_EQ(labels.state.size(), fsm.NumStates());
  ASSERT_EQ(labels.event.size(), fsm.NumEvents());

  FsmEventId open = *fsm.FindEvent("open");
  FsmEventId close = *fsm.FindEvent("close");
  // state[Init] x event[open] -> state[Open].
  Label init = labels.state[fsm.initial()];
  auto results = grammar.BinaryResults(init, labels.event[open]);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(grammar.NameOf(results[0]), "state[Open]");
  // Undefined transition goes to the completed error sink.
  auto err = grammar.BinaryResults(init, labels.event[close]);
  ASSERT_EQ(err.size(), 1u);
  EXPECT_EQ(grammar.NameOf(err[0]), "state[ERROR]");
  // Flow preserves states...
  EXPECT_EQ(grammar.BinaryResults(init, labels.flow), std::vector<Label>{init});
  // ...but the error sink does not propagate over flow (reports stay pinned
  // at the offending event).
  EXPECT_TRUE(grammar.BinaryResults(labels.state[fsm.error_state()], labels.flow).empty());
}

TEST(TypestateGrammarTest, TypestateClosureOnTinyGraph) {
  Fsm fsm = CompleteFsm(MakeIoCheckerSpec().fsm);
  Grammar grammar;
  TypestateLabels labels = BuildTypestateGrammar(&grammar, fsm);
  FsmEventId open = *fsm.FindEvent("open");
  FsmEventId close = *fsm.FindEvent("close");
  // seed -state[Init]-> p0 -event[open]-> p1 -flow-> p2 -event[close]-> p3
  auto closure = Closure(grammar, {{100, 0, labels.state[fsm.initial()]},
                                   {0, 1, labels.event[open]},
                                   {1, 2, labels.flow},
                                   {2, 3, labels.event[close]}});
  auto find_state = [&](uint32_t dst) {
    std::vector<std::string> states;
    for (const auto& e : closure) {
      if (e.src == 100 && e.dst == dst) {
        states.push_back(grammar.NameOf(e.label));
      }
    }
    return states;
  };
  EXPECT_EQ(find_state(1), std::vector<std::string>{"state[Open]"});
  EXPECT_EQ(find_state(2), std::vector<std::string>{"state[Open]"});
  EXPECT_EQ(find_state(3), std::vector<std::string>{"state[Closed]"});
}

}  // namespace
}  // namespace grapple
