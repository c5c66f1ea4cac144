#ifndef PERFBENCH_REFSCAN_H_
#define PERFBENCH_REFSCAN_H_

// The reference side of the benchmark's output checks: a small stack-based
// XML scanner and an evaluator for the query shapes the workloads use. It
// shares no code with xmlq, so a wrong answer from the program cannot be
// mirrored by a wrong expectation.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

enum class Cmp { kExists, kEq, kNe, kLt, kGt };

struct RefPred;

/// One location step: child or descendant axis, element or attribute name
/// test ("*" matches any element), with existential/comparison predicates.
struct RefStep {
  bool descendant = false;
  bool attribute = false;
  std::string name;
  std::vector<RefPred> preds;
};

/// `[rel]` or `[rel op literal]`; a numeric literal compares as a number.
struct RefPred {
  std::vector<RefStep> rel;
  Cmp op = Cmp::kExists;
  std::string literal;
  bool numeric = false;
};

/// An absolute path: the XPath subset xmlq accepts.
struct RefPath {
  std::vector<RefStep> steps;
};

/// `for $x in <in> [where $x/<where>] return $x/<ret>`.
struct RefFlwor {
  RefPath in;
  std::optional<RefPred> where;
  std::vector<RefStep> ret;
};

std::string Render(const RefPath& path);
std::string Render(const RefFlwor& flwor);

/// A scanned document: nodes in document order (document node, then each
/// element followed by its attributes and its content), with byte ranges
/// into the scanned text.
class RefDoc {
 public:
  /// Scans `text`, which must outlive the RefDoc. Returns false with a
  /// message on malformed input.
  bool Scan(std::string_view text, std::string* error);

  /// Document node + elements + attributes + non-whitespace text nodes:
  /// the XPath data model's node count.
  size_t node_count() const { return nodes_.size(); }

  /// Expected serialized result (items joined by '\n') of a path query.
  std::string Expected(const RefPath& path) const;
  /// Expected serialized result of a FLWOR query.
  std::string Expected(const RefFlwor& flwor) const;

 private:
  enum Kind : uint8_t { kDoc, kElem, kAttr, kText };
  struct Node {
    Kind kind;
    uint32_t name;        // interned; elements and attributes
    uint32_t last;        // last node index in this node's subtree
    uint32_t byte_begin;  // elements: '<' of the start tag
    uint32_t byte_end;    // elements: one past the end tag's '>'
    uint32_t value_off;   // attributes and text: decoded value
    uint32_t value_len;
  };

  using NodeSet = std::vector<uint32_t>;

  uint32_t Intern(std::string_view name);
  NodeSet Step(const NodeSet& context, const RefStep& step) const;
  NodeSet Relative(uint32_t node, const std::vector<RefStep>& rel) const;
  NodeSet Eval(const RefPath& path) const;
  bool Holds(uint32_t node, const RefPred& pred) const;
  std::string StringValue(uint32_t node) const;
  std::string_view Bytes(uint32_t node) const;

  std::string_view text_;
  std::vector<Node> nodes_;
  std::string values_;
  std::unordered_map<std::string, uint32_t> names_;
  static constexpr uint32_t kAnyName = 0xffffffffu;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFSCAN_H_
