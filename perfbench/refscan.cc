#include "refscan.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace perfbench {
namespace {

std::string RenderRel(const std::vector<RefStep>& rel, bool leading_slash);
std::string RenderComparison(const RefPred& pred);

// " op literal", quoting a string literal with whichever quote it lacks.
std::string RenderComparison(const RefPred& pred) {
  static const char* kOps[] = {"", " = ", " != ", " < ", " > "};
  if (pred.op == Cmp::kExists) return "";
  std::string s = kOps[static_cast<int>(pred.op)];
  if (pred.numeric) return s + pred.literal;
  const char q = pred.literal.find('\'') == std::string::npos ? '\'' : '"';
  return s + q + pred.literal + q;
}

std::string RenderPred(const RefPred& pred) {
  return "[" + RenderRel(pred.rel, false) + RenderComparison(pred) + "]";
}

std::string RenderRel(const std::vector<RefStep>& rel, bool leading_slash) {
  std::string s;
  for (size_t i = 0; i < rel.size(); ++i) {
    const RefStep& step = rel[i];
    if (i > 0 || leading_slash) s += step.descendant ? "//" : "/";
    if (step.attribute) s += '@';
    s += step.name;
    for (const RefPred& p : step.preds) s += RenderPred(p);
  }
  return s;
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

// Decodes the five predefined entities and character references.
bool Decode(std::string_view raw, std::string* out) {
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      out->push_back(raw[i]);
      continue;
    }
    const size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) return false;
    const std::string_view ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "amp") out->push_back('&');
    else if (ent == "lt") out->push_back('<');
    else if (ent == "gt") out->push_back('>');
    else if (ent == "quot") out->push_back('"');
    else if (ent == "apos") out->push_back('\'');
    else if (ent.size() > 1 && ent[0] == '#') {
      const bool hex = ent[1] == 'x';
      const std::string digits(ent.substr(hex ? 2 : 1));
      AppendUtf8(static_cast<uint32_t>(std::strtoul(digits.c_str(), nullptr,
                                                    hex ? 16 : 10)),
                 out);
    } else {
      return false;
    }
    i = semi;
  }
  return true;
}

double ToNumber(std::string_view s) {
  while (!s.empty() && IsSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && IsSpace(s.back())) s.remove_suffix(1);
  if (s.empty()) return NAN;
  const std::string str(s);
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  return end == str.c_str() + str.size() ? v : NAN;
}

}  // namespace

std::string Render(const RefPath& path) { return RenderRel(path.steps, true); }

std::string Render(const RefFlwor& flwor) {
  std::string s = "for $x in " + Render(flwor.in);
  if (flwor.where) {
    const RefPred& w = *flwor.where;
    s += " where $x/" + RenderRel(w.rel, false) + RenderComparison(w);
  }
  return s + " return $x/" + RenderRel(flwor.ret, false);
}

uint32_t RefDoc::Intern(std::string_view name) {
  auto [it, inserted] =
      names_.try_emplace(std::string(name), static_cast<uint32_t>(names_.size()));
  return it->second;
}

bool RefDoc::Scan(std::string_view text, std::string* error) {
  text_ = text;
  nodes_.clear();
  values_.clear();
  names_.clear();
  nodes_.push_back({kDoc, 0, 0, 0, static_cast<uint32_t>(text.size()), 0, 0});
  std::vector<uint32_t> open = {0};
  std::string decoded;
  size_t i = 0;
  auto fail = [&](const std::string& what) {
    *error = "reference scanner: " + what + " at byte " + std::to_string(i);
    return false;
  };
  auto add_value_node = [&](Kind kind, uint32_t name, std::string_view raw) {
    decoded.clear();
    if (!Decode(raw, &decoded)) return false;
    nodes_.push_back({kind, name, static_cast<uint32_t>(nodes_.size()), 0, 0,
                      static_cast<uint32_t>(values_.size()),
                      static_cast<uint32_t>(decoded.size())});
    values_ += decoded;
    return true;
  };
  while (i < text.size()) {
    if (text[i] != '<') {
      const size_t lt = std::min(text.find('<', i), text.size());
      const std::string_view raw = text.substr(i, lt - i);
      const bool blank = std::all_of(raw.begin(), raw.end(), IsSpace);
      if (!blank) {
        if (open.size() == 1) return fail("text outside the root element");
        if (!add_value_node(kText, 0, raw)) return fail("bad entity");
      }
      i = lt;
      continue;
    }
    if (text.compare(i, 4, "<!--") == 0) {
      const size_t end = text.find("-->", i);
      if (end == std::string_view::npos) return fail("unterminated comment");
      i = end + 3;
    } else if (text.compare(i, 2, "<?") == 0) {
      const size_t end = text.find("?>", i);
      if (end == std::string_view::npos) return fail("unterminated PI");
      i = end + 2;
    } else if (text.compare(i, 2, "<!") == 0) {
      const size_t end = text.find('>', i);
      if (end == std::string_view::npos) return fail("unterminated markup");
      i = end + 1;
    } else if (text.compare(i, 2, "</") == 0) {
      const size_t end = text.find('>', i);
      if (end == std::string_view::npos || open.size() < 2) {
        return fail("stray end tag");
      }
      Node& n = nodes_[open.back()];
      n.byte_end = static_cast<uint32_t>(end + 1);
      n.last = static_cast<uint32_t>(nodes_.size() - 1);
      open.pop_back();
      i = end + 1;
    } else {
      const size_t begin = i;
      size_t j = i + 1;
      while (j < text.size() && !IsSpace(text[j]) && text[j] != '>' &&
             text[j] != '/') {
        ++j;
      }
      const uint32_t elem = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back({kElem, Intern(text.substr(i + 1, j - i - 1)), elem,
                        static_cast<uint32_t>(begin), 0, 0, 0});
      // Attributes.
      for (;;) {
        while (j < text.size() && IsSpace(text[j])) ++j;
        if (j >= text.size()) return fail("unterminated start tag");
        if (text[j] == '>' || text[j] == '/') break;
        const size_t eq = text.find('=', j);
        if (eq == std::string_view::npos || eq + 1 >= text.size()) {
          return fail("bad attribute");
        }
        const char quote = text[eq + 1];
        const size_t close = text.find(quote, eq + 2);
        if (close == std::string_view::npos) return fail("bad attribute");
        size_t name_end = eq;
        while (name_end > j && IsSpace(text[name_end - 1])) --name_end;
        if (!add_value_node(kAttr, Intern(text.substr(j, name_end - j)),
                            text.substr(eq + 2, close - eq - 2))) {
          return fail("bad entity");
        }
        j = close + 1;
      }
      if (text[j] == '/') {
        if (j + 1 >= text.size() || text[j + 1] != '>') {
          return fail("bad empty-element tag");
        }
        nodes_[elem].byte_end = static_cast<uint32_t>(j + 2);
        nodes_[elem].last = static_cast<uint32_t>(nodes_.size() - 1);
        i = j + 2;
      } else {
        open.push_back(elem);
        i = j + 1;
      }
    }
  }
  if (open.size() != 1) return fail("unclosed element");
  nodes_[0].last = static_cast<uint32_t>(nodes_.size() - 1);
  return true;
}

std::string_view RefDoc::Bytes(uint32_t node) const {
  const Node& n = nodes_[node];
  return text_.substr(n.byte_begin, n.byte_end - n.byte_begin);
}

std::string RefDoc::StringValue(uint32_t node) const {
  const Node& n = nodes_[node];
  if (n.kind == kAttr || n.kind == kText) {
    return values_.substr(n.value_off, n.value_len);
  }
  std::string s;
  for (uint32_t i = node + 1; i <= n.last; ++i) {
    if (nodes_[i].kind == kText) {
      s.append(values_, nodes_[i].value_off, nodes_[i].value_len);
    }
  }
  return s;
}

RefDoc::NodeSet RefDoc::Step(const NodeSet& context,
                             const RefStep& step) const {
  uint32_t name = kAnyName;
  if (step.name != "*") {
    const auto it = names_.find(step.name);
    if (it == names_.end()) return {};
    name = it->second;
  }
  const Kind want = step.attribute ? kAttr : kElem;
  auto matches = [&](uint32_t i) {
    return nodes_[i].kind == want && (name == kAnyName || nodes_[i].name == name);
  };
  NodeSet out;
  for (uint32_t c : context) {
    const uint32_t last = nodes_[c].last;
    if (step.descendant) {
      // descendant-or-self::node()/child::x (or /attribute::x).
      for (uint32_t i = step.attribute ? c : c + 1; i <= last; ++i) {
        if (matches(i)) out.push_back(i);
      }
    } else {
      for (uint32_t i = c + 1; i <= last; i = nodes_[i].last + 1) {
        if (matches(i)) out.push_back(i);
      }
    }
  }
  if (!step.preds.empty()) {
    NodeSet kept;
    for (uint32_t n : out) {
      if (std::all_of(step.preds.begin(), step.preds.end(),
                      [&](const RefPred& p) { return Holds(n, p); })) {
        kept.push_back(n);
      }
    }
    out.swap(kept);
  }
  if (context.size() > 1) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

RefDoc::NodeSet RefDoc::Relative(uint32_t node,
                                 const std::vector<RefStep>& rel) const {
  NodeSet set = {node};
  for (const RefStep& step : rel) set = Step(set, step);
  return set;
}

RefDoc::NodeSet RefDoc::Eval(const RefPath& path) const {
  return Relative(0, path.steps);
}

bool RefDoc::Holds(uint32_t node, const RefPred& pred) const {
  const NodeSet set = Relative(node, pred.rel);
  if (pred.op == Cmp::kExists) return !set.empty();
  const double lit = pred.numeric ? ToNumber(pred.literal) : 0;
  for (uint32_t n : set) {
    const std::string v = StringValue(n);
    if (pred.numeric) {
      const double x = ToNumber(v);
      if (std::isnan(x)) continue;
      if ((pred.op == Cmp::kEq && x == lit) ||
          (pred.op == Cmp::kNe && x != lit) ||
          (pred.op == Cmp::kLt && x < lit) || (pred.op == Cmp::kGt && x > lit)) {
        return true;
      }
    } else if ((pred.op == Cmp::kEq && v == pred.literal) ||
               (pred.op == Cmp::kNe && v != pred.literal) ||
               (pred.op == Cmp::kLt && v < pred.literal) ||
               (pred.op == Cmp::kGt && v > pred.literal)) {
      return true;
    }
  }
  return false;
}

std::string RefDoc::Expected(const RefPath& path) const {
  std::string out;
  for (uint32_t n : Eval(path)) {
    if (!out.empty()) out.push_back('\n');
    out += Bytes(n);
  }
  return out;
}

std::string RefDoc::Expected(const RefFlwor& flwor) const {
  std::string out;
  bool first = true;
  for (uint32_t x : Eval(flwor.in)) {
    if (flwor.where && !Holds(x, *flwor.where)) continue;
    for (uint32_t n : Relative(x, flwor.ret)) {
      if (!first) out.push_back('\n');
      first = false;
      out += Bytes(n);
    }
  }
  return out;
}

}  // namespace perfbench
