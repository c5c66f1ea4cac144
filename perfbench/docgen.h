#ifndef PERFBENCH_DOCGEN_H_
#define PERFBENCH_DOCGEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: a small, fully specified generator, so that a seed gives the
/// same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  bool Chance(unsigned percent) { return Below(100) < percent; }
  template <typename T>
  const T& Pick(const std::vector<T>& v) { return v[Below(v.size())]; }

 private:
  uint64_t state_;
};

/// Writes XML in the form the xmlq serializer emits: no whitespace-only
/// text, empty elements as `<a/>`, double-quoted attributes, and text
/// escaped as &amp; &lt; &gt; only. A subtree cut out of such text is then
/// byte for byte what serializing that subtree must give.
class XmlWriter {
 public:
  void Open(std::string_view name) {
    CloseStartTag(false);
    out_ += '<';
    out_ += name;
    stack_.emplace_back(name);
    start_open_ = true;
  }
  void Attr(std::string_view name, std::string_view value);
  void Text(std::string_view text);
  void Close();
  /// `<name>text</name>`.
  void Leaf(std::string_view name, std::string_view text) {
    Open(name);
    Text(text);
    Close();
  }
  std::string Finish() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  void CloseStartTag(bool empty_element);

  std::string out_;
  std::vector<std::string> stack_;
  bool start_open_ = false;
  bool has_content_ = false;
};

/// An XMark-style auction site (site/regions/people/open_auctions/
/// closed_auctions/categories) of roughly `target_bytes` of XML text.
std::string GenerateAuction(uint64_t seed, size_t target_bytes);

/// A bibliography (bib/book with authors or editors, publisher, price).
std::string GenerateBib(uint64_t seed, size_t books);

/// A random tree of roughly `target_bytes`: element names from a small
/// vocabulary, attributes, and escape-heavy, non-ASCII text. With
/// `non_ascii_names` some element names are non-ASCII (`café`), which a
/// conforming XML parser accepts.
std::string GenerateRandomTree(uint64_t seed, size_t target_bytes,
                               bool non_ascii_names = false);

/// Last names, publishers, years and affiliations the bibliography uses;
/// the wire workload draws its query literals from them.
const std::vector<std::string>& BibLastNames();
const std::vector<std::string>& BibPublishers();
const std::vector<std::string>& BibAffiliations();
/// Countries and payment kinds the auction generator uses.
const std::vector<std::string>& AuctionCountries();
const std::vector<std::string>& AuctionPayments();

}  // namespace perfbench

#endif  // PERFBENCH_DOCGEN_H_
