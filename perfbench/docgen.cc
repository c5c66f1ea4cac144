#include "docgen.h"

namespace perfbench {

void XmlWriter::CloseStartTag(bool empty_element) {
  if (!start_open_) return;
  out_ += empty_element ? "/>" : ">";
  start_open_ = false;
}

void XmlWriter::Attr(std::string_view name, std::string_view value) {
  out_ += ' ';
  out_ += name;
  out_ += "=\"";
  for (char c : value) {
    switch (c) {
      case '&': out_ += "&amp;"; break;
      case '<': out_ += "&lt;"; break;
      case '>': out_ += "&gt;"; break;
      case '"': out_ += "&quot;"; break;
      default: out_ += c;
    }
  }
  out_ += '"';
}

void XmlWriter::Text(std::string_view text) {
  if (text.empty()) return;
  CloseStartTag(false);
  for (char c : text) {
    switch (c) {
      case '&': out_ += "&amp;"; break;
      case '<': out_ += "&lt;"; break;
      case '>': out_ += "&gt;"; break;
      default: out_ += c;
    }
  }
}

void XmlWriter::Close() {
  if (start_open_) {
    CloseStartTag(true);
  } else {
    out_ += "</";
    out_ += stack_.back();
    out_ += '>';
  }
  stack_.pop_back();
}

namespace {

const std::vector<std::string> kWords = {
    "auction", "gold",  "vintage", "rare",    "mint",   "boxed",   "signed",
    "lot",     "bid",   "offer",   "classic", "modern", "antique", "set",
    "mirror",  "clock", "lamp",    "chair",   "desk",   "print",   "coin",
    "stamp",   "watch", "ring",    "vase",    "quilt",  "map",     "book"};
// Text that the serializer must escape or pass through byte for byte.
const std::vector<std::string> kOddWords = {
    "R&D", "a<b", "x>y", "\"quoted\"", "it's", "café", "Zürich", "naïve",
    "Größe", "東京", "Ωmega", "½-price", "5&lt;6", "<tag>", "&&"};
const std::vector<std::string> kFirst = {
    "Ann",   "Bo",    "Chen",  "Dara", "Eli",  "Femi",  "Gus",   "Hana",
    "Ivo",   "Jun",   "Kai",   "Lena", "Mira", "Nils",  "Omar",  "Pia",
    "Quinn", "Rosa",  "Sami",  "Tove", "Uma",  "Vik",   "Wen",   "Xena",
    "Yusuf", "Zoë",   "Åsa",   "Björn"};
const std::vector<std::string> kLast = {
    "Abe",    "Berg",   "Costa",  "Diaz",    "Eklund", "Fischer", "Garcia",
    "Horvat", "Ito",    "Jensen", "Kowal",   "Lopez",  "Meyer",   "Novak",
    "Olsen",  "Park",   "Quist",  "Rossi",   "Silva",  "Tanaka",  "Ueda",
    "Varga",  "Weber",  "Xu",     "Yilmaz",  "Zhou",   "Müller",  "Ødegaard",
    "Nakamura", "Okafor", "Petrov", "Ramos",  "Sato",   "Torres",  "Ullah",
    "Vogel",  "Walsh",  "Young",  "Zeller",  "Brandt"};
const std::vector<std::string> kCountries = {
    "United States", "Germany", "Japan",   "Brazil",  "Kenya",
    "France",        "India",   "Canada",  "Norway",  "Chile",
    "Egypt",         "Spain",   "Italy",   "Vietnam", "Peru",
    "Ghana",         "Poland",  "Türkiye", "México",  "Nepal"};
const std::vector<std::string> kCities = {
    "Springfield", "São Paulo", "Kraków", "Zürich", "Osaka",  "Lyon",
    "Nairobi",     "Toronto",   "Bergen", "Lima",   "Pune",   "Accra",
    "Sevilla",     "Turin",     "Hanoi",  "Cairo",  "Köln",   "Québec"};
const std::vector<std::string> kRegions = {"africa", "asia", "australia",
                                           "europe", "namerica", "samerica"};
const std::vector<std::string> kPayments = {
    "Cash", "Creditcard", "Money order", "Personal Check", "Wire", "Barter"};
const std::vector<std::string> kPublishers = {
    "Addison-Wesley", "Morgan Kaufmann", "O'Reilly",   "Springer",
    "Prentice Hall",  "MIT Press",       "Wiley & Sons", "Elsevier",
    "Manning",        "No Starch",       "Pearson",    "Éditions Dunod"};
const std::vector<std::string> kAffiliations = {
    "CITI", "Bell Labs", "IBM Almaden", "INRIA", "ETH Zürich", "MPI",
    "CWI",  "Waterloo",  "Stanford",    "Tokyo"};

std::string Words(Rng& rng, size_t n, unsigned odd_percent) {
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    if (i) s += ' ';
    s += rng.Chance(odd_percent) ? rng.Pick(kOddWords) : rng.Pick(kWords);
  }
  return s;
}

std::string Money(Rng& rng, uint64_t max_whole) {
  return std::to_string(rng.Below(max_whole) + 1) + "." +
         std::to_string(10 + rng.Below(90));
}

std::string Date(Rng& rng) {
  return std::to_string(1 + rng.Below(12)) + "/" +
         std::to_string(1 + rng.Below(28)) + "/" +
         std::to_string(1998 + rng.Below(4));
}

// Mixed content: words with <keyword>/<bold>/<emph> islands. Text always
// surrounds an island, so no whitespace-only text node (which the parser
// drops) is ever written.
void RichText(XmlWriter& w, Rng& rng, size_t words) {
  static const std::vector<std::string> kMarks = {"keyword", "bold", "emph"};
  w.Open("text");
  size_t done = 3 + rng.Below(6);
  w.Text(Words(rng, done, 6));
  while (done < words) {
    w.Text(" ");
    if (rng.Chance(40)) {
      w.Leaf(rng.Pick(kMarks), Words(rng, 1 + rng.Below(2), 6));
      w.Text(" ");
    }
    const size_t run = 3 + rng.Below(6);
    w.Text(Words(rng, run, 6));
    done += run;
  }
  w.Close();
}

}  // namespace

const std::vector<std::string>& BibLastNames() { return kLast; }
const std::vector<std::string>& BibPublishers() { return kPublishers; }
const std::vector<std::string>& BibAffiliations() { return kAffiliations; }
const std::vector<std::string>& AuctionCountries() { return kCountries; }
const std::vector<std::string>& AuctionPayments() { return kPayments; }

std::string GenerateAuction(uint64_t seed, size_t target_bytes) {
  Rng rng(seed);
  // Entity counts in XMark's proportions; ~43 KB of text per unit.
  const size_t unit = target_bytes / 43000 + 1;
  const size_t items = unit * 22;
  const size_t people = unit * 25;
  const size_t open = unit * 12;
  const size_t closed = unit * 10;
  const size_t categories = unit + 10;
  XmlWriter w;
  w.Open("site");
  w.Open("regions");
  size_t item_id = 0;
  for (size_t r = 0; r < kRegions.size(); ++r) {
    w.Open(kRegions[r]);
    // Uneven regions, like XMark: europe and namerica hold most items.
    static const unsigned kShare[] = {4, 12, 6, 30, 40, 8};
    const size_t n = items * kShare[r] / 100;
    for (size_t i = 0; i < n; ++i, ++item_id) {
      w.Open("item");
      w.Attr("id", "item" + std::to_string(item_id));
      if (rng.Chance(10)) w.Attr("featured", "yes");
      w.Leaf("location", rng.Chance(60) ? kCountries[0] : rng.Pick(kCountries));
      w.Leaf("quantity", std::to_string(1 + rng.Below(rng.Chance(90) ? 2 : 9)));
      w.Leaf("name", Words(rng, 2 + rng.Below(3), 8));
      std::string pay = rng.Pick(kPayments);
      if (rng.Chance(30)) pay += ", " + rng.Pick(kPayments);
      w.Leaf("payment", pay);
      w.Open("description");
      RichText(w, rng, 12 + rng.Below(40));
      w.Close();
      w.Leaf("shipping", rng.Chance(50) ? "Will ship internationally"
                                        : "Buyer pays fixed shipping charges");
      for (size_t c = 1 + rng.Below(3); c > 0; --c) {
        w.Open("incategory");
        w.Attr("category", "category" + std::to_string(rng.Below(categories)));
        w.Close();
      }
      w.Open("mailbox");
      for (size_t m = rng.Below(4); m > 0; --m) {
        w.Open("mail");
        w.Leaf("from", rng.Pick(kFirst) + " " + rng.Pick(kLast));
        w.Leaf("to", rng.Pick(kFirst) + " " + rng.Pick(kLast));
        w.Leaf("date", Date(rng));
        RichText(w, rng, 8 + rng.Below(20));
        w.Close();
      }
      w.Close();  // mailbox
      w.Close();  // item
    }
    w.Close();
  }
  w.Close();  // regions

  w.Open("categories");
  for (size_t c = 0; c < categories; ++c) {
    w.Open("category");
    w.Attr("id", "category" + std::to_string(c));
    w.Leaf("name", Words(rng, 2, 5));
    w.Open("description");
    RichText(w, rng, 10 + rng.Below(20));
    w.Close();
    w.Close();
  }
  w.Close();

  w.Open("people");
  for (size_t p = 0; p < people; ++p) {
    w.Open("person");
    w.Attr("id", "person" + std::to_string(p));
    const std::string last = rng.Pick(kLast);
    w.Leaf("name", rng.Pick(kFirst) + " " + last);
    w.Leaf("emailaddress", "mailto:" + last + "@example.org");
    if (rng.Chance(50)) {
      w.Leaf("phone", "+" + std::to_string(1 + rng.Below(98)) + " (" +
                          std::to_string(100 + rng.Below(900)) + ") " +
                          std::to_string(1000000 + rng.Below(9000000)));
    }
    if (rng.Chance(50)) {
      w.Open("address");
      w.Leaf("street", std::to_string(1 + rng.Below(99)) + " " +
                           rng.Pick(kLast) + " St");
      w.Leaf("city", rng.Pick(kCities));
      w.Leaf("country", rng.Pick(kCountries));
      w.Leaf("zipcode", std::to_string(10000 + rng.Below(90000)));
      w.Close();
    }
    if (rng.Chance(40)) {
      w.Leaf("homepage", "http://www.example.org/~" + last);
    }
    if (rng.Chance(40)) {
      w.Leaf("creditcard", std::to_string(1000 + rng.Below(9000)) + " " +
                               std::to_string(1000 + rng.Below(9000)));
    }
    if (rng.Chance(60)) {
      w.Open("profile");
      w.Attr("income", Money(rng, 90000));
      for (size_t i = rng.Below(4); i > 0; --i) {
        w.Open("interest");
        w.Attr("category", "category" + std::to_string(rng.Below(categories)));
        w.Close();
      }
      if (rng.Chance(50)) w.Leaf("education", "Graduate School");
      if (rng.Chance(50)) w.Leaf("gender", rng.Chance(50) ? "male" : "female");
      w.Leaf("business", rng.Chance(50) ? "Yes" : "No");
      if (rng.Chance(60)) w.Leaf("age", std::to_string(18 + rng.Below(60)));
      w.Close();
    }
    if (rng.Chance(40)) {
      w.Open("watches");
      for (size_t i = 1 + rng.Below(3); i > 0; --i) {
        w.Open("watch");
        w.Attr("open_auction", "open_auction" + std::to_string(rng.Below(open)));
        w.Close();
      }
      w.Close();
    }
    w.Close();
  }
  w.Close();

  w.Open("open_auctions");
  for (size_t a = 0; a < open; ++a) {
    w.Open("open_auction");
    w.Attr("id", "open_auction" + std::to_string(a));
    w.Leaf("initial", Money(rng, 200));
    if (rng.Chance(40)) w.Leaf("reserve", Money(rng, 400));
    for (size_t b = rng.Below(9); b > 0; --b) {
      w.Open("bidder");
      w.Leaf("date", Date(rng));
      w.Leaf("time", std::to_string(10 + rng.Below(14)) + ":" +
                         std::to_string(10 + rng.Below(50)));
      w.Open("personref");
      w.Attr("person", "person" + std::to_string(rng.Below(people)));
      w.Close();
      w.Leaf("increase", Money(rng, 100));
      w.Close();
    }
    w.Leaf("current", Money(rng, 500));
    if (rng.Chance(30)) w.Leaf("privacy", rng.Chance(50) ? "Yes" : "No");
    w.Open("itemref");
    w.Attr("item", "item" + std::to_string(rng.Below(item_id)));
    w.Close();
    w.Open("seller");
    w.Attr("person", "person" + std::to_string(rng.Below(people)));
    w.Close();
    w.Leaf("quantity", std::to_string(1 + rng.Below(3)));
    w.Leaf("type", rng.Chance(70) ? "Regular" : "Featured");
    w.Open("interval");
    w.Leaf("start", Date(rng));
    w.Leaf("end", Date(rng));
    w.Close();
    w.Close();
  }
  w.Close();

  w.Open("closed_auctions");
  for (size_t a = 0; a < closed; ++a) {
    w.Open("closed_auction");
    w.Open("seller");
    w.Attr("person", "person" + std::to_string(rng.Below(people)));
    w.Close();
    w.Open("buyer");
    w.Attr("person", "person" + std::to_string(rng.Below(people)));
    w.Close();
    w.Open("itemref");
    w.Attr("item", "item" + std::to_string(rng.Below(item_id)));
    w.Close();
    w.Leaf("price", Money(rng, 1000));
    w.Leaf("date", Date(rng));
    w.Leaf("quantity", std::to_string(1 + rng.Below(3)));
    w.Leaf("type", rng.Chance(70) ? "Regular" : "Featured");
    w.Open("annotation");
    w.Open("author");
    w.Attr("person", "person" + std::to_string(rng.Below(people)));
    w.Close();
    w.Open("description");
    RichText(w, rng, 10 + rng.Below(30));
    w.Close();
    w.Leaf("happiness", std::to_string(1 + rng.Below(10)));
    w.Close();
    w.Close();
  }
  w.Close();
  w.Close();  // site
  return w.Finish();
}

std::string GenerateBib(uint64_t seed, size_t books) {
  Rng rng(seed);
  XmlWriter w;
  w.Open("bib");
  for (size_t b = 0; b < books; ++b) {
    w.Open("book");
    w.Attr("year", std::to_string(1980 + rng.Below(40)));
    w.Attr("id", "b" + std::to_string(b));
    w.Leaf("title", Words(rng, 2 + rng.Below(4), 8));
    if (rng.Chance(85)) {
      for (size_t a = 1 + rng.Below(3); a > 0; --a) {
        w.Open("author");
        w.Leaf("last", rng.Pick(kLast));
        w.Leaf("first", rng.Pick(kFirst));
        w.Close();
      }
    } else {
      w.Open("editor");
      w.Leaf("last", rng.Pick(kLast));
      w.Leaf("first", rng.Pick(kFirst));
      w.Leaf("affiliation", rng.Pick(kAffiliations));
      w.Close();
    }
    w.Leaf("publisher", rng.Pick(kPublishers));
    w.Leaf("price", Money(rng, 150));
    w.Close();
  }
  w.Close();
  return w.Finish();
}

std::string GenerateRandomTree(uint64_t seed, size_t target_bytes,
                               bool non_ascii_names) {
  static const std::vector<std::string> kNames = {
      "node", "leaf", "group", "entry", "item", "part", "value", "note"};
  static const std::vector<std::string> kOddNames = {"café", "naïve", "größe",
                                                     "ñandú"};
  Rng rng(seed);
  XmlWriter w;
  w.Open("tree");
  size_t depth = 1;
  std::vector<size_t> fanout_left = {1 << 30};
  while (w.size() < target_bytes || depth > 1) {
    if (w.size() >= target_bytes || fanout_left.back() == 0 ||
        depth >= 12) {
      if (depth == 1) break;
      w.Close();
      fanout_left.pop_back();
      --depth;
      continue;
    }
    --fanout_left.back();
    const std::string& name = non_ascii_names && rng.Chance(30)
                                  ? rng.Pick(kOddNames)
                                  : rng.Pick(kNames);
    w.Open(name);
    if (rng.Chance(40)) w.Attr("k", Words(rng, 1, 30));
    if (rng.Chance(45)) {
      w.Text(Words(rng, 1 + rng.Below(8), 35));
      w.Close();
    } else {
      fanout_left.push_back(1 + rng.Below(6));
      ++depth;
    }
  }
  w.Close();
  return w.Finish();
}

}  // namespace perfbench
