// xmlq end-to-end benchmark. One process runs one workload for a fixed
// time and prints, as its last line, one JSON object with the end-to-end
// metrics (or, with --trace 1, the per-layer metrics). See README.md.
//
//   xmlq_perfbench --workload xmark_twig --seed 1 --seconds 10 --trace 0

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/mman.h>
#include <unistd.h>

#include "alloc_hook.h"
#include "docgen.h"
#include "refscan.h"
#include "trace.h"
#include "xmlq/api/database.h"
#include "xmlq/cache/normalize.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/net/client.h"
#include "xmlq/net/protocol.h"
#include "xmlq/net/server.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/storage/region_index.h"
#include "xmlq/storage/succinct_doc.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xpath/parser.h"
#include "xmlq/xquery/parser.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using xmlq::api::Database;
using xmlq::api::QueryOptions;
using xmlq::exec::PatternStrategy;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Reference computation. Every time metric is divided by the speed of this
// fixed piece of benchmark-owned work, timed inside the same run, because
// shared hosts run through speed phases that outlast one run (README.md,
// "Steadiness"). It mixes a sort that lives in L2, a dependent walk over a
// 32 MiB table and the page faults of 16 MiB of fresh mappings, so it slows
// down when cores, memory or the kernel's page-fault path get slower. Its
// inputs never depend on --seed.

class Reference {
 public:
  Reference() : sort_in_(1 << 16), sort_buf_(1 << 16), chase_(1 << 23) {
    Rng rng(0x5eed);
    for (uint32_t& v : sort_in_) v = static_cast<uint32_t>(rng.Next());
    // One random cycle through the whole table (Sattolo's algorithm).
    std::iota(chase_.begin(), chase_.end(), 0u);
    for (size_t i = chase_.size() - 1; i > 0; --i) {
      std::swap(chase_[i], chase_[rng.Below(i)]);
    }
  }

  /// Runs the computation once; returns its duration in seconds.
  double Sample() {
    const auto t0 = Clock::now();
    std::copy(sort_in_.begin(), sort_in_.end(), sort_buf_.begin());
    std::sort(sort_buf_.begin(), sort_buf_.end());
    uint32_t at = sort_buf_[sort_buf_.size() / 2] % chase_.size();
    for (int i = 0; i < (1 << 16); ++i) at = chase_[at];
    sink_ = sink_ + at;
    // Fresh mappings: every page faults once. They are taken 1 MiB at a
    // time, so that a sample adds at most 1 MiB to the process's peak
    // resident set.
    constexpr size_t kFaultBytes = size_t{1} << 20;
    for (int chunk = 0; chunk < 16; ++chunk) {
      void* m = ::mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (m == MAP_FAILED) continue;
      char* p = static_cast<char*>(m);
      for (size_t i = 0; i < kFaultBytes; i += 4096) p[i] = static_cast<char>(i);
      sink_ = sink_ + static_cast<unsigned char>(p[kFaultBytes / 2]);
      ::munmap(m, kFaultBytes);
    }
    const double s = Since(t0);
    samples_.push_back(s);
    return s;
  }

  /// Median of the samples taken in this run.
  double Median() const {
    std::vector<double> v = samples_;
    std::sort(v.begin(), v.end());
    return v.empty() ? kNominalSeconds : v[v.size() / 2];
  }

  /// The reference's duration on the host the README's figures come from
  /// (a quiet phase). Times are reported as if the run had happened at
  /// that speed: raw * kNominalSeconds / Median().
  static constexpr double kNominalSeconds = 0.022;

  double TimeFactor() const { return kNominalSeconds / Median(); }

 private:
  std::vector<uint32_t> sort_in_;
  std::vector<uint32_t> sort_buf_;
  std::vector<uint32_t> chase_;
  std::vector<double> samples_;
  volatile uint64_t sink_ = 0;  // keeps the work observable
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// A size field of /proc/self/status ("VmRSS:", "VmHWM:"), in MB.
double StatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Output checks shared by the workloads. A failed check makes the run's
// `correct` false and prints what differed to stderr.

struct Checker {
  bool ok = true;
  uint64_t checks = 0;

  void Expect(bool cond, const std::string& what) {
    ++checks;
    if (!cond && ok) std::cerr << "CHECK FAILED: " << what << "\n";
    if (!cond) ok = false;
  }
  void Same(const std::string& got, const std::string& want,
            const std::string& what) {
    if (got == want) {
      ++checks;
      return;
    }
    size_t k = 0;
    while (k < got.size() && k < want.size() && got[k] == want[k]) ++k;
    Expect(false, what + ": differs at byte " + std::to_string(k) + " (got " +
                      std::to_string(got.size()) + " bytes, want " +
                      std::to_string(want.size()) + ")");
  }
  /// Every item of a serialized result (one per line) must re-parse.
  void Reparses(const std::string& xml, const std::string& what) {
    size_t begin = 0;
    while (begin < xml.size()) {
      size_t end = xml.find('\n', begin);
      if (end == std::string::npos) end = xml.size();
      const std::string_view item(xml.data() + begin, end - begin);
      if (!item.empty() && item[0] == '<') {
        Expect(xmlq::xml::ParseDocument(item).ok(),
               what + ": serialized item does not re-parse");
      }
      begin = end + 1;
    }
  }
};

std::string RunToXml(const Database& db, const std::string& text,
                     const QueryOptions& options, std::string* error) {
  auto r = db.Query(text, options);
  if (!r.ok()) {
    *error = r.status().ToString();
    return {};
  }
  return Database::ToXml(*r);
}

// ---------------------------------------------------------------------------
// Query construction helpers.

RefStep Child(std::string name, std::vector<RefPred> preds = {}) {
  RefStep s;
  s.name = std::move(name);
  s.preds = std::move(preds);
  return s;
}
RefStep Desc(std::string name, std::vector<RefPred> preds = {}) {
  RefStep s = Child(std::move(name), std::move(preds));
  s.descendant = true;
  return s;
}
RefStep Attr(std::string name) {
  RefStep s = Child(std::move(name));
  s.attribute = true;
  return s;
}
RefPred Has(std::vector<RefStep> rel) {
  RefPred p;
  p.rel = std::move(rel);
  return p;
}
RefPred Str(std::vector<RefStep> rel, Cmp op, std::string lit) {
  RefPred p = Has(std::move(rel));
  p.op = op;
  p.literal = std::move(lit);
  return p;
}
RefPred Num(std::vector<RefStep> rel, Cmp op, double v) {
  RefPred p = Has(std::move(rel));
  p.op = op;
  p.numeric = true;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  p.literal = buf;
  return p;
}

/// One query of a workload with its expected serialized result.
struct Query {
  std::string text;
  std::string expected;
  bool is_path = false;  // inside the XPath subset (τ ladder input)
};

Query MakeQuery(const RefDoc& ref, const RefPath& path) {
  return {Render(path), ref.Expected(path), true};
}
Query MakeQuery(const RefDoc& ref, const RefFlwor& flwor) {
  return {Render(flwor), ref.Expected(flwor), false};
}

// ---------------------------------------------------------------------------
// Workloads.

struct RoundStats {
  std::vector<double> latency_us;  // successful ops
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;     // ops the program refused (counted, expected)
  uint64_t wrong = 0;      // ops whose output differed from the reference
  AllocCount allocs;       // allocations of successful ops
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs and their reference answers (not timed).
  virtual bool Prepare(std::string* error) = 0;
  /// Builds the database until it is ready to serve (timed as setup_s).
  virtual bool Setup(std::string* error) = 0;
  /// Property checks of the method (not timed).
  virtual void Check(Checker* checker) = 0;
  /// Untimed work between rounds (e.g. generating a round's inputs).
  virtual void PrepareRound(uint64_t /*round*/) {}
  /// One whole round of operations; every round attempts the same count.
  virtual void RunRound(RoundStats* stats, TraceRecorder* trace) = 0;
  /// Bytes the storage report gives per byte of XML loaded.
  virtual double StoreBytesPerInputByte() = 0;
  /// The traced-mode layer ladder.
  virtual void Ladder(std::vector<Metric>* out, Checker* checker) = 0;
  /// Called once after the last round (stops servers and threads).
  virtual void Finish() {}
  virtual const Database& database() const = 0;
};

/// Bytes of every structure Database::Report counts.
double StoreBytes(const xmlq::api::StorageReport& r) {
  return static_cast<double>(r.dom_bytes + r.succinct_structure_bytes +
                             r.succinct_content_bytes + r.region_index_bytes +
                             r.value_index_bytes + r.tag_dictionary_bytes);
}

// -- The layer ladder, shared by every workload -------------------------------

/// Median seconds per call of `fn`, over at least `min_reps` calls and at
/// least `min_seconds` of calls.
double TimeIt(const std::function<void()>& fn, int min_reps = 3,
              double min_seconds = 0.02) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps || Since(start) < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(Since(t0));
    if (t.size() >= 2000) break;
  }
  return Quantile(t, 0.5);
}

struct LadderInput {
  Database* db;
  std::string doc_name;
  const std::string* doc_text;
  std::vector<const Query*> queries;  // the workload's queries
  std::string flwor;                  // a FLWOR query on the document
  xmlq::net::Server* server = nullptr;  // the workload's server, if any
};

constexpr PatternStrategy kEngines[] = {
    PatternStrategy::kNok, PatternStrategy::kTwigStack,
    PatternStrategy::kPathStack, PatternStrategy::kBinaryJoin,
    PatternStrategy::kNaive};

void SumProfile(const xmlq::exec::ProfileNode& n, uint64_t* visited,
                uint64_t* probes) {
  *visited += n.stats.nodes_visited;
  *probes += n.stats.index_probes;
  for (const auto& c : n.children) SumProfile(c, visited, probes);
}

void RunLadder(const LadderInput& in, std::vector<Metric>* out,
               Checker* checker) {
  Database& db = *in.db;
  auto add = [&](std::string name, double v, std::string unit) {
    out->push_back({std::move(name), v, std::move(unit)});
  };
  std::vector<const Query*> paths;
  for (const Query* q : in.queries) {
    if (q->is_path) paths.push_back(q);
  }
  if (paths.size() > 8) paths.resize(8);
  const double mb = static_cast<double>(in.doc_text->size()) / 1e6;

  // Parse and index builds, one structure at a time from the public
  // constructors.
  std::unique_ptr<xmlq::xml::Document> dom;
  const double parse_s = TimeIt([&] {
    auto d = xmlq::xml::ParseDocument(*in.doc_text);
    checker->Expect(d.ok(), "ladder parse");
    if (d.ok()) dom = std::make_unique<xmlq::xml::Document>(std::move(*d));
  });
  add("xml.parse_mb_per_s", mb / parse_s, "MB/s");
  add("storage.succinct_build_ms",
      1e3 * TimeIt([&] { (void)xmlq::storage::SuccinctDocument::Build(*dom); }),
      "ms");
  add("storage.region_index_build_ms",
      1e3 * TimeIt([&] { xmlq::storage::RegionIndex r(*dom); }), "ms");
  add("storage.value_index_build_ms",
      1e3 * TimeIt([&] { xmlq::storage::ValueIndex v(*dom); }), "ms");
  add("opt.synopsis_build_ms",
      1e3 * TimeIt([&] { xmlq::opt::Synopsis s(*dom); }), "ms");
  dom.reset();

  // Snapshot write and mmap open.
  const std::string snap = ".bench_out/ladder-" + std::to_string(::getpid()) +
                           ".xqpack";
  add("storage.snapshot_write_ms", 1e3 * TimeIt([&] {
        checker->Expect(db.Save(in.doc_name, snap).ok(), "ladder save");
      }),
      "ms");
  {
    Database other;
    add("storage.snapshot_open_ms", 1e3 * TimeIt([&] {
          checker->Expect(other.Open("snap", snap).ok(), "ladder open");
        }),
        "ms");
  }
  std::filesystem::remove(snap);

  // Footprint per structure.
  auto report = db.Report(in.doc_name);
  checker->Expect(report.ok(), "ladder report");
  if (!report.ok()) return;
  const double nodes = static_cast<double>(report->node_count);
  add("storage.bytes_per_node.dom", report->dom_bytes / nodes, "B");
  add("storage.bytes_per_node.succinct",
      (report->succinct_structure_bytes + report->succinct_content_bytes) /
          nodes,
      "B");
  add("storage.bytes_per_node.region_index",
      report->region_index_bytes / nodes, "B");
  add("storage.bytes_per_node.value_index", report->value_index_bytes / nodes,
      "B");
  add("storage.bytes_per_node.tag_dictionary",
      report->tag_dictionary_bytes / nodes, "B");

  // Front ends and planning, per query.
  auto per_query = [&](const std::vector<const Query*>& qs,
                       const std::function<void(const Query&)>& fn) {
    double total = 0;
    for (const Query* q : qs) total += TimeIt([&] { fn(*q); }, 5, 0.002);
    return qs.empty() ? 0 : 1e6 * total / static_cast<double>(qs.size());
  };
  add("xpath.parse_us", per_query(paths, [](const Query& q) {
        (void)xmlq::xpath::ParsePath(q.text);
      }),
      "us");
  add("xquery.parse_us", per_query(in.queries, [](const Query& q) {
        (void)xmlq::xquery::ParseQuery(q.text);
      }),
      "us");
  add("cache.normalize_us", per_query(in.queries, [](const Query& q) {
        (void)xmlq::cache::NormalizeQuery(q.text);
      }),
      "us");
  QueryOptions bypass;
  bypass.use_plan_cache = false;
  add("api.plan_miss_us", per_query(in.queries, [&](const Query& q) {
        (void)db.Explain(q.text, bypass);
      }),
      "us");

  // τ per forced engine, serial and at two lanes.
  std::map<PatternStrategy, double> serial;
  for (PatternStrategy e : kEngines) {
    QueryOptions o;
    o.auto_optimize = false;
    o.strategy = e;
    const std::string name(xmlq::exec::PatternStrategyName(e));
    serial[e] = per_query(paths, [&](const Query& q) { (void)db.Query(q.text, o); });
    add("exec.tau_us." + name, serial[e], "us");
  }
  for (PatternStrategy e : kEngines) {
    if (e == PatternStrategy::kNaive) continue;
    QueryOptions o;
    o.auto_optimize = false;
    o.strategy = e;
    o.parallelism = 2;
    const double p2 =
        per_query(paths, [&](const Query& q) { (void)db.Query(q.text, o); });
    add("exec.morsel_speedup_p2." +
            std::string(xmlq::exec::PatternStrategyName(e)),
        p2 > 0 ? serial[e] / p2 : 0, "x");
  }

  // Region streams of every pattern vertex (the serial τ prefix).
  const xmlq::exec::IndexedDocument* view = db.Get(in.doc_name);
  add("exec.vertex_stream_us", per_query(paths, [&](const Query& q) {
        auto ast = xmlq::xpath::ParsePath(q.text);
        if (!ast.ok()) return;
        auto graph = xmlq::xpath::CompileToPattern(*ast);
        if (!graph.ok()) return;
        for (size_t v = 0; v < graph->VertexCount(); ++v) {
          (void)xmlq::exec::BuildVertexStream(
              *view, graph->vertex(static_cast<xmlq::algebra::VertexId>(v)));
        }
      }),
      "us");

  // Engine counters from the EXPLAIN ANALYZE profile.
  {
    QueryOptions o;
    o.collect_stats = true;
    uint64_t visited = 0, probes = 0, results = 0;
    for (const Query* q : in.queries) {
      auto r = db.Query(q->text, o);
      if (!r.ok() || r->profile == nullptr) continue;
      SumProfile(r->profile->root(), &visited, &probes);
      results += r->value.size();
    }
    add("exec.nodes_visited_per_result",
        static_cast<double>(visited) / std::max<uint64_t>(results, 1),
        "count");
    add("exec.index_probes_per_op",
        static_cast<double>(probes) /
            std::max<size_t>(in.queries.size(), 1),
        "count");
  }

  // What the cost model picks for the workload's queries.
  {
    std::map<std::string, double> picks;
    for (PatternStrategy e : kEngines) {
      picks[std::string(xmlq::exec::PatternStrategyName(e))] = 0;
    }
    for (const Query* q : in.queries) {
      auto plan = db.Explain(q->text);
      if (!plan.ok()) continue;
      size_t at = 0;
      while ((at = plan->find("selected ", at)) != std::string::npos) {
        at += 9;
        const size_t end = plan->find(' ', at);
        const std::string engine = plan->substr(at, end - at);
        if (picks.count(engine)) picks[engine] += 1;
      }
    }
    for (const auto& [engine, n] : picks) add("opt.picks." + engine, n, "count");
  }

  // Database::Query alone, then ToXml alone, with allocation counts.
  {
    double query_s = 0, ser_s = 0, ser_bytes = 0;
    uint64_t query_allocs = 0, ser_allocs = 0, calls = 0;
    for (const Query* q : in.queries) {
      for (int rep = 0; rep < 3; ++rep) {
        const AllocCount a0 = AllocSnapshot();
        const auto t0 = Clock::now();
        auto r = db.Query(q->text);
        const double qs = Since(t0);
        const AllocCount a1 = AllocSnapshot();
        if (!r.ok()) break;
        const auto t1 = Clock::now();
        std::string xml = Database::ToXml(*r);
        const double ss = Since(t1);
        const AllocCount a2 = AllocSnapshot();
        query_s += qs;
        ser_s += ss;
        ser_bytes += static_cast<double>(xml.size());
        query_allocs += (a1 - a0).calls;
        ser_allocs += (a2 - a1).calls;
        ++calls;
      }
    }
    const double n = static_cast<double>(std::max<uint64_t>(calls, 1));
    add("api.query_us", 1e6 * query_s / n, "us");
    add("api.allocs_per_query", query_allocs / n, "count");
    add("xml.serialize_mb_per_s", ser_s > 0 ? ser_bytes / 1e6 / ser_s : 0,
        "MB/s");
    add("xml.serialize_allocs_per_op", ser_allocs / n, "count");
  }
  add("exec.flwor_us",
      1e6 * TimeIt([&] { (void)db.Query(in.flwor); }, 3, 0.02), "us");

  // The wire tier: round trips against a server on this database, the
  // wire's share of them, and the frame codec alone.
  {
    std::unique_ptr<xmlq::net::Server> own;
    xmlq::net::Server* server = in.server;
    if (server == nullptr) {
      xmlq::net::ServerConfig config;
      config.workers = 1;
      config.max_response_bytes = 256u << 20;
      own = std::make_unique<xmlq::net::Server>(&db, config);
      checker->Expect(own->Start().ok(), "ladder server start");
      server = own.get();
    }
    xmlq::net::ClientConfig cc;
    cc.max_frame_bytes = 256u << 20;
    auto client = xmlq::net::Client::Connect("127.0.0.1", server->port(), cc);
    checker->Expect(client.ok(), "ladder client connect");
    double rt = 0, tax = 0;
    std::vector<std::string> bodies;
    for (const Query* q : in.queries) {
      std::string body;
      const double round_trip = TimeIt([&] {
        auto r = client->Query(q->text);
        if (r.ok()) body = r->body;
      }, 3, 0.005);
      const double local = TimeIt([&] {
        auto r = db.Query(q->text);
        if (r.ok()) (void)Database::ToXml(*r);
      }, 3, 0.005);
      checker->Same(body, q->expected, "ladder wire bytes of " + q->text);
      rt += round_trip;
      tax += round_trip - local;
      bodies.push_back(std::move(body));
    }
    const double n = static_cast<double>(std::max<size_t>(in.queries.size(), 1));
    add("net.round_trip_us", 1e6 * rt / n, "us");
    add("net.wire_tax_us", 1e6 * tax / n, "us");
    double codec_bytes = 0;
    const double codec_s = TimeIt([&] {
      codec_bytes = 0;
      for (const std::string& body : bodies) {
        xmlq::net::ResponsePayload p;
        p.body = body;
        const std::string frame = xmlq::net::EncodeFrame(
            xmlq::net::FrameType::kResponse, 7, xmlq::net::EncodeResponse(p));
        xmlq::net::Frame f;
        size_t consumed = 0;
        std::string err;
        xmlq::net::DecodeFrame(frame, &f, &consumed, &err, 256u << 20);
        xmlq::net::ResponsePayload back;
        xmlq::net::DecodeResponse(f.payload, &back);
        codec_bytes += static_cast<double>(back.body.size());
      }
    });
    add("net.codec_mb_per_s", codec_s > 0 ? codec_bytes / 1e6 / codec_s : 0,
        "MB/s");
    if (own) (void)own->Shutdown();
  }
  add("api.admission_peak_queued",
      static_cast<double>(db.admission_stats().peak_queued), "count");
}

// -- xmark_twig ----------------------------------------------------------------

class XmarkWorkload : public Workload {
 public:
  explicit XmarkWorkload(uint64_t seed) : seed_(seed) {
    options_.parallelism = 2;
  }

  bool Prepare(std::string* error) override {
    text_ = GenerateAuction(seed_, kDocBytes);
    RefDoc ref;
    if (!ref.Scan(text_, error)) return false;
    ref_nodes_ = ref.node_count();
    Rng rng(seed_ * 7919 + 1);
    BuildTwigQueries(ref, rng);
    return true;
  }

  bool Setup(std::string* error) override {
    const xmlq::Status st = db_.LoadDocument("auction.xml", text_);
    if (!st.ok()) *error = st.ToString();
    return st.ok();
  }

  void Check(Checker* c) override {
    auto report = db_.Report("auction.xml");
    c->Expect(report.ok() && report->node_count == ref_nodes_,
              "Report().node_count equals the reference scanner's count");
    for (size_t i = 0; i < checked_; ++i) {
      const Query& q = queries_[i];
      std::string err;
      const std::string got = RunToXml(db_, q.text, options_, &err);
      c->Same(got, q.expected, "reference scanner vs " + q.text + " " + err);
      c->Reparses(got, q.text);
      QueryOptions serial = options_;
      serial.parallelism = 1;
      QueryOptions lanes = options_;
      lanes.parallelism = 2;
      c->Same(RunToXml(db_, q.text, lanes, &err),
              RunToXml(db_, q.text, serial, &err), "2 lanes vs serial " + q.text);
      QueryOptions bypass = options_;
      bypass.use_plan_cache = false;
      c->Same(RunToXml(db_, q.text, bypass, &err), got,
              "cache bypassed vs cached " + q.text);
      for (PatternStrategy e : kEngines) {
        QueryOptions forced = options_;
        forced.auto_optimize = false;
        forced.strategy = e;
        c->Same(RunToXml(db_, q.text, forced, &err), q.expected,
                "forced " + std::string(xmlq::exec::PatternStrategyName(e)) +
                    " " + q.text);
      }
    }
  }

  void RunRound(RoundStats* s, TraceRecorder* trace) override {
    for (const Query& q : queries_) {
      const uint64_t op = s->attempted++;
      const AllocCount a0 = AllocSnapshot();
      const auto t0 = Clock::now();
      std::string xml;
      bool ok = false;
      {
        Scope root(trace, "op", op);
        xmlq::Result<xmlq::exec::QueryResult> r = [&] {
          Scope span(trace, "api.Query", op);
          return db_.Query(q.text, options_);
        }();
        if (r.ok()) {
          Scope span(trace, "api.ToXml", op);
          xml = Database::ToXml(*r);
          ok = true;
        }
      }
      const double us = 1e6 * Since(t0);
      const AllocCount a1 = AllocSnapshot();
      if (ok && xml == q.expected) {
        ++s->ok;
        s->latency_us.push_back(us);
        s->allocs.calls += (a1 - a0).calls;
        s->allocs.bytes += (a1 - a0).bytes;
      } else {
        ++s->wrong;
        std::cerr << "WRONG OUTPUT: " << q.text << "\n";
      }
    }
  }

  double StoreBytesPerInputByte() override {
    auto r = db_.Report("auction.xml");
    return r.ok() ? StoreBytes(*r) / static_cast<double>(text_.size()) : 0;
  }

  const Database& database() const override { return db_; }

  void Ladder(std::vector<Metric>* out, Checker* checker) override {
    LadderInput in{&db_, "auction.xml", &text_, {}, {}, nullptr};
    for (size_t i = 0; i < checked_; ++i) in.queries.push_back(&queries_[i]);
    in.flwor = "for $x in //person where $x/address return <c>{$x/name}</c>";
    RunLadder(in, out, checker);
  }

 private:
  // An auction document whose DOM and indexes (~90 MB) are well beyond L2.
  static constexpr size_t kDocBytes = 17'000'000;

  // Each template is instantiated once per iteration. Its literals cycle
  // through a range whose length divides the iteration count, from a seeded
  // offset, so every round holds the same literals on every seed: a seed
  // changes the document and the literals' order, not the mix.
  static constexpr int kTwigIterations = 12;  // 144 queries per round
  // The engine/lane/cache property checks run on the first two iterations;
  // every op of every round is checked against the reference.
  static constexpr int kCheckedIterations = 2;

  void BuildTwigQueries(const RefDoc& ref, Rng& rng) {
    const std::vector<std::string> branches = {
        "address", "phone", "homepage", "creditcard", "profile", "watches"};
    const std::vector<std::string>& countries = AuctionCountries();
    const std::vector<std::string>& payments = AuctionPayments();
    const uint64_t off = rng.Below(1000);
    for (int k = 0; k < kTwigIterations; ++k) {
      if (k == kCheckedIterations) checked_ = queries_.size();
      auto cyc = [&](size_t n) { return static_cast<size_t>((off + k) % n); };
      // E1 Q5 shape: structural twig with two or three branches.
      std::vector<RefPred> preds = {Has({Child(branches[cyc(6)])}),
                                    Has({Child(branches[(cyc(6) + 1) % 6])})};
      if (k % 2 == 1) preds.push_back(Has({Child(branches[(cyc(6) + 3) % 6])}));
      Add(ref, RefPath{{Desc("person", preds),
                        Child(k % 4 < 2 ? "name" : "emailaddress")}});
      // E1 Q6: value-predicate twig.
      Add(ref, RefPath{{Desc("item", {Str({Child("payment")}, Cmp::kEq,
                                          payments[cyc(6)])}),
                        Child("location")}});
      // E1 Q7: attribute point lookup.
      Add(ref, RefPath{{Desc("person", {Str({Attr("id")}, Cmp::kEq,
                                            "person" + std::to_string(
                                                           250 * cyc(12) + 7))}),
                        Child("name")}});
      // E1 Q8: mixed twig with a numeric predicate on a path.
      Add(ref, RefPath{{Desc("open_auction",
                             {Num({Child("bidder"), Child("increase")},
                                  Cmp::kGt, 96 + static_cast<double>(cyc(4)))}),
                        Child("current")}});
      Add(ref, RefPath{{Desc("closed_auction",
                             {Num({Child("price")}, Cmp::kGt,
                                  950 + 10 * static_cast<double>(cyc(4)))}),
                        Child("date")}});
      Add(ref, RefPath{{Desc("item",
                             {Str({Child("location")}, Cmp::kEq,
                                  countries[1 + cyc(12)]),
                              Num({Child("quantity")}, Cmp::kGt, 1)}),
                        Child("name")}});
      Add(ref, RefPath{{Desc("person",
                             {Str({Child("address"), Child("country")},
                                  Cmp::kEq, countries[cyc(12)]),
                              Has({Child("phone")})}),
                        Child("name")}});
      Add(ref, RefPath{{Desc("person",
                             {Str({Child("profile"), Child("interest"),
                                   Attr("category")},
                                  Cmp::kEq,
                                  "category" + std::to_string(8 * cyc(12) + 3))}),
                        Child("name")}});
      // E1 Q2/Q4: long child chain and descendant chains.
      Add(ref, RefPath{{Child("site"), Child("open_auctions"),
                        Child("open_auction"),
                        Child("bidder", {Num({Child("increase")}, Cmp::kGt,
                                             97 + static_cast<double>(cyc(3)))}),
                        Child("personref")}});
      Add(ref, RefPath{{Desc(k % 2 == 0 ? "africa" : "australia"),
                        Desc("mail"), Child("from")}});
      Add(ref, RefPath{{Desc("category", {Str({Attr("id")}, Cmp::kEq,
                                              "category" + std::to_string(
                                                               8 * cyc(12) + 5))}),
                        Desc("keyword")}});
      Add(ref, RefPath{{Desc("closed_auction",
                             {Str({Child("annotation"), Child("happiness")},
                                  Cmp::kEq, std::to_string(8 + cyc(3))),
                              Num({Child("price")}, Cmp::kGt, 900)}),
                        Child("itemref")}});
    }
  }

  template <typename Q>
  void Add(const RefDoc& ref, const Q& q) {
    queries_.push_back(MakeQuery(ref, q));
  }

  uint64_t seed_;
  QueryOptions options_;
  std::string text_;
  size_t ref_nodes_ = 0;
  std::vector<Query> queries_;
  size_t checked_ = 0;  // queries the property checks cover
  Database db_;
};

// -- wire_mix -----------------------------------------------------------------

class WireWorkload : public Workload {
 public:
  explicit WireWorkload(uint64_t seed) : seed_(seed) {
    // Two connections per worker, and a core left for the server's event
    // loop: on a 4-core host, 1 worker and 2 connections.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    workers_ = std::max(1u, (hw - 1) / 3);
    clients_ = std::max(1u, std::min(2 * workers_, hw - workers_));
  }

  bool Prepare(std::string* error) override {
    text_ = GenerateBib(seed_, kBooks);
    if (!ref_.Scan(text_, error)) return false;
    BuildHitVariants();
    BuildMissPool();
    return true;
  }

  bool Setup(std::string* error) override {
    xmlq::Status st = db_.LoadDocument("bib.xml", text_);
    if (st.ok()) {
      xmlq::net::ServerConfig config;
      config.workers = workers_;
      server_ = std::make_unique<xmlq::net::Server>(&db_, config);
      st = server_->Start();
    }
    for (unsigned i = 0; st.ok() && i < clients_; ++i) {
      auto c = xmlq::net::Client::Connect("127.0.0.1", server_->port());
      if (!c.ok()) {
        st = c.status();
      } else {
        conns_.push_back(std::make_unique<xmlq::net::Client>(std::move(*c)));
      }
    }
    if (st.ok()) {
      auto r = conns_[0]->Query(hits_[0].text);
      if (!r.ok()) st = r.status();
    }
    if (!st.ok()) *error = st.ToString();
    return st.ok();
  }

  void Check(Checker* c) override {
    auto report = db_.Report("bib.xml");
    c->Expect(report.ok() && report->node_count == ref_.node_count(),
              "Report().node_count equals the reference scanner's count");
    // Every hit variant once (this also warms the plan cache), and a few
    // misses; wire bytes must equal in-process ToXml bytes and the
    // reference.
    std::vector<const Query*> all;
    for (const Query& q : hits_) all.push_back(&q);
    std::vector<Query> misses;
    for (int i = 0; i < 8; ++i) misses.push_back(Miss(kMissPool - 1 - i));
    for (const Query& q : misses) all.push_back(&q);
    for (const Query* q : all) {
      auto r = conns_[0]->Query(q->text);
      c->Expect(r.ok() && r->code == xmlq::StatusCode::kOk,
                "wire query " + q->text);
      if (!r.ok()) continue;
      std::string err;
      const std::string local = RunToXml(db_, q->text, {}, &err);
      c->Same(r->body, local, "wire vs in-process bytes " + q->text);
      c->Same(r->body, q->expected, "reference scanner vs " + q->text);
      c->Reparses(r->body, q->text);
    }
  }

  void PrepareRound(uint64_t round) override {
    // Each client runs kOpsPerClient ops per round: a Zipf stream over the
    // hit variants, with every kMissEvery-th op a structurally new query.
    plans_.assign(clients_, {});
    round_misses_.clear();
    round_misses_.reserve(clients_ * kOpsPerClient / kMissEvery);
    for (unsigned c = 0; c < clients_; ++c) {
      Rng rng(seed_ * 1000003 + round * 131 + c);
      for (unsigned i = 0; i < kOpsPerClient; ++i) {
        if (i % kMissEvery == kMissEvery - 1) {
          if (next_miss_ >= kMissPool) {
            pool_exhausted_ = true;
            plans_[c].push_back(&hits_[0]);
            continue;
          }
          round_misses_.push_back(Miss(next_miss_++));
          plans_[c].push_back(&round_misses_.back());
        } else {
          plans_[c].push_back(&hits_[Zipf(rng)]);
        }
      }
    }
  }

  void RunRound(RoundStats* s, TraceRecorder* trace) override {
    if (threads_.empty()) StartClients();
    {
      std::lock_guard<std::mutex> lock(mu_);
      traced_round_ = trace != nullptr;
      ++generation_;
      done_ = 0;
      for (auto& cs : client_stats_) cs = RoundStats{};
    }
    cv_.notify_all();
    const AllocCount a0 = AllocSnapshot();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return done_ == clients_; });
    }
    const AllocCount a1 = AllocSnapshot();
    for (const RoundStats& cs : client_stats_) {
      s->attempted += cs.attempted;
      s->ok += cs.ok;
      s->wrong += cs.wrong;
      s->latency_us.insert(s->latency_us.end(), cs.latency_us.begin(),
                           cs.latency_us.end());
    }
    s->allocs.calls += (a1 - a0).calls;
    s->allocs.bytes += (a1 - a0).bytes;
  }

  double StoreBytesPerInputByte() override {
    auto r = db_.Report("bib.xml");
    return r.ok() ? StoreBytes(*r) / static_cast<double>(text_.size()) : 0;
  }

  void Ladder(std::vector<Metric>* out, Checker* checker) override {
    LadderInput in{&db_, "bib.xml", &text_, {}, {}, server_.get()};
    for (size_t i = 0; i < hits_.size(); i += kVariants / 2) {
      in.queries.push_back(&hits_[i]);
    }
    in.flwor = hits_[kVariants * 4].text;
    RunLadder(in, out, checker);
  }

  const Database& database() const override { return db_; }

  void Finish() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    if (server_) {
      (void)server_->Shutdown();
      server_.reset();
    }
    if (pool_exhausted_) {
      std::cerr << "note: miss pool exhausted; later misses were hits\n";
    }
  }

  ~WireWorkload() override { Finish(); }

  std::vector<const TraceRecorder*> recorders() const {
    std::vector<const TraceRecorder*> v;
    for (const auto& r : recorders_) v.push_back(r.get());
    return v;
  }

 private:
  static constexpr size_t kBooks = 1200;  // ~200 KB of XML: fits in L2
  static constexpr unsigned kVariants = 64;
  static constexpr unsigned kOpsPerClient = 256;
  // One op in 32 is structurally new: an assumed warm plan cache, not a
  // measured hit ratio (README.md).
  static constexpr unsigned kMissEvery = 32;
  static constexpr double kZipfExponent = 0.8;

  void BuildHitVariants() {
    const auto& last = BibLastNames();
    const auto& pubs = BibPublishers();
    const auto& affs = BibAffiliations();
    for (unsigned v = 0; v < kVariants; ++v) {
      Add(RefPath{{Child("bib"),
                   Child("book", {Str({Child("author"), Child("last")}, Cmp::kEq,
                                      last[v % last.size()])}),
                   Child("title")}});
    }
    for (unsigned v = 0; v < kVariants; ++v) {
      Add(RefPath{{Child("bib"),
                   Child("book", {Str({Attr("year")}, Cmp::kEq,
                                      std::to_string(1980 + v % 40))}),
                   Child("title")}});
    }
    for (unsigned v = 0; v < kVariants; ++v) {
      Add(RefPath{{Child("bib"),
                   Child("book", {Str({Child("publisher")}, Cmp::kEq,
                                      pubs[v % pubs.size()]),
                                  Num({Child("price")}, Cmp::kGt,
                                      100 + static_cast<double>(v / 2))}),
                   Child("title")}});
    }
    for (unsigned v = 0; v < kVariants; ++v) {
      Add(RefPath{{Desc("book", {Str({Child("editor"), Child("affiliation")},
                                     Cmp::kEq, affs[v % affs.size()]),
                                 Num({Child("price")}, Cmp::kLt,
                                     30 + static_cast<double>(v))}),
                   Child("title")}});
    }
    for (unsigned v = 0; v < kVariants; ++v) {
      RefFlwor f;
      f.in = RefPath{{Child("bib"), Child("book")}};
      f.where = Str({Child("author"), Child("last")}, Cmp::kEq,
                    last[(v * 7) % last.size()]);
      f.ret = {Child("title")};
      // Literal variants beyond the name list differ in the price bound.
      if (v >= last.size()) {
        f.where = Num({Child("price")}, Cmp::kGt,
                      140 + static_cast<double>(v - last.size()) / 4);
      }
      Add(f);
    }
    // Zipf over the variant rank; the template is uniform. The exponent is
    // an assumption, taken below 1 as in the Zipf-like request popularity
    // of web caches (README.md). Rank r is variant r on every seed, so the
    // hot set, and with it the mix's cost, does not change from seed to
    // seed; the seed drives the document and the order of the stream.
    double sum = 0;
    for (unsigned r = 1; r <= kVariants; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      zipf_cdf_.push_back(sum);
    }
    for (double& x : zipf_cdf_) x /= sum;
  }

  size_t Zipf(Rng& rng) {
    const unsigned tmpl = static_cast<unsigned>(rng.Below(5));
    const double u = static_cast<double>(rng.Next() >> 11) / 9007199254740992.0;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    return tmpl * kVariants + std::min<size_t>(rank, kVariants - 1);
  }

  // Structurally new queries: a year filter plus a distinct set of up to
  // four predicates from a fixed list, under one of two roots and four
  // outputs. Predicate order does not matter to the plan cache, so sets,
  // not sequences, are enumerated.
  void BuildMissPool() {
    miss_preds_ = {Has({Child("title")}),
                   Has({Child("author")}),
                   Has({Child("editor")}),
                   Has({Child("publisher")}),
                   Has({Child("price")}),
                   Has({Attr("id")}),
                   Has({Child("author"), Child("first")}),
                   Has({Child("author"), Child("last")}),
                   Has({Child("editor"), Child("last")}),
                   Has({Child("editor"), Child("affiliation")}),
                   Num({Child("price")}, Cmp::kGt, 20),
                   Num({Child("price")}, Cmp::kLt, 140),
                   Str({Child("title")}, Cmp::kNe, "x"),
                   Str({Child("publisher")}, Cmp::kNe, "Manning"),
                   Str({Child("author"), Child("last")}, Cmp::kNe, "Abe"),
                   Has({Child("editor"), Child("first")})};
    const unsigned n = static_cast<unsigned>(miss_preds_.size());
    for (unsigned a = 0; a < n; ++a) {
      subsets_.push_back({a});
      for (unsigned b = a + 1; b < n; ++b) {
        subsets_.push_back({a, b});
        for (unsigned c = b + 1; c < n; ++c) {
          subsets_.push_back({a, b, c});
          for (unsigned d = c + 1; d < n; ++d) subsets_.push_back({a, b, c, d});
        }
      }
    }
    Rng rng(seed_ ^ 0x1234567);
    for (size_t i = subsets_.size() - 1; i > 0; --i) {
      std::swap(subsets_[i], subsets_[rng.Below(i + 1)]);
    }
  }

  Query Miss(size_t index) {
    static const std::vector<std::string> kOutputs = {"title", "price",
                                                      "publisher", "author"};
    const auto& subset = subsets_[index % subsets_.size()];
    const size_t shape = index / subsets_.size();
    std::vector<RefPred> preds = {
        Str({Attr("year")}, Cmp::kEq, std::to_string(1980 + index % 40))};
    for (unsigned p : subset) preds.push_back(miss_preds_[p]);
    RefPath path;
    if (shape % 2 == 0) {
      path.steps = {Child("bib"), Child("book", preds)};
    } else {
      path.steps = {Desc("book", preds)};
    }
    path.steps.push_back(Child(kOutputs[(shape / 2) % kOutputs.size()]));
    return MakeQuery(ref_, path);
  }

  template <typename Q>
  void Add(const Q& q) {
    hits_.push_back(MakeQuery(ref_, q));
  }

  void StartClients() {
    client_stats_.resize(clients_);
    for (unsigned c = 0; c < clients_; ++c) {
      recorders_.push_back(std::make_unique<TraceRecorder>());
    }
    for (unsigned c = 0; c < clients_; ++c) {
      threads_.emplace_back([this, c] { ClientLoop(c); });
    }
  }

  void ClientLoop(unsigned c) {
    uint64_t seen = 0;
    for (;;) {
      TraceRecorder* rec = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        if (traced_round_) rec = recorders_[c].get();
      }
      RoundStats& s = client_stats_[c];
      s.latency_us.reserve(kOpsPerClient);
      for (const Query* q : plans_[c]) {
        const uint64_t op = (uint64_t{c} << 48) | s.attempted++;
        const auto t0 = Clock::now();
        xmlq::Result<xmlq::net::ResponsePayload> r = [&] {
          Scope root(rec, "op", op);
          Scope span(rec, "net.Client.Query", op);
          return conns_[c]->Query(q->text);
        }();
        const double us = 1e6 * Since(t0);
        if (r.ok() && r->code == xmlq::StatusCode::kOk &&
            r->body == q->expected) {
          ++s.ok;
          s.latency_us.push_back(us);
        } else {
          ++s.wrong;
          std::cerr << "WRONG OUTPUT: " << q->text << "\n";
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
      }
      cv_.notify_all();
    }
  }

  uint64_t seed_;
  unsigned workers_;
  unsigned clients_;
  std::string text_;
  RefDoc ref_;
  std::vector<Query> hits_;
  std::vector<double> zipf_cdf_;
  std::vector<RefPred> miss_preds_;
  std::vector<std::vector<unsigned>> subsets_;
  static constexpr size_t kMissPool = 2516 * 8;  // subsets x roots x outputs
  size_t next_miss_ = 0;
  bool pool_exhausted_ = false;
  std::vector<Query> round_misses_;
  std::vector<std::vector<const Query*>> plans_;

  Database db_;
  std::unique_ptr<xmlq::net::Server> server_;
  std::vector<std::unique_ptr<xmlq::net::Client>> conns_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;
  unsigned done_ = 0;
  bool stop_ = false;
  bool traced_round_ = false;
  std::vector<RoundStats> client_stats_;
  std::vector<std::unique_ptr<TraceRecorder>> recorders_;
  std::vector<std::thread> threads_;
};

// -- ingest -------------------------------------------------------------------

class IngestWorkload : public Workload {
 public:
  explicit IngestWorkload(uint64_t seed) : seed_(seed) {}

  bool Prepare(std::string* error) override {
    base_ = GenerateAuction(seed_, kBaseBytes);
    RefDoc ref;
    if (!ref.Scan(base_, error)) return false;
    base_nodes_ = ref.node_count();
    base_queries_.push_back(MakeQuery(
        ref, RefPath{{Desc("person", {Has({Child("address")}),
                                      Has({Child("phone")})}),
                      Child("name")}}));
    base_queries_.push_back(MakeQuery(
        ref, RefPath{{Desc("open_auction",
                           {Num({Child("bidder"), Child("increase")}, Cmp::kGt,
                                90)}),
                      Child("current")}}));
    dir_ = ".bench_out/ingest-" + std::to_string(::getpid());
    path_ = dir_ + "/doc.xqpack";
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) *error = "cannot create " + dir_ + ": " + ec.message();
    // The non-ASCII-name document is the same on every seed. Its check
    // query and expected bytes come from the reference scanner like every
    // other document's, so that once the parser accepts such names the op
    // succeeds and is checked and counted like its neighbours.
    bad_doc_.text = GenerateRandomTree(0xcafe, kSizes[1], true);
    bad_doc_.bad = true;
    RefDoc bad_ref;
    if (!bad_ref.Scan(bad_doc_.text, error)) return false;
    bad_doc_.nodes = bad_ref.node_count();
    bad_doc_.query = MakeQuery(bad_ref, RandomTreeCheck());
    return !ec;
  }

  bool Setup(std::string* error) override {
    const xmlq::Status st = db_.LoadDocument("base.xml", base_);
    if (!st.ok()) *error = st.ToString();
    return st.ok();
  }

  void Check(Checker* c) override {
    auto report = db_.Report("base.xml");
    c->Expect(report.ok() && report->node_count == base_nodes_,
              "Report().node_count equals the reference scanner's count");
    PrepareRound(0);
    for (const Doc& d : docs_) {
      if (!db_.LoadDocument("check", d.text).ok()) {
        c->Expect(d.bad, "load " + d.query.text);
        continue;
      }
      auto rep = db_.Report("check");
      c->Expect(rep.ok() && rep->node_count == d.nodes,
                "Report().node_count equals the reference scanner's count");
      const std::string path = dir_ + "/check.xqpack";
      c->Expect(db_.Save("check", path).ok(), "save");
      c->Expect(db_.Open("check_snap", path).ok(), "open");
      std::string err;
      const std::string parsed = ToXmlOf("check", d.query.text, &err);
      const std::string opened = ToXmlOf("check_snap", d.query.text, &err);
      c->Same(parsed, d.query.expected, "reference vs parsed " + d.query.text);
      c->Same(opened, parsed, "snapshot-opened vs parsed " + d.query.text);
      c->Reparses(opened, d.query.text);
    }
    (void)db_.Remove("check");
    (void)db_.Remove("check_snap");
  }

  void PrepareRound(uint64_t round) override {
    docs_.clear();
    Rng rng(seed_ * 2654435761u + round);
    for (size_t s = 0; s < std::size(kSizes); ++s) {
      for (int kind = 0; kind < 3; ++kind) {
        Doc d;
        const uint64_t doc_seed = rng.Next();
        RefPath check;
        if (kind == 0) {
          d.text = GenerateAuction(doc_seed, kSizes[s]);
          check.steps = {Desc("person", {Has({Child("address")})}),
                         Child("name")};
        } else if (kind == 1) {
          d.text = GenerateBib(doc_seed, kSizes[s] / 180);
          check.steps = {Child("bib"),
                         Child("book", {Num({Child("price")}, Cmp::kGt, 100)}),
                         Child("title")};
        } else {
          d.text = GenerateRandomTree(doc_seed, kSizes[s]);
          check = RandomTreeCheck();
        }
        RefDoc ref;
        std::string err;
        if (!ref.Scan(d.text, &err)) {
          std::cerr << err << "\n";
          std::abort();
        }
        d.nodes = ref.node_count();
        d.query = MakeQuery(ref, check);
        docs_.push_back(std::move(d));
      }
    }
    // One document with non-ASCII element names, sized like the middle
    // size class; xmlq's parser rejects it (CHANGES.md, FOUND).
    docs_.push_back(bad_doc_);
  }

  void RunRound(RoundStats* s, TraceRecorder* trace) override {
    for (const Doc& d : docs_) {
      const uint64_t op = s->attempted++;
      const AllocCount a0 = AllocSnapshot();
      const auto t0 = Clock::now();
      xmlq::Status st;
      std::string xml;
      {
        Scope root(trace, "op", op);
        {
          Scope span(trace, "api.LoadDocument", op);
          st = db_.LoadDocument("doc", d.text);
        }
        if (st.ok()) {
          Scope span(trace, "api.Save", op);
          auto w = db_.Save("doc", path_);
          st = w.ok() ? xmlq::Status::Ok() : w.status();
        }
        if (st.ok()) {
          Scope span(trace, "api.Open", op);
          st = db_.Open("snap", path_);
        }
        if (st.ok()) {
          xmlq::Result<xmlq::exec::QueryResult> r = [&] {
            Scope span(trace, "api.QueryPath", op);
            return db_.QueryPath(d.query.text, "snap");
          }();
          if (r.ok()) {
            Scope span(trace, "api.ToXml", op);
            xml = Database::ToXml(*r);
          } else {
            st = r.status();
          }
        }
      }
      const double us = 1e6 * Since(t0);
      const AllocCount a1 = AllocSnapshot();
      if (st.ok() && xml == d.query.expected) {
        ++s->ok;
        s->latency_us.push_back(us);
        s->allocs.calls += (a1 - a0).calls;
        s->allocs.bytes += (a1 - a0).bytes;
        auto rep = db_.Report("doc");
        if (rep.ok()) store_bytes_ += StoreBytes(*rep);
        input_bytes_ += static_cast<double>(d.text.size());
      } else if (d.bad && !st.ok()) {
        // The expected failure: the parser's name productions are ASCII
        // only.
        ++s->failed;
      } else {
        ++s->wrong;
        std::cerr << "WRONG OUTPUT: ingest " << d.query.text << " "
                  << st.ToString() << "\n";
      }
    }
  }

  double StoreBytesPerInputByte() override {
    return input_bytes_ > 0 ? store_bytes_ / input_bytes_ : 0;
  }

  void Ladder(std::vector<Metric>* out, Checker* checker) override {
    LadderInput in{&db_, "base.xml", &base_, {}, {}, nullptr};
    for (const Query& q : base_queries_) in.queries.push_back(&q);
    in.flwor = "for $x in //person where $x/address return <c>{$x/name}</c>";
    RunLadder(in, out, checker);
  }

  const Database& database() const override { return db_; }

  void Finish() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  struct Doc {
    std::string text;
    Query query;
    size_t nodes = 0;
    bool bad = false;
  };
  static constexpr size_t kBaseBytes = 4'000'000;
  static constexpr size_t kSizes[] = {32'000, 128'000, 512'000};

  static RefPath RandomTreeCheck() {
    return RefPath{{Desc("group"), Child("leaf", {Has({Attr("k")})})}};
  }

  std::string ToXmlOf(const std::string& doc, const std::string& path,
                      std::string* err) {
    auto r = db_.QueryPath(path, doc);
    if (!r.ok()) {
      *err = r.status().ToString();
      return {};
    }
    return Database::ToXml(*r);
  }

  uint64_t seed_;
  std::string base_;
  size_t base_nodes_ = 0;
  std::vector<Query> base_queries_;
  std::string dir_;
  std::string path_;
  Doc bad_doc_;
  std::vector<Doc> docs_;
  double store_bytes_ = 0;
  double input_bytes_ = 0;
  Database db_;
};

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0 && argc % 2 == 1;
}

struct Round {
  RoundStats stats;
  double wall_s = 0;
  double ref_s = 0;  // the latest reference sample after this round
};

/// Runs whole rounds until `seconds` have passed (round time plus the
/// untimed per-round preparation), timing the reference computation after
/// a round whenever 0.25 s have passed since its last sample. With a
/// recorder, every second round is traced, so that traced and untraced
/// rounds see the same host phases.
std::vector<Round> RunRounds(Workload& w, double seconds, Reference& ref,
                             TraceRecorder* trace, uint64_t first_round) {
  std::vector<Round> rounds;
  double ref_s = 0;
  const auto start = Clock::now();
  auto last_sample = start;
  while (Since(start) < seconds) {
    Round r;
    w.PrepareRound(first_round + rounds.size());
    const auto t0 = Clock::now();
    w.RunRound(&r.stats, rounds.size() % 2 == 1 ? trace : nullptr);
    r.wall_s = Since(t0);
    if (rounds.empty() || Since(last_sample) >= 0.25) {
      ref_s = ref.Sample();
      last_sample = Clock::now();
    }
    r.ref_s = ref_s;
    rounds.push_back(std::move(r));
  }
  return rounds;
}

/// Runs warm-up rounds until two whole rounds pass without a plan-cache
/// re-plan (at least kMinWarmRounds, at most kMaxWarmRounds or 20 s). The
/// first re-plans come only after an entry has collected several sampled
/// profiles, hence the minimum.
/// Returns the number of rounds run.
uint64_t WarmUp(Workload& w, Checker* checker) {
  constexpr uint64_t kMinWarmRounds = 6;
  constexpr uint64_t kMaxWarmRounds = 16;
  const auto start = Clock::now();
  uint64_t rounds = 0, quiet = 0;
  uint64_t replans = w.database().plan_cache_stats().replans;
  while (rounds < kMaxWarmRounds && Since(start) < 20) {
    RoundStats warm;
    w.PrepareRound(rounds);
    w.RunRound(&warm, nullptr);
    checker->Expect(warm.wrong == 0, "warm-up round outputs");
    ++rounds;
    const uint64_t now = w.database().plan_cache_stats().replans;
    quiet = now == replans ? quiet + 1 : 0;
    replans = now;
    if (rounds >= kMinWarmRounds && quiet >= 2) break;
  }
  return rounds;
}

/// The end-to-end figures of a set of rounds. Each round's times are
/// scaled by its own speed factor, Reference::kNominalSeconds over the
/// median of the reference samples of the five rounds around it, so that a
/// host speed phase moves them little. Throughput and allocations are
/// totals over all rounds: the plan cache keeps re-planning some entries
/// (wire_mix), and totals average over its engine changes.
struct Summary {
  uint64_t attempted = 0, ok = 0, failed = 0, wrong = 0;
  double throughput = 0;          // normalized ops/s
  double p50_us = 0, p90_us = 0;  // normalized, over all successful ops
  double allocs_per_op = 0, alloc_bytes_per_op = 0;
  double raw_throughput = 0, raw_p50_us = 0, mean_raw_us = 0;
};

Summary Summarize(const std::vector<Round>& rounds) {
  Summary s;
  std::vector<double> lat, raw_lat;
  double wall = 0, scaled_wall = 0;
  AllocCount allocs;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundStats& r = rounds[i].stats;
    s.attempted += r.attempted;
    s.ok += r.ok;
    s.failed += r.failed;
    s.wrong += r.wrong;
    std::vector<double> near;
    for (size_t j = i >= 2 ? i - 2 : 0; j < std::min(rounds.size(), i + 3); ++j) {
      near.push_back(rounds[j].ref_s);
    }
    const double f = Reference::kNominalSeconds / Quantile(near, 0.5);
    wall += rounds[i].wall_s;
    scaled_wall += rounds[i].wall_s * f;
    for (double us : r.latency_us) {
      lat.push_back(us * f);
      raw_lat.push_back(us);
    }
    allocs.calls += r.allocs.calls;
    allocs.bytes += r.allocs.bytes;
  }
  const double ok = static_cast<double>(std::max<uint64_t>(s.ok, 1));
  s.throughput = static_cast<double>(s.ok) / scaled_wall;
  s.raw_throughput = static_cast<double>(s.ok) / wall;
  s.p50_us = Quantile(lat, 0.5);
  s.p90_us = Quantile(lat, 0.9);
  s.raw_p50_us = Quantile(raw_lat, 0.5);
  s.mean_raw_us = raw_lat.empty()
                      ? 0
                      : std::accumulate(raw_lat.begin(), raw_lat.end(), 0.0) /
                            static_cast<double>(raw_lat.size());
  s.allocs_per_op = static_cast<double>(allocs.calls) / ok;
  s.alloc_bytes_per_op = static_cast<double>(allocs.bytes) / ok;
  return s;
}

void WriteSpans(const std::string& path,
                const std::vector<const TraceRecorder*>& recorders) {
  std::ofstream out(path);
  for (size_t r = 0; r < recorders.size(); ++r) {
    for (const Span& s : recorders[r]->spans()) {
      out << "{\"thread\": " << r << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
    }
  }
}

int Main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: xmlq_perfbench --workload "
                 "xmark_twig|wire_mix|ingest --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
  }
  std::unique_ptr<Workload> w;
  WireWorkload* wire = nullptr;
  if (args.workload == "xmark_twig") {
    w = std::make_unique<XmarkWorkload>(args.seed);
  } else if (args.workload == "wire_mix") {
    auto p = std::make_unique<WireWorkload>(args.seed);
    wire = p.get();
    w = std::move(p);
  } else if (args.workload == "ingest") {
    w = std::make_unique<IngestWorkload>(args.seed);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  std::filesystem::create_directories(".bench_out");

  std::string error;
  if (!w->Prepare(&error)) {
    std::cerr << "prepare: " << error << "\n";
    return 1;
  }
  const double prepare_s = Since(process_start);
  // The benchmark's own resident memory: the inputs, the expected outputs
  // and the reference computation's table, after one sample. peak_rss_mb is
  // the peak beyond it, the program's share. The scanners' freed memory is
  // handed back first, so that the program's allocations cannot reuse it
  // unseen.
  ::malloc_trim(0);
  Reference ref;
  ref.Sample();
  const double own_rss_mb = StatusMb("VmRSS:");
  const double own_hwm_mb = StatusMb("VmHWM:");
  const auto setup_start = Clock::now();
  if (!w->Setup(&error)) {
    std::cerr << "setup: " << error << "\n";
    return 1;
  }
  const double setup_raw_s = Since(setup_start);

  Checker checker;
  w->Check(&checker);
  // Warm-up: the plan cache re-plans entries whose sampled q-error stays
  // high (cache::CacheConfig feedback), which changes engines a few rounds
  // in. Measuring starts once two whole rounds have passed without a
  // re-plan, so every run measures the settled plans.
  const uint64_t warm_rounds = WarmUp(*w, &checker);

  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  if (!args.trace) {
    const Summary s =
        Summarize(RunRounds(*w, args.seconds, ref, nullptr, warm_rounds));
    attempted = s.attempted;
    failed = s.failed + s.wrong;
    checker.Expect(s.wrong == 0, "every op's output equals the reference");
    metrics = {
        {"setup_s", setup_raw_s * ref.TimeFactor(), "s"},
        {"throughput", s.throughput, "ops/s-at-ref"},
        {"latency_p50", s.p50_us, "us-at-ref"},
        {"latency_p90", s.p90_us, "us-at-ref"},
        {"allocs_per_op", s.allocs_per_op, "count"},
        {"alloc_bytes_per_op", s.alloc_bytes_per_op, "B"},
        {"peak_rss_mb", StatusMb("VmHWM:") - own_rss_mb, "MB"},
        {"store_bytes_per_input_byte", w->StoreBytesPerInputByte(), "B/B"},
    };
    std::cerr << "raw: setup_s=" << setup_raw_s << " prepare_s=" << prepare_s
              << " throughput=" << s.raw_throughput << " p50_us=" << s.raw_p50_us
              << " ref_ms=" << 1e3 * ref.Median() << " own_rss_mb=" << own_rss_mb
              << " own_hwm_mb=" << own_hwm_mb << " ops=" << s.ok
              << " warm_rounds=" << warm_rounds
              << " replans=" << w->database().plan_cache_stats().replans
              << " checks=" << checker.checks << "\n";
  } else {
    // Untraced and traced rounds alternate in the same process: the traced
    // rounds' span totals are compared with the untraced mean op latency,
    // and the difference is the tracing overhead.
    TraceRecorder main_rec;
    std::vector<Round> plain_rounds, traced_rounds;
    for (Round& r : RunRounds(*w, args.seconds, ref, &main_rec, warm_rounds)) {
      (plain_rounds.size() == traced_rounds.size() ? plain_rounds
                                                   : traced_rounds)
          .push_back(std::move(r));
    }
    const Summary plain = Summarize(plain_rounds);
    const Summary traced = Summarize(traced_rounds);
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + plain.wrong + traced.failed + traced.wrong;
    checker.Expect(plain.wrong + traced.wrong == 0,
                   "every op's output equals the reference");
    std::vector<const TraceRecorder*> recs = {&main_rec};
    if (wire) {
      for (const TraceRecorder* r : wire->recorders()) recs.push_back(r);
    }
    std::map<std::string, int64_t> self;
    uint64_t ops = 0;
    for (const TraceRecorder* r : recs) {
      for (const auto& [name, ns] : SelfTimes(r->spans())) self[name] += ns;
      for (const Span& s : r->spans()) ops += s.parent < 0;
    }
    const double n_ops = static_cast<double>(std::max<uint64_t>(ops, 1));
    const double mean_plain = plain.mean_raw_us;
    double total_us = 0;
    static const std::vector<std::pair<std::string, std::string>> kSpans = {
        {"op", "bench"},
        {"api.Query", "api_query"},
        {"api.ToXml", "api_toxml"},
        {"net.Client.Query", "net_client_query"},
        {"api.LoadDocument", "api_load_document"},
        {"api.Save", "api_save"},
        {"api.Open", "api_open"},
        {"api.QueryPath", "api_query_path"}};
    for (const auto& [span, label] : kSpans) {
      const double us = self[span] / 1e3 / n_ops;
      total_us += us;
      metrics.push_back({"trace.self_us." + label, us, "us"});
    }
    metrics.push_back({"trace.layer_total_us", total_us, "us"});
    metrics.push_back({"trace.untraced_op_us", mean_plain, "us"});
    metrics.push_back({"trace.overhead_pct",
                       mean_plain > 0 ? 100 * (total_us / mean_plain - 1) : 0,
                       "%"});
    const std::string trace_path = ".bench_out/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".jsonl";
    const xmlq::cache::CacheStats cs = w->database().plan_cache_stats();
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    metrics.push_back(
        {"cache.hit_ratio", lookups > 0 ? cs.hits / lookups : 0, "ratio"});
    metrics.push_back(
        {"cache.evictions", static_cast<double>(cs.evictions), "count"});
    w->Ladder(&metrics, &checker);
    WriteSpans(trace_path, recs);
  }
  w->Finish();
  PrintResult(checker.ok, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
