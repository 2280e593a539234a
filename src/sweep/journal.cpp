#include "sweep/journal.hpp"

#include "obs/metrics.hpp"
#include "report/atomic_file.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace stamp::sweep {
namespace {

/// Line frame: {"crc":"xxxxxxxx","rec":<body>}\n. The prefix is fixed-width
/// so the body's byte range is known without parsing — the checksum can be
/// verified before the JSON parser ever sees attacker^Wcrash-controlled
/// bytes.
constexpr std::string_view kCrcPrefix = "{\"crc\":\"";    // 8 bytes
constexpr std::string_view kRecInfix = "\",\"rec\":";     // 8 bytes
constexpr std::size_t kHexLen = 8;
constexpr std::size_t kBodyOffset =
    kCrcPrefix.size() + kHexLen + kRecInfix.size();  // 24

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

std::string hex8(std::uint32_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(kHexLen, '0');
  for (std::size_t i = 0; i < kHexLen; ++i)
    out[kHexLen - 1 - i] = kDigits[(v >> (4 * i)) & 0xFu];
  return out;
}

bool parse_hex8(std::string_view s, std::uint32_t& out) noexcept {
  if (s.size() != kHexLen) return false;
  std::uint32_t v = 0;
  for (const char ch : s) {
    v <<= 4;
    if (ch >= '0' && ch <= '9')
      v |= static_cast<std::uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f')
      v |= static_cast<std::uint32_t>(ch - 'a' + 10);
    else
      return false;
  }
  out = v;
  return true;
}

std::string frame(std::string_view body) {
  std::string line;
  line.reserve(kBodyOffset + body.size() + 2);
  line += kCrcPrefix;
  line += hex8(crc32(body));
  line += kRecInfix;
  line += body;
  line += "}\n";
  return line;
}

/// Unframe one line (no trailing newline). Returns the body on success,
/// empty optional when the frame or checksum is bad.
bool unframe(std::string_view line, std::string_view& body) noexcept {
  if (line.size() < kBodyOffset + 1) return false;
  if (line.substr(0, kCrcPrefix.size()) != kCrcPrefix) return false;
  if (line.substr(kCrcPrefix.size() + kHexLen, kRecInfix.size()) != kRecInfix)
    return false;
  if (line.back() != '}') return false;
  std::uint32_t want = 0;
  if (!parse_hex8(line.substr(kCrcPrefix.size(), kHexLen), want)) return false;
  body = line.substr(kBodyOffset, line.size() - kBodyOffset - 1);
  return crc32(body) == want;
}

void write_record_body(report::JsonWriter& w, const SweepRecord& rec) {
  w.begin_object();
  w.kv("index", static_cast<long long>(rec.index));
  w.key("params").begin_array();
  for (const double v : rec.params) w.value(v);
  w.end_array();
  w.kv("processes", rec.processes);
  w.kv("feasible", rec.feasible);
  w.key("metrics").begin_object();
  w.kv("D", rec.metrics.D);
  w.kv("PDP", rec.metrics.PDP);
  w.kv("EDP", rec.metrics.EDP);
  w.kv("ED2P", rec.metrics.ED2P);
  w.end_object();
  w.key("models").begin_array();
  for (const double v : rec.classical) w.value(v);
  w.end_array();
  w.end_object();
}

/// Decode a parsed record body into `rec`, validating it against the grid.
/// Axis values are replaced by the grid's exact doubles once they match
/// canonically, so a resumed artifact serializes the same bytes as a fresh
/// one. Returns false on any inconsistency (the caller treats the line — and
/// the rest of the file — as corrupt).
bool decode_record(const report::JsonValue& v, const SweepConfig& cfg,
                   SweepRecord& rec) {
  try {
    const report::JsonValue* index = v.find("index");
    if (index == nullptr) return false;
    const double di = index->as_number();
    if (di < 0 || di >= static_cast<double>(cfg.grid.size()) ||
        di != static_cast<double>(static_cast<std::size_t>(di)))
      return false;
    rec.index = static_cast<std::size_t>(di);

    const std::vector<double> grid_params = cfg.grid.point(rec.index);
    const report::JsonValue* params = v.find("params");
    if (params == nullptr) return false;
    const std::vector<report::JsonValue>& items = params->items();
    if (items.size() != grid_params.size()) return false;
    for (std::size_t a = 0; a < items.size(); ++a)
      if (report::format_number(items[a].as_number()).view() !=
          report::format_number(grid_params[a]).view())
        return false;
    rec.params = grid_params;

    const report::JsonValue* processes = v.find("processes");
    const report::JsonValue* feasible = v.find("feasible");
    const report::JsonValue* metrics = v.find("metrics");
    const report::JsonValue* models = v.find("models");
    if (processes == nullptr || feasible == nullptr || metrics == nullptr ||
        models == nullptr)
      return false;
    rec.processes = static_cast<int>(processes->as_number());
    rec.feasible = feasible->as_bool();

    const report::JsonValue* D = metrics->find("D");
    const report::JsonValue* PDP = metrics->find("PDP");
    const report::JsonValue* EDP = metrics->find("EDP");
    const report::JsonValue* ED2P = metrics->find("ED2P");
    if (D == nullptr || PDP == nullptr || EDP == nullptr || ED2P == nullptr)
      return false;
    rec.metrics.D = D->as_number();
    rec.metrics.PDP = PDP->as_number();
    rec.metrics.EDP = EDP->as_number();
    rec.metrics.ED2P = ED2P->as_number();

    const std::vector<report::JsonValue>& model_items = models->items();
    if (model_items.size() != rec.classical.size()) return false;
    for (std::size_t k = 0; k < model_items.size(); ++k)
      rec.classical[k] = model_items[k].as_number();
    return true;
  } catch (const std::logic_error&) {
    return false;  // kind mismatch on some member: corrupt record
  }
}

/// True when an intact header record matches `cfg`.
bool header_matches(const report::JsonValue& v, const SweepConfig& cfg) {
  try {
    const report::JsonValue* schema = v.find("schema");
    const report::JsonValue* workload = v.find("workload");
    const report::JsonValue* objective = v.find("objective");
    const report::JsonValue* axes = v.find("axes");
    const report::JsonValue* points = v.find("grid_points");
    if (schema == nullptr || workload == nullptr || objective == nullptr ||
        axes == nullptr || points == nullptr)
      return false;
    if (schema->as_string() != kJournalSchema) return false;
    if (workload->as_string() != cfg.workload) return false;
    if (objective->as_string() != to_string(cfg.objective)) return false;
    if (points->as_number() != static_cast<double>(cfg.grid.size()))
      return false;
    const std::vector<report::JsonValue>& names = axes->items();
    if (names.size() != cfg.grid.axes().size()) return false;
    for (std::size_t a = 0; a < names.size(); ++a)
      if (names[a].as_string() != cfg.grid.axes()[a].name) return false;
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes)
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string Journal::header_line(const SweepConfig& cfg) {
  std::ostringstream body;
  report::JsonWriter w(body);
  w.begin_object();
  w.kv("schema", kJournalSchema);
  w.kv("workload", cfg.workload);
  w.kv("objective", to_string(cfg.objective));
  w.key("axes").begin_array();
  for (const GridAxis& a : cfg.grid.axes()) w.value(a.name);
  w.end_array();
  w.kv("grid_points", static_cast<long long>(cfg.grid.size()));
  w.end_object();
  return frame(body.str());
}

std::string Journal::record_line(const SweepRecord& rec) {
  std::ostringstream body;
  report::JsonWriter w(body);
  write_record_body(w, rec);
  return frame(body.str());
}

ResumeState ResumeState::load(const std::string& path,
                              const SweepConfig& cfg) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("ResumeState: cannot read journal '" + path +
                             "'");
  // One read into a string sized from the file; the frames are parsed in
  // place. Something that is not a regular file reads as empty, and a file
  // that shrank since it was sized keeps what was read.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text(ec ? 0 : static_cast<std::size_t>(size), '\0');
  is.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(is.gcount()));

  ResumeState out;
  out.completed_.assign(cfg.grid.size(), 0);
  out.records_.resize(cfg.grid.size());

  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn final append: drop the tail
    const std::string_view line(text.data() + pos, nl - pos);
    std::string_view body;
    if (!unframe(line, body)) break;  // checksum or frame failure: drop
    report::JsonValue parsed;
    try {
      parsed = report::JsonValue::parse(body);
    } catch (const report::JsonParseError&) {
      break;  // checksum passed but JSON is bad: treat as corruption
    }
    if (!saw_header) {
      // An intact first line that names a *different* sweep is a user error
      // (wrong --resume file), not crash damage — refuse loudly instead of
      // silently starting over.
      if (!header_matches(parsed, cfg))
        throw std::runtime_error(
            "ResumeState: journal '" + path +
            "' does not match this sweep configuration (schema, workload, "
            "objective, axes, or grid size differ)");
      saw_header = true;
      pos = nl + 1;
      out.valid_bytes_ = pos;
      continue;
    }
    SweepRecord rec;
    if (!decode_record(parsed, cfg, rec)) break;
    if (out.completed_[rec.index] == 0) {  // duplicates replay once
      out.completed_[rec.index] = 1;
      out.records_[rec.index] = std::move(rec);
      ++out.completed_points_;
    }
    pos = nl + 1;
    out.valid_bytes_ = pos;
  }
  out.truncated_ = out.valid_bytes_ < text.size();
  return out;
}

Journal::Journal(std::string path, const SweepConfig& cfg,
                 const ResumeState* resume, std::size_t sync_every)
    : path_(std::move(path)), sync_every_(sync_every > 0 ? sync_every : 1) {
  const bool continue_existing = resume != nullptr && resume->valid_bytes() > 0;
  if (continue_existing) {
    // Drop the invalid tail (torn append, corruption) before appending so
    // the file is a clean validated prefix again.
    std::error_code ec;
    std::filesystem::resize_file(path_, resume->valid_bytes(), ec);
    if (ec)
      throw std::runtime_error("Journal: cannot truncate '" + path_ +
                               "' to its validated prefix: " + ec.message());
    os_.open(path_, std::ios::binary | std::ios::app);
  } else {
    os_.open(path_, std::ios::binary | std::ios::trunc);
  }
  if (!os_)
    throw std::runtime_error("Journal: cannot open '" + path_ +
                             "' for writing");
  if (!continue_existing) {
    os_ << header_line(cfg);
    os_.flush();
    if (!os_.good())
      throw std::runtime_error("Journal: writing header to '" + path_ +
                               "' failed");
  }
#ifndef _WIN32
  sync_fd_ = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  if (sync_fd_ < 0)
    throw std::runtime_error("Journal: cannot open '" + path_ +
                             "' for fsync: " + std::strerror(errno));
#endif
  // Make the header (or the truncation) durable before any point completes:
  // a journal that can lose its own header on crash restarts from scratch.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sync_locked();
  }
  // A freshly created journal file is only durable once its directory entry
  // is: fsync the containing directory, or a crash can make the whole file
  // vanish despite every record having been fsynced.
  if (!continue_existing) report::fsync_parent_directory(path_);
}

Journal::~Journal() {
  try {
    std::lock_guard<std::mutex> lock(mutex_);
    sync_locked();
  } catch (...) {
    // Destructor: the failure was already observable via append/sync.
  }
#ifndef _WIN32
  if (sync_fd_ >= 0) ::close(sync_fd_);
#endif
}

void Journal::append(const SweepRecord& rec) {
  const std::string line = record_line(rec);
  std::lock_guard<std::mutex> lock(mutex_);
  os_ << line;
  if (!os_.good())
    throw std::runtime_error("Journal: appending to '" + path_ +
                             "' failed (disk full or I/O error)");
  appended_.fetch_add(1, std::memory_order_relaxed);
  if (++since_sync_ >= sync_every_) sync_locked();
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().counter("sweep.journal.records").add();
}

void Journal::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
}

void Journal::sync_locked() {
  since_sync_ = 0;
  os_.flush();
  if (!os_.good())
    throw std::runtime_error("Journal: flushing '" + path_ + "' failed");
#ifndef _WIN32
  if (sync_fd_ >= 0 && ::fsync(sync_fd_) != 0)
    throw std::runtime_error("Journal: fsync of '" + path_ +
                             "' failed: " + std::strerror(errno));
#endif
}

std::uint64_t Journal::appended() const noexcept {
  return appended_.load(std::memory_order_relaxed);
}

}  // namespace stamp::sweep
