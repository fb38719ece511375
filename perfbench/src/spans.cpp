#include "spans.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

thread_local std::uint32_t t_current = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

std::uint32_t SpanLog::open() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::close(SpanRecord rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(rec);
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& r : done_)
    if (name == r.name) out.push_back(r.seconds());
  return out;
}

double SpanLog::total_seconds(std::string_view name) const {
  double s = 0.0;
  for (double d : durations(name)) s += d;
  return s;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

bool SpanLog::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < done_.size(); ++i) {
    const SpanRecord& r = done_[i];
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"thread\":%u}%s\n",
                 r.id, r.parent, r.name, r.start_s, r.end_s, r.thread,
                 i + 1 < done_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

Span::Span(SpanLog& log, const char* name) : Span(log, name, t_current) {}

Span::Span(SpanLog& log, const char* name, std::uint32_t parent)
    : log_(log) {
  if (log_.enabled()) {
    rec_.id = log_.open();
    rec_.parent = parent;
    rec_.name = name;
    rec_.thread = thread_index();
    rec_.start_s = log_.now_s();
    saved_current_ = t_current;
    t_current = rec_.id;
  }
  t0_ = Clock::now();
}

Span::~Span() {
  if (rec_.id == 0) return;
  rec_.end_s = log_.now_s();
  t_current = saved_current_;
  log_.close(rec_);
}

}  // namespace perfbench
