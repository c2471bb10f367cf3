#include "src/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/json.h"

namespace flicker {
namespace obs {

namespace {

thread_local Tracer* g_tracer = nullptr;

// Chrome trace timestamps are microseconds; ours are integer nanoseconds,
// so three decimals render them exactly (no float drift across runs).
void AppendMicros(std::string* out, uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out->append(buf);
}

void AppendArgs(std::string* out, uint64_t session_id, const std::vector<SpanArg>& args) {
  out->append("\"args\":{\"session\":");
  AppendJsonString(out, std::to_string(session_id));
  for (const SpanArg& arg : args) {
    out->push_back(',');
    AppendJsonString(out, arg.key);
    out->push_back(':');
    AppendJsonString(out, arg.value);
  }
  out->push_back('}');
}

}  // namespace

Tracer* GlobalTracer() { return g_tracer; }

void InstallGlobalTracer(Tracer* tracer) { g_tracer = tracer; }

uint64_t Tracer::BeginSpan(const char* category, std::string name) {
  SpanRecord span;
  span.id = spans_.size() + instants_.size() + 1;
  span.parent_id = stack_.empty() ? 0 : stack_.back();
  span.pid = current_pid_;
  span.session_id = current_session_;
  span.start_ns = NowNs(clock_);
  span.end_ns = span.start_ns;
  span.open = true;
  span.category = category;
  span.name = std::move(name);
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::EndSpan(uint64_t id) {
  // Single-threaded stack discipline: the span being ended is normally the
  // innermost open one. A mismatched end (a bug in instrumentation) closes
  // everything above it too, so the tree stays well-formed.
  while (!stack_.empty()) {
    uint64_t top = stack_.back();
    stack_.pop_back();
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->id == top && it->open) {
        it->end_ns = NowNs(clock_);
        it->open = false;
        break;
      }
    }
    if (top == id) {
      break;
    }
  }
}

void Tracer::AddSpanArg(uint64_t id, std::string key, std::string value) {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->args.push_back(SpanArg{std::move(key), std::move(value)});
      return;
    }
  }
}

uint64_t Tracer::EmitComplete(const char* category, std::string name, uint64_t start_ns,
                              uint64_t end_ns, std::vector<SpanArg> args) {
  SpanRecord span;
  span.id = spans_.size() + instants_.size() + 1;
  span.parent_id = stack_.empty() ? 0 : stack_.back();
  span.pid = current_pid_;
  span.session_id = current_session_;
  span.start_ns = start_ns;
  span.end_ns = end_ns < start_ns ? start_ns : end_ns;
  span.open = false;
  span.category = category;
  span.name = std::move(name);
  span.args = std::move(args);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Instant(const char* category, std::string name, std::vector<SpanArg> args) {
  InstantRecord instant;
  instant.ts_ns = NowNs(clock_);
  instant.pid = current_pid_;
  instant.session_id = current_session_;
  instant.category = category;
  instant.name = std::move(name);
  instant.args = std::move(args);
  instants_.push_back(std::move(instant));
}

uint64_t Tracer::SetSession(uint64_t session_id) {
  uint64_t previous = current_session_;
  current_session_ = session_id;
  return previous;
}

uint64_t Tracer::SetProcess(uint64_t pid) {
  uint64_t previous = current_pid_;
  current_pid_ = pid;
  return previous;
}

Tracer Tracer::Fork() const {
  Tracer forked(clock_);
  forked.current_session_ = current_session_;
  forked.current_pid_ = current_pid_;
  return forked;
}

void Tracer::Append(Tracer&& forked) {
  // Ids count spans and instants together in creation order, so every
  // record the fork made gets this tracer's record count on top.
  const uint64_t offset = spans_.size() + instants_.size();
  const uint64_t root_parent = stack_.empty() ? 0 : stack_.back();
  for (SpanRecord& span : forked.spans_) {
    span.id += offset;
    span.parent_id = span.parent_id == 0 ? root_parent : span.parent_id + offset;
    spans_.push_back(std::move(span));
  }
  for (InstantRecord& instant : forked.instants_) {
    instants_.push_back(std::move(instant));
  }
}

std::string Tracer::ExportChromeTrace() const {
  // One sortable row per event: (timestamp, creation order) fully determines
  // the output order, so same-seed runs serialize byte-identically.
  struct Row {
    uint64_t ts_ns;
    uint64_t order;
    const SpanRecord* span;
    const InstantRecord* instant;
  };
  std::vector<Row> rows;
  rows.reserve(spans_.size() + instants_.size());
  for (const SpanRecord& span : spans_) {
    rows.push_back(Row{span.start_ns, span.id, &span, nullptr});
  }
  uint64_t instant_order = 0;
  for (const InstantRecord& instant : instants_) {
    // Instants interleave after any span that starts at the same tick.
    rows.push_back(Row{instant.ts_ns, (1ull << 60) + instant_order++, nullptr, &instant});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.ts_ns != b.ts_ns) {
      return a.ts_ns < b.ts_ns;
    }
    return a.order < b.order;
  });

  std::string out;
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const Row& row : rows) {
    if (!first) {
      out.append(",\n");
    }
    first = false;
    if (row.span != nullptr) {
      const SpanRecord& span = *row.span;
      out.append("{\"ph\":\"X\",\"pid\":");
      out.append(std::to_string(span.pid));
      out.append(",\"tid\":");
      out.append(std::to_string(span.session_id));
      out.append(",\"ts\":");
      AppendMicros(&out, span.start_ns);
      out.append(",\"dur\":");
      AppendMicros(&out, span.end_ns - span.start_ns);
      out.append(",\"cat\":");
      AppendJsonString(&out, span.category);
      out.append(",\"name\":");
      AppendJsonString(&out, span.name);
      out.push_back(',');
      AppendArgs(&out, span.session_id, span.args);
      out.push_back('}');
    } else {
      const InstantRecord& instant = *row.instant;
      out.append("{\"ph\":\"i\",\"s\":\"t\",\"pid\":");
      out.append(std::to_string(instant.pid));
      out.append(",\"tid\":");
      out.append(std::to_string(instant.session_id));
      out.append(",\"ts\":");
      AppendMicros(&out, instant.ts_ns);
      out.append(",\"cat\":");
      AppendJsonString(&out, instant.category);
      out.append(",\"name\":");
      AppendJsonString(&out, instant.name);
      out.push_back(',');
      AppendArgs(&out, instant.session_id, instant.args);
      out.push_back('}');
    }
  }
  out.append("\n]}\n");
  return out;
}

}  // namespace obs
}  // namespace flicker
